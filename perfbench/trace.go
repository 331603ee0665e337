package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"osdiversity"
	"osdiversity/internal/epoch"
	"osdiversity/internal/gather"
	"osdiversity/internal/httpapi"
	"osdiversity/internal/server"
	"osdiversity/internal/vulndb"
)

// The traced run hosts the same handlers the binaries serve — server.New
// / NewResident and gather.New over loopback listeners — in this
// process, replays a prefix of every workload's sequence serially on one
// connection, and records a span at each layer boundary the benchmark
// can see from outside the program: the client request, the front
// handler's ServeHTTP, every gateway leg (through the http.RoundTripper
// passed as gather.Config.HTTP) and the shard ServeHTTP under it. Calls
// that run inside the program (relstore queries, marshalling) are timed
// separately on the same inputs. Every trace run replays all four
// workloads, so any --workload prints the whole per-layer table.

// Replay prefix lengths: enough samples for stable medians, small enough
// that the whole traced run stays well under a minute.
const (
	traceHotReqs     = 4000
	traceSQLReqs     = 48
	traceGatewayReqs = 300
	traceCycles      = 3
	traceReps        = 3
)

// span is one timed interval at a layer boundary.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"` // -1 for a request's root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; off, it records nothing.
type tracer struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	spans []span
	req   int // the request being replayed (replay is serial)
	front int // its front ServeHTTP span, parent of gateway legs
}

func (t *tracer) begin(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Req: t.req, Parent: parent,
		Start: time.Since(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) setOn(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

const spanHeader = "X-Perfbench-Span"

// wrap records a span around h. A request carrying spanHeader (a gateway
// leg) nests under that span; any other request is the current replayed
// request's front span.
func (t *tracer) wrap(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, isLeg := -1, false
		if v := r.Header.Get(spanHeader); v != "" {
			parent, _ = strconv.Atoi(v)
			isLeg = true
		}
		id := t.begin(name, parent)
		if !isLeg && id >= 0 {
			t.mu.Lock()
			t.front = id
			t.mu.Unlock()
		}
		h.ServeHTTP(w, r)
		t.end(id)
	})
}

// legTransport times every gateway leg and tells the shard handler which
// span it runs under.
type legTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (lt *legTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	lt.t.mu.Lock()
	parent := lt.t.front
	lt.t.mu.Unlock()
	name := "gather.leg"
	if r.URL.Path == "/readyz" {
		name = "gather.probe"
	}
	id := lt.t.begin(name, parent)
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, strconv.Itoa(id))
	resp, err := lt.base.RoundTrip(r)
	if err == nil {
		// The leg ends when its body is read; buffer it here so the span
		// covers the transfer.
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
	}
	lt.t.end(id)
	return resp, err
}

// loopback serves h on an ephemeral 127.0.0.1 port until closed.
type loopback struct {
	srv *http.Server
	url string
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String()}
	go lb.srv.Serve(ln)
	return lb, nil
}

func (lb *loopback) close() { lb.srv.Close() }

// replayed is what one serial replay returned.
type replayed struct {
	clientUS []float64
	bytes    int
	bodies   [][]byte
}

// replay sends reqs serially on one connection, one traced request each.
func replay(t *tracer, base string, reqs []Req, keep bool) (*replayed, error) {
	c := newClient(base, 1)
	defer c.close()
	out := &replayed{}
	var buf bytes.Buffer
	for i := range reqs {
		t.mu.Lock()
		t.req++
		t.front = -1
		t.mu.Unlock()
		id := t.begin("client", -1)
		t0 := time.Now()
		status, _, err := c.do(&reqs[i], &buf)
		el := time.Since(t0)
		t.end(id)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("replay %s %s: status %d: %v %.200s", reqs[i].Method, reqs[i].Path, status, err, buf.Bytes())
		}
		out.clientUS = append(out.clientUS, float64(el)/1e3)
		out.bytes += buf.Len()
		if keep {
			out.bodies = append(out.bodies, bytes.Clone(buf.Bytes()))
		}
	}
	return out, nil
}

// timeMS runs f reps times and returns the median wall time in ms.
func timeMS(reps int, f func() error) (float64, error) {
	var ms []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return median(ms), nil
}

// selfTimes returns, per span with the given name, its duration minus the
// union of its children's intervals, in ms.
func selfTimes(spans []span, name string) []float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b span) int { return int(a.Start - b.Start) })
		covered, end := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, end), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		out = append(out, float64(s.End-s.Start-covered)/1e6)
	}
	return out
}

func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// heapMB reads the heap-object bytes from runtime/metrics, in MB.
func heapMB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

func gcCPUShare() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[1].Value.Float64() == 0 {
		return 0
	}
	return s[0].Value.Float64() / s[1].Value.Float64()
}

// runTrace is the --trace 1 run: the per-layer table.
func runTrace(seed uint64, in *inputs, runDir string) (*result, any, error) {
	t := &tracer{t0: time.Now()}
	var heapPeak float64
	sampleHeap := func() { heapPeak = max(heapPeak, heapMB()) }
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	attempted := 0

	// Snapshot load, cold sweep, recommendation, attack.
	load := func() (*osdiversity.Analysis, error) {
		return osdiversity.LoadSnapshot(in.snapshot, osdiversity.WithParallelism(2))
	}
	ms, err := timeMS(5, func() error {
		a, err := load()
		if err == nil {
			a.Close()
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	put("snapshot.load_ms", ms, "ms")
	ref, err := Generate("refresh", seed)
	if err != nil {
		return nil, nil, err
	}
	var sweep, recMS, atkMS []float64
	for i := 0; i < traceReps; i++ {
		a, err := load()
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		for _, r := range ref.Seq {
			if strings.HasPrefix(r.Path, "/api/recommend") || strings.HasPrefix(r.Path, "/api/attack") {
				continue // timed on their own below
			}
			if _, err := buildDoc(a, r); err != nil {
				return nil, nil, err
			}
		}
		sweep = append(sweep, float64(time.Since(t0))/1e6)
		t0 = time.Now()
		spec, err := a.CanonRecommendSpec(osdiversity.RecommendSpec{})
		if err == nil {
			_, err = a.Recommend(spec)
		}
		recMS = append(recMS, float64(time.Since(t0))/1e6)
		t0 = time.Now()
		if err == nil {
			_, err = a.SimulateAttack("configuration", []string{"Debian", "OpenBSD", "Solaris", "Windows2003"}, 1, 200)
		}
		atkMS = append(atkMS, float64(time.Since(t0))/1e6)
		a.Close()
		if err != nil {
			return nil, nil, err
		}
	}
	put("core.cold_sweep_ms", median(sweep), "ms")
	put("scenario.recommend_ms", median(recMS), "ms")
	put("attack.simulate_ms", median(atkMS), "ms")
	sampleHeap()

	// Delta apply, epoch validation, snapshot save.
	base, err := load()
	if err != nil {
		return nil, nil, err
	}
	var applied *osdiversity.Analysis
	ms, err = timeMS(traceReps, func() error {
		applied, err = base.ApplyDelta([]string{in.delta()})
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	put("delta.apply_ms", ms, "ms")
	if ms, err = timeMS(traceReps, func() error { return epoch.DefaultValidate(applied) }); err != nil {
		return nil, nil, err
	}
	put("epoch.validate_ms", ms, "ms")
	savePath := filepath.Join(runDir, "save.osds")
	if ms, err = timeMS(traceReps, func() error { return applied.SaveSnapshot(savePath) }); err != nil {
		return nil, nil, err
	}
	put("snapshot.save_ms", ms, "ms")
	os.Remove(savePath)
	sampleHeap()
	applied = nil

	// hot-tables: hits through server.New, spans on and off.
	hot, err := Generate("hot-tables", seed)
	if err != nil {
		return nil, nil, err
	}
	hsrv := server.New(base, server.Config{Source: "snapshot", Workers: 2})
	hlb, err := serveLoopback(t.wrap("server.ServeHTTP", hsrv.Handler()))
	if err != nil {
		return nil, nil, err
	}
	if _, err := replay(t, hlb.url, hot.Warm, false); err != nil {
		return nil, nil, err
	}
	prefix := hot.Seq[:traceHotReqs]
	var offUS, onUS []float64
	var hotRun *replayed
	computes0 := hsrv.Computes()
	for i := 0; i < 2*traceReps; i++ {
		on := i%2 == 1
		t.setOn(on)
		r, err := replay(t, hlb.url, prefix, false)
		if err != nil {
			return nil, nil, err
		}
		if on {
			onUS = append(onUS, r.clientUS...)
			hotRun = r
		} else {
			offUS = append(offUS, r.clientUS...)
		}
	}
	t.setOn(true)
	hotComputes := hsrv.Computes() - computes0
	hlb.close()
	attempted += 2 * traceReps * len(prefix)
	t.mu.Lock()
	hitMS := durations(t.spans, "server.ServeHTTP")
	t.mu.Unlock()
	put("server.hit_us_p50", median(hitMS)*1000, "us")
	put("server.computes_per_req.hot-tables", float64(hotComputes)/float64(2*traceReps*len(prefix)), "count")
	put("server.body_kb_per_req", float64(hotRun.bytes)/float64(len(prefix))/1024, "KB")
	put("trace.overhead_us_per_req", median(onUS)-median(offUS), "us")
	sampleHeap()

	// refresh: reload cycles through a resident server.
	mgr := epoch.NewManager(epoch.Config{})
	mgr.Install(base, "snapshot")
	rsrv := server.NewResident(mgr, server.Config{Source: "snapshot", Workers: 2})
	tee := filepath.Join(runDir, "tee.osds")
	rsrv.SetReloader(func() (*epoch.Epoch, error) {
		return mgr.TryReload("delta", func(cur *osdiversity.Analysis) (*osdiversity.Analysis, error) {
			return cur.ApplyDelta([]string{in.delta()}, osdiversity.WithSnapshot(tee))
		})
	})
	rlb, err := serveLoopback(t.wrap("server.ServeHTTP", rsrv.Handler()))
	if err != nil {
		return nil, nil, err
	}
	var marshalUS []float64
	cycle := append([]Req{reloadReq}, ref.Seq...)
	for i := 0; i <= traceCycles; i++ { // cycle 0 is the warm cycle
		if _, err := replay(t, rlb.url, cycle, false); err != nil {
			return nil, nil, err
		}
		attempted += len(cycle)
		ep, _ := mgr.Current()
		for _, r := range ref.Seq {
			doc, err := buildDoc(ep.Analysis, r)
			if err != nil {
				return nil, nil, err
			}
			t0 := time.Now()
			if _, err := httpapi.Marshal(doc); err != nil {
				return nil, nil, err
			}
			marshalUS = append(marshalUS, float64(time.Since(t0))/1e3)
		}
	}
	rc := newClient(rlb.url, 1)
	info, err := checkCorpus(rc, corpus100k)
	rc.close()
	rlb.close()
	if err != nil {
		return nil, nil, err
	}
	put("epoch.reload_failures", float64(info.ReloadFailures), "count")
	os.Remove(tee)
	sampleHeap()

	// sql-cold: /api/query over the imported database.
	var db *vulndb.DB
	if ms, err = timeMS(2, func() error {
		db, err = vulndb.Open(in.db)
		return err
	}); err != nil {
		return nil, nil, err
	}
	put("vulndb.open_ms", ms, "ms")
	sqlw, err := Generate("sql-cold", seed)
	if err != nil {
		return nil, nil, err
	}
	ssrv := server.New(base, server.Config{Source: "snapshot", Workers: 2})
	ssrv.SetDatabase(db)
	slb, err := serveLoopback(t.wrap("server.ServeHTTP", ssrv.Handler()))
	if err != nil {
		return nil, nil, err
	}
	if _, err := replay(t, slb.url, sqlw.Warm, false); err != nil {
		return nil, nil, err
	}
	pc0 := db.Store().PlanCacheStats()
	c0 := ssrv.Computes()
	sqlPrefix := sqlw.Seq[:traceSQLReqs]
	sqlRun, err := replay(t, slb.url, sqlPrefix, true)
	if err != nil {
		return nil, nil, err
	}
	attempted += len(sqlPrefix)
	sqlComputes := ssrv.Computes() - c0
	pc1 := db.Store().PlanCacheStats()
	slb.close()
	shapeMS := make([][]float64, len(sqlShapes))
	for i, r := range sqlPrefix {
		sql, args, err := decodeQuery(r)
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		res, err := db.Store().Query(sql, args...)
		shapeMS[r.Class] = append(shapeMS[r.Class], float64(time.Since(t0))/1e6)
		if err != nil {
			return nil, nil, err
		}
		doc := server.BuildQueryResult(res)
		t0 = time.Now()
		body, err := httpapi.Marshal(doc)
		marshalUS = append(marshalUS, float64(time.Since(t0))/1e3)
		if err != nil {
			return nil, nil, err
		}
		if !bytes.Equal(body, sqlRun.bodies[i]) {
			return nil, nil, fmt.Errorf("traced sql replay: %s answered differently in-process", r.Body)
		}
	}
	put("server.computes_per_req.sql-cold", float64(sqlComputes)/float64(len(sqlPrefix)), "count")
	put("relstore.limit_ms_p50", median(shapeMS[0]), "ms")
	put("relstore.pairwise_ms_p50", median(shapeMS[1]), "ms")
	put("relstore.groupby_ms_p50", median(shapeMS[2]), "ms")
	hits, misses := pc1.Hits-pc0.Hits, pc1.Misses-pc0.Misses
	put("relstore.plan_hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio")
	put("httpapi.marshal_us_p50", median(marshalUS), "us")
	sampleHeap()
	db, ssrv = nil, nil
	base.Close()
	runtime.GC()

	// gateway-cold: gather.New over two in-process shard servers.
	var shards []*loopback
	var backends []string
	for i := 1; i <= 2; i++ {
		a, err := osdiversity.LoadSynthetic(osdiversity.SyntheticSpec{
			Entries: corpusEntries, Distros: len(corpus100k.OSNames), Seed: corpusSeed,
		}, osdiversity.WithYearShard(i, 2), osdiversity.WithParallelism(1))
		if err != nil {
			return nil, nil, err
		}
		srv := server.New(a, server.Config{Source: "synthetic", Workers: 1, Shard: fmt.Sprintf("%d/2", i)})
		lb, err := serveLoopback(t.wrap("shard.ServeHTTP", srv.Handler()))
		if err != nil {
			return nil, nil, err
		}
		shards = append(shards, lb)
		backends = append(backends, lb.url)
	}
	gw, err := gather.New(gather.Config{Backends: backends,
		HTTP: &http.Client{Transport: &legTransport{t: t, base: http.DefaultTransport}}})
	if err != nil {
		return nil, nil, err
	}
	glb, err := serveLoopback(t.wrap("gather.ServeHTTP", gw.Handler()))
	if err != nil {
		return nil, nil, err
	}
	gww, err := Generate("gateway-cold", seed)
	if err != nil {
		return nil, nil, err
	}
	if _, err := replay(t, glb.url, gww.Warm, false); err != nil {
		return nil, nil, err
	}
	t.mu.Lock()
	mark := len(t.spans)
	t.mu.Unlock()
	gwPrefix := gww.Seq[:traceGatewayReqs]
	if _, err := replay(t, glb.url, gwPrefix, false); err != nil {
		return nil, nil, err
	}
	attempted += len(gwPrefix)
	glb.close()
	for _, lb := range shards {
		lb.close()
	}
	t.mu.Lock()
	gwSpans := slices.Clone(t.spans[mark:])
	t.mu.Unlock()
	legs, probes := durations(gwSpans, "gather.leg"), durations(gwSpans, "gather.probe")
	put("gather.leg_ms_p50", median(legs), "ms")
	put("gather.self_ms_p50", median(selfTimes(gwSpans, "gather.ServeHTTP")), "ms")
	put("gather.legs_per_req", float64(len(legs))/float64(len(gwPrefix)), "count")
	put("gather.probes_per_req", float64(len(probes))/float64(len(gwPrefix)), "count")
	sampleHeap()

	put("runtime.gc_cpu_share", gcCPUShare(), "ratio")
	put("runtime.heap_mb", heapPeak, "MB")

	if err := writeSpans(filepath.Join(runDir, "spans.jsonl"), t.spans); err != nil {
		return nil, nil, err
	}
	selfP50 := map[string]float64{}
	for _, name := range []string{"client", "server.ServeHTTP", "gather.ServeHTTP", "gather.leg", "gather.probe", "shard.ServeHTTP"} {
		selfP50[name] = median(selfTimes(t.spans, name))
	}
	detail := map[string]any{
		"seed":             seed,
		"spans":            len(t.spans),
		"span_file":        filepath.Join(runDir, "spans.jsonl"),
		"self_ms_p50":      selfP50,
		"untraced_us_p50":  median(offUS),
		"traced_us_p50":    median(onUS),
		"reload_successes": info.ReloadSuccesses,
	}
	return &result{Correct: info.ReloadFailures == 0, Attempted: attempted, Metrics: m}, detail, nil
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
