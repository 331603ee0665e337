package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/url"
	"strconv"

	"osdiversity/internal/httpapi"
	"osdiversity/internal/server"
)

// corpusMeta is what the generators canonicalize against: the 100k-entry
// synthetic corpus every workload serves (nvdgen -synthetic, seed 1,
// 32 distros, 2002..2025). The run checks /corpus against it before
// timing, so a corpus change fails loudly instead of skewing keys.
type corpusMeta struct {
	OSNames  []string
	YearFrom int
	YearTo   int
	Valid    int
}

var corpus100k = corpusMeta{
	OSNames: []string{"OpenBSD", "NetBSD", "FreeBSD", "OpenSolaris", "Solaris", "Debian",
		"Ubuntu", "RedHat", "Windows2000", "Windows2003", "Windows2008",
		"SynOS000", "SynOS001", "SynOS002", "SynOS003", "SynOS004", "SynOS005",
		"SynOS006", "SynOS007", "SynOS008", "SynOS009", "SynOS010", "SynOS011",
		"SynOS012", "SynOS013", "SynOS014", "SynOS015", "SynOS016", "SynOS017",
		"SynOS018", "SynOS019", "SynOS020"},
	YearFrom: 2002,
	YearTo:   2025,
	Valid:    93050,
}

// corpusDB is the same corpus imported by nvdimport: the database keeps
// only entries with a clustered product of the eleven paper
// distributions, so `osdiv -db` serves that smaller corpus.
var corpusDB = corpusMeta{
	OSNames:  corpus100k.OSNames[:11],
	YearFrom: 2002,
	YearTo:   2025,
	Valid:    44797,
}

// metaFor is the corpus a workload's topology serves.
func metaFor(workload string) corpusMeta {
	if workload == "sql-cold" {
		return corpusDB
	}
	return corpus100k
}

// Req is one request of a workload sequence.
type Req struct {
	Class  int    // index into the workload's Classes (cost order)
	Method string // GET or POST
	Path   string // path plus query string as sent
	Body   []byte // POST body; nil for GET
	Key    string // the server's canonical response-cache key
}

// Class is a group of requests of one cost scale. A workload lists its
// classes cheapest first; Share is the class's fraction of the sequence.
type Class struct {
	Name  string
	Share float64
}

// reported are the latency percentiles every workload reports.
var reported = []float64{50, 90, 99}

// Workload is a generated, seeded request sequence plus how to drive it.
type Workload struct {
	Name    string
	Conns   int
	Classes []Class
	Seq     []Req
	// Warm requests run during set-up. They use keys outside the timed
	// sequence's key space, so they fill lazy state (plan cache, DB
	// open, epoch probe) without pre-answering a timed request — except
	// on hot-tables, whose warm pass is the whole key set on purpose.
	Warm []Req
}

// workloadNames lists every workload the generator builds. BENCHMARK.json
// times sql-cold and refresh end to end; hot-tables and gateway-cold run
// end to end on request and are replayed by every traced run (README.md
// says why).
var workloadNames = []string{"hot-tables", "sql-cold", "gateway-cold", "refresh"}

// Generate builds a workload's sequence from the seed alone: the same
// seed gives a byte-identical sequence.
func Generate(name string, seed uint64) (*Workload, error) {
	m := metaFor(name)
	rng := rand.New(rand.NewPCG(seed, 0x6f73646976))
	switch name {
	case "hot-tables":
		return genHot(rng, m), nil
	case "sql-cold":
		return genSQL(rng, m), nil
	case "gateway-cold":
		return genGateway(rng, m), nil
	case "refresh":
		return genRefresh(), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func get(class int, path string, q url.Values, key string) Req {
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	return Req{Class: class, Method: "GET", Path: path, Key: key}
}

// classSeq returns n class indices in seeded blocks: each block holds
// exactly counts[c] requests of class c, shuffled, so every prefix of
// the sequence has the classes' shares to within one block whatever the
// seed.
func classSeq(rng *rand.Rand, counts []int, n int) []int {
	var block []int
	for c, k := range counts {
		for i := 0; i < k; i++ {
			block = append(block, c)
		}
	}
	out := make([]int, 0, n+len(block))
	for len(out) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}

// shares turns block counts into the classes' shares.
func shares(names []string, counts []int) []Class {
	total := 0
	for _, k := range counts {
		total += k
	}
	cs := make([]Class, len(names))
	for i, name := range names {
		cs[i] = Class{Name: name, Share: float64(counts[i]) / float64(total)}
	}
	return cs
}

// stratified draws argument tuples without replacement from a space of
// strata (the arguments a request's cost depends on) times fillers
// (arguments that only make its key fresh). Draw k takes stratum
// order[k mod strata] and that stratum's next filler, both in seeded
// orders: any run of len(order) draws covers every stratum once, so the
// cost of a prefix barely depends on the seed, and no tuple repeats.
type stratified struct {
	order   []int
	fillers [][]int
	k       int
}

func newStratified(rng *rand.Rand, strata, fillers int) *stratified {
	s := &stratified{order: rng.Perm(strata), fillers: make([][]int, strata)}
	for i := range s.fillers {
		s.fillers[i] = rng.Perm(fillers)
	}
	return s
}

// next returns the next (stratum, filler) pair; ok is false once the
// space is used up.
func (s *stratified) next() (stratum, filler int, ok bool) {
	stratum = s.order[s.k%len(s.order)]
	f := s.k / len(s.order)
	if f >= len(s.fillers[stratum]) {
		return 0, 0, false
	}
	s.k++
	return stratum, s.fillers[stratum][f], true
}

// Hot-tables request classes. All timed requests are cache hits, so
// cost follows body size: the small documents, then Table IV (~40 KB),
// then Table III (~60 KB), in blocks of 7:1:2. The shares keep every
// class boundary at least five points from p50, p90 and p99.
const (
	hotSmall = iota
	hotTable4
	hotTable3
)

// hotKeys is the fixed hot key set: table1-5, temporal, kwise, select,
// mostshared with n <= 100 and releases, 363 canonical keys in all,
// well under the server's 1,024-entry response cache.
func hotKeys(m corpusMeta) []Req {
	var keys []Req
	keys = append(keys, get(hotSmall, "/api/table1", nil, "table1"), get(hotSmall, "/api/table2", nil, "table2"))
	for y := m.YearFrom - 1; y <= m.YearTo; y++ {
		c := server.CanonSplitYearRange(m.YearFrom, m.YearTo, y)
		keys = append(keys, get(hotSmall, "/api/table5", url.Values{"split": {strconv.Itoa(y)}},
			fmt.Sprintf("table5?split=%d", c)))
	}
	for _, os := range m.OSNames {
		keys = append(keys, get(hotSmall, "/api/temporal", url.Values{"os": {os}}, "temporal?os="+os))
	}
	keys = append(keys, get(hotSmall, "/api/kwise", nil, "kwise"))
	for n := 1; n <= 100; n++ {
		keys = append(keys, get(hotSmall, "/api/mostshared", url.Values{"n": {strconv.Itoa(n)}},
			fmt.Sprintf("mostshared?n=%d", min(n, m.Valid))))
	}
	for k := 1; k <= 4; k++ {
		for _, opf := range []bool{false, true} {
			for y := m.YearFrom - 1; y <= m.YearTo; y++ {
				q := url.Values{"k": {strconv.Itoa(k)}, "to": {strconv.Itoa(y)}}
				if opf {
					q.Set("one-per-family", "true")
				}
				c := server.CanonSplitYearRange(m.YearFrom, m.YearTo, y)
				keys = append(keys, get(hotSmall, "/api/select", q,
					fmt.Sprintf("select?k=%d&opf=%t&to=%d&top=%d", k, opf, c, 0)))
			}
		}
	}
	keys = append(keys, get(hotSmall, "/api/releases", nil, "releases"))
	keys = append(keys, get(hotTable4, "/api/table4", nil, "table4"), get(hotTable3, "/api/table3", nil, "table3"))
	return keys
}

// hotSeqLen bounds the hot sequence; the loop wraps around it (every
// hot key repeats by design, so wrapping changes nothing).
const hotSeqLen = 1 << 18

func genHot(rng *rand.Rand, m corpusMeta) *Workload {
	counts := []int{7, 1, 2}
	w := &Workload{Name: "hot-tables", Conns: 2, Classes: shares([]string{"small", "table4", "table3"}, counts)}
	keys := hotKeys(m)
	byClass := make([][]Req, len(w.Classes))
	for _, k := range keys {
		byClass[k.Class] = append(byClass[k.Class], k)
	}
	// Within a class, keys come round in one seeded order.
	for _, c := range byClass {
		rng.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
	}
	w.Warm = keys
	used := make([]int, len(byClass))
	for _, c := range classSeq(rng, counts, hotSeqLen) {
		w.Seq = append(w.Seq, byClass[c][used[c]%len(byClass[c])])
		used[c]++
	}
	return w
}

// The sql-cold statement shapes, cheapest first: an indexed join with
// LIMIT 20 (executed in full before the limit applies), the Table III
// pairwise shared-count self-join on os_vuln, and a one-year join with
// GROUP BY. Each ends in a "vuln_id > ?" bind whose offset comes from
// [0, sqlOffsets): it skips a sliver of the id space, so the work per
// request stays put while every argument tuple, and so every response
// cache key, is fresh. The statement text never changes, so the plan
// cache always hits. Years stay in sqlYears, where the per-year corpus
// slices are of similar size.
const (
	sqlLimitSQL = `SELECT v.name, ov.version FROM vulnerability v ` +
		`JOIN os_vuln ov ON v.id = ov.vuln_id ` +
		`WHERE v.year = ? AND ov.os_id = ? AND ov.vuln_id > ? LIMIT 20`
	sqlPairSQL = `SELECT COUNT(DISTINCT x.vuln_id) FROM os_vuln x ` +
		`JOIN os_vuln y ON x.vuln_id = y.vuln_id ` +
		`WHERE x.os_id = ? AND y.os_id = ? AND x.vuln_id > ?`
	sqlGroupSQL = `SELECT ov.os_id, COUNT(*) FROM vulnerability v ` +
		`JOIN os_vuln ov ON v.id = ov.vuln_id ` +
		`WHERE v.year = ? AND ov.vuln_id > ? GROUP BY ov.os_id`
	sqlOffsets  = 64
	sqlYearFrom = 2014
	sqlYears    = 8
	sqlSeqLen   = 1 << 13
)

// sqlShapes is the cost-ordered statement list; index = class.
var sqlShapes = []string{sqlLimitSQL, sqlPairSQL, sqlGroupSQL}

// sqlSpace is a shape's argument space: its strata (the arguments its
// cost depends on) and fillers (the offsets that make each key fresh).
func sqlSpace(shape int, m corpusMeta) (strata, fillers int) {
	nOS := len(m.OSNames)
	switch shape {
	case 0:
		return sqlYears * nOS, sqlOffsets // year x OS
	case 1:
		return nOS * (nOS - 1), sqlOffsets // ordered OS pair
	default:
		return sqlYears, 8 * sqlOffsets // year
	}
}

// sqlArgs maps a shape's (stratum, filler) to its bind arguments. OS ids
// are the database's 1..len(OSNames).
func sqlArgs(shape, stratum, off int, m corpusMeta) []any {
	nOS := len(m.OSNames)
	switch shape {
	case 0:
		return []any{sqlYearFrom + stratum%sqlYears, 1 + stratum/sqlYears, off}
	case 1:
		a, b := stratum%nOS, stratum/nOS
		if b >= a {
			b++
		}
		return []any{1 + a, 1 + b, off}
	default:
		return []any{sqlYearFrom + stratum, off}
	}
}

// queryReq builds a POST /api/query request and its canonical key: the
// server keys on the statement text and the compact JSON of the args.
func queryReq(class int, sql string, args []any) Req {
	body, _ := json.Marshal(httpapi.QueryRequest{SQL: sql, Args: args}) // plain strings and ints
	argsKey, _ := json.Marshal(args)
	return Req{Class: class, Method: "POST", Path: "/api/query", Body: body,
		Key: "query|" + sql + "|" + string(argsKey)}
}

func genSQL(rng *rand.Rand, m corpusMeta) *Workload {
	counts := []int{8, 7, 5}
	w := &Workload{Name: "sql-cold", Conns: 2, Classes: shares([]string{"limit", "pairwise", "groupby"}, counts)}
	spaces := make([]*stratified, len(sqlShapes))
	for s := range sqlShapes {
		strata, fillers := sqlSpace(s, m)
		spaces[s] = newStratified(rng, strata, fillers)
	}
	for _, s := range classSeq(rng, counts, sqlSeqLen) {
		stratum, off, ok := spaces[s].next()
		if !ok {
			break
		}
		w.Seq = append(w.Seq, queryReq(s, sqlShapes[s], sqlArgs(s, stratum, off, m)))
	}
	// Offset -1 never occurs in the timed sequence.
	for s, sql := range sqlShapes {
		w.Warm = append(w.Warm, queryReq(s, sql, sqlArgs(s, 0, -1, m)))
	}
	return w
}

// Gateway-cold classes, cheapest first, in blocks of 5:1: select (the
// shard legs are per-year cost vectors; the gateway ranks and marshals),
// stratified by k, one-per-family and year with a fresh top; and
// mostshared (each shard lists its top n cold, the gateway merges),
// stratified into gwNBuckets bands of gwNBand consecutive n from gwNLo.
// Keys never repeat.
const (
	gwNLo      = 101
	gwNBand    = 48
	gwNBuckets = 64
	gwTopMax   = 512
	gwSelectK  = 4
	gwSeqLen   = 6 * gwNBand * gwNBuckets
)

func genGateway(rng *rand.Rand, m corpusMeta) *Workload {
	counts := []int{5, 1}
	w := &Workload{Name: "gateway-cold", Conns: 2, Classes: shares([]string{"select", "mostshared"}, counts)}
	years := m.YearTo - m.YearFrom + 2
	sel := newStratified(rng, gwSelectK*2*years, gwTopMax)
	most := newStratified(rng, gwNBuckets, gwNBand)
	for _, c := range classSeq(rng, counts, gwSeqLen) {
		if c == 0 {
			x, t, ok := sel.next()
			if !ok {
				break
			}
			top := 1 + t
			y := m.YearFrom - 1 + x%years
			x /= years
			opf := x%2 == 1
			k := 1 + x/2
			q := url.Values{"k": {strconv.Itoa(k)}, "to": {strconv.Itoa(y)}, "top": {strconv.Itoa(top)}}
			if opf {
				q.Set("one-per-family", "true")
			}
			key := fmt.Sprintf("select?k=%d&opf=%t&to=%d&top=%d", k, opf,
				server.CanonSplitYearRange(m.YearFrom, m.YearTo, y), top)
			w.Seq = append(w.Seq, get(0, "/api/select", q, key))
			continue
		}
		b, f, ok := most.next()
		if !ok {
			break
		}
		n := gwNLo + b*gwNBand + f
		w.Seq = append(w.Seq, get(1, "/api/mostshared", url.Values{"n": {strconv.Itoa(n)}},
			fmt.Sprintf("mostshared?n=%d", min(n, m.Valid))))
	}
	// Warm keys lie outside both timed key spaces (top > gwTopMax,
	// n < gwNLo); they open the gateway's shard connections and fill
	// the shards' per-year cost vectors, which the timed selects reuse.
	for y := m.YearFrom - 1; y <= m.YearTo; y++ {
		q := url.Values{"to": {strconv.Itoa(y)}, "top": {strconv.Itoa(gwTopMax + 1)}}
		w.Warm = append(w.Warm, get(0, "/api/select", q, ""))
	}
	w.Warm = append(w.Warm, get(1, "/api/mostshared", url.Values{"n": {"50"}}, ""))
	return w
}

// refreshCycle lists one refresh cycle's reads, sent after its POST
// /admin/reload: one cold request to every paper endpoint, the default
// recommendation and one attack simulation. The order is fixed: a cycle
// is a deterministic unit, so the seed does not change it.
func refreshCycle() []Req {
	split := strconv.Itoa(2005)
	return []Req{
		get(0, "/api/table1", nil, "table1"),
		get(0, "/api/table2", nil, "table2"),
		get(0, "/api/table3", nil, "table3"),
		get(0, "/api/table4", nil, "table4"),
		get(0, "/api/table5", url.Values{"split": {split}}, "table5?split=2005"),
		get(0, "/api/temporal", url.Values{"os": {"Debian"}}, "temporal?os=Debian"),
		get(0, "/api/kwise", nil, "kwise"),
		get(0, "/api/select", url.Values{"k": {"4"}, "to": {split}}, "select?k=4&opf=false&to=2005&top=0"),
		get(0, "/api/releases", nil, "releases"),
		get(0, "/api/mostshared", url.Values{"n": {"100"}}, "mostshared?n=100"),
		get(0, "/api/attack", url.Values{"os": {"Debian", "OpenBSD", "Solaris", "Windows2003"}},
			"attack?f=1&name=configuration&os=Debian&os=OpenBSD&os=Solaris&os=Windows2003&trials=200"),
		{Method: "POST", Path: "/api/recommend", Body: []byte("{}"), Key: "recommend"},
	}
}

// reloadReq is the refresh cycle's first request.
var reloadReq = Req{Method: "POST", Path: "/admin/reload", Key: "reload"}

func genRefresh() *Workload {
	cyc := refreshCycle()
	// The request unit of the refresh metrics is the whole cycle, so
	// it is the workload's one class.
	w := &Workload{Name: "refresh", Conns: 1, Classes: []Class{{"cycle", 1}}}
	// The warm pass is one whole cycle. Its reload is one-time set-up:
	// invalid records adopted from a snapshot carry no CVE identifier,
	// so the first delta re-adds the delta year's invalid entries (Table
	// I's removed counters grow once; see core.DeltaBuilder). From the
	// second epoch on, every reload rebuilds an identical corpus.
	w.Warm = append([]Req{reloadReq}, cyc...)
	w.Seq = cyc
	return w
}
