package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"osdiversity"
	"osdiversity/internal/httpapi"
)

// setupReps is how many times a run sets the topology up; setup_s is
// the median, and the last set-up serves the timed phase.
const setupReps = 3

// sampleEvery keeps every 16th cold response for the post-run check.
const sampleEvery = 16

// percentile is the linearly interpolated p-th percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// windowedPercentile estimates the p-th latency percentile per window
// and reports the median over windows, so one stalled second moves one
// window, not the result. It falls back to the pooled percentile when a
// window holds fewer than ten samples beyond p, and then lowers p to
// wellSampled(p, len(lat)). It returns the estimate and the percentile
// it estimated.
func windowedPercentile(lat []float64, win []int, p float64) (float64, float64) {
	byWin := map[int][]float64{}
	for i, l := range lat {
		byWin[win[i]] = append(byWin[win[i]], l)
	}
	var vals []float64
	for _, ws := range byWin {
		if float64(len(ws))*(100-p)/100 < 10 {
			pooled := slices.Clone(lat)
			slices.Sort(pooled)
			p = wellSampled(p, len(lat))
			return percentile(pooled, p), p
		}
		slices.Sort(ws)
		vals = append(vals, percentile(ws, p))
	}
	return median(vals), p
}

// wellSampled is p, lowered where needed to the highest percentile of n
// samples that has at least ten samples beyond it, and never below the
// median: a tail read off a handful of samples is one outlier, not a
// tail. It matters only on refresh, whose ~40 cycles a run put p90 and
// p99 at about p75.
func wellSampled(p float64, n int) float64 {
	return max(50, min(p, 100*(1-10/float64(n))))
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return percentile(s, 50)
}

// warm runs the workload's warm requests and returns their bodies by
// canonical key.
func warm(c *client, w *Workload) (map[string][]byte, error) {
	want := make(map[string][]byte, len(w.Warm))
	for _, r := range w.Warm {
		body, err := c.get(r)
		if err != nil {
			return nil, fmt.Errorf("warm: %w", err)
		}
		if r.Key != "" {
			want[r.Key] = body
		}
	}
	return want, nil
}

// checkCorpus confirms the topology serves the corpus the generators
// canonicalize against.
func checkCorpus(c *client, m corpusMeta) (httpapi.CorpusInfo, error) {
	var info httpapi.CorpusInfo
	body, err := c.get(Req{Method: "GET", Path: "/corpus"})
	if err != nil {
		return info, err
	}
	if err := json.Unmarshal(body, &info); err != nil {
		return info, err
	}
	// The gateway's merged /corpus carries no distro list.
	if info.ValidEntries != m.Valid || info.YearFrom != m.YearFrom || info.YearTo != m.YearTo ||
		(info.OSNames != nil && !slices.Equal(info.OSNames, m.OSNames)) {
		return info, fmt.Errorf("served corpus (valid=%d years=%d..%d distros=%d) is not the generators' corpus",
			info.ValidEntries, info.YearFrom, info.YearTo, len(info.OSNames))
	}
	return info, nil
}

// e2eDetail is the run's full record, written next to the metrics.
type e2eDetail struct {
	Workload       string             `json:"workload"`
	Seed           uint64             `json:"seed"`
	SetupS         []float64          `json:"setup_s"`
	Succeeded      int                `json:"succeeded"`
	FirstError     string             `json:"first_error,omitempty"`
	CheckError     string             `json:"check_error,omitempty"`
	Checked        int                `json:"checked_bodies"`
	Exhausted      bool               `json:"sequence_exhausted"`
	WallS          float64            `json:"wall_s"`
	CPUMS          float64            `json:"cpu_ms"` // lead-in included
	Samples        int                `json:"latency_samples"`
	Beyond         map[string]int     `json:"samples_beyond_percentile"`
	PercentileUsed map[string]float64 `json:"percentile_used"`
	ClassShares    map[string]float64 `json:"class_shares"`
	WindowRPS      []float64          `json:"window_rps,omitempty"`
	WindowCPUMS    []float64          `json:"window_cpu_ms_per_req,omitempty"`
	RefreshS       float64            `json:"refresh_s,omitempty"`
	ReloadMS       float64            `json:"reload_ms,omitempty"`
	Cycles         int                `json:"refresh_cycles,omitempty"`
	CycleMS        []float64          `json:"cycle_ms,omitempty"`
	CycleReloadMS  []float64          `json:"cycle_reload_ms,omitempty"`
	ReloadFailures uint64             `json:"reload_failures"`
}

// runE2E sets the topology up setupReps times, runs the timed phase on
// the last one, reads the processes' CPU and peak RSS, stops them, then
// checks the kept bodies in-process.
func runE2E(name string, seed uint64, dur time.Duration, in *inputs, bins binaries, runDir string) (*result, any, error) {
	w, err := Generate(name, seed)
	if err != nil {
		return nil, nil, err
	}
	d := &e2eDetail{Workload: name, Seed: seed}
	var topo *topology
	var want map[string][]byte
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		topo, err = launch(name, in, bins, runDir)
		if err != nil {
			return nil, nil, err
		}
		c := newClient(topo.front.url(), w.Conns)
		want, err = warm(c, w)
		d.SetupS = append(d.SetupS, time.Since(t0).Seconds())
		if err == nil {
			_, err = checkCorpus(c, metaFor(name))
		}
		c.close()
		if err == nil && rep < setupReps-1 {
			err = topo.stop()
		}
		if err != nil {
			topo.stop()
			return nil, nil, err
		}
	}

	c := newClient(topo.front.url(), w.Conns)
	cpu0, err := topo.cpuMS()
	if err != nil {
		topo.stop()
		return nil, nil, err
	}
	var lr *loopResult
	var wins []window
	var err0 error
	switch name {
	case "hot-tables":
		lr, wins, err0 = closedLoop(c, w, dur, true, 0, func(r *Req, body []byte) bool {
			return bytes.Equal(body, want[r.Key])
		}, topo.cpuMS)
	case "refresh":
		lr = refreshLoop(c, w, dur, 2, want)
	default:
		lr, wins, err0 = closedLoop(c, w, dur, false, sampleEvery, nil, topo.cpuMS)
	}
	cpu1, err1 := topo.cpuMS()
	d.CPUMS = cpu1 - cpu0
	hwm, err2 := topo.hwmMB()
	var info httpapi.CorpusInfo
	var err3 error
	if name == "refresh" {
		info, err3 = checkCorpus(c, metaFor(name))
	}
	c.close()
	if err := firstErr(err0, err1, err2, err3, topo.stop()); err != nil {
		return nil, nil, err
	}

	// Post-run output checks, with the topology gone.
	var bad int
	var first string
	switch name {
	case "hot-tables", "refresh", "gateway-cold":
		a, err := osdiversity.LoadSnapshot(in.snapshot, osdiversity.WithParallelism(2))
		if err != nil {
			return nil, nil, err
		}
		if name == "refresh" {
			// The served epochs are the snapshot plus the delta: build
			// that cold, in-process, as the oracle.
			base := a
			a, err = base.ApplyDelta([]string{in.delta()})
			base.Close()
			if err != nil {
				return nil, nil, err
			}
		}
		got := lr.samples
		if name != "gateway-cold" {
			got = nil
			for _, r := range w.Warm {
				if r.Method == "GET" || r.Path == "/api/recommend" {
					got = append(got, sampled{req: r, body: want[r.Key]})
				}
			}
		}
		d.Checked = len(got)
		bad, first, err = checkAgainstAnalysis(a, got)
		a.Close()
		if err != nil {
			return nil, nil, err
		}
		if bad > 0 && name != "gateway-cold" {
			// Every timed answer matched its warm body, so a wrong warm
			// body makes every timed request for that key wrong.
			bad = lr.attempted - lr.failed
		}
	case "sql-cold":
		d.Checked = len(lr.samples)
		bad, first, err = checkQueries(in.db, lr.samples)
		if err != nil {
			return nil, nil, err
		}
	}
	if info.ReloadFailures > 0 {
		bad++
		first = fmt.Sprintf("reload_failures = %d", info.ReloadFailures)
	}
	d.ReloadFailures = info.ReloadFailures
	d.CheckError = first

	if lr.exhausted {
		return nil, nil, fmt.Errorf("%s: the %d-request sequence ran out before the timed phase ended", name, len(w.Seq))
	}
	succeeded := lr.attempted - lr.failed
	// The request unit: one HTTP request, or on refresh one whole cycle.
	units := succeeded
	if name == "refresh" {
		units = lr.cycles
	}
	throughput := float64(units) / lr.wall.Seconds()
	cpuPerReq := d.CPUMS / float64(max(units, 1))
	if len(wins) > 0 {
		var rates []float64
		var cpuSum float64
		var nSum int64
		for _, win := range wins {
			rates = append(rates, float64(win.n)/win.secs)
			d.WindowCPUMS = append(d.WindowCPUMS, win.cpuMS/float64(max(win.n, 1)))
			cpuSum += win.cpuMS
			nSum += win.n
		}
		throughput = median(rates)
		d.WindowRPS = rates
		cpuPerReq = cpuSum / float64(max(nSum, 1))
	}
	lat := lr.latMS
	d.Succeeded, d.FirstError, d.Exhausted = succeeded, lr.firstErr, lr.exhausted
	d.WallS, d.Samples = lr.wall.Seconds(), len(lat)
	d.Beyond, d.PercentileUsed = map[string]int{}, map[string]float64{}
	latMetric := map[float64]float64{}
	for _, p := range reported {
		v, used := windowedPercentile(lat, lr.latWin, p)
		latMetric[p] = v
		d.Beyond[fmt.Sprintf("p%g", p)] = int(float64(len(lat)) * (100 - used) / 100)
		d.PercentileUsed[fmt.Sprintf("p%g", p)] = used
	}
	d.ClassShares = map[string]float64{}
	for _, c := range w.Classes {
		d.ClassShares[c.Name] = c.Share
	}
	if name == "refresh" {
		d.RefreshS, d.ReloadMS, d.Cycles = median(lr.latMS)/1000, median(lr.reloadMS), lr.cycles
		d.CycleMS, d.CycleReloadMS = lr.latMS, lr.reloadMS
	}

	res := &result{
		Correct:   lr.failed == 0 && bad == 0 && units > 0,
		Attempted: lr.attempted,
		Failed:    min(lr.failed+bad, lr.attempted),
		Metrics: map[string]metric{
			"setup_s":        {median(d.SetupS), "s"},
			"throughput_rps": {throughput, "1/s"},
			"latency_p50_ms": {latMetric[50], "ms"},
			"latency_p90_ms": {latMetric[90], "ms"},
			"latency_p99_ms": {latMetric[99], "ms"},
			"cpu_ms_per_req": {cpuPerReq, "ms"},
			"peak_rss_mb":    {hwm, "MB"},
		},
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
	}
	return res, d, nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
