package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"osdiversity/internal/httpapi"
)

// client sends requests over at most conns keep-alive connections.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends r and reads the whole body into buf, returning the status and
// the X-Osdiv-Epoch header.
func (c *client) do(r *Req, buf *bytes.Buffer) (int, string, error) {
	var body io.Reader
	if r.Body != nil {
		body = bytes.NewReader(r.Body)
	}
	req, err := http.NewRequest(r.Method, c.base+r.Path, body)
	if err != nil {
		return 0, "", err
	}
	if r.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, "", err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("X-Osdiv-Epoch"), err
}

// get sends r and returns a copy of a 200 body; anything else is an error.
func (c *client) get(r Req) ([]byte, error) {
	var buf bytes.Buffer
	status, _, err := c.do(&r, &buf)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", r.Method, r.Path, err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", r.Method, r.Path, status, buf.Bytes())
	}
	return bytes.Clone(buf.Bytes()), nil
}

// loopResult is what a timed phase measured.
type loopResult struct {
	attempted, failed int
	latMS             []float64 // one per succeeded timed read request
	latWin            []int     // the one-second window each latency fell in
	wall              time.Duration
	firstErr          string
	samples           []sampled // bodies kept for the post-run check
	exhausted         bool      // the sequence ran out before the deadline

	cycles   int       // refresh: completed cycles; latMS holds their times
	reloadMS []float64 // refresh: POST /admin/reload latency
}

func (r *loopResult) fail(msg string) {
	r.failed++
	if r.firstErr == "" {
		r.firstErr = msg
	}
}

func (r *loopResult) merge(o *loopResult) {
	r.attempted += o.attempted
	r.latMS = append(r.latMS, o.latMS...)
	r.latWin = append(r.latWin, o.latWin...)
	r.samples = append(r.samples, o.samples...)
	r.exhausted = r.exhausted || o.exhausted
	r.failed += o.failed
	if r.firstErr == "" {
		r.firstErr = o.firstErr
	}
}

// window is one second of the timed phase: requests that succeeded in
// it and the CPU the topology spent.
type window struct {
	n     int64
	secs  float64
	cpuMS float64
}

// Timed-phase shape: an untimed lead-in of the same load settles CPU
// frequency, page cache and the servers' heaps; the timed phase is then
// cut into one-second windows so throughput and CPU per request can be
// reported as medians that a transient stall on a shared host does not
// move.
const (
	leadIn    = 2 * time.Second
	windowLen = time.Second
)

// closedLoop runs w.Seq on w.Conns connections for leadIn plus dur:
// each connection sends its next request only after the previous one
// answered. verify checks each 200 body; every sampleEvery-th request's
// body is kept for a post-run check (0 keeps none). wrap restarts the
// sequence when it runs out; otherwise the phase ends early. cpu reads
// the topology's CPU time at every window edge.
func closedLoop(c *client, w *Workload, dur time.Duration, wrap bool, sampleEvery int,
	verify func(r *Req, body []byte) bool, cpu func() (float64, error)) (*loopResult, []window, error) {
	var next, done atomic.Int64
	parts := make([]loopResult, w.Conns)
	var wg sync.WaitGroup
	start := time.Now()
	timed := start.Add(leadIn)
	deadline := timed.Add(dur)
	for k := range parts {
		wg.Add(1)
		go func(res *loopResult) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(w.Seq) {
					if !wrap {
						res.exhausted = true
						return
					}
					i %= len(w.Seq)
				}
				r := &w.Seq[i]
				res.attempted++
				status, _, err := c.do(r, &buf)
				lat := time.Since(t0)
				switch {
				case err != nil:
					res.fail(err.Error())
					continue
				case status != http.StatusOK:
					res.fail(fmt.Sprintf("%s %s: status %d: %.200s", r.Method, r.Path, status, buf.Bytes()))
					continue
				case verify != nil && !verify(r, buf.Bytes()):
					res.fail(fmt.Sprintf("%s %s: body differs from the expected document", r.Method, r.Path))
					continue
				}
				if t0.After(timed) {
					res.latMS = append(res.latMS, float64(lat)/1e6)
					res.latWin = append(res.latWin, int(t0.Sub(timed)/windowLen))
					done.Add(1)
				}
				if sampleEvery > 0 && i%sampleEvery == 0 {
					res.samples = append(res.samples, sampled{req: *r, body: bytes.Clone(buf.Bytes())})
				}
			}
		}(&parts[k])
	}

	// Window edges: CPU and completions at each second of the timed phase.
	var wins []window
	var werr error
	time.Sleep(time.Until(timed))
	prevN, prevT := done.Load(), time.Now()
	prevCPU, werr := cpu()
	for edge := timed.Add(windowLen); !edge.After(deadline) && werr == nil; edge = edge.Add(windowLen) {
		time.Sleep(time.Until(edge))
		n, now := done.Load(), time.Now()
		ms, err := cpu()
		if err != nil {
			werr = err
			break
		}
		wins = append(wins, window{n: n - prevN, secs: now.Sub(prevT).Seconds(), cpuMS: ms - prevCPU})
		prevN, prevT, prevCPU = n, now, ms
	}
	wg.Wait()
	out := &loopResult{wall: time.Since(timed)}
	for k := range parts {
		out.merge(&parts[k])
	}
	return out, wins, werr
}

// refreshLoop runs reload cycles serially on one connection until dur
// has passed: POST /admin/reload, then every read of the cycle. A
// cycle's time, from sending the reload until its last read answered,
// is the refresh workload's request latency. Each reload must publish
// exactly the next epoch, every read must answer from it, and every body
// must equal the warm cycle's (the delta rewrites entries with identical
// content, so the corpus never changes).
func refreshLoop(c *client, w *Workload, dur time.Duration, epoch uint64, want map[string][]byte) *loopResult {
	res := &loopResult{}
	var buf bytes.Buffer
	start := time.Now()
	deadline := start.Add(dur)
	for time.Now().Before(deadline) {
		t0 := time.Now()
		res.attempted++
		status, _, err := c.do(&reloadReq, &buf)
		reloadLat := time.Since(t0)
		if err != nil || status != http.StatusOK {
			res.fail(fmt.Sprintf("reload: status %d err %v: %.200s", status, err, buf.Bytes()))
			break
		}
		var rr httpapi.ReloadResult
		if err := json.Unmarshal(buf.Bytes(), &rr); err != nil || rr.Epoch != epoch+1 {
			res.fail(fmt.Sprintf("reload published epoch %d after %d (%v)", rr.Epoch, epoch, err))
			break
		}
		epoch = rr.Epoch
		res.reloadMS = append(res.reloadMS, float64(reloadLat)/1e6)
		wantEpoch := strconv.FormatUint(epoch, 10)
		for i := range w.Seq {
			r := &w.Seq[i]
			res.attempted++
			status, ep, err := c.do(r, &buf)
			switch {
			case err != nil:
				res.fail(err.Error())
			case status != http.StatusOK:
				res.fail(fmt.Sprintf("%s: status %d: %.200s", r.Path, status, buf.Bytes()))
			case ep != wantEpoch:
				res.fail(fmt.Sprintf("%s answered from epoch %s, want %s", r.Path, ep, wantEpoch))
			case !bytes.Equal(buf.Bytes(), want[r.Key]):
				res.fail(fmt.Sprintf("%s: body differs from the warm cycle's", r.Path))
			}
		}
		res.cycles++
		res.latMS = append(res.latMS, float64(time.Since(t0))/1e6)
		res.latWin = append(res.latWin, 0)
	}
	res.wall = time.Since(start)
	return res
}
