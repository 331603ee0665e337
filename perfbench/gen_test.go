package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"strconv"
	"testing"

	"osdiversity/internal/httpapi"
	"osdiversity/internal/server"
)

func mustGenerate(t *testing.T, name string, seed uint64) *Workload {
	t.Helper()
	w, err := Generate(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSameSeedSameSequence(t *testing.T) {
	for _, name := range workloadNames {
		a, err := json.Marshal(mustGenerate(t, name, 7))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(mustGenerate(t, name, 7))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different sequences", name)
		}
		if name == "refresh" {
			continue // a cycle is a fixed unit; the seed does not enter it
		}
		c, _ := json.Marshal(mustGenerate(t, name, 8))
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same sequence", name)
		}
	}
}

// canonKey recomputes a request's response-cache key the way the server
// (and the gateway, against the merged corpus) derives it, independently
// of the key the generator recorded.
func canonKey(t *testing.T, r Req, m corpusMeta) string {
	t.Helper()
	u, err := url.Parse(r.Path)
	if err != nil {
		t.Fatal(err)
	}
	q := u.Query()
	num := func(name string, def int) int {
		if q.Get(name) == "" {
			return def
		}
		n, err := strconv.Atoi(q.Get(name))
		if err != nil {
			t.Fatalf("%s: %s=%q", r.Path, name, q.Get(name))
		}
		return n
	}
	year := func(name string) int {
		return server.CanonSplitYearRange(m.YearFrom, m.YearTo, num(name, server.DefaultSplitYear))
	}
	switch u.Path {
	case "/api/query":
		var req httpapi.QueryRequest
		if err := json.Unmarshal(r.Body, &req); err != nil {
			t.Fatal(err)
		}
		args, _ := json.Marshal(req.Args)
		return "query|" + req.SQL + "|" + string(args)
	case "/api/table5":
		return fmt.Sprintf("table5?split=%d", year("split"))
	case "/api/temporal":
		return "temporal?os=" + q.Get("os")
	case "/api/mostshared":
		return fmt.Sprintf("mostshared?n=%d", min(num("n", 3), m.Valid))
	case "/api/select":
		return fmt.Sprintf("select?k=%d&opf=%t&to=%d&top=%d",
			num("k", 4), q.Get("one-per-family") == "true", year("to"), num("top", 0))
	}
	return u.Path[len("/api/"):]
}

func TestHotKeysFitTheResponseCache(t *testing.T) {
	w := mustGenerate(t, "hot-tables", 1)
	keys := map[string]bool{}
	for _, r := range append(w.Warm, w.Seq...) {
		k := canonKey(t, r, corpus100k)
		if k != r.Key {
			t.Fatalf("%s: generator key %q, canonical %q", r.Path, r.Key, k)
		}
		keys[k] = true
	}
	if len(keys) >= 1024 {
		t.Fatalf("hot-tables has %d canonical keys; the server caches 1,024", len(keys))
	}
	warm := map[string]bool{}
	for _, r := range w.Warm {
		warm[r.Key] = true
	}
	if len(warm) != len(keys) {
		t.Fatalf("warm pass covers %d of %d keys, so some timed requests would miss", len(warm), len(keys))
	}
}

func TestColdKeysNeverRepeat(t *testing.T) {
	for _, name := range []string{"sql-cold", "gateway-cold"} {
		w := mustGenerate(t, name, 3)
		m := metaFor(name)
		seen := map[string]bool{}
		for _, r := range w.Warm {
			seen[canonKey(t, r, m)] = true
		}
		for i, r := range w.Seq {
			k := canonKey(t, r, m)
			if r.Key != k {
				t.Fatalf("%s: generator key %q, canonical %q", name, r.Key, k)
			}
			if seen[k] {
				t.Fatalf("%s: request %d repeats canonical key %q", name, i, k)
			}
			seen[k] = true
		}
		if len(w.Seq) < 4096 {
			t.Fatalf("%s: only %d requests; a timed phase may run out", name, len(w.Seq))
		}
	}
}

// A percentile that falls on the boundary between two cost classes
// flips between them from run to run; every boundary must stay five
// points away from every reported percentile.
func TestClassBoundariesAvoidPercentiles(t *testing.T) {
	for _, name := range workloadNames {
		w := mustGenerate(t, name, 5)
		counts := make([]int, len(w.Classes))
		for _, r := range w.Seq {
			counts[r.Class]++
		}
		cum := 0.0
		for c := range w.Classes[:len(w.Classes)-1] {
			cum += 100 * float64(counts[c]) / float64(len(w.Seq))
			for _, p := range reported {
				if math.Abs(cum-p) < 5 {
					t.Errorf("%s: cumulative share %.1f%% after class %s is within 5 points of p%g",
						name, cum, w.Classes[c].Name, p)
				}
			}
		}
	}
}
