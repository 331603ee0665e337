// Command perfbench is the repository's serving benchmark. It drives the
// real `osdiv serve` and `osdiv gateway` binaries from one client
// process and prints, as its last output line, one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics of a traced
// in-process replay (--trace 1). See README.md for the workloads, the
// metrics and why they are built this way; run it through run.sh, which
// builds everything from the checkout first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: hot-tables, sql-cold, gateway-cold or refresh")
	seed := flag.Uint64("seed", 1, "request-sequence seed")
	seconds := flag.Int("seconds", 10, "timed phase length in seconds")
	trace := flag.Int("trace", 0, "1 = traced in-process replay reporting per-layer metrics")
	build := flag.String("build", ".bench_build", "directory holding bin/, the input cache and results")
	flag.Parse()
	if !slices.Contains(workloadNames, *workload) || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// The client shares the machine with the servers it measures.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	res, err := run(*workload, *seed, *seconds, *trace == 1, *build)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(workload string, seed uint64, seconds int, traced bool, buildDir string) (*result, error) {
	buildDir, err := filepath.Abs(buildDir)
	if err != nil {
		return nil, err
	}
	bins := binariesIn(filepath.Join(buildDir, "bin"))
	in, err := ensureInputs(buildDir, bins)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	mode := "e2e"
	if traced {
		mode = "trace"
	}
	tag := fmt.Sprintf("%s-%s-seed%d", workload, mode, seed)
	runDir := filepath.Join(buildDir, "runs", tag)
	if err := os.RemoveAll(runDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	dur := time.Duration(seconds) * time.Second
	var res *result
	var detail any
	if traced {
		res, detail, err = runTrace(seed, in, runDir)
	} else {
		res, detail, err = runE2E(workload, seed, dur, in, bins, runDir)
	}
	if err != nil {
		return nil, err
	}
	// The detail document (sample counts, per-class shares, refresh and
	// reload times, the span summary) goes next to the metrics.
	out := filepath.Join(buildDir, "results", tag+".json")
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return nil, err
	}
	doc, err := json.MarshalIndent(map[string]any{"result": res, "detail": detail}, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(out, append(doc, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Println(string(doc))
	return res, nil
}
