// Command perfbench is the end-to-end benchmark of the Hypatia library. It
// runs one of four paper workloads against the library from outside,
// repeating set-up and the workload's main call for a fixed wall-clock
// budget, checks every repeat's outputs, and prints the medians as one JSON
// line. From the repository root, perfbench/run.py builds it and passes its
// flags through:
//
//	python3 perfbench/run.py --workload udp-gravity --seed 20201027 --seconds 20 --trace 0
//
// BENCHMARK.json names the workloads that are run for 60 seconds on every
// change: udp-gravity and snapshot-analysis, one DES-bound and one that
// bypasses the DES. tcp-permutation and pair-ping run by name the same way.
// On a shared host the wall-clock metrics drift with the neighbours' cache
// load over tens of seconds, so a run needs a minute to be steady, and the
// time allowed for all runs holds only two workloads at that length.
//
// Its self-test runs every workload at a tiny horizon: go test in this
// directory.
//
// With --trace 0 it prints the end-to-end metrics (slowdown, cpu_per_vsec,
// setup_s, alloc_mb, peak_rss_mb). With --trace 1 it prints the per-layer
// metrics instead: timed replays of each layer's public calls, the DES and
// transport counters, the GC's CPU share, and a CPU profile of the main call
// folded by layer. The traced run also writes its spans and the folded
// profile to .bench_build/traces/. Nothing inside the library is
// instrumented.
//
// The line before the result is the run record: seed, nproc, GOMAXPROCS, Go
// version and CPU model.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"hypatia/internal/experiments"
)

// metric is one named measurement as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record describes the host and inputs of a run.
type record struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", experiments.Seed, "seed for the generated traffic matrices")
	seconds := fs.Int("seconds", 10, "wall-clock seconds to measure for")
	traced := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run; 0 the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	rec := record{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *traced == 1,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: cpuModel(),
	}

	var res result
	if rec.Trace {
		tr, err := tracedRun(w, *seed, *seconds, w.horizon)
		if err != nil {
			return err
		}
		res = tr.result
		if err := tr.write(rec); err != nil {
			return err
		}
	} else {
		res = endToEnd(w, *seed, *seconds, w.horizon)
	}

	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]record{"record": rec}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// cpuModel reads the processor name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
