package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyHorizon keeps every self-test repeat to a fraction of a wall second.
const tinyHorizon = 0.2

// withTinyHorizons shrinks every workload for the test's duration.
func withTinyHorizons(t *testing.T) {
	saved := make([]float64, len(workloads))
	for i := range workloads {
		saved[i] = workloads[i].horizon
		workloads[i].horizon = tinyHorizon
	}
	t.Cleanup(func() {
		for i := range workloads {
			workloads[i].horizon = saved[i]
		}
	})
}

// inTempDir runs the test from an empty directory, where traced runs write
// their spans.
func inTempDir(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestEveryMetricPrinted runs each workload at a tiny horizon, plain and
// traced, through the command's entry point and checks that the last line
// carries exactly the metrics BENCHMARK.json names, each with its unit, and
// that no repeat failed. BENCHMARK.json may list a subset of the workloads;
// every one is checked.
func TestEveryMetricPrinted(t *testing.T) {
	spec := readSpec(t)
	for _, sw := range spec.Workloads {
		if _, ok := workloadByName(sw.Name); !ok {
			t.Fatalf("BENCHMARK.json lists workload %q, which the benchmark does not have", sw.Name)
		}
	}
	withTinyHorizons(t)
	inTempDir(t)
	for _, name := range workloadNames() {
		for trace, want := range map[string][]struct{ Name, Unit string }{
			"0": toPairs(spec.EndToEnd),
			"1": toPairs(spec.PerLayer),
		} {
			var out bytes.Buffer
			if err := run([]string{"--workload", name, "--seed", "7", "--seconds", "1", "--trace", trace}, &out); err != nil {
				t.Fatalf("%s --trace %s: %v", name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s --trace %s: last line: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s --trace %s: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s --trace %s: %d metrics printed, BENCHMARK.json names %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s --trace %s: metric %s printed as %+v (present=%v), want unit %q", name, trace, m.Name, got, ok, m.Unit)
				}
			}
			if trace == "1" {
				share := 0.0
				for k, m := range res.Metrics {
					if strings.HasPrefix(k, "cpu_share.") {
						share += m.Value
					}
				}
				if share < 0.999 || share > 1.001 {
					t.Errorf("%s: cpu_share.* sums to %g, want 1", name, share)
				}
			}
		}
	}
}

func toPairs(ms []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) []struct{ Name, Unit string } {
	out := make([]struct{ Name, Unit string }, len(ms))
	for i, m := range ms {
		out[i] = struct{ Name, Unit string }{m.Name, m.Unit}
	}
	return out
}

// tamper wraps a workload so that the n-th repeat's outputs pass through
// edit before the checks see them.
func tamper(t *testing.T, name string, n int, edit func(o *observations)) workload {
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	calls := 0
	return workload{name: w.name + "-tampered", horizon: tinyHorizon, setup: func(seed int64, horizon float64) (*instance, error) {
		in, err := w.setup(seed, horizon)
		if err != nil {
			return nil, err
		}
		observe := in.observe
		in.observe = func() observations {
			o := observe()
			if calls++; calls == n {
				edit(&o)
			}
			return o
		}
		return in, nil
	}}
}

// TestTamperingFailsTheRun checks that a repeat whose outputs differ from
// the seed's first repeat, or break an invariant, or panic, is counted as
// failed while the others pass.
func TestTamperingFailsTheRun(t *testing.T) {
	panicky, _ := workloadByName("pair-ping")
	setup := panicky.setup
	panicked := false
	panicky.setup = func(seed int64, horizon float64) (*instance, error) {
		in, err := setup(seed, horizon)
		if err == nil {
			execute := in.execute
			in.execute = func() error {
				if !panicked {
					panicked = true
					panic("injected")
				}
				return execute()
			}
		}
		return in, err
	}
	for name, w := range map[string]workload{
		"digest":    tamper(t, "udp-gravity", 2, func(o *observations) { o.Delivered++ }),
		"goodput":   tamper(t, "tcp-permutation", 3, func(o *observations) { o.Goodput[0] *= 1.0000001 }),
		"ping-rtt":  tamper(t, "pair-ping", 1, func(o *observations) { o.Pings[0].RTTs[0] = o.Pings[0].Bound / 2 }),
		"pair-rtt":  tamper(t, "snapshot-analysis", 2, func(o *observations) { o.Pairs[0].MinRTT = o.Pairs[0].GeodesicRTT / 2 }),
		"udp-count": tamper(t, "udp-gravity", 1, func(o *observations) { o.UDP[0].Delivered = o.UDP[0].Sent + 1 }),
		"panic":     panicky,
	} {
		res := endToEnd(w, 1, 1, tinyHorizon)
		if res.Correct || res.Failed != 1 || res.Attempted <= res.Failed {
			t.Errorf("%s: correct=%v attempted=%d failed=%d, want exactly one failed repeat", name, res.Correct, res.Attempted, res.Failed)
		}
	}
}

func TestViolations(t *testing.T) {
	ok := observations{
		Pings: []pingObs{{Sent: 3, Replied: 2, Lost: 1, RTTs: []float64{0.05, 0.06}, Bound: 0.04}},
		UDP:   []udpObs{{Sent: 2, Delivered: 2}},
	}
	if v := ok.violations(); len(v) != 0 {
		t.Fatalf("consistent outputs reported %v", v)
	}
	for name, edit := range map[string]func(o *observations){
		"replies+losses":  func(o *observations) { o.Pings[0].Lost = 0 },
		"rtt below bound": func(o *observations) { o.Pings[0].RTTs[1] = 0.039 },
		"udp over-count":  func(o *observations) { o.UDP[0].Sent = 1 },
	} {
		o := ok
		o.Pings = []pingObs{ok.Pings[0]}
		o.Pings[0].RTTs = append([]float64(nil), ok.Pings[0].RTTs...)
		o.UDP = append([]udpObs(nil), ok.UDP...)
		edit(&o)
		if v := o.violations(); len(v) != 1 {
			t.Errorf("%s: got violations %v, want one", name, v)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"hypatia/internal/orbit.(*Propagator).PositionECI":         "geometry",
		"hypatia/internal/constellation.(*Constellation).Visible":  "geometry",
		"hypatia/internal/graph.(*Graph).RepairSSSPDense":          "forwarding",
		"hypatia/internal/routing.(*IncrementalEngine).Step.func1": "forwarding",
		"hypatia/internal/sim.(*Simulator).runWindow":              "sim",
		"hypatia/internal/transport.(*TCPFlow).onAck":              "transport",
		"hypatia/internal/analysis.AnalyzePairs":                   "analysis",
		"hypatia/internal/core.(*pipeline).producer":               "core",
		"hypatia.NewRun":   "core",
		"math.sin":         "",
		"runtime.mallocgc": "",
		"main.run":         "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
