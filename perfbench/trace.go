package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"hypatia"
	"hypatia/internal/routing"
)

// traceDir is where traced runs write their spans and folded profile,
// relative to the directory the benchmark runs in.
const traceDir = ".bench_build/traces"

// span is one timed call into the library.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	t0    time.Time
	spans []span
}

// begin opens a span and returns its id; a nil tracer records nothing.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Nanoseconds()
	return time.Duration(s.End - s.Start)
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, parent int, fn func()) time.Duration {
	id := t.begin(name, parent)
	fn()
	return t.end(id)
}

// traced is a finished traced run.
type traced struct {
	result result
	spans  []span
	fold   map[string]float64 // profile CPU seconds by layer
}

// layers are the profile-fold buckets; see layerOf.
var layers = []string{"geometry", "forwarding", "sim", "transport", "analysis", "core", "runtime"}

// replayStepsPerTopology caps each layer replay at this many update
// instants per topology, so a long horizon cannot stretch the traced run.
const replayStepsPerTopology = 40

// tracedRun measures the per-layer metrics. Four fifths of the budget go to
// repeats, alternately plain (the baseline for trace.overhead, and the DES
// and GC counters) and with the main call under the CPU profiler (the layer
// fold); then each layer's public calls are replayed, timed, over the last
// repeat's inputs.
func tracedRun(w workload, seed int64, seconds int, horizon float64) (*traced, error) {
	budget := time.Duration(seconds) * time.Second
	tr := &tracer{t0: time.Now()}
	r := &runner{w: w, seed: seed, horizon: horizon, tr: tr}

	// Even repeats run plain, odd ones under the CPU profiler, so warm-up
	// and drift fall on both sides of trace.overhead alike.
	var prof bytes.Buffer
	fold := map[string]float64{}
	var profErr error
	samples := r.repeat(budget*4/5, 4, func(i int, call func() error) error {
		if i%2 == 0 {
			return call()
		}
		prof.Reset()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("start CPU profile: %w", err)
		}
		err := call()
		pprof.StopCPUProfile()
		if profErr == nil {
			profErr = foldProfile(prof.Bytes(), fold)
		}
		return err
	})
	if profErr != nil {
		return nil, profErr
	}
	var plain, profiled []sample
	for _, s := range samples {
		if s.rep%2 == 0 {
			plain = append(plain, s)
		} else {
			profiled = append(profiled, s)
		}
	}
	if len(profiled) == 0 || len(plain) == 0 || r.last == nil {
		return &traced{result: result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}}, nil
	}

	m := map[string]metric{}
	o := r.lastObs
	var eps, gc, use []float64
	for _, s := range plain {
		eps = append(eps, float64(s.events)/s.wall)
		gc = append(gc, s.gcCPU)
		use = append(use, s.useCPU)
	}
	m["sim.events_per_s"] = metric{median(eps), "1/s"}
	m["sim.events_per_vsec"] = metric{float64(o.Events) / plain[0].vsec, "1/s"}
	m["sim.delivered"] = metric{float64(o.Delivered), "count"}
	for i, d := range dropReasons {
		n := 0.0
		if o.Drops != nil {
			n = float64(o.Drops[i])
		}
		m["sim.drops."+d.name] = metric{n, "count"}
	}
	m["transport.retx"] = metric{float64(o.Retx), "count"}
	m["transport.timeouts"] = metric{float64(o.Timeouts), "count"}
	replies := 0
	for _, p := range o.Pings {
		replies += p.Replied
	}
	m["transport.ping_replies"] = metric{float64(replies), "count"}
	m["runtime.gc_cpu_share"] = metric{sum(gc) / max(sum(use), 1e-9), "fraction"}
	total := 0.0
	for _, v := range fold {
		total += v
	}
	for _, l := range layers {
		m["cpu_share."+l] = metric{fold[l] / max(total, 1e-9), "fraction"}
	}
	m["trace.overhead"] = metric{median(slowdowns(profiled)) / median(slowdowns(plain)), "ratio"}
	replayLayers(tr, r.last, horizon, m)

	return &traced{
		result: result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m},
		spans:  tr.spans,
		fold:   fold,
	}, nil
}

// replayLayers times each layer's public calls over the instance's
// topologies and the update instants of its horizon, recording one span per
// call.
func replayLayers(tr *tracer, in *instance, horizon float64, m map[string]metric) {
	var positions, snapshots, sssp, steps, seeds []float64
	for _, topo := range in.topos {
		root := tr.begin("replay", 0)
		// Geometry: the DES refreshes satellite positions once per 10 ms
		// bucket.
		c := topo.Constellation
		var pos []hypatia.Vec3
		for b := 0; b <= int(horizon*100+0.5) && b < 10*replayStepsPerTopology; b++ {
			t := float64(b) / 100
			positions = append(positions, tr.timed("constellation.PositionsECEF", root, func() { pos = c.PositionsECEF(t, pos) }).Seconds()*1e6)
		}
		// Forwarding: from-scratch snapshot and per-source Dijkstra at each
		// 100 ms step, and the incremental engine over the same instants.
		var snap *hypatia.TopologySnapshot
		var dist []float64
		var prev []int32
		eng := routing.NewIncrementalEngine(topo, nil)
		for k := 0; k <= int(horizon*10+0.5) && k < replayStepsPerTopology; k++ {
			t := float64(k) / 10
			snapshots = append(snapshots, tr.timed("routing.SnapshotInto", root, func() { snap = topo.SnapshotInto(t, snap) }).Seconds()*1e3)
			for _, gs := range in.active {
				sssp = append(sssp, tr.timed("routing.FromGS", root, func() { dist, prev = snap.FromGS(gs, dist, prev) }).Seconds()*1e3)
			}
			var ft *hypatia.ForwardingTable
			d := tr.timed("routing.IncrementalEngine.Step", root, func() { ft = eng.Step(t, in.active) }).Seconds() * 1e3
			ft.Release()
			if k == 0 {
				seeds = append(seeds, d)
			} else {
				steps = append(steps, d)
			}
		}
		tr.end(root)
	}
	m["constellation.positions_us"] = metric{median(positions), "us"}
	m["routing.snapshot_ms"] = metric{median(snapshots), "ms"}
	m["graph.sssp_ms"] = metric{median(sssp), "ms"}
	m["routing.step_ms_p50"] = metric{quantile(steps, 0.5), "ms"}
	m["routing.step_ms_p90"] = metric{quantile(steps, 0.9), "ms"}
	m["routing.seed_ms"] = metric{median(seeds), "ms"}
}

func slowdowns(ss []sample) []float64 {
	var out []float64
	for _, s := range ss {
		out = append(out, s.wall/s.vsec)
	}
	return out
}

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}

// gcCPU reads the runtime's cumulative GC CPU estimate and the CPU time
// spent on anything but idling, both in seconds.
func gcCPU() (gc, used float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// write stores the run record, spans and layer fold under traceDir.
func (t *traced) write(rec record) error {
	b, err := json.Marshal(struct {
		Record record             `json:"record"`
		Fold   map[string]float64 `json:"profile_cpu_s_by_layer"`
		Spans  []span             `json:"spans"`
	}{rec, t.fold, t.spans})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", rec.Workload, rec.Seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
