// Package analysis implements Hypatia's snapshot-based network analysis —
// the Go counterpart of the paper's networkx pipeline. It steps a topology
// through time at a fixed granularity, computes shortest paths on each
// snapshot, and aggregates the per-pair statistics behind the paper's
// constellation-wide figures: RTT extremes relative to the geodesic
// (Fig 6), RTT variation (Fig 7), path-structure churn (Fig 8), and the
// sensitivity of those measurements to the time-step granularity (Fig 9).
package analysis

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"hypatia/internal/geom"
	"hypatia/internal/graph"
	"hypatia/internal/routing"
)

// ECDF is an empirical cumulative distribution over a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from values (copied and sorted; NaNs rejected).
func NewECDF(vals []float64) *ECDF {
	s := make([]float64, 0, len(vals))
	for _, v := range vals {
		if math.IsNaN(v) {
			panic("analysis: NaN in ECDF input")
		}
		s = append(s, v)
	}
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// N returns the sample size.
func (e *ECDF) N() int { return len(e.sorted) }

// FractionBelow returns P(X <= x).
func (e *ECDF) FractionBelow(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(e.sorted))
}

// Quantile returns the p-quantile (0..1) by nearest rank.
func (e *ECDF) Quantile(p float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	idx := int(math.Ceil(p*float64(len(e.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(e.sorted) {
		idx = len(e.sorted) - 1
	}
	return e.sorted[idx]
}

// Median returns the 0.5 quantile.
func (e *ECDF) Median() float64 { return e.Quantile(0.5) }

// Points renders the ECDF as (value, cumulative fraction) pairs, one per
// sample, suitable for plotting the paper's CDF figures.
func (e *ECDF) Points() [][2]float64 {
	out := make([][2]float64, len(e.sorted))
	for i, v := range e.sorted {
		out[i] = [2]float64{v, float64(i+1) / float64(len(e.sorted))}
	}
	return out
}

// PairStats aggregates a ground-station pair's behavior over a stepped
// analysis window.
type PairStats struct {
	Src, Dst int // ground-station indices

	GeodesicRTT float64 // seconds: great-circle at c, the lower bound
	MinRTT      float64 // seconds, over connected steps; +Inf if never connected
	MaxRTT      float64 // seconds, over connected steps; 0 if never connected

	PathChanges int // number of steps whose satellite path differs from the previous connected step
	MinHops     int // links in the shortest observed path (incl. both GSLs)
	MaxHops     int // links in the longest observed path

	DisconnectedSteps int // steps with no route
	Steps             int // total steps analyzed
}

// Connected reports whether the pair ever had a route.
func (p PairStats) Connected() bool { return p.MaxRTT > 0 }

// MaxOverGeodesic returns MaxRTT / GeodesicRTT (the Fig 6 metric).
func (p PairStats) MaxOverGeodesic() float64 { return p.MaxRTT / p.GeodesicRTT }

// RTTSpread returns MaxRTT - MinRTT in seconds (the Fig 7(b) metric).
func (p PairStats) RTTSpread() float64 { return p.MaxRTT - p.MinRTT }

// RTTRatio returns MaxRTT / MinRTT (the Fig 7(c) metric).
func (p PairStats) RTTRatio() float64 { return p.MaxRTT / p.MinRTT }

// Config controls a stepped analysis.
type Config struct {
	// Duration in seconds (exclusive of the final step if not a multiple).
	Duration float64
	// Step is the snapshot granularity in seconds; default 0.1 (100 ms).
	Step float64
	// ExcludePairsCloserThan drops pairs whose endpoints are within this
	// many meters (the paper excludes < 500 km pairs). 0 keeps all.
	ExcludePairsCloserThan float64
	// Pairs restricts analysis to specific (src, dst) ground-station index
	// pairs; nil analyzes all unordered pairs.
	Pairs [][2]int
}

// pairList materializes the pair set for a topology under the config.
func (c Config) pairList(topo *routing.Topology) [][2]int {
	if c.Pairs != nil {
		return c.Pairs
	}
	ng := topo.NumGS()
	var out [][2]int
	for i := 0; i < ng; i++ {
		for j := i + 1; j < ng; j++ {
			if c.ExcludePairsCloserThan > 0 {
				d := geom.Haversine(topo.GroundStations[i].Position, topo.GroundStations[j].Position)
				if d < c.ExcludePairsCloserThan {
					continue
				}
			}
			out = append(out, [2]int{i, j})
		}
	}
	return out
}

// window is a validated stepped analysis: the pairs to follow and the
// instants t = k·step for k in [0, steps).
type window struct {
	topo  *routing.Topology
	pairs [][2]int
	srcs  []int // distinct pair sources, ascending: the trees each step solves
	step  float64
	steps int
}

// newWindow validates cfg against topo. Every input a caller can reach is
// checked here, so the step loop itself cannot fail.
func newWindow(topo *routing.Topology, cfg Config) (*window, error) {
	if cfg.Step == 0 {
		cfg.Step = 0.1
	}
	if !(cfg.Step > 0) || math.IsInf(cfg.Step, 1) {
		return nil, fmt.Errorf("analysis: step %v s is not positive and finite", cfg.Step)
	}
	if !(cfg.Duration > 0) || math.IsInf(cfg.Duration, 1) {
		return nil, fmt.Errorf("analysis: duration %v s is not positive and finite", cfg.Duration)
	}
	if cfg.Duration/cfg.Step >= math.MaxInt32 {
		return nil, fmt.Errorf("analysis: %v s at %v s steps is too many steps", cfg.Duration, cfg.Step)
	}
	pairs := cfg.pairList(topo)
	if len(pairs) == 0 {
		return nil, fmt.Errorf("analysis: no pairs to analyze")
	}
	var srcs []int
	for _, p := range pairs {
		for _, gs := range p {
			if gs < 0 || gs >= topo.NumGS() {
				return nil, fmt.Errorf("analysis: pair %v names ground station %d, want [0, %d)", p, gs, topo.NumGS())
			}
		}
		srcs = append(srcs, p[0])
	}
	slices.Sort(srcs)
	return &window{
		topo:  topo,
		pairs: pairs,
		srcs:  slices.Compact(srcs),
		step:  cfg.Step,
		steps: int(cfg.Duration/cfg.Step) + 1,
	}, nil
}

// run steps the window on one incremental engine and calls visit for every
// pair at every step, in pair order within a step, with the pair's one-way
// shortest-path length in meters and its node path (inclusive of both
// ground stations). A disconnected pair gets +Inf and a nil path. Every
// path is extracted into one reused buffer, so it is valid only during the
// visit call.
func (w *window) run(visit func(k, i int, dist float64, path []int)) {
	eng := routing.NewIncrementalEngine(w.topo, nil)
	var buf []int
	for k := 0; k < w.steps; k++ {
		eng.Solve(float64(k)*w.step, w.srcs)
		for i, p := range w.pairs {
			dist, prev := eng.Tree(p[0])
			dst := w.topo.GSNode(p[1])
			path := graph.PathFromPrev(prev, w.topo.GSNode(p[0]), dst, buf)
			if path != nil {
				buf = path
			}
			visit(k, i, dist[dst], path)
		}
	}
}

// trackPath compares path's satellite sequence against *last, the sequence
// of the pair's previous connected step (empty if there is none), and
// reports a change. Only a changed sequence is copied, into *last's own
// storage, so a steady path costs no allocation.
func trackPath(topo *routing.Topology, last *[]int, path []int) bool {
	if len(*last) > 0 && routing.SameSatPath(topo, *last, path) {
		return false
	}
	changed := len(*last) > 0
	*last = routing.SatSequence(topo, path, *last)
	return changed
}

// rtt converts a one-way path length in meters to a round-trip time in
// seconds, keeping +Inf for a disconnected pair.
func rtt(dist float64) float64 {
	if math.IsInf(dist, 1) {
		return graph.Infinity
	}
	return 2 * dist / geom.SpeedOfLight
}

// AnalyzePairs steps the topology from t=0 through cfg.Duration and returns
// aggregated statistics for every pair. A "path change" is counted when the
// satellite sequence differs between two successive connected steps, the
// paper's definition: a disconnection in between does not reset it.
func AnalyzePairs(topo *routing.Topology, cfg Config) ([]PairStats, error) {
	w, err := newWindow(topo, cfg)
	if err != nil {
		return nil, err
	}
	stats := make([]PairStats, len(w.pairs))
	lastPath := make([][]int, len(w.pairs)) // satellite sequence at the last connected step
	for i, p := range w.pairs {
		stats[i] = PairStats{
			Src: p[0], Dst: p[1],
			GeodesicRTT: geom.GeodesicRTT(
				topo.GroundStations[p[0]].Position,
				topo.GroundStations[p[1]].Position),
			MinRTT:  math.Inf(1),
			MinHops: math.MaxInt32,
		}
	}
	w.run(func(_, i int, dist float64, path []int) {
		st := &stats[i]
		st.Steps++
		if path == nil {
			st.DisconnectedSteps++
			return
		}
		r := rtt(dist)
		st.MinRTT = min(st.MinRTT, r)
		st.MaxRTT = max(st.MaxRTT, r)
		hops := len(path) - 1
		st.MinHops = min(st.MinHops, hops)
		st.MaxHops = max(st.MaxHops, hops)
		if trackPath(topo, &lastPath[i], path) {
			st.PathChanges++
		}
	})
	return stats, nil
}

// ChangeProfile is the output of PathChangeProfile: per-step and per-pair
// path-change counts at one granularity.
type ChangeProfile struct {
	Step float64 // seconds
	// PerStep[k] is the number of pairs whose path changed between step
	// k-1 and step k (PerStep[0] is always 0).
	PerStep []int
	// PerPair[i] is the total change count for pair i (cfg order).
	PerPair []int
	Pairs   [][2]int
}

// PathChangeProfile computes path-change counts at the given granularity —
// the raw material of Fig 9, where coarser forwarding-state updates are
// shown to miss path changes entirely. Unlike AnalyzePairs, a disconnected
// step resets the pair: the first path after it is not a change.
func PathChangeProfile(topo *routing.Topology, cfg Config) (*ChangeProfile, error) {
	w, err := newWindow(topo, cfg)
	if err != nil {
		return nil, err
	}
	prof := &ChangeProfile{
		Step:    w.step,
		PerStep: make([]int, w.steps),
		PerPair: make([]int, len(w.pairs)),
		Pairs:   w.pairs,
	}
	lastPath := make([][]int, len(w.pairs))
	w.run(func(k, i int, _ float64, path []int) {
		if path == nil {
			lastPath[i] = lastPath[i][:0]
			return
		}
		if trackPath(topo, &lastPath[i], path) {
			prof.PerStep[k]++
			prof.PerPair[i]++
		}
	})
	return prof, nil
}

// MissedChanges compares a coarse profile against a fine-grained baseline
// over the same pairs and returns, per pair, how many changes the coarse
// granularity missed (never negative).
func MissedChanges(baseline, coarse *ChangeProfile) ([]int, error) {
	if len(baseline.PerPair) != len(coarse.PerPair) {
		return nil, fmt.Errorf("analysis: profiles cover different pair sets")
	}
	out := make([]int, len(baseline.PerPair))
	for i := range out {
		d := baseline.PerPair[i] - coarse.PerPair[i]
		if d < 0 {
			d = 0
		}
		out[i] = d
	}
	return out, nil
}

// RTTSeries returns the computed RTT (seconds; +Inf when disconnected) of
// one pair at every step — the "Computed" curve of Fig 3. duration and step
// are validated as Config's Duration and Step (step 0 picks 100 ms).
func RTTSeries(topo *routing.Topology, src, dst int, duration, step float64) ([]float64, error) {
	w, err := newWindow(topo, Config{Duration: duration, Step: step, Pairs: [][2]int{{src, dst}}})
	if err != nil {
		return nil, err
	}
	out := make([]float64, w.steps)
	w.run(func(k, _ int, dist float64, _ []int) { out[k] = rtt(dist) })
	return out, nil
}
