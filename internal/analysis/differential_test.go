package analysis

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"hypatia/internal/check"
	"hypatia/internal/constellation"
	"hypatia/internal/geom"
	"hypatia/internal/graph"
	"hypatia/internal/groundstation"
	"hypatia/internal/routing"
)

// The from-scratch reference below runs a fresh Topology.Snapshot and one
// Dijkstra per source at every step. It is the specification the
// engine-backed window must reproduce bitwise.

// scratchSteps calls visit for every pair at every step of cfg's window, in
// the window's order, with the pair's from-scratch distance and node path.
func scratchSteps(topo *routing.Topology, cfg Config, visit func(k, i int, dist float64, path []int)) {
	if cfg.Step == 0 {
		cfg.Step = 0.1
	}
	pairs := cfg.pairList(topo)
	srcs := map[int]bool{}
	for _, p := range pairs {
		srcs[p[0]] = true
	}
	steps := int(cfg.Duration/cfg.Step) + 1
	for k := 0; k < steps; k++ {
		snap := topo.Snapshot(float64(k) * cfg.Step)
		dists, prevs := map[int][]float64{}, map[int][]int32{}
		for s := range srcs {
			dists[s], prevs[s] = snap.FromGS(s, nil, nil)
		}
		for i, p := range pairs {
			dist, prev := dists[p[0]], prevs[p[0]]
			dstNode := topo.GSNode(p[1])
			if math.IsInf(dist[dstNode], 1) {
				visit(k, i, dist[dstNode], nil)
				continue
			}
			visit(k, i, dist[dstNode], graph.PathFromPrev(prev, topo.GSNode(p[0]), dstNode, nil))
		}
	}
}

func scratchAnalyzePairs(topo *routing.Topology, cfg Config) []PairStats {
	pairs := cfg.pairList(topo)
	stats := make([]PairStats, len(pairs))
	lastPath := make([][]int, len(pairs))
	for i, p := range pairs {
		stats[i] = PairStats{
			Src: p[0], Dst: p[1],
			GeodesicRTT: geom.GeodesicRTT(
				topo.GroundStations[p[0]].Position,
				topo.GroundStations[p[1]].Position),
			MinRTT:  math.Inf(1),
			MinHops: math.MaxInt32,
		}
	}
	scratchSteps(topo, cfg, func(_, i int, dist float64, path []int) {
		st := &stats[i]
		st.Steps++
		if path == nil {
			st.DisconnectedSteps++
			return
		}
		rtt := 2 * dist / geom.SpeedOfLight
		if rtt < st.MinRTT {
			st.MinRTT = rtt
		}
		if rtt > st.MaxRTT {
			st.MaxRTT = rtt
		}
		hops := len(path) - 1
		if hops < st.MinHops {
			st.MinHops = hops
		}
		if hops > st.MaxHops {
			st.MaxHops = hops
		}
		sats := routing.SatSequence(topo, path, nil)
		if lastPath[i] != nil && !slices.Equal(lastPath[i], sats) {
			st.PathChanges++
		}
		lastPath[i] = sats
	})
	return stats
}

func scratchPathChangeProfile(topo *routing.Topology, cfg Config) *ChangeProfile {
	if cfg.Step == 0 {
		cfg.Step = 0.1
	}
	pairs := cfg.pairList(topo)
	steps := int(cfg.Duration/cfg.Step) + 1
	prof := &ChangeProfile{
		Step:    cfg.Step,
		PerStep: make([]int, steps),
		PerPair: make([]int, len(pairs)),
		Pairs:   pairs,
	}
	lastPath := make([][]int, len(pairs))
	scratchSteps(topo, cfg, func(k, i int, _ float64, path []int) {
		if path == nil {
			lastPath[i] = nil
			return
		}
		sats := routing.SatSequence(topo, path, nil)
		if lastPath[i] != nil && !slices.Equal(lastPath[i], sats) {
			prof.PerStep[k]++
			prof.PerPair[i]++
		}
		lastPath[i] = sats
	})
	return prof
}

func scratchRTTSeries(topo *routing.Topology, src, dst int, duration, step float64) []float64 {
	n := int(duration/step) + 1
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = topo.Snapshot(float64(i)*step).RTT(src, dst)
	}
	return out
}

// differentialTopo binds eight cities to one paper shell. Saint Petersburg
// (index 1) sits at the edge of Kuiper K1's coverage, so its pairs
// disconnect and reconnect inside a 200 s window.
func differentialTopo(t *testing.T, cfg constellation.Config, policy routing.GSLPolicy) *routing.Topology {
	t.Helper()
	all := groundstation.Top100Cities()
	var gss []groundstation.GS
	for i, name := range []string{"Rio de Janeiro", "Saint Petersburg", "Moscow", "London", "Manila", "Istanbul", "Paris", "Luanda"} {
		g := groundstation.MustByName(all, name)
		g.ID = i
		gss = append(gss, g)
	}
	c, err := constellation.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := routing.NewTopology(c, gss, policy)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestDifferentialAnalysis: AnalyzePairs, PathChangeProfile and RTTSeries
// on the incremental engine are reflect.DeepEqual to the from-scratch
// per-step snapshot loop, across the three paper shells, both GSL
// policies, 100 ms and 20 s granularity, the all-pairs set, and explicit
// pairs with a repeated source and a pair that disconnects.
func TestDifferentialAnalysis(t *testing.T) {
	explicit := [][2]int{{0, 1}, {0, 2}, {1, 0}, {3, 1}, {0, 2}}
	sawReconnect := false
	for _, shell := range []constellation.Config{constellation.Starlink(), constellation.Kuiper(), constellation.Telesat()} {
		for policy, policyName := range map[routing.GSLPolicy]string{routing.GSLFree: "free", routing.GSLNearestOnly: "nearest"} {
			topo := differentialTopo(t, shell, policy)
			for _, window := range []struct{ duration, step float64 }{{3, 0.1}, {200, 20}} {
				name := fmt.Sprintf("%s/%s/%gs-by-%gs", shell.Name, policyName, window.duration, window.step)
				t.Run(name, func(t *testing.T) {
					all := Config{Duration: window.duration, Step: window.step}
					got, err := AnalyzePairs(topo, all)
					if err != nil {
						t.Fatal(err)
					}
					if want := scratchAnalyzePairs(topo, all); !reflect.DeepEqual(got, want) {
						t.Errorf("AnalyzePairs (all pairs) differs from scratch:\n got %+v\nwant %+v", got, want)
					}

					pairs := Config{Duration: window.duration, Step: window.step, Pairs: explicit}
					got, err = AnalyzePairs(topo, pairs)
					if err != nil {
						t.Fatal(err)
					}
					if want := scratchAnalyzePairs(topo, pairs); !reflect.DeepEqual(got, want) {
						t.Errorf("AnalyzePairs (explicit pairs) differs from scratch:\n got %+v\nwant %+v", got, want)
					}
					for _, st := range got {
						if st.DisconnectedSteps > 0 && st.DisconnectedSteps < st.Steps {
							sawReconnect = true
						}
					}

					prof, err := PathChangeProfile(topo, pairs)
					if err != nil {
						t.Fatal(err)
					}
					if want := scratchPathChangeProfile(topo, pairs); !reflect.DeepEqual(prof, want) {
						t.Errorf("PathChangeProfile differs from scratch:\n got %+v\nwant %+v", prof, want)
					}

					series, err := RTTSeries(topo, 0, 1, window.duration, window.step)
					if err != nil {
						t.Fatal(err)
					}
					if want := scratchRTTSeries(topo, 0, 1, window.duration, window.step); !reflect.DeepEqual(series, want) {
						t.Errorf("RTTSeries differs from scratch:\n got %v\nwant %v", series, want)
					}
				})
			}
		}
	}
	if !sawReconnect {
		t.Error("no explicit pair was both connected and disconnected; the disconnect case went untested")
	}
}

// TestAnalysisOracleExercised is the check.sh self-check hook: under
// -tags hypatia_checks every Solve the analysis makes is oracle-verified,
// and this test fails if that instrumentation has gone dead.
func TestAnalysisOracleExercised(t *testing.T) {
	if !check.Enabled {
		t.Skip("oracle instrumentation requires -tags hypatia_checks")
	}
	topo := miniTopo(t)
	before := routing.OracleComparisons()
	if _, err := AnalyzePairs(topo, Config{Duration: 2, Step: 1}); err != nil {
		t.Fatal(err)
	}
	// 3 steps, 4 distinct sources (every station but the last).
	if got := routing.OracleComparisons(); got < before+3*4 {
		t.Fatalf("oracle comparisons went %d -> %d over an analysis run; engine oracle not exercised", before, got)
	}
}
