package experiments

import (
	"fmt"
	"math"

	"hypatia/internal/analysis"
	"hypatia/internal/constellation"
	"hypatia/internal/geom"
	"hypatia/internal/routing"
)

// MultipathStats summarizes path diversity for one constellation: how many
// near-shortest alternatives a pair has, and how much worse the k-th path
// is — the raw material for the multi-path routing and traffic-engineering
// directions §5.4 and §7 of the paper point to.
type MultipathStats struct {
	Name string
	// KthStretch[k-1] is the median (across sampled pairs) of
	// weight(path k) / weight(path 1).
	KthStretch []float64
	// DisjointFraction is the fraction of sampled pairs whose 2nd path
	// shares no satellite with the shortest.
	DisjointFraction float64
	Pairs            int
}

// AblationMultipath measures k-shortest-path diversity across the three
// constellations at one instant, over a sample of city pairs.
func AblationMultipath(k int, samplePairs int, t float64) ([]MultipathStats, *Report, error) {
	gss := PaperCities()
	pairs := RandomPermutationPairs(len(gss), Seed)
	if samplePairs > 0 && len(pairs) > samplePairs {
		pairs = pairs[:samplePairs]
	}
	var out []MultipathStats
	for _, cfg := range paperConstellations() {
		topo, err := buildTopology(cfg, gss)
		if err != nil {
			return nil, nil, err
		}
		snap := topo.Snapshot(t)
		stretchesByK := make([][]float64, k)
		disjoint, connected := 0, 0
		for _, p := range pairs {
			paths := snap.KShortestPaths(p[0], p[1], k)
			if len(paths) == 0 {
				continue
			}
			connected++
			for i, wp := range paths {
				stretchesByK[i] = append(stretchesByK[i], wp.Weight/paths[0].Weight)
			}
			if len(paths) > 1 && satDisjoint(topo, paths[0].Nodes, paths[1].Nodes) {
				disjoint++
			}
		}
		st := MultipathStats{Name: cfg.Name, Pairs: connected}
		for i := 0; i < k; i++ {
			if len(stretchesByK[i]) > 0 {
				st.KthStretch = append(st.KthStretch, analysis.NewECDF(stretchesByK[i]).Median())
			}
		}
		if connected > 0 {
			st.DisjointFraction = float64(disjoint) / float64(connected)
		}
		out = append(out, st)
	}
	rep := &Report{Title: "Ablation: multi-path diversity (k shortest paths at one instant)"}
	rep.Addf("%-10s %6s %28s %18s", "network", "pairs", "median stretch of paths 1..k", "2nd-path disjoint")
	for _, st := range out {
		rep.Addf("%-10s %6d %28s %17.1f%%", st.Name, st.Pairs, fmtStretches(st.KthStretch), 100*st.DisjointFraction)
	}
	rep.Addf("")
	rep.Addf("Near-1.0 stretches mean traffic engineering has real alternatives to")
	rep.Addf("shift load onto before links become bottlenecks (paper 5.4).")
	return out, rep, nil
}

func fmtStretches(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3f", x)
	}
	return s
}

func satDisjoint(topo *routing.Topology, a, b []int) bool {
	seen := map[int]bool{}
	for _, v := range routing.SatSequence(topo, a, nil) {
		seen[v] = true
	}
	for _, v := range routing.SatSequence(topo, b, nil) {
		if seen[v] {
			return false
		}
	}
	return true
}

// GSLPolicyStats compares free vs nearest-only ground-station attachment.
type GSLPolicyStats struct {
	Policy       string
	MedianRTT    float64 // seconds, median over sampled pairs and steps
	Disconnected int     // pair-steps without a route
	Samples      int
}

// AblationGSLPolicy quantifies what restricting each ground station to its
// nearest satellite (single-antenna user terminals) costs relative to the
// paper's default of free attachment, over Kuiper K1.
func AblationGSLPolicy(samplePairs int, duration, step float64) ([]GSLPolicyStats, *Report, error) {
	gss := PaperCities()
	pairs := RandomPermutationPairs(len(gss), Seed)
	if samplePairs > 0 && len(pairs) > samplePairs {
		pairs = pairs[:samplePairs]
	}
	c, err := constellation.Generate(constellation.Kuiper())
	if err != nil {
		return nil, nil, err
	}
	var out []GSLPolicyStats
	for _, mode := range []struct {
		name   string
		policy routing.GSLPolicy
	}{
		{"free", routing.GSLFree},
		{"nearest-only", routing.GSLNearestOnly},
	} {
		topo, err := routing.NewTopology(c, gss, mode.policy)
		if err != nil {
			return nil, nil, err
		}
		eng := routing.NewIncrementalEngine(topo, nil)
		var srcs []int
		for _, p := range pairs {
			srcs = append(srcs, p[0])
		}
		var rtts []float64
		disconnected, samples := 0, 0
		for ts := 0.0; ts <= duration; ts += step {
			eng.Solve(ts, srcs)
			for _, p := range pairs {
				samples++
				dist, _ := eng.Tree(p[0])
				d := dist[topo.GSNode(p[1])]
				if math.IsInf(d, 1) {
					disconnected++
					continue
				}
				rtts = append(rtts, 2*d/geom.SpeedOfLight)
			}
		}
		st := GSLPolicyStats{Policy: mode.name, Disconnected: disconnected, Samples: samples}
		if len(rtts) > 0 {
			st.MedianRTT = analysis.NewECDF(rtts).Median()
		}
		out = append(out, st)
	}
	rep := &Report{Title: "Ablation: GSL attachment policy (Kuiper K1)"}
	rep.Addf("%-14s %12s %14s", "policy", "median RTT", "disconnected")
	for _, st := range out {
		rep.Addf("%-14s %10.1fms %10d/%d", st.Policy, st.MedianRTT*1e3, st.Disconnected, st.Samples)
	}
	return out, rep, nil
}
