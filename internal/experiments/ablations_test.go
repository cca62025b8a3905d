package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"hypatia/internal/analysis"
	"hypatia/internal/constellation"
	"hypatia/internal/routing"
)

func TestAblationMultipath(t *testing.T) {
	stats, rep, err := AblationMultipath(3, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("constellations = %d", len(stats))
	}
	for _, st := range stats {
		if st.Pairs == 0 {
			t.Errorf("%s: no connected pairs", st.Name)
			continue
		}
		if len(st.KthStretch) == 0 || st.KthStretch[0] != 1 {
			t.Errorf("%s: first path stretch = %v, want exactly 1", st.Name, st.KthStretch)
		}
		for i := 1; i < len(st.KthStretch); i++ {
			if st.KthStretch[i] < st.KthStretch[i-1] {
				t.Errorf("%s: stretches decrease: %v", st.Name, st.KthStretch)
			}
		}
		if st.DisjointFraction < 0 || st.DisjointFraction > 1 {
			t.Errorf("%s: disjoint fraction %v", st.Name, st.DisjointFraction)
		}
	}
	if !strings.Contains(rep.String(), "stretch") {
		t.Error("report missing stretch column")
	}
}

func TestAblationGSLPolicy(t *testing.T) {
	stats, rep, err := AblationGSLPolicy(6, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("policies = %d", len(stats))
	}
	free, nearest := stats[0], stats[1]
	if free.Policy != "free" || nearest.Policy != "nearest-only" {
		t.Fatalf("order: %+v", stats)
	}
	// Restricting attachment can only make paths equal or worse.
	if nearest.MedianRTT+1e-9 < free.MedianRTT {
		t.Errorf("nearest-only median RTT %v below free %v", nearest.MedianRTT, free.MedianRTT)
	}
	if nearest.Disconnected < free.Disconnected {
		t.Errorf("nearest-only disconnected %d below free %d", nearest.Disconnected, free.Disconnected)
	}
	if !strings.Contains(rep.String(), "nearest-only") {
		t.Error("report missing policy rows")
	}
	if want := scratchGSLPolicy(t, 6, 10, 5); !reflect.DeepEqual(stats, want) {
		t.Errorf("stats differ from the from-scratch snapshot loop:\n got %+v\nwant %+v", stats, want)
	}
}

// scratchGSLPolicy is AblationGSLPolicy's measurement on a fresh
// Topology.Snapshot per step, the from-scratch reference its engine-backed
// loop must reproduce bitwise.
func scratchGSLPolicy(t *testing.T, samplePairs int, duration, step float64) []GSLPolicyStats {
	t.Helper()
	gss := PaperCities()
	pairs := RandomPermutationPairs(len(gss), Seed)[:samplePairs]
	c, err := constellation.Generate(constellation.Kuiper())
	if err != nil {
		t.Fatal(err)
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
			t.Fatal(err)
		}
		st := GSLPolicyStats{Policy: mode.name}
		var rtts []float64
		for ts := 0.0; ts <= duration; ts += step {
			snap := topo.Snapshot(ts)
			for _, p := range pairs {
				st.Samples++
				if rtt := snap.RTT(p[0], p[1]); math.IsInf(rtt, 1) {
					st.Disconnected++
				} else {
					rtts = append(rtts, rtt)
				}
			}
		}
		if len(rtts) > 0 {
			st.MedianRTT = analysis.NewECDF(rtts).Median()
		}
		out = append(out, st)
	}
	return out
}

func TestCoverageReport(t *testing.T) {
	rep, err := CoverageReport(300)
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, want := range []string{"Starlink", "Kuiper", "Telesat", "Saint Petersburg", "Singapore"} {
		if !strings.Contains(out, want) {
			t.Errorf("coverage report missing %q", want)
		}
	}
}

func TestGravityPairs(t *testing.T) {
	gss := PaperCities()
	pairs := GravityPairs(gss, 50, Seed)
	if len(pairs) != 50 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	seen := map[[2]int]bool{}
	counts := map[int]int{}
	for _, p := range pairs {
		if p[0] == p[1] {
			t.Fatal("self pair")
		}
		if seen[p] {
			t.Fatal("duplicate ordered pair")
		}
		seen[p] = true
		counts[p[0]]++
		counts[p[1]]++
	}
	// Deterministic.
	again := GravityPairs(gss, 50, Seed)
	for i := range pairs {
		if pairs[i] != again[i] {
			t.Fatal("not deterministic")
		}
	}
	// Population bias: the top-10 cities should appear far more often than
	// the bottom-10 across a larger sample.
	big := GravityPairs(gss, 500, Seed)
	top, bottom := 0, 0
	for _, p := range big {
		for _, e := range p {
			if e < 10 {
				top++
			}
			if e >= 90 {
				bottom++
			}
		}
	}
	if top <= bottom {
		t.Errorf("gravity model not biased: top-10 %d vs bottom-10 %d", top, bottom)
	}
}
