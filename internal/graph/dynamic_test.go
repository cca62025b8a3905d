package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// edgeKey identifies an undirected edge for test bookkeeping.
type edgeKey struct{ a, b int32 }

// fromEdgeSet builds a graph over n nodes from an edge set.
func fromEdgeSet(n int, m map[edgeKey]float64) *Graph {
	g := New(n)
	// Deterministic insertion order is irrelevant for results (Dijkstra's
	// output is canonical) but keeps failures reproducible.
	for v := 0; v < n; v++ {
		for u := v + 1; u < n; u++ {
			if w, ok := m[edgeKey{int32(v), int32(u)}]; ok {
				g.AddEdge(v, u, w)
			}
		}
	}
	return g
}

// randomEdgeSet draws a connected-ish random graph. Integer weights force
// shortest-path ties; float weights exercise the generic drift case.
func randomEdgeSet(rng *rand.Rand, n int, extraEdges int, intWeights bool) map[edgeKey]float64 {
	w := func() float64 {
		if intWeights {
			return float64(1 + rng.Intn(4))
		}
		return 1 + 10*rng.Float64()
	}
	m := map[edgeKey]float64{}
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		m[edgeKey{int32(u), int32(v)}] = w()
	}
	for i := 0; i < extraEdges; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		m[edgeKey{int32(a), int32(b)}] = w()
	}
	return m
}

// mutateEdgeSet applies k random mutations — weight drifts, removals, and
// insertions — and returns the new edge set.
func mutateEdgeSet(rng *rand.Rand, n int, old map[edgeKey]float64, k int, intWeights bool) map[edgeKey]float64 {
	m := map[edgeKey]float64{}
	for key, w := range old {
		m[key] = w
	}
	keys := make([]edgeKey, 0, len(m))
	for key := range old {
		keys = append(keys, key)
	}
	for i := 0; i < k; i++ {
		switch op := rng.Intn(3); {
		case op == 0 && len(keys) > 0: // drift
			key := keys[rng.Intn(len(keys))]
			if _, ok := m[key]; ok {
				if intWeights {
					m[key] = float64(1 + rng.Intn(4))
				} else {
					m[key] *= 0.8 + 0.4*rng.Float64()
				}
			}
		case op == 1 && len(keys) > 0: // remove
			delete(m, keys[rng.Intn(len(keys))])
		default: // insert
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			if intWeights {
				m[edgeKey{int32(a), int32(b)}] = float64(1 + rng.Intn(4))
			} else {
				m[edgeKey{int32(a), int32(b)}] = 1 + 10*rng.Float64()
			}
		}
	}
	return m
}

func sameSSSP(t *testing.T, tag string, dist, wantDist []float64, prev, wantPrev []int32) {
	t.Helper()
	for i := range dist {
		if dist[i] != wantDist[i] || prev[i] != wantPrev[i] {
			t.Fatalf("%s: node %d: got (dist=%v, prev=%d), scratch Dijkstra gives (dist=%v, prev=%d)",
				tag, i, dist[i], prev[i], wantDist[i], wantPrev[i])
		}
	}
}

// settleOrder returns the Dijkstra settle order of a solution — the order
// the incremental engine carries from one instant into the next repair.
func settleOrder(dist []float64) []int32 {
	order := identityOrder(len(dist))
	slices.SortFunc(order, func(a, b int32) int { return orderCmp(dist, a, b) })
	return order
}

// identityOrder is the order a destination's first repair starts from.
func identityOrder(n int) []int32 {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	return order
}

// shuffledOrder is a deliberately stale order: a random permutation.
func shuffledOrder(rng *rand.Rand, n int) []int32 {
	order := identityOrder(n)
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// TestRepairSSSPMatchesDijkstra is the core property: re-solving over the
// mutated graph is bitwise identical to running Dijkstra from scratch on
// it — distances and predecessors both — for float and tie-heavy integer
// weights alike, whatever the starting order: the old solution's settle
// order, that order as maintained by a previous repair, the identity order
// of a first repair, or a shuffled one. Order affects cost only.
func TestRepairSSSPMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var rsc RepairScratch
	for trial := 0; trial < 120; trial++ {
		n := 4 + rng.Intn(40)
		intW := trial%3 == 0
		oldSet := randomEdgeSet(rng, n, rng.Intn(3*n), intW)
		newSet := mutateEdgeSet(rng, n, oldSet, 1+rng.Intn(2+n/2), intW)
		oldG, newG := fromEdgeSet(n, oldSet), fromEdgeSet(n, newSet)
		src := rng.Intn(n)
		wantDist, wantPrev := newG.Dijkstra(src, nil, nil)
		baseDist, basePrev := oldG.Dijkstra(src, nil, nil)

		order := settleOrder(baseDist)
		dist := append([]float64(nil), baseDist...)
		prev := append([]int32(nil), basePrev...)
		newG.RepairSSSPDense(src, dist, prev, order, &rsc)
		sameSSSP(t, "carriedOrder", dist, wantDist, prev, wantPrev)
		// The maintained order must remain a usable permutation: a second
		// repair over it on the same graph reproduces the same solution.
		newG.RepairSSSPDense(src, dist, prev, order, &rsc)
		sameSSSP(t, "carriedOrder/again", dist, wantDist, prev, wantPrev)

		for _, stale := range []struct {
			name  string
			order []int32
		}{
			{"identityOrder", identityOrder(n)},
			{"shuffledOrder", shuffledOrder(rng, n)},
		} {
			for i := range dist {
				dist[i] = -1 // the repair must not read prior dist/prev
				prev[i] = -7
			}
			newG.RepairSSSPDense(src, dist, prev, stale.order, &rsc)
			sameSSSP(t, stale.name, dist, wantDist, prev, wantPrev)
		}
	}
}

// TestRepairSSSPChain carries one solution and its settle order through a
// long mutation chain, repairing in place at every step from the identity
// order onward — the exact usage pattern of the incremental
// forwarding-state engine.
func TestRepairSSSPChain(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var rsc RepairScratch
	n := 30
	cur := randomEdgeSet(rng, n, 2*n, false)
	src := 7
	dist, prev := make([]float64, n), make([]int32, n)
	order := identityOrder(n)
	for step := 0; step < 60; step++ {
		next := mutateEdgeSet(rng, n, cur, 1+rng.Intn(6), step%4 == 0)
		ng := fromEdgeSet(n, next)
		ng.RepairSSSPDense(src, dist, prev, order, &rsc)
		wantDist, wantPrev := ng.Dijkstra(src, nil, nil)
		sameSSSP(t, "chain", dist, wantDist, prev, wantPrev)
		cur = next
	}
}

// TestRepairSSSPBellmanFord cross-checks the repaired solution, computed
// from a stale (shuffled) order, against the algorithmically independent
// Bellman-Ford fixpoint: distances bitwise equal, predecessor tree
// loop-free and achieving those distances.
func TestRepairSSSPBellmanFord(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var rsc RepairScratch
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(25)
		intW := trial%2 == 0
		oldSet := randomEdgeSet(rng, n, rng.Intn(2*n), intW)
		newSet := mutateEdgeSet(rng, n, oldSet, 1+rng.Intn(8), intW)
		oldG, newG := fromEdgeSet(n, oldSet), fromEdgeSet(n, newSet)
		src := rng.Intn(n)
		dist, prev := oldG.Dijkstra(src, nil, nil)
		newG.RepairSSSPDense(src, dist, prev, shuffledOrder(rng, n), &rsc)

		bfDist, _ := newG.BellmanFord(src)
		for v := range bfDist {
			if dist[v] != bfDist[v] {
				t.Fatalf("trial %d node %d: repaired dist %v, Bellman-Ford %v", trial, v, dist[v], bfDist[v])
			}
		}
		for v := 0; v < n; v++ {
			switch {
			case v == src:
				if prev[v] != int32(src) {
					t.Fatalf("prev[src] = %d", prev[v])
				}
			case math.IsInf(dist[v], 1):
				if prev[v] != -1 {
					t.Fatalf("unreachable node %d has prev %d", v, prev[v])
				}
			default:
				if PathFromPrev(prev, src, v, nil) == nil {
					t.Fatalf("node %d reachable (dist %v) but prev tree yields no path", v, dist[v])
				}
				achieved := false
				for _, e := range newG.Neighbors(v) {
					if e.To == prev[v] && dist[prev[v]]+e.W == dist[v] {
						achieved = true
						break
					}
				}
				if !achieved {
					t.Fatalf("node %d: prev %d does not achieve dist %v", v, prev[v], dist[v])
				}
			}
		}
	}
}

// TestRepairSSSPUntouchedRegion pins the disconnected case: with changes
// confined to the source's component, every node of the other component
// comes out unreachable (dist +Inf, prev -1) at every step of a
// carried-order chain, and the whole solution matches Dijkstra.
func TestRepairSSSPUntouchedRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var rsc RepairScratch
	nA, nB := 12, 12
	n := nA + nB
	set := map[edgeKey]float64{}
	// Component A on nodes [0,nA), component B on [nA, n); no cross edges.
	for v := 1; v < nA; v++ {
		set[edgeKey{int32(rng.Intn(v)), int32(v)}] = 1 + 10*rng.Float64()
	}
	for v := nA + 1; v < n; v++ {
		set[edgeKey{int32(nA + rng.Intn(v-nA)), int32(v)}] = 1 + 10*rng.Float64()
	}
	src := 0 // in component A; component B is unreachable
	dist, prev := fromEdgeSet(n, set).Dijkstra(src, nil, nil)
	order := settleOrder(dist)
	for step := 0; step < 20; step++ {
		next := map[edgeKey]float64{}
		for k, w := range set {
			next[k] = w
		}
		// Mutate only component-A edges.
		for k := range set {
			if int(k.b) < nA && rng.Intn(3) == 0 {
				next[k] = 1 + 10*rng.Float64()
			}
		}
		ng := fromEdgeSet(n, next)
		ng.RepairSSSPDense(src, dist, prev, order, &rsc)
		for v := nA; v < n; v++ {
			if !math.IsInf(dist[v], 1) || prev[v] != -1 {
				t.Fatalf("step %d: unreachable node %d came out dist %v prev %d", step, v, dist[v], prev[v])
			}
		}
		wantDist, wantPrev := ng.Dijkstra(src, nil, nil)
		sameSSSP(t, "untouched", dist, wantDist, prev, wantPrev)
		set = next
	}
}

// TestRepairSSSPNoChanges: re-solving on an unchanged graph from the
// solution's own settle order reproduces the arrays bitwise and leaves the
// order as it was (the engine re-solves every instant, changed or not).
func TestRepairSSSPNoChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var rsc RepairScratch
	g := fromEdgeSet(10, randomEdgeSet(rng, 10, 12, false))
	dist, prev := g.Dijkstra(3, nil, nil)
	order := settleOrder(dist)
	wantOrder := slices.Clone(order)
	d2 := append([]float64(nil), dist...)
	p2 := append([]int32(nil), prev...)
	g.RepairSSSPDense(3, d2, p2, order, &rsc)
	sameSSSP(t, "nochange", d2, dist, p2, prev)
	if !slices.Equal(order, wantOrder) {
		t.Fatalf("settle order changed on an unchanged graph: %v, want %v", order, wantOrder)
	}
}

// FuzzRepairSSSP drives the repair with fuzzer-chosen topology mutations
// and a seed-chosen starting order (the old solution's, identity, or
// shuffled); the oracle is always a from-scratch Dijkstra on the mutated
// graph.
func FuzzRepairSSSP(f *testing.F) {
	f.Add(int64(1), 10, 8, false)
	f.Add(int64(2), 25, 40, true)
	f.Add(int64(3), 6, 2, false)
	f.Add(int64(4), 50, 100, true)
	f.Fuzz(func(t *testing.T, seed int64, n, mutations int, intW bool) {
		if n < 2 || n > 200 || mutations < 0 || mutations > 400 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		var rsc RepairScratch
		oldSet := randomEdgeSet(rng, n, rng.Intn(3*n), intW)
		newSet := mutateEdgeSet(rng, n, oldSet, mutations, intW)
		oldG, newG := fromEdgeSet(n, oldSet), fromEdgeSet(n, newSet)
		src := rng.Intn(n)
		dist, prev := oldG.Dijkstra(src, nil, nil)
		var order []int32
		switch rng.Intn(3) {
		case 0:
			order = settleOrder(dist)
		case 1:
			order = identityOrder(n)
		default:
			order = shuffledOrder(rng, n)
		}
		newG.RepairSSSPDense(src, dist, prev, order, &rsc)
		wantDist, wantPrev := newG.Dijkstra(src, nil, nil)
		for i := range dist {
			if dist[i] != wantDist[i] || prev[i] != wantPrev[i] {
				t.Fatalf("node %d: repaired (dist=%v, prev=%d) != scratch (dist=%v, prev=%d)",
					i, dist[i], prev[i], wantDist[i], wantPrev[i])
			}
		}
	})
}
