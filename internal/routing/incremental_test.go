package routing

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"hypatia/internal/check"
	"hypatia/internal/graph"
)

// sameGraph asserts two graphs carry bitwise-identical edge multisets in
// identical adjacency order.
func sameGraph(t *testing.T, tag string, got, want *graph.Graph) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("%s: %d nodes, want %d", tag, got.N(), want.N())
	}
	for v := 0; v < want.N(); v++ {
		ge, we := got.Neighbors(v), want.Neighbors(v)
		if len(ge) != len(we) {
			t.Fatalf("%s: node %d has %d edges, want %d", tag, v, len(ge), len(we))
		}
		for i := range we {
			if ge[i] != we[i] {
				t.Fatalf("%s: node %d edge %d = %+v, want %+v", tag, v, i, ge[i], we[i])
			}
		}
	}
}

// TestDeltaSnapshotMatchesSnapshotInto proves the delta layer's headline
// contract: every snapshot it produces — margin-cache visibility and all —
// is bitwise identical to a from-scratch SnapshotInto at the same instant,
// across long forward sequences, repeated instants, and backward jumps.
func TestDeltaSnapshotMatchesSnapshotInto(t *testing.T) {
	for _, policy := range []GSLPolicy{GSLFree, GSLNearestOnly} {
		topo := miniTopo(t, policy)
		var d DeltaState
		var fresh *Snapshot
		times := make([]float64, 0, 64)
		for i := 0; i < 50; i++ {
			times = append(times, float64(i)*0.1)
		}
		// Long strides expire margins; repeats and backward jumps must
		// also reproduce the scan exactly.
		times = append(times, 30, 90, 90, 45.05, 200, 0.1)
		for _, tsec := range times {
			snap := topo.deltaSnapshot(tsec, &d)
			fresh = topo.SnapshotInto(tsec, fresh)
			if snap.T != fresh.T {
				t.Fatalf("t=%v: snapshot stamped %v", fresh.T, snap.T)
			}
			for i := range fresh.Pos {
				if snap.Pos[i] != fresh.Pos[i] {
					t.Fatalf("t=%v: node %d position %v, want %v", tsec, i, snap.Pos[i], fresh.Pos[i])
				}
			}
			sameGraph(t, "delta snapshot", snap.G, fresh.G)
		}
	}
}

// engineOracle computes the from-scratch table the engine must match.
func engineOracle(topo *Topology, tsec float64, active []int, avoid map[int]bool) *ForwardingTable {
	snap := topo.Snapshot(tsec)
	if len(avoid) > 0 {
		snap = snap.WithoutNodes(avoid)
	}
	ft := NewEmptyForwardingTable(tsec, topo.NumNodes(), topo.NumGS())
	var dist []float64
	var prev []int32
	if active == nil {
		for gs := 0; gs < topo.NumGS(); gs++ {
			dist, prev = snap.FromGS(gs, dist, prev)
			ft.SetDestination(gs, prev)
		}
		return ft
	}
	for _, gs := range active {
		dist, prev = snap.FromGS(gs, dist, prev)
		ft.SetDestination(gs, prev)
	}
	return ft
}

// TestIncrementalEngineMatchesScratch drives the engine through randomized
// instant sequences — drifting weights, visibility flips, changing active
// sets, and avoid-set strategy switches — and requires every table to be
// byte-identical to the from-scratch computation.
func TestIncrementalEngineMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, policy := range []GSLPolicy{GSLFree, GSLNearestOnly} {
		topo := miniTopo(t, policy)
		eng := NewIncrementalEngine(topo, nil)
		avoid := map[int]bool{}
		tsec := 0.0
		for step := 0; step < 40; step++ {
			tsec += []float64{0.1, 0.1, 0.1, 2.5, 30}[rng.Intn(5)]
			var active []int
			switch rng.Intn(3) {
			case 0: // all destinations
			case 1:
				active = []int{rng.Intn(topo.NumGS())}
			case 2:
				active = []int{0, 1 + rng.Intn(topo.NumGS()-1)}
			}
			if rng.Intn(4) == 0 { // strategy switch
				avoid = map[int]bool{}
				nodes := make([]int, rng.Intn(4))
				for i := range nodes {
					nodes[i] = rng.Intn(topo.NumSats())
					avoid[nodes[i]] = true
				}
				eng.SetAvoid(nodes...)
			}
			got := eng.Step(tsec, active)
			want := engineOracle(topo, tsec, active, avoid)
			if !got.Equal(want) {
				t.Fatalf("policy %v step %d t=%v active=%v avoid=%v: incremental table differs from scratch",
					policy, step, tsec, active, avoid)
			}
			got.Release()
		}
	}
}

// TestIncrementalEngineBackwardTime: the engine must stay exact when the
// clock jumps backward (replays, bisection debugging).
func TestIncrementalEngineBackwardTime(t *testing.T) {
	topo := miniTopo(t, GSLFree)
	eng := NewIncrementalEngine(topo, nil)
	for _, tsec := range []float64{0, 0.1, 0.2, 50, 0.05, 0.1, 3} {
		got := eng.Step(tsec, nil)
		if want := engineOracle(topo, tsec, nil, nil); !got.Equal(want) {
			t.Fatalf("t=%v: incremental table differs from scratch", tsec)
		}
		got.Release()
	}
}

// TestSolveFanOutMatchesOneWorker holds Solve's fan-out to the one-worker
// loop: engines built at GOMAXPROCS 1 and 4 step the same Kuiper K1
// instant sequence (100 ms drift, a coarse jump, a backward jump), through
// Step for every station and Solve for a subset listing each station twice
// in a row (without Solve's deduplication, two workers would repair one
// tree at once). Every tree's dist, prev and carried settle order must
// agree bitwise, and every table must be Equal.
func TestSolveFanOutMatchesOneWorker(t *testing.T) {
	topo := benchTopo(t, GSLFree)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a := NewIncrementalEngine(topo, nil)
	runtime.GOMAXPROCS(4)
	b := NewIncrementalEngine(topo, nil)
	if w := len(b.repair); w != 4 {
		t.Fatalf("engine built at GOMAXPROCS 4 has %d workers", w)
	}
	subset := []int{7, 7, 3, 3, 99, 99, 42, 42, 0, 0}
	for k, tsec := range []float64{0, 0.1, 0.2, 0.3, 5, 5.1, 0.05} {
		if k%2 == 0 {
			one, four := a.Step(tsec, nil), b.Step(tsec, nil)
			if !one.Equal(four) {
				t.Fatalf("t=%v: fanned-out table differs from the one-worker table", tsec)
			}
			one.Release()
			four.Release()
		} else {
			a.Solve(tsec, subset)
			b.Solve(tsec, subset)
		}
		for gs := 0; gs < topo.NumGS(); gs++ {
			for i := range a.dist[gs] {
				if math.Float64bits(a.dist[gs][i]) != math.Float64bits(b.dist[gs][i]) ||
					a.prev[gs][i] != b.prev[gs][i] || a.order[gs][i] != b.order[gs][i] {
					t.Fatalf("t=%v gs %d node %d: one worker has (%v, %d, order %d), four have (%v, %d, order %d)",
						tsec, gs, i, a.dist[gs][i], a.prev[gs][i], a.order[gs][i],
						b.dist[gs][i], b.prev[gs][i], b.order[gs][i])
				}
			}
		}
	}
}

// TestSolveHelperPanicReachesCaller corrupts every station's settle order
// so that every worker's repair panics, helpers included, and requires the
// panic to come out of Solve on the caller's goroutine, after every worker
// has stopped, naming the instant and a station.
func TestSolveHelperPanicReachesCaller(t *testing.T) {
	topo := benchTopo(t, GSLFree)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	e := NewIncrementalEngine(topo, nil)
	if w := len(e.repair); w != 4 {
		t.Fatalf("engine built at GOMAXPROCS 4 has %d workers", w)
	}
	e.Solve(0, nil)
	bad := int32(topo.NumNodes() + 7)
	for gs := range e.order {
		for i := range e.order[gs] {
			e.order[gs][i] = bad
		}
	}
	got := func() (v any) {
		defer func() { v = recover() }()
		e.Solve(0.25, nil)
		return nil
	}()
	msg, _ := got.(string)
	if !strings.Contains(msg, "Solve at t=0.25 s") || !strings.Contains(msg, "toward ground station") ||
		!strings.Contains(msg, "index out of range") {
		t.Fatalf("Solve raised %v, want a panic naming the instant, the station and the cause", got)
	}
	if e.next.Load() < int64(len(e.repair)) {
		t.Fatalf("only %d stations claimed; a worker did not run", e.next.Load())
	}
	for w, f := range e.faults {
		if f.stack != nil {
			t.Fatalf("worker %d fault still held after Solve raised it", w)
		}
	}
}

// TestIncrementalOracleExercised is the check.sh self-check hook: under
// -tags hypatia_checks every Solve oracle-verifies its trees, and this
// test fails if that instrumentation has gone dead (comparison count zero).
func TestIncrementalOracleExercised(t *testing.T) {
	if !check.Enabled {
		t.Skip("oracle instrumentation requires -tags hypatia_checks")
	}
	topo := miniTopo(t, GSLFree)
	eng := NewIncrementalEngine(topo, nil)
	before := OracleComparisons()
	for i := 0; i < 3; i++ {
		eng.Step(float64(i)*0.1, nil).Release()
	}
	if got := OracleComparisons(); got < before+uint64(3*topo.NumGS()) {
		t.Fatalf("oracle comparisons went %d -> %d over 3 full-table steps; incremental path not exercised",
			before, got)
	}
}
