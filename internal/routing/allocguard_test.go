package routing

import (
	"fmt"
	"runtime"
	"testing"

	"hypatia/internal/check/checktest"
	"hypatia/internal/graph"
)

// The AllocGuard tests are the runtime half of the //hypatia:noalloc
// contract on this package's hot paths; see internal/check/checktest.

// TestAllocGuardSnapshotInto pins the arena-reusing snapshot path: after a
// warm cycle over the instants the guard revisits, position slabs, graph
// edge slabs, and visibility scratch are all recycled, so building the
// next instant's snapshot allocates nothing.
func TestAllocGuardSnapshotInto(t *testing.T) {
	topo := miniTopo(t, GSLFree)
	var s *Snapshot
	for i := 0; i < 50; i++ {
		s = topo.SnapshotInto(float64(i), s)
	}
	i := 0
	checktest.AllocGuard(t, "Topology.SnapshotInto", 0, 0, func() {
		s = topo.SnapshotInto(float64(i%50), s)
		i++
	})
}

// TestAllocGuardPooledSweep pins the pooled from-scratch forwarding-table
// path: table buffers cycle through the pool, Dijkstra scratch is
// caller-owned, and the release returns every arena, so the steady-state
// sweep stays allocation-free.
func TestAllocGuardPooledSweep(t *testing.T) {
	topo := miniTopo(t, GSLFree)
	snap := topo.Snapshot(0)
	var pool TablePool
	var dist []float64
	var prev []int32
	var sc graph.Scratch
	checktest.AllocGuard(t, "TablePool sweep", 0, 1, func() {
		ft := pool.Empty(snap.T, topo.NumNodes(), topo.NumGS())
		for gs := 0; gs < topo.NumGS(); gs++ {
			dist, prev = snap.FromGSScratch(gs, dist, prev, &sc)
			ft.SetDestination(gs, prev)
		}
		ft.Release()
	})
}

// TestAllocGuardIncrementalStep pins the incremental engine's per-instant
// repair. Step's class is amortized, not zero: as the constellation drifts
// into visibility configurations the run has not seen, delta scratch and
// repair arenas may still grow occasionally, so the budget allows a small
// residue per step rather than none. The budget holds for the one-worker
// loop and for the fan-out alike: an engine built at GOMAXPROCS 4 launches
// its helpers from prebuilt closures onto recycled goroutines.
func TestAllocGuardIncrementalStep(t *testing.T) {
	topo := miniTopo(t, GSLFree)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		eng := NewIncrementalEngine(topo, nil)
		runtime.GOMAXPROCS(prev)
		at := 0.0
		step := func() {
			eng.Step(at, nil).Release()
			at += 0.1
		}
		name := fmt.Sprintf("IncrementalEngine.Step (%d workers)", len(eng.repair))
		checktest.AllocGuard(t, name, 4, 20, step)
	}
}
