//go:build hypatia_checks

package routing

import (
	"math"
	"sync/atomic"

	"hypatia/internal/check"
)

// oracleComparisons counts the trees the incremental engine has verified
// against the from-scratch oracle. check.sh asserts it is nonzero after the
// routing, core and analysis tests, so a refactor cannot silently stop
// exercising the incremental path.
var oracleComparisons atomic.Uint64

// OracleComparisons reports how many trees have been oracle-verified so far
// in this process (always 0 in unchecked builds).
func OracleComparisons() uint64 { return oracleComparisons.Load() }

// oracleCheck re-derives every tree Solve just produced from scratch —
// fresh snapshot, fresh prune, fresh Dijkstra, none of the engine's cached
// state — and fails the run on any bitwise difference in dist or prev. This
// is the differential-oracle discipline: the retained from-scratch
// computation is the specification, the incremental path an optimization
// that must be indistinguishable from it. Step's tables copy prev, and
// analysis reads dist for RTT, so both are checked.
func (e *IncrementalEngine) oracleCheck(tsec float64, srcs []int) {
	snap := e.topo.Snapshot(tsec)
	if e.avoidAny {
		avoid := map[int]bool{}
		for v, a := range e.avoid {
			if a {
				avoid[v] = true
			}
		}
		snap = snap.WithoutNodes(avoid)
	}
	var dist []float64
	var prev []int32
	verify := func(gs int) {
		dist, prev = snap.FromGS(gs, dist, prev)
		for node := range prev {
			check.Assert(e.prev[gs][node] == prev[node],
				"incremental oracle t=%v src gs %d: node %d has predecessor %d, from-scratch says %d",
				tsec, gs, node, e.prev[gs][node], prev[node])
			check.Assert(math.Float64bits(e.dist[gs][node]) == math.Float64bits(dist[node]),
				"incremental oracle t=%v src gs %d: node %d at distance %v, from-scratch says %v",
				tsec, gs, node, e.dist[gs][node], dist[node])
		}
		oracleComparisons.Add(1)
	}
	for _, gs := range srcs {
		verify(gs)
	}
}
