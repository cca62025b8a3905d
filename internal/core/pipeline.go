package core

import (
	"runtime"
	"sync"

	"hypatia/internal/routing"
	"hypatia/internal/sim"
)

// pipelineDepth bounds how many computed-but-uninstalled tables the
// pipeline buffers ahead of the event loop. Each holds one table arena, so
// the depth caps memory. At the default 100 ms update interval, 16 tables
// are 1.6 s of simulated time ahead of the clock.
const pipelineDepth = 16

// pipeline is the forwarding-state precomputation engine. The run's update
// instants are known in advance and each instant's forwarding table is a
// pure function of its time, so one producer goroutine computes tables for
// future instants concurrently with DES execution; the install event for
// instant i then pops a completed table (next) instead of stalling the
// event loop on a snapshot build plus a per-destination shortest-path
// sweep.
//
// Overlap cannot change simulation results: the producer walks the
// instants in order and sends each table down one FIFO channel, each
// table's content depends only on the topology and its instant (never on
// DES state), and the event loop itself stays single-threaded — the only
// code that runs concurrently with it is this precomputation of values the
// serial engine would have computed identically, later.
//
// The default path is a routing.IncrementalEngine: between consecutive
// instants every link weight drifts slightly but the per-destination settle
// orders barely move, so re-solving each tree in its carried order over the
// delta layer's cached-visibility snapshots is far cheaper than recomputing
// each instant from scratch. The instants chain sequentially, since each
// repair starts from the previous instant's settle orders, but within an
// instant the per-destination trees are independent, and the engine fans
// them out over GOMAXPROCS workers. Its tables are bitwise identical to
// the from-scratch ones (the hypatia_checks build re-derives every column
// inside the engine, and the differential suite proves the same end to
// end). A custom Strategy is an opaque function, so it is called on a
// from-scratch snapshot each instant, with the process's full parallelism
// as its worker budget.
//
// The engine draws table buffers from its routing.TablePool; the consumer
// releases each table back to the pool once the next one is installed, so a
// steady-state run cycles a bounded set of arenas.
type pipeline struct {
	topo     *routing.Topology
	strategy Strategy
	active   []int
	times    []sim.Time
	workers  int                        // worker budget handed to a custom Strategy
	eng      *routing.IncrementalEngine // the default path; nil with a custom Strategy

	tables chan *routing.ForwardingTable
	done   chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
}

// newPipeline starts the precomputation engine over the given update
// instants. A nil strategy selects incremental shortest-path routing.
func newPipeline(topo *routing.Topology, strategy Strategy, active []int, times []sim.Time) *pipeline {
	p := &pipeline{
		topo:     topo,
		strategy: strategy,
		active:   active,
		times:    times,
		workers:  runtime.GOMAXPROCS(0),
		tables:   make(chan *routing.ForwardingTable, pipelineDepth),
		done:     make(chan struct{}),
	}
	if strategy == nil {
		p.eng = routing.NewIncrementalEngine(topo, nil)
	}
	p.wg.Add(1)
	go p.producer()
	return p
}

// producer walks the instants in order, computing each one's table and
// sending it to the consumer; the channel's capacity blocks it once
// pipelineDepth tables are waiting. It holds the machine-checked
// no-allocation contract for its steady-state loop: the incremental chain
// reuses the engine's carried arenas end to end and the strategy path
// reuses one snapshot arena, so each instant is produced without touching
// the heap, save for whatever a custom strategy allocates itself. The
// engine is built in newPipeline, on the caller's goroutine.
//
//hypatia:noalloc
func (p *pipeline) producer() {
	defer p.wg.Done()
	var snap *routing.Snapshot
	for _, at := range p.times {
		var ft *routing.ForwardingTable
		if p.eng != nil {
			// Step fans the instant's per-station repairs out over worker
			// goroutines, which the worker contract cannot follow into, so
			// it carries no //hypatia:pure. Its results are nonetheless a
			// function of the instant alone: each repair runs the pure
			// kernel and writes only its own station's arrays.
			//lint:ignore purity Step's fan-out writes disjoint per-station arrays through a pure kernel
			ft = p.eng.Step(at.Seconds(), p.active)
		} else {
			snap = p.topo.SnapshotInto(at.Seconds(), snap)
			ft = p.strategy(snap, p.active, p.workers) //hypatia:allocs(amortized) custom strategies own their allocation budget
		}
		select {
		case p.tables <- ft:
		case <-p.done:
			return
		}
	}
}

// next returns the forwarding table for the next update instant, in order,
// blocking until its precomputation completes. It must be called exactly
// once per instant, from the (single-threaded) event loop.
func (p *pipeline) next() *routing.ForwardingTable {
	return <-p.tables
}

// close stops the producer and waits for it to exit. Only needed when a
// run is abandoned before all update instants were consumed; a run executed
// to completion drains the pipeline and the producer exits on its own.
// Idempotent; must not race with next.
func (p *pipeline) close() {
	p.once.Do(func() { close(p.done) })
	p.wg.Wait()
}
