package core

import (
	"math"
	"testing"

	"hypatia/internal/constellation"
	"hypatia/internal/groundstation"
	"hypatia/internal/routing"
	"hypatia/internal/sim"
	"hypatia/internal/transport"
)

// miniConfig is a small constellation that still covers mid-latitudes.
func miniConfig() constellation.Config {
	return constellation.Config{
		Name: "Mini",
		Shells: []constellation.Shell{{
			Name: "M1", AltitudeKm: 630, Orbits: 16, SatsPerOrbit: 16,
			IncDeg: 53,
		}},
		MinElevDeg: 25,
	}
}

// fourCities returns a small, well-spread GS set from the main dataset.
func fourCities(t *testing.T) []groundstation.GS {
	t.Helper()
	all := groundstation.Top100Cities()
	var out []groundstation.GS
	for i, name := range []string{"Istanbul", "Nairobi", "Manila", "Rio de Janeiro"} {
		g := groundstation.MustByName(all, name)
		g.ID = i
		out = append(out, g)
	}
	return out
}

func TestNewRunDefaults(t *testing.T) {
	r, err := NewRun(RunConfig{
		Constellation:  miniConfig(),
		GroundStations: fourCities(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cfg.Duration != 200*sim.Second {
		t.Errorf("duration default = %v", r.Cfg.Duration)
	}
	if r.Cfg.UpdateInterval != 100*sim.Millisecond {
		t.Errorf("interval default = %v", r.Cfg.UpdateInterval)
	}
	if r.Cfg.Net.QueuePackets != 100 {
		t.Errorf("net default = %+v", r.Cfg.Net)
	}
	if r.UpdatesInstalled() != 1 {
		t.Errorf("updates installed before Execute = %d", r.UpdatesInstalled())
	}
}

// TestNewRunRejectsBadInputs holds NewRun to returning an error, not
// panicking, for every configuration it cannot run. The out-of-range
// destination used to panic on the forwarding-state producer goroutine,
// which kills the process; the negative horizons panicked in makeslice.
// A negative hop limit and a non-finite link rate used to run silently:
// the first dropped every packet at the TTL check, the second priced every
// transmission with a garbage serialization time.
func TestNewRunRejectsBadInputs(t *testing.T) {
	gs := fourCities(t)
	for _, tc := range []struct {
		name string
		cfg  RunConfig
	}{
		{"empty constellation", RunConfig{GroundStations: gs}},
		{"no ground stations", RunConfig{Constellation: miniConfig()}},
		{"destination past the last station", RunConfig{Constellation: miniConfig(), GroundStations: gs, ActiveDstGS: []int{99}}},
		{"destination equal to the station count", RunConfig{Constellation: miniConfig(), GroundStations: gs, ActiveDstGS: []int{0, len(gs)}}},
		{"negative destination", RunConfig{Constellation: miniConfig(), GroundStations: gs, ActiveDstGS: []int{-1}}},
		{"negative duration", RunConfig{Constellation: miniConfig(), GroundStations: gs, Duration: -sim.Second}},
		{"negative update interval", RunConfig{Constellation: miniConfig(), GroundStations: gs, UpdateInterval: -sim.Millisecond}},
		{"negative position quantum", RunConfig{Constellation: miniConfig(), GroundStations: gs, Net: sim.Config{PosQuantum: -sim.Millisecond}}},
		{"negative hop limit", RunConfig{Constellation: miniConfig(), GroundStations: gs, Net: sim.Config{MaxHops: -1}}},
		{"NaN GSL rate", RunConfig{Constellation: miniConfig(), GroundStations: gs, Net: sim.Config{GSLRateBps: math.NaN()}}},
		{"infinite ISL rate", RunConfig{Constellation: miniConfig(), GroundStations: gs, Net: sim.Config{ISLRateBps: math.Inf(1)}}},
		{"infinite RateFor result", RunConfig{Constellation: miniConfig(), GroundStations: gs, Net: sim.Config{RateFor: func(node, peer int) float64 { return math.Inf(1) }}}},
		{"NaN RateFor result", RunConfig{Constellation: miniConfig(), GroundStations: gs, Net: sim.Config{RateFor: func(node, peer int) float64 { return math.NaN() }}}},
		{"negative RateFor result on one ISL", RunConfig{Constellation: miniConfig(), GroundStations: gs, Net: sim.Config{RateFor: func(node, peer int) float64 {
			if node == 5 && peer >= 0 {
				return -1e6
			}
			return 0
		}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewRun(tc.cfg)
			if err == nil {
				r.Close()
				t.Fatalf("NewRun accepted %+v", tc.cfg)
			}
		})
	}
}

func TestForwardingUpdatesInstalledEveryInterval(t *testing.T) {
	r, err := NewRun(RunConfig{
		Constellation:  miniConfig(),
		GroundStations: fourCities(t),
		Duration:       2 * sim.Second,
		UpdateInterval: 100 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Execute()
	// t=0 plus 20 periodic updates (t = 0.1 .. 2.0).
	if got := r.UpdatesInstalled(); got != 21 {
		t.Errorf("updates installed = %d, want 21", got)
	}
}

func TestPingOverRun(t *testing.T) {
	r, err := NewRun(RunConfig{
		Constellation:  miniConfig(),
		GroundStations: fourCities(t),
		Duration:       2 * sim.Second,
		ActiveDstGS:    []int{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := transport.NewPinger(r.Net, r.Flows, 0, 1, transport.PingConfig{Interval: 10 * sim.Millisecond})
	p.Start()
	r.Execute()
	replied := 0
	for _, res := range p.Results() {
		if res.Replied {
			replied++
		}
	}
	if replied < 150 {
		t.Errorf("only %d pings replied over 2 s", replied)
	}
	// Measured RTTs must match the snapshot computation within a couple of
	// milliseconds (the paper's ping-vs-computed validation).
	snap := r.Topo.Snapshot(1.0)
	want := snap.RTT(0, 1)
	if math.IsInf(want, 1) {
		t.Skip("pair disconnected in mini constellation")
	}
	var at1s float64
	for _, res := range p.Results() {
		if res.Replied && res.SentAt >= sim.Second {
			at1s = res.RTT.Seconds()
			break
		}
	}
	if math.Abs(at1s-want) > 0.005 {
		t.Errorf("ping RTT %v vs computed %v", at1s, want)
	}
}

func TestPartialForwardingTableMatchesFull(t *testing.T) {
	cfg := RunConfig{
		Constellation:  miniConfig(),
		GroundStations: fourCities(t),
	}.withDefaults()
	c, _ := constellation.Generate(cfg.Constellation)
	topo, _ := routing.NewTopology(c, cfg.GroundStations, routing.GSLFree)
	snap := topo.Snapshot(5)
	full := snap.ForwardingTable()
	partial := PartialForwardingTable(snap, []int{1, 3}, 4)
	for node := 0; node < topo.NumNodes(); node++ {
		for _, gs := range []int{1, 3} {
			if full.NextHop(node, gs) != partial.NextHop(node, gs) {
				t.Fatalf("partial differs at node %d dst %d", node, gs)
			}
		}
		for _, gs := range []int{0, 2} {
			if partial.NextHop(node, gs) != -1 {
				t.Fatalf("inactive destination %d has entry at node %d", gs, node)
			}
		}
	}
}

func TestForwardingTableParallelDeterministic(t *testing.T) {
	cfg := RunConfig{
		Constellation:  miniConfig(),
		GroundStations: fourCities(t),
	}.withDefaults()
	c, _ := constellation.Generate(cfg.Constellation)
	topo, _ := routing.NewTopology(c, cfg.GroundStations, routing.GSLFree)
	snap := topo.Snapshot(42)
	sequential := snap.ForwardingTable()
	for trial := 0; trial < 3; trial++ {
		par := ForwardingTableParallel(snap, 8)
		for node := 0; node < topo.NumNodes(); node++ {
			for gs := 0; gs < topo.NumGS(); gs++ {
				if sequential.NextHop(node, gs) != par.NextHop(node, gs) {
					t.Fatalf("parallel table differs at node %d dst %d", node, gs)
				}
			}
		}
	}
}

func TestGSIndexByName(t *testing.T) {
	r, err := NewRun(RunConfig{
		Constellation:  miniConfig(),
		GroundStations: fourCities(t),
		Duration:       sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := r.GSIndexByName("Manila")
	if err != nil {
		t.Fatal(err)
	}
	if idx != 2 {
		t.Errorf("Manila index = %d", idx)
	}
	if _, err := r.GSIndexByName("Atlantis"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestTCPOverDynamicRun(t *testing.T) {
	// End-to-end: a TCP flow over a moving constellation with forwarding
	// updates must sustain throughput.
	r, err := NewRun(RunConfig{
		Constellation:  miniConfig(),
		GroundStations: fourCities(t),
		Duration:       10 * sim.Second,
		ActiveDstGS:    []int{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := transport.NewTCPFlow(r.Net, r.Flows, 0, 1, transport.TCPConfig{})
	f.Start()
	r.Execute()
	if f.AckedSegments < 100 {
		t.Errorf("TCP moved only %d segments in 10 s", f.AckedSegments)
	}
}

func TestRunDeterminism(t *testing.T) {
	run := func() (int64, uint64) {
		r, err := NewRun(RunConfig{
			Constellation:  miniConfig(),
			GroundStations: fourCities(t),
			Duration:       5 * sim.Second,
			ActiveDstGS:    []int{0, 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		f := transport.NewTCPFlow(r.Net, r.Flows, 0, 1, transport.TCPConfig{})
		f.Start()
		r.Execute()
		return f.AckedSegments, r.Sim.Processed()
	}
	a1, e1 := run()
	a2, e2 := run()
	if a1 != a2 || e1 != e2 {
		t.Errorf("runs differ: acked %d vs %d, events %d vs %d", a1, a2, e1, e2)
	}
}

func TestCustomRoutingStrategyAvoidNodes(t *testing.T) {
	// Route around a "failed" satellite: the one on the default path.
	cfg := RunConfig{
		Constellation:  miniConfig(),
		GroundStations: fourCities(t),
		Duration:       sim.Second,
		ActiveDstGS:    []int{0, 1},
	}
	base, err := NewRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path, _ := base.Topo.Snapshot(0).Path(0, 1)
	if path == nil || len(path) < 3 {
		t.Skip("pair disconnected in mini constellation")
	}
	failed := path[1] // first satellite on the default path

	cfg.Strategy = AvoidNodes(ShortestPath, failed)
	run, err := NewRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := transport.NewPinger(run.Net, run.Flows, 0, 1, transport.PingConfig{Interval: 100 * sim.Millisecond})
	p.Start()

	// Observe which nodes packets actually traverse.
	visited := map[int]bool{}
	run.Net.SetTransmitHook(func(ti sim.TransmitInfo) {
		visited[ti.From] = true
		visited[ti.To] = true
	})
	run.Execute()

	replied := 0
	for _, r := range p.Results() {
		if r.Replied {
			replied++
		}
	}
	if replied == 0 {
		t.Fatal("no pings survived rerouting around the failed satellite")
	}
	if visited[failed] {
		t.Errorf("traffic still traversed excluded satellite %d", failed)
	}
}

func TestAvoidNodesExcludedNeverOnPath(t *testing.T) {
	// An AvoidNodes table must never route any packet through an excluded
	// node: walk PathVia from every source toward every destination and
	// check each hop.
	cfg := RunConfig{
		Constellation:  miniConfig(),
		GroundStations: fourCities(t),
	}.withDefaults()
	c, _ := constellation.Generate(cfg.Constellation)
	topo, _ := routing.NewTopology(c, cfg.GroundStations, routing.GSLFree)
	snap := topo.Snapshot(7)

	// Exclude the first two satellites on the 0->1 default path, if any.
	avoid := map[int]bool{}
	if path, _ := snap.Path(0, 1); len(path) >= 4 {
		avoid[path[1]] = true
		avoid[path[2]] = true
	} else {
		avoid[0] = true
		avoid[1] = true
	}
	var nodes []int
	for n := range avoid {
		nodes = append(nodes, n)
	}
	ft := AvoidNodes(ShortestPath, nodes...)(snap, nil, 2)

	walked := 0
	for src := 0; src < topo.NumNodes(); src++ {
		for gs := 0; gs < topo.NumGS(); gs++ {
			path := ft.PathVia(topo, src, gs)
			if path == nil {
				continue
			}
			walked++
			// The source itself may be an excluded node (it still appears
			// as the walk's origin); no later hop may be excluded.
			for _, v := range path[1:] {
				if avoid[v] {
					t.Fatalf("path %d->gs%d traverses excluded node %d: %v", src, gs, v, path)
				}
			}
		}
	}
	if walked == 0 {
		t.Fatal("no reachable pairs left after exclusion; test exercised nothing")
	}
	// Excluded nodes themselves must have no outgoing next hops.
	for n := range avoid {
		for gs := 0; gs < topo.NumGS(); gs++ {
			if topo.GSNode(gs) != n && ft.NextHop(n, gs) != -1 {
				t.Errorf("excluded node %d has next hop toward gs %d", n, gs)
			}
		}
	}
}

func TestAvoidNodesAllExcludedUnreachable(t *testing.T) {
	// Excluding every node yields a table where nothing is reachable.
	cfg := RunConfig{
		Constellation:  miniConfig(),
		GroundStations: fourCities(t),
	}.withDefaults()
	c, _ := constellation.Generate(cfg.Constellation)
	topo, _ := routing.NewTopology(c, cfg.GroundStations, routing.GSLFree)
	snap := topo.Snapshot(0)
	all := make([]int, topo.NumNodes())
	for i := range all {
		all[i] = i
	}
	ft := AvoidNodes(ShortestPath, all...)(snap, nil, 2)
	for node := 0; node < topo.NumNodes(); node++ {
		for gs := 0; gs < topo.NumGS(); gs++ {
			if node == topo.GSNode(gs) {
				continue // a destination trivially "reaches" itself
			}
			if nh := ft.NextHop(node, gs); nh != -1 {
				t.Fatalf("all-excluded graph: node %d still has next hop %d toward gs %d", node, nh, gs)
			}
		}
	}
}

func TestWithoutNodesPreservesOtherPaths(t *testing.T) {
	cfg := RunConfig{
		Constellation:  miniConfig(),
		GroundStations: fourCities(t),
	}.withDefaults()
	c, _ := constellation.Generate(cfg.Constellation)
	topo, _ := routing.NewTopology(c, cfg.GroundStations, routing.GSLFree)
	snap := topo.Snapshot(0)
	pruned := snap.WithoutNodes(map[int]bool{0: true})
	if pruned.G.N() != snap.G.N() {
		t.Fatal("node count changed")
	}
	if len(pruned.G.Neighbors(0)) != 0 {
		t.Error("excluded node still has edges")
	}
	// Edge count drops by exactly node 0's degree.
	if snap.G.NumEdges()-pruned.G.NumEdges() != len(snap.G.Neighbors(0)) {
		t.Errorf("edges: %d -> %d, node degree %d",
			snap.G.NumEdges(), pruned.G.NumEdges(), len(snap.G.Neighbors(0)))
	}
}
