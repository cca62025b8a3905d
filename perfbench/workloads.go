package main

import (
	"fmt"
	"slices"

	"hypatia"
	"hypatia/internal/experiments"
	"hypatia/internal/geom"
	"hypatia/internal/sim"
)

// A workload builds one repeat of a paper scenario. setup is what a user
// pays before the scenario starts; the returned instance's execute is the
// workload's main call.
type workload struct {
	name string
	// horizon is the simulated seconds one main call covers (per
	// constellation for snapshot-analysis). It is sized so one repeat takes
	// about a wall second on a 2-vCPU host: a 60-second run then takes a
	// median over about fifty repeats.
	horizon float64
	setup   func(seed int64, horizon float64) (*instance, error)
}

// instance is one set-up repeat of a workload.
type instance struct {
	vsec    float64 // simulated seconds the main call covers
	execute func() error
	observe func() observations
	run     *hypatia.Run // packet workloads; nil for snapshot analysis

	// Inputs of the traced run's layer replays.
	topos  []*hypatia.Topology
	active []int // ground stations whose forwarding state the workload computes
}

// close releases an instance whose main call never ran.
func (in *instance) close() {
	if in.run != nil {
		in.run.Close()
	}
}

var workloads = []workload{
	{name: "udp-gravity", horizon: 1, setup: udpGravity},
	{name: "tcp-permutation", horizon: 6, setup: tcpPermutation},
	{name: "pair-ping", horizon: 20, setup: pairPing},
	{name: "snapshot-analysis", horizon: 1.5, setup: snapshotAnalysis},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// endpoints lists the distinct ground stations of the pairs' given sides
// (0 = sources, 1 = destinations) in ascending order.
func endpoints(pairs [][2]int, sides ...int) []int {
	var out []int
	for _, p := range pairs {
		for _, s := range sides {
			if !slices.Contains(out, p[s]) {
				out = append(out, p[s])
			}
		}
	}
	slices.Sort(out)
	return out
}

// dropReasons names each DES drop reason as its metric suffix.
var dropReasons = []struct {
	reason sim.DropReason
	name   string
}{
	{sim.DropQueue, "queue"},
	{sim.DropNoRoute, "no_route"},
	{sim.DropTTL, "ttl"},
	{sim.DropNoHandler, "no_handler"},
	{sim.DropLink, "link"},
}

// packetInstance wraps a run whose transports are attached.
func packetInstance(run *hypatia.Run, horizon float64, active []int, observe func(o *observations)) *instance {
	return &instance{
		vsec: horizon,
		execute: func() error {
			run.Execute()
			return nil
		},
		observe: func() observations {
			o := observations{Delivered: run.Net.Delivered(), Events: run.Sim.Processed()}
			for _, d := range dropReasons {
				o.Drops = append(o.Drops, run.Net.Drops(d.reason))
			}
			observe(&o)
			return o
		},
		run:    run,
		topos:  []*hypatia.Topology{run.Topo},
		active: active,
	}
}

// udpGravity is Fig 2's packet-heavy regime: open-loop 10 Mb/s UDP over
// 200 gravity-sampled pairs on 100 Mb/s links, so the event loop and its
// queues carry most of the work.
func udpGravity(seed int64, horizon float64) (*instance, error) {
	gss := hypatia.Top100Cities()
	pairs := experiments.GravityPairs(gss, 200, seed)
	if len(pairs) != 200 {
		return nil, fmt.Errorf("gravity model gave %d pairs, want 200", len(pairs))
	}
	// UDP sends nothing back, so only destinations need forwarding state.
	active := endpoints(pairs, 1)
	net := hypatia.DefaultNetworkConfig()
	net.ISLRateBps, net.GSLRateBps = 100e6, 100e6
	run, err := hypatia.NewRun(hypatia.RunConfig{
		Constellation:  hypatia.Kuiper(),
		GroundStations: gss,
		Duration:       hypatia.Seconds(horizon),
		Net:            net,
		ActiveDstGS:    active,
	})
	if err != nil {
		return nil, err
	}
	flows := make([]*hypatia.UDPFlow, len(pairs))
	for i, p := range pairs {
		flows[i] = hypatia.NewUDPFlow(run.Net, run.Flows, p[0], p[1], hypatia.UDPConfig{RateBps: 10e6})
		flows[i].Start()
	}
	return packetInstance(run, horizon, active, func(o *observations) {
		for _, f := range flows {
			o.Goodput = append(o.Goodput, f.GoodputBps(run.Cfg.Duration))
			o.UDP = append(o.UDP, udpObs{Sent: f.Sent(), Delivered: int64(f.ReceivedLog.Len())})
		}
	}), nil
}

// tcpPermutation is the Figs 10/14/15 set-up: closed-loop NewReno over the
// paper's random-permutation matrix, starts staggered by 50 ms, with
// forwarding state kept for about a hundred destinations.
func tcpPermutation(seed int64, horizon float64) (*instance, error) {
	gss := hypatia.Top100Cities()
	pairs := experiments.RandomPermutationPairs(len(gss), seed)
	// ACKs flow back to the senders, so both ends need forwarding state.
	active := endpoints(pairs, 0, 1)
	run, err := hypatia.NewRun(hypatia.RunConfig{
		Constellation:  hypatia.Kuiper(),
		GroundStations: gss,
		Duration:       hypatia.Seconds(horizon),
		ActiveDstGS:    active,
	})
	if err != nil {
		return nil, err
	}
	flows := make([]*hypatia.TCPFlow, len(pairs))
	for i, p := range pairs {
		flows[i] = hypatia.NewTCPFlow(run.Net, run.Flows, p[0], p[1], hypatia.TCPConfig{Algorithm: hypatia.NewReno})
		flows[i].StartAfter(hypatia.Time(i) * 50 * hypatia.Millisecond)
	}
	return packetInstance(run, horizon, active, func(o *observations) {
		for _, f := range flows {
			o.Goodput = append(o.Goodput, f.GoodputBps(run.Cfg.Duration))
			o.Retx += f.RetxCount
			o.Timeouts += f.TimeoutCount
		}
	}), nil
}

// pairPing is Fig 3's sparse regime: 1 ms pings over the paper's three
// deep-dive pairs in one run, so per-hop geometry dominates.
func pairPing(_ int64, horizon float64) (*instance, error) {
	gss := hypatia.Top100Cities()
	var pairs [][2]int
	for _, names := range experiments.PaperPairs {
		src, dst := experiments.PairByNames(gss, names[0], names[1])
		pairs = append(pairs, [2]int{src, dst})
	}
	active := endpoints(pairs, 0, 1)
	run, err := hypatia.NewRun(hypatia.RunConfig{
		Constellation:  hypatia.Kuiper(),
		GroundStations: gss,
		Duration:       hypatia.Seconds(horizon),
		ActiveDstGS:    active,
	})
	if err != nil {
		return nil, err
	}
	pingers := make([]*hypatia.Pinger, len(pairs))
	for i, p := range pairs {
		pingers[i] = hypatia.NewPinger(run.Net, run.Flows, p[0], p[1], hypatia.PingConfig{Interval: hypatia.Millisecond})
		pingers[i].Start()
	}
	return packetInstance(run, horizon, active, func(o *observations) {
		for i, p := range pingers {
			po := pingObs{Bound: geom.GeodesicRTT(gss[pairs[i][0]].Position, gss[pairs[i][1]].Position)}
			for _, r := range p.Results() {
				po.Sent++
				if r.Replied {
					po.Replied++
					po.RTTs = append(po.RTTs, r.RTT.Seconds())
				}
			}
			po.Lost = p.LossCount()
			o.Pings = append(o.Pings, po)
		}
	}), nil
}

// snapshotAnalysis is Figs 6-8: AnalyzePairs over one shell of each
// operator at 100 ms steps, pairs closer than 500 km excluded. There is no
// DES; from-scratch snapshots and per-source Dijkstra do the work, and it is
// the one workload that varies constellation size.
func snapshotAnalysis(_ int64, horizon float64) (*instance, error) {
	gss := hypatia.Top100Cities()
	in := &instance{}
	for _, cfg := range []hypatia.ConstellationConfig{hypatia.Starlink(), hypatia.Kuiper(), hypatia.Telesat()} {
		c, err := hypatia.GenerateConstellation(cfg)
		if err != nil {
			return nil, err
		}
		topo, err := hypatia.NewTopology(c, gss, hypatia.GSLFree)
		if err != nil {
			return nil, err
		}
		in.topos = append(in.topos, topo)
		in.vsec += horizon
	}
	stats := make([][]hypatia.PairStats, len(in.topos))
	in.execute = func() error {
		for i, topo := range in.topos {
			s, err := hypatia.AnalyzePairs(topo, hypatia.AnalysisConfig{Duration: horizon, ExcludePairsCloserThan: 500e3})
			if err != nil {
				return err
			}
			stats[i] = s
		}
		return nil
	}
	in.observe = func() observations {
		var o observations
		for _, s := range stats {
			o.Pairs = append(o.Pairs, s...)
		}
		return o
	}
	// Every pair's source needs a tree per step: the analysis's "active set".
	for i := range gss {
		for j := i + 1; j < len(gss); j++ {
			if geom.Haversine(gss[i].Position, gss[j].Position) >= 500e3 {
				in.active = append(in.active, i)
				break
			}
		}
	}
	return in, nil
}
