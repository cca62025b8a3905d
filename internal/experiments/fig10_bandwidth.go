package experiments

import (
	"math"

	"hypatia/internal/analysis"
	"hypatia/internal/constellation"
	"hypatia/internal/core"
	"hypatia/internal/graph"
	"hypatia/internal/routing"
	"hypatia/internal/sim"
	"hypatia/internal/transport"
	"hypatia/internal/viz"
)

// CrossTrafficResult carries everything the cross-traffic experiment
// produces: the Fig 10 unused-bandwidth series for the observed pair, the
// Fig 14 on-path utilization snapshots, and the Fig 15 network-wide link
// loads, plus rendered SVGs.
type CrossTrafficResult struct {
	// UnusedBandwidth[w] is the observed pair's unused path capacity
	// (bits/s) in 1-second window w; NaN when the pair is disconnected.
	UnusedBandwidth []float64
	// StaticUnused is the same series for the network frozen at t=0.
	StaticUnused []float64

	// PathLoadsEarly/Late are the directed on-path link utilizations of
	// the Fig 14 pair at the two snapshot times.
	PathLoadsEarly, PathLoadsLate []viz.LinkLoad
	Fig14SVGEarly, Fig14SVGLate   string

	// NetworkLoads are all directed ISL utilizations averaged over the
	// run; Fig15SVG renders them.
	NetworkLoads []viz.LinkLoad
	Fig15SVG     string
}

// CrossTrafficConfig parameterizes the Fig 10/14/15 experiment.
type CrossTrafficConfig struct {
	Scale Scale
	// ObservedPair (Fig 10) defaults to Rio de Janeiro - Saint Petersburg.
	ObservedSrc, ObservedDst string
	// UtilizationPair (Fig 14) defaults to Chicago - Zhengzhou.
	UtilSrc, UtilDst string
	// SnapshotTimes for Fig 14 (defaults 10 s and 3/4 of the horizon).
	EarlyT, LateT float64
}

func (c CrossTrafficConfig) withDefaults() CrossTrafficConfig {
	if c.Scale.Duration == 0 {
		c.Scale = PaperScale()
	}
	if c.ObservedSrc == "" {
		c.ObservedSrc, c.ObservedDst = "Rio de Janeiro", "Saint Petersburg"
	}
	if c.UtilSrc == "" {
		c.UtilSrc, c.UtilDst = "Chicago", "Zhengzhou"
	}
	if c.EarlyT == 0 {
		c.EarlyT = 10
	}
	if c.LateT == 0 {
		c.LateT = 0.75 * c.Scale.Duration
	}
	return c
}

// Fig10to15CrossTraffic runs the paper's constellation-wide traffic
// experiment: long-running TCP NewReno flows between a random permutation
// of the 100 cities over Kuiper K1 at 10 Mb/s, with shortest-path routing
// recomputed every 100 ms. From one simulation it extracts the unused
// bandwidth of the observed pair over time (Fig 10), the utilization along
// an example path at two instants (Fig 14), and the network-wide
// bottleneck map (Fig 15). A second, frozen-at-t=0 run provides Fig 10's
// static-network baseline.
func Fig10to15CrossTraffic(cfg CrossTrafficConfig) (*CrossTrafficResult, *Report, error) {
	cfg = cfg.withDefaults()
	gss := PaperCities()
	obsSrc, obsDst := PairByNames(gss, cfg.ObservedSrc, cfg.ObservedDst)
	utilSrc, utilDst := PairByNames(gss, cfg.UtilSrc, cfg.UtilDst)

	pairs := crossTrafficPairs(cfg, obsSrc, obsDst)

	res := &CrossTrafficResult{}

	// Dynamic run.
	dyn, mon, err := runCrossTraffic(cfg, pairs, false)
	if err != nil {
		return nil, nil, err
	}
	res.UnusedBandwidth = unusedSeries(dyn, mon, obsSrc, obsDst, false)

	// Fig 14: on-path utilization of the example pair at two instants.
	res.PathLoadsEarly, res.Fig14SVGEarly = pathLoads(dyn, mon, utilSrc, utilDst, cfg.EarlyT)
	res.PathLoadsLate, res.Fig14SVGLate = pathLoads(dyn, mon, utilSrc, utilDst, cfg.LateT)

	// Fig 15: average ISL utilization network-wide.
	res.NetworkLoads = networkLoads(dyn, mon)
	res.Fig15SVG = viz.UtilizationMapSVG(dyn.Topo, res.NetworkLoads, cfg.Scale.Duration/2, 0, 0)

	// Static baseline for Fig 10.
	static, smon, err := runCrossTraffic(cfg, pairs, true)
	if err != nil {
		return nil, nil, err
	}
	res.StaticUnused = unusedSeries(static, smon, obsSrc, obsDst, true)

	rep := crossTrafficReport(cfg, res)
	return res, rep, nil
}

// crossTrafficPairs builds the random-permutation matrix, dropping pairs
// that would collide with the observed pair's endpoints (the paper also
// removes pairs sharing the observed pair's ingress/egress satellites so
// the first and last hops are not the bottleneck; endpoint exclusion is the
// stable part of that filter under a moving constellation).
func crossTrafficPairs(cfg CrossTrafficConfig, obsSrc, obsDst int) [][2]int {
	all := RandomPermutationPairs(100, Seed)
	var pairs [][2]int
	for _, p := range all {
		if p[0] == obsSrc || p[0] == obsDst || p[1] == obsSrc || p[1] == obsDst {
			continue
		}
		pairs = append(pairs, p)
	}
	if cfg.Scale.Pairs > 0 && len(pairs) > cfg.Scale.Pairs {
		pairs = pairs[:cfg.Scale.Pairs]
	}
	return append(pairs, [2]int{obsSrc, obsDst})
}

// runCrossTraffic executes the permutation-TCP workload. frozen freezes
// both forwarding state and satellite positions at t=0, the paper's
// static-network baseline.
func runCrossTraffic(cfg CrossTrafficConfig, pairs [][2]int, frozen bool) (*core.Run, *LinkMonitor, error) {
	duration := sim.Seconds(cfg.Scale.Duration)
	netCfg := sim.DefaultConfig()
	runCfg := core.RunConfig{
		Constellation:  constellation.Kuiper(),
		GroundStations: PaperCities(),
		Duration:       duration,
		Net:            netCfg,
		ActiveDstGS:    activeDsts(pairs),
	}
	if frozen {
		runCfg.UpdateInterval = duration + sim.Second // never updates past t=0
		runCfg.Net.PosQuantum = duration + sim.Second // positions pinned at t=0
	}
	run, err := core.NewRun(runCfg)
	if err != nil {
		return nil, nil, err
	}
	mon := NewLinkMonitor(run.Net, sim.Second, duration)
	// Stagger flow starts by 50 ms: synchronized slow starts otherwise
	// produce a loss storm in which classic NewReno (1 s minimum RTO, no
	// SACK) can starve some flows for the whole run. The observed pair
	// (last in the list) starts first so its behavior is visible from t=0.
	for i, p := range pairs {
		flow := transport.NewTCPFlow(run.Net, run.Flows, p[0], p[1], transport.TCPConfig{})
		delay := sim.Time(i+1) * 50 * sim.Millisecond
		if i == len(pairs)-1 {
			delay = 0
		}
		flow.StartAfter(delay)
	}
	run.Execute()
	return run, mon, nil
}

// activeDsts lists every ground station that receives packets: flow
// destinations (data) and flow sources (returning ACKs).
func activeDsts(pairs [][2]int) []int {
	seen := map[int]bool{}
	var out []int
	for _, p := range pairs {
		for _, gs := range p {
			if !seen[gs] {
				seen[gs] = true
				out = append(out, gs)
			}
		}
	}
	return out
}

// unusedSeries computes the Fig 10 series: per 1-second window, the path
// capacity minus the utilization of the most congested on-path link of the
// observed pair's shortest path at that time (at t=0 throughout if frozen).
func unusedSeries(run *core.Run, mon *LinkMonitor, src, dst int, frozen bool) []float64 {
	rate := run.Cfg.Net.GSLRateBps
	out := make([]float64, mon.Windows())
	eng := routing.NewIncrementalEngine(run.Topo, nil)
	var path []int
	for w := range out {
		if w == 0 || !frozen {
			eng.Solve(float64(w), []int{src})
			_, prev := eng.Tree(src)
			path = graph.PathFromPrev(prev, run.Topo.GSNode(src), run.Topo.GSNode(dst), nil)
		}
		if path == nil {
			out[w] = math.NaN()
			continue
		}
		u := mon.MaxOnPathUtilization(path, w, rate)
		out[w] = (1 - u) * rate
		if out[w] < 0 {
			out[w] = 0
		}
	}
	return out
}

// pathLoads extracts the directed utilizations along the pair's path at
// time t (averaged over that 1 s window) and renders the Fig 14 view.
func pathLoads(run *core.Run, mon *LinkMonitor, src, dst int, t float64) ([]viz.LinkLoad, string) {
	path, _ := run.Topo.Snapshot(t).Path(src, dst)
	if path == nil {
		return nil, ""
	}
	rate := run.Cfg.Net.GSLRateBps
	w := int(t)
	var loads []viz.LinkLoad
	for i := 0; i+1 < len(path); i++ {
		loads = append(loads, viz.LinkLoad{
			From: path[i], To: path[i+1],
			Utilization: mon.Utilization(LinkKey{From: path[i], To: path[i+1]}, w, rate),
		})
	}
	return loads, viz.UtilizationMapSVG(run.Topo, loads, t, 0, 0)
}

// networkLoads averages each directed ISL's utilization over the whole run.
func networkLoads(run *core.Run, mon *LinkMonitor) []viz.LinkLoad {
	rate := run.Cfg.Net.ISLRateBps
	nSat := run.Topo.NumSats()
	var loads []viz.LinkLoad
	for _, k := range mon.Links() {
		if k.From >= nSat || k.To >= nSat {
			continue // GSLs excluded from the Fig 15 ISL map
		}
		total := 0.0
		for w := 0; w < mon.Windows(); w++ {
			total += mon.Utilization(k, w, rate)
		}
		u := total / float64(mon.Windows())
		if u > 0 {
			loads = append(loads, viz.LinkLoad{From: k.From, To: k.To, Utilization: u})
		}
	}
	return loads
}

func crossTrafficReport(cfg CrossTrafficConfig, res *CrossTrafficResult) *Report {
	rep := &Report{Title: "Figs 10/14/15: cross-traffic, unused bandwidth, and utilization shifts (Kuiper K1)"}
	rate := 10e6
	frac := func(series []float64, threshold float64) float64 {
		n, hit := 0, 0
		for _, v := range series {
			if math.IsNaN(v) {
				continue
			}
			n++
			if v > threshold {
				hit++
			}
		}
		if n == 0 {
			return 0
		}
		return float64(hit) / float64(n)
	}
	rep.Addf("%s - %s unused bandwidth (1 s windows):", cfg.ObservedSrc, cfg.ObservedDst)
	rep.Addf("  dynamic: %4.1f%% of time more than a third of capacity unused", 100*frac(res.UnusedBandwidth, rate/3))
	rep.Addf("  frozen : %4.1f%% of time more than a third of capacity unused", 100*frac(res.StaticUnused, rate/3))
	rep.Addf("")
	rep.Addf("Fig 14 (%s - %s on-path utilization):", cfg.UtilSrc, cfg.UtilDst)
	mean := func(loads []viz.LinkLoad) float64 {
		if len(loads) == 0 {
			return math.NaN()
		}
		total := 0.0
		for _, l := range loads {
			total += l.Utilization
		}
		return total / float64(len(loads))
	}
	rep.Addf("  t=%5.1fs: %d links, mean utilization %.2f", cfg.EarlyT, len(res.PathLoadsEarly), mean(res.PathLoadsEarly))
	rep.Addf("  t=%5.1fs: %d links, mean utilization %.2f", cfg.LateT, len(res.PathLoadsLate), mean(res.PathLoadsLate))
	rep.Addf("")
	rep.Addf("Fig 15: %d ISLs carried traffic; top 5 hottest:", len(res.NetworkLoads))
	top := append([]viz.LinkLoad(nil), res.NetworkLoads...)
	for i := 0; i < len(top); i++ {
		for j := i + 1; j < len(top); j++ {
			if top[j].Utilization > top[i].Utilization {
				top[i], top[j] = top[j], top[i]
			}
		}
	}
	for i := 0; i < len(top) && i < 5; i++ {
		rep.Addf("  sat %4d -> sat %4d: %.2f", top[i].From, top[i].To, top[i].Utilization)
	}
	return rep
}

// HotspotBands bins a result's network-wide ISL loads into latitude bands
// (Fig 15's geographic-hotspot claim in table form).
func (res *CrossTrafficResult) HotspotBands(topo *routing.Topology, t, bandDeg float64) ([]analysis.LatBandLoad, error) {
	loads := make([]analysis.LoadedLink, len(res.NetworkLoads))
	for i, l := range res.NetworkLoads {
		loads[i] = analysis.LoadedLink{From: l.From, To: l.To, Utilization: l.Utilization}
	}
	return analysis.HotspotsByLatitude(topo, loads, t, bandDeg)
}
