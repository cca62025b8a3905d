package experiments

import (
	"fmt"
	"math"

	"hypatia/internal/analysis"
	"hypatia/internal/constellation"
	"hypatia/internal/geom"
	"hypatia/internal/groundstation"
	"hypatia/internal/routing"
	"hypatia/internal/viz"
)

// Fig11Trajectories renders the Fig 11 trajectory snapshots — Telesat T1,
// Kuiper K1, and Starlink S1 with orbits marked — as SVGs keyed by
// constellation name, plus CZML documents for interactive 3D viewing.
func Fig11Trajectories() (map[string]string, map[string][]byte, *Report, error) {
	svgs := map[string]string{}
	czmls := map[string][]byte{}
	rep := &Report{Title: "Fig 11: constellation trajectories (T1, K1, S1)"}
	for _, cfg := range paperConstellations() {
		c, err := constellation.Generate(cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		svgs[cfg.Name] = viz.TrajectoryMapSVG(c, viz.TrajectoryMapOptions{OrbitTrack: true})
		raw, err := viz.ConstellationCZML(c, viz.CZMLOptions{})
		if err != nil {
			return nil, nil, nil, err
		}
		czmls[cfg.Name] = raw
		sh := cfg.Shells[0]
		rep.Addf("%-10s %s: %dx%d at %.0f km, %.2f° — %d satellites, SVG %d bytes, CZML %d bytes",
			cfg.Name, sh.Name, sh.Orbits, sh.SatsPerOrbit, sh.AltitudeKm, sh.IncDeg,
			c.NumSatellites(), len(svgs[cfg.Name]), len(raw))
	}
	return svgs, czmls, rep, nil
}

// Fig12Result is the Fig 12 ground-observer study: sky views from Saint
// Petersburg over Kuiper K1 at a time with connectivity and a time without.
type Fig12Result struct {
	ConnectedT, DisconnectedT     float64
	ConnectedSVG, DisconnectedSVG string
	// Reachable[i] is whether any satellite is connectable at second i.
	Reachable []bool
}

// Fig12GroundObserver scans Kuiper K1 as seen from Saint Petersburg,
// finding intervals with and without connectable satellites (the
// explanation of the Rio de Janeiro outage in Figs 3-5), and renders the
// two sky views of Fig 12.
func Fig12GroundObserver(scanSeconds float64) (*Fig12Result, *Report, error) {
	c, err := constellation.Generate(constellation.Kuiper())
	if err != nil {
		return nil, nil, err
	}
	obs := groundstation.MustByName(PaperCities(), "Saint Petersburg").Position

	res := &Fig12Result{ConnectedT: -1, DisconnectedT: -1}
	for t := 0.0; t <= scanSeconds; t++ {
		visible := len(c.VisibleFrom(obs, t, nil)) > 0
		res.Reachable = append(res.Reachable, visible)
		if visible && res.ConnectedT < 0 {
			res.ConnectedT = t
		}
		if !visible && res.DisconnectedT < 0 {
			res.DisconnectedT = t
		}
	}
	if res.ConnectedT >= 0 {
		res.ConnectedSVG, _ = viz.GroundObserverSVG(c, obs, viz.SkyViewOptions{Time: res.ConnectedT})
	}
	if res.DisconnectedT >= 0 {
		res.DisconnectedSVG, _ = viz.GroundObserverSVG(c, obs, viz.SkyViewOptions{Time: res.DisconnectedT})
	}

	up := 0
	for _, r := range res.Reachable {
		if r {
			up++
		}
	}
	rep := &Report{Title: "Fig 12: ground observer view from Saint Petersburg (Kuiper K1)"}
	rep.Addf("scanned %.0fs: connectable %.1f%% of the time", scanSeconds, 100*float64(up)/float64(len(res.Reachable)))
	rep.Addf("example connected instant: t=%.0fs; example outage instant: t=%.0fs", res.ConnectedT, res.DisconnectedT)
	if res.DisconnectedT < 0 {
		rep.Addf("note: no outage found in scan window — extend the scan")
	}
	return res, rep, nil
}

// Fig13Result is the Fig 13 path-evolution study: the Paris-Luanda path on
// Starlink S1 at its maximum- and minimum-RTT instants.
type Fig13Result struct {
	MaxT, MinT     float64
	MaxRTT, MinRTT float64 // seconds
	MaxPath        []int
	MinPath        []int
	MaxSVG, MinSVG string
}

// Fig13PathEvolution finds the highest- and lowest-RTT instants of the
// Paris-Luanda connection over Starlink S1 (one of the highest-variation
// north-south paths in the paper) and renders both shortest paths. The
// paper's takeaway: such paths hug one orbit as long as possible, and the
// RTT difference comes from how many zig-zag hops the exit requires.
func Fig13PathEvolution(scale Scale, step float64) (*Fig13Result, *Report, error) {
	topo, err := buildTopology(constellation.Starlink(), PaperCities())
	if err != nil {
		return nil, nil, err
	}
	src, dst := PairByNames(topo.GroundStations, "Paris", "Luanda")
	series, err := analysis.RTTSeries(topo, src, dst, scale.Duration, step)
	if err != nil {
		return nil, nil, err
	}

	res := &Fig13Result{MinRTT: math.Inf(1), MaxRTT: -1}
	for i, r := range series {
		if math.IsInf(r, 1) {
			continue
		}
		t := float64(i) * step
		if r > res.MaxRTT {
			res.MaxRTT, res.MaxT = r, t
		}
		if r < res.MinRTT {
			res.MinRTT, res.MinT = r, t
		}
	}
	if res.MaxRTT < 0 {
		return nil, nil, fmt.Errorf("experiments: Paris-Luanda never connected")
	}
	res.MaxPath, _ = topo.Snapshot(res.MaxT).Path(src, dst)
	res.MinPath, _ = topo.Snapshot(res.MinT).Path(src, dst)
	res.MaxSVG = viz.PathMapSVG(topo, res.MaxPath, res.MaxT, 0, 0)
	res.MinSVG = viz.PathMapSVG(topo, res.MinPath, res.MinT, 0, 0)

	rep := &Report{Title: "Fig 13: Paris-Luanda shortest-path evolution (Starlink S1)"}
	rep.Addf("max RTT %.1f ms at t=%.1fs over %d hops (%d satellites)",
		res.MaxRTT*1e3, res.MaxT, len(res.MaxPath)-1, len(routing.SatSequence(topo, res.MaxPath, nil)))
	rep.Addf("min RTT %.1f ms at t=%.1fs over %d hops (%d satellites)",
		res.MinRTT*1e3, res.MinT, len(res.MinPath)-1, len(routing.SatSequence(topo, res.MinPath, nil)))
	rep.Addf("RTT ratio max/min: %.2fx (paper: 117 ms vs 85 ms = 1.38x)", res.MaxRTT/res.MinRTT)
	_ = geom.SpeedOfLight
	return res, rep, nil
}
