package experiments

import (
	"math"
	"strings"
	"testing"

	"hypatia/internal/sim"
)

func TestFig3and4PathStudiesSmall(t *testing.T) {
	studies, rep, err := Fig3and4PathStudies(Scale{Duration: 5}, 20*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(studies) != 3 {
		t.Fatalf("studies = %d", len(studies))
	}
	for _, s := range studies {
		if len(s.ComputedRTT) != 51 {
			t.Errorf("%s: computed samples = %d", s.Name, len(s.ComputedRTT))
		}
		if len(s.Pings) == 0 {
			t.Errorf("%s: no pings", s.Name)
		}
		if s.Cwnd.Len() == 0 {
			t.Errorf("%s: no cwnd log", s.Name)
		}
		if len(s.BDPPlusQ) != len(s.ComputedRTT) {
			t.Errorf("%s: BDP+Q series mismatch", s.Name)
		}
		// The paper's validation: pings and computed RTTs match closely.
		if s.DisconnectedSteps < len(s.ComputedRTT) {
			if agree := pingComputedAgreement(s); agree < 0.8 {
				t.Errorf("%s: ping/computed agreement only %.0f%%", s.Name, agree*100)
			}
		}
		// BDP+Q: with 10 Mb/s and ~25-100 ms RTTs, BDP is 20-90 packets on
		// top of the 100-packet queue.
		for i, v := range s.BDPPlusQ {
			if math.IsInf(v, 1) {
				continue
			}
			if v < 100 || v > 300 {
				t.Errorf("%s: BDP+Q[%d] = %v implausible", s.Name, i, v)
				break
			}
		}
	}
	if !strings.Contains(rep.String(), "Rio de Janeiro") {
		t.Error("report missing pair rows")
	}
}

func TestFig10to15CrossTrafficSmall(t *testing.T) {
	res, rep, err := Fig10to15CrossTraffic(CrossTrafficConfig{
		Scale: Scale{Duration: 6, Pairs: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.UnusedBandwidth) == 0 || len(res.StaticUnused) == 0 {
		t.Fatal("missing unused-bandwidth series")
	}
	for w, v := range res.UnusedBandwidth {
		if math.IsNaN(v) {
			continue
		}
		if v < 0 || v > 10e6+1 {
			t.Errorf("unused[%d] = %v out of range", w, v)
		}
	}
	if len(res.NetworkLoads) == 0 {
		t.Error("no ISLs carried traffic")
	}
	for _, l := range res.NetworkLoads {
		if l.Utilization <= 0 || l.Utilization > 1.01 {
			t.Errorf("ISL %d->%d utilization %v", l.From, l.To, l.Utilization)
		}
	}
	if !strings.HasPrefix(res.Fig15SVG, "<svg") {
		t.Error("Fig 15 SVG malformed")
	}
	if !strings.Contains(rep.String(), "unused") {
		t.Error("report missing unused-bandwidth rows")
	}

	// Both Fig 10 series must equal the from-scratch computation: a fresh
	// Topology.Snapshot path at every window (at t=0 for the frozen run).
	cfg := CrossTrafficConfig{Scale: Scale{Duration: 6, Pairs: 8}}.withDefaults()
	src, dst := PairByNames(PaperCities(), cfg.ObservedSrc, cfg.ObservedDst)
	pairs := crossTrafficPairs(cfg, src, dst)
	for _, frozen := range []bool{false, true} {
		run, mon, err := runCrossTraffic(cfg, pairs, frozen)
		if err != nil {
			t.Fatal(err)
		}
		got := res.UnusedBandwidth
		if frozen {
			got = res.StaticUnused
		}
		want := make([]float64, mon.Windows())
		for w := range want {
			ts := float64(w)
			if frozen {
				ts = 0
			}
			path, _ := run.Topo.Snapshot(ts).Path(src, dst)
			if path == nil {
				want[w] = math.NaN()
				continue
			}
			rate := run.Cfg.Net.GSLRateBps
			want[w] = (1 - mon.MaxOnPathUtilization(path, w, rate)) * rate
			if want[w] < 0 {
				want[w] = 0
			}
		}
		if len(got) != len(want) {
			t.Fatalf("frozen=%v: %d windows, from scratch %d", frozen, len(got), len(want))
		}
		for w := range want {
			if math.Float64bits(got[w]) != math.Float64bits(want[w]) {
				t.Errorf("frozen=%v window %d: unused %v, from scratch %v", frozen, w, got[w], want[w])
			}
		}
	}
}

func TestAppendixBentPipeSmall(t *testing.T) {
	res, rep, err := AppendixBentPipe(BentPipeConfig{Scale: Scale{Duration: 8}})
	if err != nil {
		t.Fatal(err)
	}
	islMean, islN := meanFinite(res.ISLComputedRTT)
	bentMean, bentN := meanFinite(res.BentComputedRTT)
	if islN == 0 || bentN == 0 {
		t.Fatal("one of the modes never connected")
	}
	// Appendix A: bent-pipe connectivity has higher RTT (typically ~5 ms).
	if bentMean <= islMean {
		t.Errorf("bent-pipe RTT %.1fms not above ISL RTT %.1fms", bentMean*1e3, islMean*1e3)
	}
	if res.ISLGoodput <= 0 || res.BentGoodput <= 0 {
		t.Errorf("goodputs: ISL %v, bent %v", res.ISLGoodput, res.BentGoodput)
	}
	if !strings.HasPrefix(res.ISLPathSVG, "<svg") || !strings.HasPrefix(res.BentPathSVG, "<svg") {
		t.Error("path SVGs malformed")
	}
	if !strings.Contains(rep.String(), "bent-pipe") {
		t.Error("report missing comparison rows")
	}
}

func TestFig6to8AnalysisTiny(t *testing.T) {
	// Very coarse: 4 s horizon at 2 s steps, but all three constellations.
	all, rep, err := Fig6to8Analysis(Scale{Duration: 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("constellations = %d", len(all))
	}
	for _, c := range all {
		if len(c.Stats) == 0 {
			t.Errorf("%s: no pairs", c.Name)
		}
		conn := c.connected()
		if len(conn) < len(c.Stats)/2 {
			t.Errorf("%s: only %d/%d pairs connected", c.Name, len(conn), len(c.Stats))
		}
	}
	out := rep.String()
	for _, want := range []string{"Starlink", "Kuiper", "Telesat", "Fig 6", "Fig 7", "Fig 8"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}
