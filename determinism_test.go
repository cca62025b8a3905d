package hypatia

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// tcpScenario builds and executes a fixed end-to-end scenario — Kuiper shell,
// top-100 cities, one TCP flow with a packet tracer attached — and returns a
// digest of everything observable: the event count, the flow's transfer and
// loss-recovery statistics, and the raw trace bytes.
func tcpScenario(t *testing.T) (processed uint64, flowStats string, traceBytes string) {
	t.Helper()
	run, err := NewRun(RunConfig{
		Constellation:  Kuiper(),
		GroundStations: Top100Cities(),
		Duration:       Seconds(2),
		ActiveDstGS:    []int{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	tr := NewTracer(&buf)
	tr.Attach(run.Net)
	flow := NewTCPFlow(run.Net, run.Flows, 0, 1, TCPConfig{})
	flow.Start()
	run.Execute()
	if err := tr.Detach(); err != nil {
		t.Fatal(err)
	}
	stats := fmt.Sprintf("acked=%d acks=%d retx=%d timeouts=%d fastretx=%d cwndlog=%d",
		flow.AckedSegments, flow.AcksReceived, flow.RetxCount,
		flow.TimeoutCount, flow.FastRetxCount, len(flow.CwndLog.Samples))
	return run.Sim.Processed(), stats, buf.String()
}

// TestDeterministicReplay is the determinism regression test: the same
// scenario executed twice within one process must be bit-for-bit identical —
// same event count, same flow statistics, and a byte-identical packet trace.
// Any nondeterminism (map-order iteration feeding the scheduler, wall-clock
// reads, unseeded randomness) shows up here as a diff.
func TestDeterministicReplay(t *testing.T) {
	p1, s1, tr1 := tcpScenario(t)
	p2, s2, tr2 := tcpScenario(t)
	if p1 != p2 {
		t.Errorf("processed events differ across replays: %d vs %d", p1, p2)
	}
	if s1 != s2 {
		t.Errorf("flow stats differ across replays:\n  run 1: %s\n  run 2: %s", s1, s2)
	}
	if p1 == 0 || len(tr1) == 0 {
		t.Fatalf("scenario produced no activity (processed=%d, trace=%d bytes)", p1, len(tr1))
	}
	if tr1 != tr2 {
		i := 0
		for i < len(tr1) && i < len(tr2) && tr1[i] == tr2[i] {
			i++
		}
		lo := max(0, i-80)
		t.Errorf("packet traces diverge at byte %d:\n  run 1: ...%q\n  run 2: ...%q",
			i, tr1[lo:min(len(tr1), i+80)], tr2[lo:min(len(tr2), i+80)])
	}
}

// udpTieScenario runs 30 UDP flows among six cities, all started at t=0 at
// one rate, so many events share an instant across nodes and within one
// node, and returns the event count and the packet trace. Unlike the single
// TCP flow, its trace changes when the event order breaks ties on owner or
// seq differently.
func udpTieScenario(t *testing.T) (processed uint64, traceBytes string) {
	t.Helper()
	run, err := NewRun(RunConfig{
		Constellation:  Kuiper(),
		GroundStations: Top100Cities(),
		Duration:       Seconds(0.3),
		ActiveDstGS:    []int{0, 1, 2, 3, 4, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	tr := NewTracer(&buf)
	tr.Attach(run.Net)
	for src := 0; src < 6; src++ {
		for dst := 0; dst < 6; dst++ {
			if src != dst {
				NewUDPFlow(run.Net, run.Flows, src, dst, UDPConfig{RateBps: 20e6}).Start()
			}
		}
	}
	run.Execute()
	if err := tr.Detach(); err != nil {
		t.Fatal(err)
	}
	return run.Sim.Processed(), buf.String()
}

// TestTraceDigestPinned pins two scenarios' event counts and the sha256 of
// their packet traces to constants. TestDeterministicReplay only compares
// two runs of one binary, so an event queue that is self-consistent but
// breaks ties differently would pass it; this test fails on a change to the
// canonical pop order that reaches a trace. Update the constants only for a
// change meant to alter simulated behaviour, and say so.
func TestTraceDigestPinned(t *testing.T) {
	tcpProcessed, _, tcpTrace := tcpScenario(t)
	udpProcessed, udpTrace := udpTieScenario(t)
	for _, c := range []struct {
		name          string
		processed     uint64
		trace         string
		wantProcessed uint64
		wantDigest    string
	}{
		{"tcp", tcpProcessed, tcpTrace, 13026, "0ef3e119a2ba119ffffc59ed16b7161e2d8777fbcd2cdbab51346139511325f3"},
		{"udp-ties", udpProcessed, udpTrace, 40587, "b6c389aa507fa1fe8ad7fa95bcb0d5e0145196e4b4ff6f3c58cbfa06c1bb4a5c"},
	} {
		sum := sha256.Sum256([]byte(c.trace))
		if c.processed != c.wantProcessed {
			t.Errorf("%s: processed %d events, pinned %d", c.name, c.processed, c.wantProcessed)
		}
		if got := hex.EncodeToString(sum[:]); got != c.wantDigest {
			t.Errorf("%s: trace sha256 %s (%d bytes), pinned %s", c.name, got, len(c.trace), c.wantDigest)
		}
	}
}
