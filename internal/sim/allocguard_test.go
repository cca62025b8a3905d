package sim

import (
	"testing"

	"hypatia/internal/check/checktest"
)

// The AllocGuard tests are the runtime half of the //hypatia:noalloc
// contract on the event engine; see internal/check/checktest.

// TestAllocGuardEventHeap pins the queue machinery the engine lives on:
// once the slab and the bucket chunks have grown to the working-set size,
// fill/drain cycles of pushes and pops allocate nothing. Each cycle's
// instants lie above the last one popped, as the engine's always do.
func TestAllocGuardEventHeap(t *testing.T) {
	var q eventQueue
	var base Time
	checktest.AllocGuard(t, "eventQueue push/pop", 0, 1, func() {
		for i := 0; i < 64; i++ {
			q.push(event{at: base + Time(i*7%64), owner: int32(i % 5), kind: evClosure, seq: uint64(i)})
		}
		for {
			if _, ok := q.popUntil(base+64, false); !ok {
				break
			}
		}
		base += 64
	})
}

// TestAllocGuardPacketPath pins the full per-packet event chain — inject,
// forward, enqueue, serialize, receive, deliver — at one heap allocation
// per packet: the Packet record Send mints by design. Everything after the
// injection (device rings, event records, position cache) reuses
// engine-owned storage.
func TestAllocGuardPacketPath(t *testing.T) {
	s, n, _ := testNet(t, DefaultConfig())
	n.RegisterFlow(1, 1, func(*Packet) {})
	checktest.AllocGuard(t, "packet delivery path", 1, 1, func() {
		n.Send(0, 1, 1, 1500, nil)
		s.Run(s.Now() + Second)
	})
}
