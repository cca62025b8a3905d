package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// eventHeap is the reference the radix queue is checked against: a plain
// binary min-heap of event records under evLess, the engine's queue before
// the radix heap replaced it.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !evLess(&q[i], &q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	*h = q
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && evLess(&q[r], &q[l]) {
			m = r
		}
		if !evLess(&q[m], &q[i]) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	return top
}

// queueDiff drives the radix queue and the reference heap through one
// operation stream, playing the engine's part: every push lands at or after
// now, and now advances to each popped instant and, as Run(until) does, to
// the end of an inclusive window.
type queueDiff struct {
	t   testing.TB
	q   eventQueue
	ref eventHeap
	now Time
	seq uint64
	buf []event
}

// deltas biases pushes toward ties (0), near-ties and far-future timers, so
// both bucket 0's comparator and many radix levels are exercised.
var deltas = [...]Time{0, 0, 0, 1, 1, 2, 3, 5, 8, 63, 64, 65, 1000, Millisecond, Second, 1 << 40}

func sameEvent(a, b *event) bool {
	return a.at == b.at && a.owner == b.owner && a.kind == b.kind && a.key == b.key && a.seq == b.seq
}

func (d *queueDiff) push(delta Time, owner int32, kind evKind, key uint64) {
	e := event{at: d.now + delta, owner: owner, kind: kind, key: key, seq: d.seq}
	d.seq++
	d.q.push(e)
	d.ref.push(e)
	d.checkPeek()
}

func (d *queueDiff) checkPeek() {
	d.t.Helper()
	at, ok := d.q.peek()
	if ok != (len(d.ref) > 0) || d.q.Len() != len(d.ref) {
		d.t.Fatalf("queue has %d events (peek ok=%v), reference %d", d.q.Len(), ok, len(d.ref))
	}
	if ok && at != d.ref[0].at {
		d.t.Fatalf("peek = %v, reference earliest %v", at, d.ref[0].at)
	}
}

// runUntil pops every event due by end from both sides, comparing each.
func (d *queueDiff) runUntil(end Time, inclusive bool) {
	d.t.Helper()
	for {
		e, ok := d.q.popUntil(end, inclusive)
		due := len(d.ref) > 0 && (d.ref[0].at < end || (inclusive && d.ref[0].at == end))
		if ok != due {
			d.t.Fatalf("popUntil(%v, %v) ok=%v, reference due=%v", end, inclusive, ok, due)
		}
		if !ok {
			break
		}
		r := d.ref.pop()
		if !sameEvent(e, &r) {
			d.t.Fatalf("popped %+v, reference %+v", e, r)
		}
		d.now = e.at
	}
	if inclusive && d.now < end {
		d.now = end
	}
	d.checkPeek()
}

// drainRefill empties the queue and pushes its events back, into the same
// queue or a fresh one, as a sharded run's migration and fold-back do.
func (d *queueDiff) drainRefill(fresh bool) {
	d.t.Helper()
	d.buf = d.q.drain(d.buf[:0])
	if d.q.Len() != 0 {
		d.t.Fatalf("drain left %d events", d.q.Len())
	}
	if fresh {
		d.q = eventQueue{}
	}
	for i := range d.buf {
		d.q.push(d.buf[i])
	}
	got := append([]event(nil), d.buf...)
	want := append([]event(nil), d.ref...)
	sort.Slice(got, func(i, j int) bool { return evLess(&got[i], &got[j]) })
	sort.Slice(want, func(i, j int) bool { return evLess(&want[i], &want[j]) })
	if len(got) != len(want) {
		d.t.Fatalf("drained %d events, reference holds %d", len(got), len(want))
	}
	for i := range got {
		if !sameEvent(&got[i], &want[i]) {
			d.t.Fatalf("drained event %d = %+v, reference %+v", i, got[i], want[i])
		}
	}
	d.checkPeek()
}

// run interprets ops as an operation stream: each byte picks an operation,
// and the bytes after it supply its arguments (missing ones read as 0).
// Owners span -1..4 and keys 0..2, so (at, owner, kind, key) ties, which
// only seq breaks, are frequent.
func (d *queueDiff) run(ops []byte) {
	arg := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	for len(ops) > 0 {
		switch op := arg(); op % 8 {
		case 0, 1, 2, 3:
			a, b := arg(), arg()
			d.push(deltas[a%byte(len(deltas))], int32(b%6)-1, evKind(op/8%4), uint64(b/6%3))
		case 4:
			for d.popOne() {
			}
		case 5:
			d.runUntil(d.now+deltas[arg()%byte(len(deltas))], op&8 != 0)
		case 6:
			d.drainRefill(op&8 != 0)
		case 7:
			d.popOne()
		}
	}
	for d.popOne() {
	}
}

// popOne pops the earliest event from both sides, if there is one.
func (d *queueDiff) popOne() bool {
	d.t.Helper()
	if len(d.ref) == 0 {
		d.checkPeek()
		return false
	}
	e, ok := d.q.popUntil(math.MaxInt64, true)
	r := d.ref.pop()
	if !ok || !sameEvent(e, &r) {
		d.t.Fatalf("popped %+v (ok=%v), reference %+v", e, ok, r)
	}
	d.now = e.at
	d.checkPeek()
	return true
}

// TestEventQueueMatchesReference replays random monotone push/pop streams
// through the radix queue and the reference heap and requires identical
// pops. The streams stress, in turn, heavy ties on at across all four kinds
// and owners -1..4; pushes landing between a Run(until) boundary and the next
// pending event (which a floor moved by a peek would reject); and drain and
// refill as sharded migration does.
func TestEventQueueMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		gen  func(r *rand.Rand) byte
	}{
		{"ties", func(r *rand.Rand) byte {
			if r.Intn(4) == 0 {
				return 7
			}
			return byte(r.Intn(4)*8 + r.Intn(4)) // pushes of every kind
		}},
		{"schedule-after-run", func(r *rand.Rand) byte {
			switch r.Intn(5) {
			case 0:
				return 5 | 8 // inclusive window: now moves to its end
			case 1:
				return 5
			default:
				return byte(r.Intn(4)*8 + r.Intn(4))
			}
		}},
		{"drain-refill", func(r *rand.Rand) byte {
			switch r.Intn(10) {
			case 0:
				return 6 | byte(r.Intn(2)*8)
			case 1, 2:
				return 7
			case 3:
				return 5 | 8
			default:
				return byte(r.Intn(4)*8 + r.Intn(4))
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				r := rand.New(rand.NewSource(seed))
				ops := make([]byte, 0, 6000)
				for len(ops) < cap(ops)-2 {
					ops = append(ops, c.gen(r), byte(r.Intn(256)), byte(r.Intn(256)))
				}
				d := &queueDiff{t: t}
				d.run(ops)
			}
		})
	}
}

// TestScheduleAfterRunBelowPending pins the engine-level case behind the
// floor rule: after Run(until) stops short of a pending event, an event
// scheduled between until and that event must run first.
func TestScheduleAfterRunBelowPending(t *testing.T) {
	s := NewSimulator()
	var order []int
	s.ScheduleAt(10*Second, func() { order = append(order, 10) })
	s.ScheduleAt(1*Second, func() { order = append(order, 1) })
	s.Run(2 * Second)
	s.ScheduleAt(3*Second, func() { order = append(order, 3) })
	s.ScheduleAt(2*Second, func() { order = append(order, 2) })
	s.Run(20 * Second)
	if len(order) != 4 || order[0] != 1 || order[1] != 2 || order[2] != 3 || order[3] != 10 {
		t.Fatalf("order = %v, want [1 2 3 10]", order)
	}
}

// FuzzEventQueue feeds arbitrary operation streams (see queueDiff.run) to
// the radix queue and the reference heap.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 0, 0, 4})
	f.Add([]byte{0, 14, 7, 8, 14, 1, 16, 0, 2, 24, 3, 9, 5, 12, 7, 7, 7})
	f.Add([]byte{1, 13, 5, 2, 12, 40, 13, 0, 0, 6, 3, 15, 33, 14, 0, 0, 0, 4})
	f.Add([]byte{0, 15, 1, 0, 2, 1, 0, 2, 1, 5, 12, 0, 1, 2, 7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		d := &queueDiff{t: t}
		d.run(ops)
	})
}
