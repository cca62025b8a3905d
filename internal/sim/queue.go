package sim

import (
	"math/bits"

	"hypatia/internal/check"
)

// The event queue is a monotone radix heap. A discrete-event engine never
// schedules into its own past — ScheduleAt panics on it, network events land
// at or after now, and sharded handoffs land at or after the destination's
// clock — so every pushed instant is at or above the instant last popped,
// the floor. An instant equal to the floor goes to bucket 0, a heap ordered
// by evLess; any other is filed by the highest radix digit in which it
// differs from the floor, and by its own value of that digit. The lowest
// non-empty bucket holds the minimum, and moving the floor to that minimum
// sends each of the bucket's keys to a lower digit level, so a key moves at
// most once per level and is compared only in bucket 0. Nothing depends on
// the time scale of a run: a timing wheel would need a slot width, the
// radix heap needs none. radixBits only trades moves per key (fewer with
// wider digits) against bucket count.
//
// The floor moves only when an event is popped, to that event's instant,
// which the engine then makes its clock. A peek must not move it: a
// ScheduleAt after Run(until) returns, or a handoff routed between lookahead
// windows, may land anywhere at or after the clock, including below the
// next pending instant.

const (
	// chunkKeys is the number of keys in one bucket chunk.
	chunkKeys = 64
	// radixBits is the width of one radix digit. On a recorded udp-gravity
	// event stream, 1-bit digits moved each key 7.3 times and 4-bit digits
	// 4.6 times.
	radixBits   = 4
	radixLevels = (64 + radixBits - 1) / radixBits
	numBuckets  = radixLevels << radixBits
)

// qkey is a radix-bucket entry: an event's instant and its slab slot.
type qkey struct {
	at   Time
	slot int32 //hypatia:handle(ev-slot)
}

// keyChunk is a fixed block of one bucket's keys. A bucket is a linked list
// of chunks drawn from one pool that all buckets share, so bucket storage is
// bounded by the pending count plus one partly filled chunk per bucket,
// however the keys move between buckets.
type keyChunk struct {
	keys [chunkKeys]qkey
	next int32 // pool index of the next, full, chunk of the bucket; -1 ends the list
}

// bucket is one radix bucket: its smallest instant, the pool index of its
// newest chunk, and how many keys that chunk holds (older chunks are full).
type bucket struct {
	min  Time
	head int32
	fill int32
}

// eventQueue holds a Simulator's pending events in canonical order (evLess).
// Records live in a slab whose free slots are reused last-in first-out; the
// radix buckets hold compact {at, slot} keys, and bucket 0 is a binary heap
// of slots ordered by evLess, since its events tie on at by construction.
//
//hypatia:confined
type eventQueue struct {
	slab  []event //hypatia:handle(ev-slot)
	free  int32   // 1-based slot heading the free list threaded through event.key; 0 when none
	held  int32   // 1-based slot of the record popUntil last returned; 0 when none
	n     int
	floor Time
	top   []int32 //hypatia:handle(->ev-slot) bucket 0: a heap of the slots pending at floor
	// Radix bucket b (see bucketOf; never 0, which is top) is non-empty iff
	// bit b%64 of mask[b/64] is set, and is then described by bkt[b].
	mask   [numBuckets / 64]uint64
	bkt    [numBuckets]bucket
	chunks []keyChunk
	spare  int32 // 1-based pool index heading the free-chunk list; 0 when none
}

// evLess is the canonical event order: at, then owner (-1 for unowned/user
// events), then kind, then the per-kind key, then seq.
//
//hypatia:pure
//hypatia:noalloc
func evLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.owner != b.owner {
		return a.owner < b.owner
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// bucketOf returns the bucket of instant at, which differs from floor in
// some bit: the level is the highest radix digit in which the two differ,
// and the bucket within the level is at's value of that digit, which
// exceeds the floor's and so is never 0. Buckets ascend with the instants
// they can hold.
//
//hypatia:pure
//hypatia:noalloc
func bucketOf(at, floor Time) int {
	l := (bits.Len64(uint64(at^floor)) - 1) / radixBits
	return l<<radixBits | int(uint64(at)>>(l*radixBits)&(1<<radixBits-1))
}

// lowest returns the lowest non-empty bucket, or -1 when all are empty.
//
//hypatia:noalloc
func (q *eventQueue) lowest() int {
	for w, m := range q.mask {
		if m != 0 {
			return w*64 + bits.TrailingZeros64(m)
		}
	}
	return -1
}

// Len returns the number of pending events.
//
//hypatia:noalloc
func (q *eventQueue) Len() int { return q.n }

// peek returns the earliest pending instant, without moving the floor.
//
//hypatia:noalloc
func (q *eventQueue) peek() (Time, bool) {
	if len(q.top) > 0 {
		return q.floor, true
	}
	if b := q.lowest(); b >= 0 {
		return q.bkt[b].min, true
	}
	return 0, false
}

// push adds e, whose instant must not be below the floor.
//
//hypatia:noalloc
func (q *eventQueue) push(e event) {
	if check.Enabled {
		check.Assert(e.at >= q.floor, "event at %v pushed below the queue floor %v", e.at, q.floor)
	}
	var s int32 //hypatia:handle(ev-slot)
	if q.free != 0 {
		s = q.free - 1 //hypatia:handle(ev-slot) free holds a 1-based slot
		q.free = int32(q.slab[s].key)
		q.slab[s] = e
	} else {
		if len(q.slab) == cap(q.slab) {
			// Doubling: append's 1.25× steps for large slices would
			// allocate several times the high-water mark over a run.
			grown := make([]event, len(q.slab), 2*cap(q.slab)+64)
			copy(grown, q.slab)
			q.slab = grown
		}
		s = int32(len(q.slab)) //hypatia:handle(ev-slot) the slot append is about to fill
		q.slab = append(q.slab, e)
	}
	q.n++
	q.place(e.at, s)
}

// popUntil removes the earliest event if it is due by end — at or before
// end when inclusive, strictly before it otherwise — moves the floor to its
// instant, and returns its record in place: its slot is freed only by the
// next popUntil or drain, so the engine dispatches the event without
// copying it. (A push that grows the slab meanwhile leaves the pointer on
// the old array, which still holds the same record.) One peek decides; a
// refused pop leaves the queue untouched.
//
//hypatia:noalloc
func (q *eventQueue) popUntil(end Time, inclusive bool) (*event, bool) {
	q.release()
	at, ok := q.peek()
	if !ok || at > end || (at == end && !inclusive) {
		return nil, false
	}
	if len(q.top) == 0 {
		q.refill()
	}
	s := q.topPop()
	q.held = s + 1
	q.n--
	return &q.slab[s], true
}

// release frees the slot of the record popUntil last returned.
//
//hypatia:noalloc
func (q *eventQueue) release() {
	if q.held != 0 {
		s := q.held - 1                        //hypatia:handle(ev-slot) held holds a 1-based slot
		q.slab[s] = event{key: uint64(q.free)} // drops pkt/fn references for the GC
		q.free = q.held
		q.held = 0
	}
}

// drain appends every pending event to dst, in no particular order, and
// empties the queue. The floor stays, so later pushes keep the invariant.
func (q *eventQueue) drain(dst []event) []event {
	q.release()
	for _, s := range q.top {
		dst = append(dst, q.slab[s])
	}
	for w, m := range q.mask {
		for ; m != 0; m &= m - 1 {
			bk := &q.bkt[w*64+bits.TrailingZeros64(m)]
			for c, n := bk.head, bk.fill; c >= 0; c, n = q.chunks[c].next, chunkKeys {
				for _, k := range q.chunks[c].keys[:n] {
					dst = append(dst, q.slab[k.slot])
				}
			}
		}
	}
	clear(q.slab)
	q.slab, q.top, q.chunks = q.slab[:0], q.top[:0], q.chunks[:0]
	q.free, q.held, q.spare, q.n = 0, 0, 0, 0
	q.mask = [len(q.mask)]uint64{}
	return dst
}

// refill moves the floor up to the smallest pending instant, which lies in
// the lowest non-empty bucket, and files that bucket's keys again relative to
// the new floor: its instant's keys into bucket 0, every other key into a
// lower level (they share with the new floor every digit from the bucket's
// level up). Every other bucket stays valid as it is.
//
//hypatia:noalloc
func (q *eventQueue) refill() {
	b := q.lowest()
	bk := q.bkt[b]
	q.floor = bk.min
	q.mask[b/64] &^= 1 << (b % 64)
	for c, n := bk.head, bk.fill; c >= 0; n = chunkKeys {
		// place never writes this detached chunk, and if it grows the pool
		// the old backing array still holds the keys, so ch stays readable.
		ch := &q.chunks[c]
		for _, k := range ch.keys[:n] {
			q.place(k.at, k.slot)
		}
		ch = &q.chunks[c]
		next := ch.next
		ch.next = q.spare - 1
		q.spare = c + 1
		c = next
	}
}

// place files slot s, pending at instant at, in its bucket.
//
//hypatia:noalloc
//hypatia:handle(s: ev-slot)
func (q *eventQueue) place(at Time, s int32) {
	if at == q.floor {
		q.topPush(s)
		return
	}
	b := bucketOf(at, q.floor)
	bk := &q.bkt[b]
	if w, bit := &q.mask[b/64], uint64(1)<<(b%64); *w&bit == 0 {
		*w |= bit
		bk.min = at
		bk.head = q.newChunk(-1)
		bk.fill = 0
	} else {
		if at < bk.min {
			bk.min = at
		}
		if bk.fill == chunkKeys {
			bk.head = q.newChunk(bk.head)
			bk.fill = 0
		}
	}
	q.chunks[bk.head].keys[bk.fill] = qkey{at: at, slot: s}
	bk.fill++
}

// newChunk returns the pool index of a chunk linked to next, reusing a spare
// one when there is one.
//
//hypatia:noalloc
func (q *eventQueue) newChunk(next int32) int32 {
	c := q.spare - 1
	if c >= 0 {
		q.spare = q.chunks[c].next + 1
	} else {
		q.chunks = append(q.chunks, keyChunk{})
		c = int32(len(q.chunks) - 1)
	}
	q.chunks[c].next = next
	return c
}

//hypatia:noalloc
//hypatia:handle(s: ev-slot)
func (q *eventQueue) topPush(s int32) {
	q.top = append(q.top, s)
	h := q.top
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !evLess(&q.slab[h[i]], &q.slab[h[p]]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

//hypatia:noalloc
//hypatia:handle(return: ev-slot)
func (q *eventQueue) topPop() int32 {
	h := q.top
	s := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	q.top = h
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && evLess(&q.slab[h[r]], &q.slab[h[l]]) {
			m = r
		}
		if !evLess(&q.slab[h[m]], &q.slab[h[i]]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return s
}
