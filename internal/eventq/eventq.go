// Package eventq implements the priority queue that orders discrete
// simulation events. Events with equal timestamps dequeue in the order they
// were scheduled (FIFO tie-break), which keeps simulations deterministic.
//
// The queue is a 4-ary min-heap of pointer-free keys (time, sequence
// number, slab slot). The event records themselves sit in a slab whose
// slots are recycled through a free list, so a warm queue allocates
// nothing per push or pop, and sift moves copy plain integers — no write
// barriers, nothing for the GC to scan.
package eventq

import "vedrfolnir/internal/simtime"

// Owner executes typed events. Owners are long-lived (a network, a host),
// so storing one in an Event does not allocate; each dispatches on the
// owner-defined Event.Kind.
type Owner interface {
	HandleEvent(ev Event)
}

// Event is one scheduled action as a plain value: the owner that runs it,
// an owner-defined kind, three small integer operands and one pointer
// operand (the packet or per-flow state the event acts on).
type Event struct {
	To   Owner // nil runs nothing
	Ref  any
	Kind uint8
	Node int32
	Port int32
	Aux  int32
}

// funcOwner adapts a callback to Owner. A func value is pointer-shaped, so
// the conversion to an interface does not allocate (the closure itself
// does, which is why hot paths schedule typed events instead).
type funcOwner func()

func (f funcOwner) HandleEvent(Event) { f() }

// Func wraps a callback as an event; a nil fn yields an event that runs
// nothing.
func Func(fn func()) Event {
	if fn == nil {
		return Event{}
	}
	return Event{To: funcOwner(fn)}
}

// Handle identifies one scheduled event for Cancel and Pending. It is a
// value: the slot the event occupies plus the sequence number it was
// pushed with, so a handle to a fired or canceled event never matches the
// slot's later occupant. The zero Handle matches nothing.
type Handle struct {
	seq  uint64
	slot int32
}

// Stats counts a queue's lifetime traffic: total pushes, pops, and
// cancels, plus the depth high-water mark. Plain values — the queue does
// not depend on any metrics machinery; callers export them if they care.
type Stats struct {
	Pushes  uint64
	Pops    uint64
	Cancels uint64
	MaxLen  int
}

// key orders the heap: (at, seq) is a strict total order because seq is
// unique, so the pop sequence is independent of the heap's shape.
type key struct {
	at   simtime.Time
	seq  uint64
	slot int32
}

func (a key) less(b key) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// slot holds one pending event; seq is 0 while the slot is free.
type slot struct {
	ev  Event
	seq uint64
}

// Queue is a min-heap of events keyed by (At, insertion order).
// The zero Queue is ready to use.
type Queue struct {
	keys  []key
	slab  []slot
	free  []int32
	seq   uint64
	live  int
	stats Stats
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return q.live }

// Stats returns the queue's lifetime traffic counters.
func (q *Queue) Stats() Stats { return q.stats }

// Push schedules ev at time at and returns a handle that can cancel it.
func (q *Queue) Push(at simtime.Time, ev Event) Handle {
	q.seq++
	var s int32
	if n := len(q.free); n > 0 {
		s = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		s = int32(len(q.slab))
		q.slab = append(q.slab, slot{})
	}
	q.slab[s] = slot{ev: ev, seq: q.seq}
	q.keys = append(q.keys, key{at: at, seq: q.seq, slot: s})
	q.up(len(q.keys) - 1)
	q.live++
	q.stats.Pushes++
	if q.live > q.stats.MaxLen {
		q.stats.MaxLen = q.live
	}
	return Handle{seq: q.seq, slot: s}
}

// Peek returns the time of the earliest pending event; ok is false when
// the queue is empty.
func (q *Queue) Peek() (at simtime.Time, ok bool) {
	q.dropCanceled()
	if len(q.keys) == 0 {
		return 0, false
	}
	return q.keys[0].at, true
}

// Pop removes and returns the earliest event; ok is false when the queue
// is empty.
func (q *Queue) Pop() (at simtime.Time, ev Event, ok bool) {
	return q.PopUntil(simtime.Never)
}

// PopUntil removes and returns the earliest event if it is due at or
// before until; ok is false when the queue is empty or the next event is
// later.
func (q *Queue) PopUntil(until simtime.Time) (at simtime.Time, ev Event, ok bool) {
	q.dropCanceled()
	if len(q.keys) == 0 || q.keys[0].at > until {
		return 0, Event{}, false
	}
	k := q.removeTop()
	ev = q.release(k.slot)
	q.stats.Pops++
	return k.at, ev, true
}

// Pending reports whether h's event is still scheduled (not yet popped or
// canceled).
func (q *Queue) Pending(h Handle) bool {
	return h.seq != 0 && int(h.slot) < len(q.slab) && q.slab[h.slot].seq == h.seq
}

// Cancel removes h's event if it is still pending. Canceling an
// already-fired or already-canceled event is a no-op. The event's heap
// key stays behind as a tombstone (its slot's sequence number no longer
// matches) and is discarded when it reaches the top.
func (q *Queue) Cancel(h Handle) {
	if !q.Pending(h) {
		return
	}
	q.release(h.slot)
	q.stats.Cancels++
}

// release frees slot s and returns the event it held.
func (q *Queue) release(s int32) Event {
	ev := q.slab[s].ev
	q.slab[s] = slot{}
	q.free = append(q.free, s)
	q.live--
	return ev
}

// dropCanceled discards tombstone keys from the top of the heap.
func (q *Queue) dropCanceled() {
	for len(q.keys) > 0 && q.slab[q.keys[0].slot].seq != q.keys[0].seq {
		q.removeTop()
	}
}

// removeTop deletes and returns the heap's root key.
func (q *Queue) removeTop() key {
	top := q.keys[0]
	n := len(q.keys) - 1
	q.keys[0] = q.keys[n]
	q.keys = q.keys[:n]
	if n > 0 {
		q.down(0)
	}
	return top
}

// up restores the heap property from index i toward the root.
func (q *Queue) up(i int) {
	k := q.keys[i]
	for i > 0 {
		p := (i - 1) / 4
		if !k.less(q.keys[p]) {
			break
		}
		q.keys[i] = q.keys[p]
		i = p
	}
	q.keys[i] = k
}

// down restores the heap property from index i toward the leaves.
func (q *Queue) down(i int) {
	keys := q.keys
	n := len(keys)
	k := keys[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if keys[j].less(keys[m]) {
				m = j
			}
		}
		if !keys[m].less(k) {
			break
		}
		keys[i] = keys[m]
		i = m
	}
	keys[i] = k
}
