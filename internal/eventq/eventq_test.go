package eventq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"vedrfolnir/internal/simtime"
)

// fire pops the earliest event and runs it.
func fire(q *Queue) {
	_, ev, _ := q.Pop()
	if ev.To != nil {
		ev.To.HandleEvent(ev)
	}
}

func TestOrdering(t *testing.T) {
	var q Queue
	var got []int
	q.Push(30, Func(func() { got = append(got, 3) }))
	q.Push(10, Func(func() { got = append(got, 1) }))
	q.Push(20, Func(func() { got = append(got, 2) }))
	for q.Len() > 0 {
		fire(&q)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.Push(42, Func(func() { got = append(got, i) }))
	}
	for q.Len() > 0 {
		fire(&q)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	var q Queue
	fired := false
	e := q.Push(5, Func(func() { fired = true }))
	q.Cancel(e)
	if q.Pending(e) {
		t.Fatalf("event not marked canceled")
	}
	if q.Len() != 0 {
		t.Fatalf("queue should be empty after cancel, len=%d", q.Len())
	}
	if _, _, ok := q.Pop(); ok {
		t.Fatalf("Pop on empty queue should report !ok")
	}
	if fired {
		t.Fatalf("canceled event fired")
	}
	// Double-cancel is a no-op.
	q.Cancel(e)
	q.Cancel(Handle{})
}

// A handle to a fired or canceled event must not cancel the slot's next
// occupant.
func TestCancelStaleHandle(t *testing.T) {
	var q Queue
	old := q.Push(1, Event{Kind: 1})
	q.Pop()
	fresh := q.Push(2, Event{Kind: 2})
	q.Cancel(old)
	if !q.Pending(fresh) || q.Len() != 1 {
		t.Fatalf("stale handle canceled the slot's new event")
	}
	if _, ev, ok := q.Pop(); !ok || ev.Kind != 2 {
		t.Fatalf("Pop = %+v, %v; want the fresh event", ev, ok)
	}
}

func TestCancelMiddle(t *testing.T) {
	var q Queue
	var es []Handle
	for i := 0; i < 20; i++ {
		es = append(es, q.Push(simtime.Time(i), Event{}))
	}
	q.Cancel(es[7])
	q.Cancel(es[13])
	var times []simtime.Time
	for q.Len() > 0 {
		at, _, _ := q.Pop()
		times = append(times, at)
	}
	if len(times) != 18 {
		t.Fatalf("len = %d, want 18", len(times))
	}
	for _, at := range times {
		if at == 7 || at == 13 {
			t.Fatalf("canceled event %v still dequeued", at)
		}
	}
	if !sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] }) {
		t.Fatalf("times not sorted: %v", times)
	}
}

func TestPeek(t *testing.T) {
	var q Queue
	if _, ok := q.Peek(); ok {
		t.Fatalf("Peek on empty should report !ok")
	}
	q.Push(9, Event{})
	q.Push(4, Event{})
	if got, _ := q.Peek(); got != 4 {
		t.Fatalf("Peek = %v, want 4", got)
	}
	if q.Len() != 2 {
		t.Fatalf("Peek must not remove; len=%d", q.Len())
	}
}

func TestPopUntil(t *testing.T) {
	var q Queue
	q.Push(5, Event{})
	if _, _, ok := q.PopUntil(4); ok {
		t.Fatalf("PopUntil(4) popped an event due at 5")
	}
	if at, _, ok := q.PopUntil(5); !ok || at != 5 {
		t.Fatalf("PopUntil(5) = %v, %v; want 5, true", at, ok)
	}
}

// Property: popping a randomly-filled queue always yields non-decreasing
// timestamps, even with interleaved cancels.
func TestHeapInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		var handles []Handle
		for i := 0; i < 200; i++ {
			handles = append(handles, q.Push(simtime.Time(rng.Intn(50)), Event{}))
		}
		for i := 0; i < 50; i++ {
			q.Cancel(handles[rng.Intn(len(handles))])
		}
		last := simtime.Time(-1)
		for q.Len() > 0 {
			at, _, _ := q.Pop()
			if at < last {
				return false
			}
			last = at
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refEvent is one pending event of the reference model.
type refEvent struct {
	at  simtime.Time
	seq int
}

// TestDifferentialAgainstSortedReference drives the heap and a reference
// that keeps pending events sorted by (At, seq) through random schedules
// of pushes, cancels (live and stale) and pops with many equal timestamps,
// and requires identical pop sequences, lengths and pending flags.
func TestDifferentialAgainstSortedReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		var ref []refEvent
		var handles []Handle
		seqOf := map[Handle]int{}
		now := simtime.Time(0)
		for step := 0; step < 600; step++ {
			switch r := rng.Intn(10); {
			case r < 5:
				at := now + simtime.Time(rng.Intn(8)) // few distinct times: many ties
				h := q.Push(at, Event{Node: int32(len(handles))})
				seqOf[h] = len(handles)
				ref = append(ref, refEvent{at: at, seq: len(handles)})
				handles = append(handles, h)
			case r < 7 && len(handles) > 0:
				h := handles[rng.Intn(len(handles))]
				want := false
				for i, e := range ref {
					if e.seq == seqOf[h] {
						ref = append(ref[:i], ref[i+1:]...)
						want = true
						break
					}
				}
				if q.Pending(h) != want {
					t.Logf("seed %d step %d: Pending = %v, want %v", seed, step, !want, want)
					return false
				}
				q.Cancel(h)
			default:
				sort.Slice(ref, func(i, j int) bool {
					if ref[i].at != ref[j].at {
						return ref[i].at < ref[j].at
					}
					return ref[i].seq < ref[j].seq
				})
				at, ev, ok := q.Pop()
				if ok != (len(ref) > 0) {
					t.Logf("seed %d step %d: Pop ok = %v with %d pending", seed, step, ok, len(ref))
					return false
				}
				if !ok {
					continue
				}
				if at != ref[0].at || int(ev.Node) != ref[0].seq {
					t.Logf("seed %d step %d: popped (%v, #%d), want (%v, #%d)",
						seed, step, at, ev.Node, ref[0].at, ref[0].seq)
					return false
				}
				now = at
				ref = ref[1:]
			}
			if q.Len() != len(ref) {
				t.Logf("seed %d step %d: Len = %d, want %d", seed, step, q.Len(), len(ref))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStats(t *testing.T) {
	var q Queue
	if got := q.Stats(); got != (Stats{}) {
		t.Fatalf("fresh queue stats = %+v, want zero", got)
	}
	e1 := q.Push(3, Event{})
	q.Push(1, Event{})
	q.Push(2, Event{})
	if got := q.Stats(); got.Pushes != 3 || got.MaxLen != 3 {
		t.Errorf("after pushes: %+v, want Pushes=3 MaxLen=3", got)
	}
	q.Cancel(e1)
	q.Cancel(e1) // double cancel must not double count
	if got := q.Stats(); got.Cancels != 1 {
		t.Errorf("cancels = %d, want 1", got.Cancels)
	}
	for {
		if _, _, ok := q.Pop(); !ok {
			break
		}
	}
	got := q.Stats()
	if got.Pops != 2 {
		t.Errorf("pops = %d, want 2 (canceled event never pops)", got.Pops)
	}
	if got.MaxLen != 3 {
		t.Errorf("MaxLen = %d, want high-water mark 3 after drain", got.MaxLen)
	}
}

// counter is a typed-event owner that counts what it runs.
type counter struct{ n int }

func (c *counter) HandleEvent(Event) { c.n++ }

// A warm queue pushes and pops typed events without allocating.
func TestPushPopAllocFree(t *testing.T) {
	var q Queue
	c := &counter{}
	for i := 0; i < 64; i++ {
		q.Push(simtime.Time(i), Event{To: c, Ref: c})
	}
	at := simtime.Time(64)
	allocs := testing.AllocsPerRun(1000, func() {
		q.Push(at, Event{To: c, Kind: 1, Ref: c})
		at++
		fire(&q)
	})
	if allocs != 0 {
		t.Fatalf("allocs per push+pop = %v, want 0", allocs)
	}
}
