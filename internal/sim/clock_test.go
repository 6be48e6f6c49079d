package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// TestEventOrderProperty checks the event core against a reference sort.
// Random Schedule and After calls (many sharing an instant), pushes onto
// link-style FIFOs with reserved seqs (equal instants included), and
// events that schedule more of all three while the loop runs must execute
// in exactly the (at, seq) order of sorting every scheduled event, each
// at its own instant — the order a heap holding every event would give.
func TestEventOrderProperty(t *testing.T) {
	for trial := int64(0); trial < 200; trial++ {
		checkEventOrder(t, rand.New(rand.NewSource(trial)))
	}
}

func checkEventOrder(t *testing.T, rng *rand.Rand) {
	t.Helper()
	type key struct{ at, seq uint64 }
	s := NewSim()
	var keys []key // by event id
	var ran []int
	fifos := make([]*fifoEvents[int], 1+rng.Intn(3))
	fifoLast := make([]uint64, len(fifos))
	run := func(id int) {
		if got := s.Now(); got != keys[id].at {
			t.Fatalf("event %d ran at %d, scheduled for %d", id, got, keys[id].at)
		}
		ran = append(ran, id)
	}
	budget := 400
	var spawn func(n int)
	// A running event sometimes schedules more.
	fire := func(id int) {
		run(id)
		if budget > 0 && rng.Intn(3) == 0 {
			spawn(1 + rng.Intn(3))
		}
	}
	event := func(id int) func() { return func() { fire(id) } }
	for i := range fifos {
		fifos[i] = newFIFOEvents(s, fire)
	}
	spawn = func(n int) {
		for ; n > 0 && budget > 0; n-- {
			budget--
			id := len(keys)
			// Small offsets make equal instants common.
			switch rng.Intn(3) {
			case 0:
				at := s.Now() + uint64(rng.Intn(4))
				keys = append(keys, key{at, s.seq + 1})
				s.Schedule(at, event(id))
			case 1:
				d := uint64(rng.Intn(4))
				keys = append(keys, key{s.Now() + d, s.seq + 1})
				s.After(d, event(id))
			default:
				f := rng.Intn(len(fifos))
				at := max(fifoLast[f], s.Now()) + uint64(rng.Intn(3))
				fifoLast[f] = at
				keys = append(keys, key{at, s.seq + 1})
				fifos[f].schedule(at, id)
			}
		}
	}
	spawn(1 + rng.Intn(20))
	s.RunUntil(^uint64(0))

	want := make([]int, len(keys))
	for i := range want {
		want[i] = i
	}
	slices.SortFunc(want, func(a, b int) int {
		if c := cmp.Compare(keys[a].at, keys[b].at); c != 0 {
			return c
		}
		return cmp.Compare(keys[a].seq, keys[b].seq)
	})
	if !slices.Equal(ran, want) {
		t.Fatalf("run order %v, want (at, seq) order %v", ran, want)
	}
	for i, f := range fifos {
		if f.len() != 0 {
			t.Fatalf("fifo %d still holds %d events", i, f.len())
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("%d events left in the heap", s.Pending())
	}
}

// TestFIFOEventsRejectsOutOfOrder pins the FIFO's one precondition: an
// event queued before its predecessor's instant would run out of order,
// so scheduling it panics.
func TestFIFOEventsRejectsOutOfOrder(t *testing.T) {
	s := NewSim()
	q := newFIFOEvents(s, func(int) {})
	q.schedule(10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling before the predecessor did not panic")
		}
	}()
	q.schedule(9, 2)
}
