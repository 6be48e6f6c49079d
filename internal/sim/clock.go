// Package sim is the discrete-event simulation harness that reproduces the
// paper's evaluation (§5): sender machines drive Gigabit links into a
// receiver machine (native Linux UP/SMP or a Xen guest), the receiver's
// charged CPU cycles advance virtual time, and throughput emerges from the
// interplay of link rate, windows and CPU saturation — exactly the
// mechanism of the paper's testbed, with the hardware replaced by the cost
// model (internal/cost).
package sim

import (
	"fmt"
)

// Sim is a virtual clock with an event queue. Nanosecond resolution.
// Events run in (at, seq) order: seq is a FIFO tie-break among events due
// at the same instant, so one run's schedule is a pure function of its
// configuration.
type Sim struct {
	now    uint64
	seq    uint64
	events eventHeap
	clock  func() uint64 // Clock's func, bound once by NewSim
}

// NewSim returns a simulation at time zero.
func NewSim() *Sim {
	s := &Sim{}
	s.clock = s.Now
	return s
}

// Now returns the current virtual time in nanoseconds.
func (s *Sim) Now() uint64 { return s.now }

// Clock returns a tcp.Clock-compatible time source. Every call returns
// the same func, so the endpoints of a run share one.
func (s *Sim) Clock() func() uint64 { return s.clock }

// Schedule runs fn at absolute virtual time at (clamped to now).
func (s *Sim) Schedule(at uint64, fn func()) {
	if fn == nil {
		panic("sim: nil event")
	}
	if at < s.now {
		at = s.now
	}
	s.seq++
	s.events.push(event{at: at, seq: s.seq, fn: fn})
}

// After runs fn at now+delay.
func (s *Sim) After(delay uint64, fn func()) {
	s.Schedule(s.now+delay, fn)
}

// reserveSeq takes the next FIFO tie-break position without scheduling
// anything. An event later pushed under it with scheduleSeq runs exactly
// where an event Scheduled now would have: a queue of future events whose
// (at, seq) keys rise in queue order (a link's frames in flight) can keep
// only its head in the heap and still run in the order that scheduling
// every one of them would give.
func (s *Sim) reserveSeq() uint64 {
	s.seq++
	return s.seq
}

// scheduleSeq runs fn at virtual time at under a seq taken earlier from
// reserveSeq. Unlike Schedule it does not clamp: at must not be in the
// past, or the event would run out of order.
func (s *Sim) scheduleSeq(at, seq uint64, fn func()) {
	if fn == nil {
		panic("sim: nil event")
	}
	if at < s.now {
		panic(fmt.Sprintf("sim: reserved event at %d before now %d", at, s.now))
	}
	s.events.push(event{at: at, seq: seq, fn: fn})
}

// RunUntil executes events in timestamp order until the queue is empty or
// virtual time reaches deadline. It returns the number of events executed.
func (s *Sim) RunUntil(deadline uint64) int {
	n := 0
	for len(s.events) > 0 && s.events[0].at <= deadline {
		ev := s.events.pop()
		s.now = ev.at
		ev.fn()
		n++
	}
	if s.now < deadline {
		s.now = deadline
	}
	return n
}

// Pending returns the number of queued events.
func (s *Sim) Pending() int { return len(s.events) }

type event struct {
	at  uint64
	seq uint64 // tie-break: FIFO among simultaneous events
	fn  func()
}

// before reports whether e runs before o: (at, seq) order.
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// eventHeap is a hand-rolled binary min-heap. container/heap would box
// every pushed and popped event through interface{} — two allocations per
// scheduled event, which profiling showed was ~38% of all hot-path
// allocations in a stream run. Both sifts move a hole instead of swapping:
// each level costs one event copy, and the moving event is written once.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	*h = append(*h, event{})
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
}

func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	top := s[0]
	last := s[n]
	s[n] = event{} // release the fn reference
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	// Sift the last event down from the root.
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && s[r].before(&s[child]) {
			child = r
		}
		if !s[child].before(&last) {
			break
		}
		s[i] = s[child]
		i = child
	}
	s[i] = last
	return top
}

// String summarizes the sim state (debugging aid).
func (s *Sim) String() string {
	return fmt.Sprintf("sim{t=%dns, pending=%d}", s.now, len(s.events))
}
