package sim

import (
	"repro/internal/ether"
	"repro/internal/nic"
	"repro/internal/telemetry"
)

// Link is one full-duplex Gigabit Ethernet segment between a sender
// machine and one receiver NIC.
//
// The forward (data) direction is a pull model: when the wire is free and
// the receiver ring has headroom, the link asks the sender for its next
// frame and occupies the wire for the frame's serialization time. When the
// ring is near-full the link pauses (IEEE 802.3x-style backpressure)
// instead of dropping — the lossless LAN regime of the paper's testbed.
// The reverse (ACK) direction is delivered after the propagation delay
// without rate limiting: ACK volume is under 5% of link capacity and
// never contends in these workloads.
type Link struct {
	sim    *Sim
	sender *SenderMachine
	dst    *nic.NIC

	// RateBps is the line rate (default 1 Gb/s).
	RateBps uint64
	// DelayNs is the one-way propagation + switching delay.
	DelayNs uint64
	// PauseRetryNs is how long a paused link waits before re-checking
	// ring headroom.
	PauseRetryNs uint64
	// RingHeadroom is the occupancy margin that triggers pause: the
	// link stops when fewer than this many ring slots remain, covering
	// frames already in flight.
	RingHeadroom int

	// CorruptOneIn, when positive, flips a payload bit in every Nth
	// forward frame after serialization — wire corruption the NIC's
	// checksum offload will catch, driving the receiver's dup-ACK and
	// the sender's fast-retransmit machinery.
	CorruptOneIn int

	// LossOneIn, when positive, drops each forward frame with
	// probability 1/N — the uniform arm of the loss injector. The
	// decision is a seeded hash of the per-link loss counter, so it
	// depends only on the link's deterministic delivery order and is
	// independent of everything else in the run.
	LossOneIn int
	// BurstLossRate, when positive, switches the injector to the
	// two-state Gilbert-Elliott burst model with this target loss
	// fraction: drops arrive in runs of mean length BurstLossLen
	// instead of uniformly. Mutually exclusive with LossOneIn.
	BurstLossRate float64
	// BurstLossLen is the Gilbert-Elliott mean burst length in frames
	// (0 = DefaultBurstLossLen).
	BurstLossLen float64
	// LossSeed seeds the injector's PRNG (links get distinct seeds so
	// parallel wires don't drop in lockstep).
	LossSeed uint64

	// ReorderOneIn, when positive, displaces every Nth forward frame by
	// ReorderDistance positions: the frame is withheld at the receiver
	// edge until that many later frames have been delivered, then
	// injected — the deterministic reorder fault of a coalescing
	// multi-queue receiver (adjacent swaps at distance 1, k-distance
	// displacement beyond; Wu et al.). The displacement is at the
	// delivery point, after serialization, so wire timing and
	// backpressure are unchanged.
	ReorderOneIn int
	// ReorderDistance is the displacement distance in frames (0 = 1,
	// the adjacent swap).
	ReorderDistance int

	busy     bool
	fwdCount int
	stats    LinkStats

	// wireFreeFn is the pre-bound "serialization finished" event (one
	// closure for the link's lifetime instead of one per frame).
	wireFreeFn func()

	// fwd holds the forward frames in flight. Frames on one wire arrive
	// in transmit order, so one heap entry (the head's) serves them all.
	fwd *fifoEvents[fwdFrame]

	// ackFree is the free list of reverse-direction carriers.
	ackFree []*ackCarrier

	// Reorder-injector state: the withheld frame (with its transmit-start
	// stamp) and how many deliveries remain before it is released.
	reorderCount  int
	displaced     []byte
	displacedSent uint64
	displaceLeft  int

	// Loss-injector state: frames considered and the Gilbert-Elliott
	// channel state (true = bad/bursting).
	lossCount int
	lossBad   bool

	// spanLane/spanTrack, when wired (buildStream, tracing enabled),
	// record one wire-occupancy span per forward frame. Recording reads
	// the clock only; it never schedules (telemetry invariant).
	spanLane  *telemetry.SpanLane
	spanTrack string
}

// LinkStats counts link activity.
type LinkStats struct {
	FramesDelivered uint64
	BytesDelivered  uint64
	PauseEvents     uint64
	IdleEvents      uint64
	ReverseFrames   uint64
	Corrupted       uint64
	// Reordered counts frames the reorder injector displaced.
	Reordered uint64
	// Lost counts forward frames the loss injector dropped.
	Lost uint64
}

// DefaultBurstLossLen is the Gilbert-Elliott mean burst length used when
// BurstLossLen is unset: drops cluster in runs of ~4 frames, the regime
// where cumulative-ACK recovery degrades fastest.
const DefaultBurstLossLen = 4.0

// DefaultLinkDelayNs is the one-way delay used by the experiments. It is
// calibrated so that the netperf-style request/response benchmark lands
// near the paper's ~7,900 transactions/s on native Linux (Table 1):
// 1/7900s = 126.6 us per transaction, of which ~121 us is wire and client
// time and the rest is receive-path processing.
const DefaultLinkDelayNs = 61_500

// NewLink wires sender -> dst with default Gigabit parameters.
func NewLink(s *Sim, sender *SenderMachine, dst *nic.NIC) *Link {
	l := &Link{
		sim:          s,
		sender:       sender,
		dst:          dst,
		RateBps:      1_000_000_000,
		DelayNs:      DefaultLinkDelayNs,
		PauseRetryNs: 15_000,
		RingHeadroom: 24,
	}
	sender.OnWindowOpen = l.Kick
	l.wireFreeFn = func() {
		l.busy = false
		l.transmitNext()
	}
	l.fwd = newFIFOEvents(s, l.arrive)
	return l
}

// fwdFrame is one forward frame on the wire: its bytes, its transmit
// start (the StageWire boundary) and the corruption injector's verdict.
type fwdFrame struct {
	frame   []byte
	sentNs  uint64
	corrupt bool
}

// fifoEvents is a FIFO of future events whose (at, seq) keys rise in
// queue order: a wire's frames in flight. schedule reserves each event's
// seq from the Sim, so every event runs exactly where scheduling it with
// Schedule would have put it, but only the head has a heap entry. fire,
// bound once, pops the head, schedules the next one in its reserved slot
// and hands the popped value to deliver: no closure per event.
type fifoEvents[T any] struct {
	sim     *Sim
	ring    []fifoEvent[T] // power-of-two ring of n events from head
	head, n int
	fire    func()
	deliver func(T)
}

type fifoEvent[T any] struct {
	at, seq uint64
	v       T
}

func newFIFOEvents[T any](s *Sim, deliver func(T)) *fifoEvents[T] {
	q := &fifoEvents[T]{sim: s, deliver: deliver}
	q.fire = q.pop
	return q
}

// schedule queues v for delivery at virtual time at, which must not be
// before the last queued event's.
func (q *fifoEvents[T]) schedule(at uint64, v T) {
	if q.n == len(q.ring) {
		grown := make([]fifoEvent[T], max(1, 2*len(q.ring)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.ring[(q.head+i)&(len(q.ring)-1)]
		}
		q.ring, q.head = grown, 0
	}
	mask := len(q.ring) - 1
	if q.n > 0 && at < q.ring[(q.head+q.n-1)&mask].at {
		panic("sim: FIFO event scheduled before its predecessor")
	}
	e := &q.ring[(q.head+q.n)&mask]
	*e = fifoEvent[T]{at: at, seq: q.sim.reserveSeq(), v: v}
	q.n++
	if q.n == 1 {
		q.sim.scheduleSeq(e.at, e.seq, q.fire)
	}
}

// len returns the number of queued events.
func (q *fifoEvents[T]) len() int { return q.n }

// pop is the head event: it schedules the next head, then delivers.
func (q *fifoEvents[T]) pop() {
	mask := len(q.ring) - 1
	v := q.ring[q.head].v
	q.ring[q.head] = fifoEvent[T]{}
	q.head = (q.head + 1) & mask
	q.n--
	if q.n > 0 {
		next := &q.ring[q.head]
		q.sim.scheduleSeq(next.at, next.seq, q.fire)
	}
	q.deliver(v)
}

// ackCarrier is one reverse-direction frame in flight. Its deliver func is
// bound once, when the carrier is made; a fired carrier goes back to its
// link's free list. ACKs can arrive out of order (each departs after its
// own round's CPU time), so each one keeps its own heap entry.
type ackCarrier struct {
	l       *Link
	frame   []byte
	deliver func()
}

func (c *ackCarrier) fire() {
	l, frame := c.l, c.frame
	c.frame = nil
	l.ackFree = append(l.ackFree, c)
	l.sender.ReceiveFrame(frame)
}

// Stats returns a copy of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// Kick attempts to start (or resume) forward transmission. Idempotent.
func (l *Link) Kick() {
	if l.busy {
		return
	}
	l.transmitNext()
}

// wireTimeNs returns the serialization time of a frame including preamble,
// FCS and inter-frame gap.
func (l *Link) wireTimeNs(frameLen int) uint64 {
	bits := uint64(frameLen+ether.PerFrameOverhead) * 8
	return bits * 1_000_000_000 / l.RateBps
}

// transmitNext pulls one frame if the wire is free and the ring has room.
func (l *Link) transmitNext() {
	if l.busy {
		return
	}
	if l.dst.RxNearFull(l.RingHeadroom) {
		// Pause: ring nearly full; hold the wire and retry shortly.
		// The in-flight margin guarantees no drops between check and
		// delivery.
		l.stats.PauseEvents++
		l.busy = true
		l.sim.After(l.PauseRetryNs, l.wireFreeFn)
		return
	}
	frame := l.sender.NextFrame()
	if frame == nil {
		// Window-limited: the sender will Kick when ACKs arrive. If
		// nothing remains in flight either, release any displaced frame
		// (its reorder window cannot fill while the wire idles — holding
		// it would deadlock the ACK clock) and flush the NIC's coalesced
		// interrupt so the tail of a burst is processed immediately
		// (this is what keeps request/response latency flat, §5.4).
		l.stats.IdleEvents++
		if l.fwd.len() == 0 {
			l.releaseDisplaced()
			l.dst.FlushInterrupt()
		}
		return
	}
	l.busy = true
	wire := l.wireTimeNs(len(frame))
	sentNs := l.sim.Now() // transmit start: the frame's StageWire boundary
	l.spanLane.Record(l.spanTrack, "tx", sentNs, wire)
	// Wire becomes free after serialization; the frame lands at the
	// receiver one propagation delay later.
	l.sim.After(wire, l.wireFreeFn)
	l.fwdCount++
	l.fwd.schedule(sentNs+wire+l.DelayNs, fwdFrame{
		frame:   frame,
		sentNs:  sentNs,
		corrupt: l.CorruptOneIn > 0 && l.fwdCount%l.CorruptOneIn == 0,
	})
}

// arrive delivers one forward frame at the receiver edge.
func (l *Link) arrive(f fwdFrame) {
	if l.dropLost() {
		// The frame vanishes at the delivery point: wire timing and
		// backpressure already happened, exactly like corruption.
		// The idle check below (and the one in transmitNext) is the
		// wire-idle release discipline — when a drop leaves nothing
		// in flight and the sender window-limited, the displaced
		// frame is released and the coalesced interrupt flushed, so
		// a dropped frame can never strand the ACK clock.
		l.stats.Lost++
		l.sender.Frames.Put(f.frame)
	} else {
		if f.corrupt && len(f.frame) > 70 {
			f.frame[len(f.frame)-1] ^= 0x01
			l.stats.Corrupted++
		}
		l.deliverForward(f.frame, f.sentNs)
	}
	if l.fwd.len() == 0 && !l.busy {
		l.releaseDisplaced()
		l.dst.FlushInterrupt()
	}
}

// lossEnabled reports whether either loss arm is configured.
func (l *Link) lossEnabled() bool { return l.LossOneIn > 0 || l.BurstLossRate > 0 }

// dropLost decides the fate of one delivered forward frame. Both arms
// draw from splitmix64 over (LossSeed, lossCount): the decision depends
// only on the frame's position in this link's delivery order.
func (l *Link) dropLost() bool {
	if !l.lossEnabled() {
		return false
	}
	l.lossCount++
	r := splitmix64(l.LossSeed ^ (uint64(l.lossCount) * 0x9e3779b97f4a7c15))
	if l.LossOneIn > 0 {
		return r%uint64(l.LossOneIn) == 0
	}
	// Gilbert-Elliott: transition first, then drop while in the bad
	// state. Mean bad sojourn = 1/q frames = the burst length; the
	// good→bad rate p is solved from the stationary loss fraction
	// f = p/(p+q).
	f := l.BurstLossRate
	if f >= 1 {
		return true
	}
	blen := l.BurstLossLen
	if blen < 1 {
		blen = DefaultBurstLossLen
	}
	q := 1 / blen
	p := q * f / (1 - f)
	u := float64(r>>11) / (1 << 53)
	if l.lossBad {
		if u < q {
			l.lossBad = false
		}
	} else {
		if u < p {
			l.lossBad = true
		}
	}
	return l.lossBad
}

// splitmix64 is the SplitMix64 finalizer: a high-quality stateless mix
// from counter to uniform 64-bit value.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// deliverForward hands a frame to the receiver NIC, applying the reorder
// injector: every ReorderOneIn-th frame is withheld and re-injected after
// ReorderDistance later frames have been delivered.
func (l *Link) deliverForward(frame []byte, sentNs uint64) {
	if l.ReorderOneIn <= 0 {
		l.deliver(frame, sentNs)
		return
	}
	if l.displaced != nil {
		l.deliver(frame, sentNs)
		l.displaceLeft--
		if l.displaceLeft <= 0 {
			l.releaseDisplaced()
		}
		return
	}
	l.reorderCount++
	if l.reorderCount%l.ReorderOneIn == 0 {
		l.displaced = frame
		l.displacedSent = sentNs
		l.displaceLeft = l.ReorderDistance
		if l.displaceLeft <= 0 {
			l.displaceLeft = 1 // adjacent swap
		}
		return
	}
	l.deliver(frame, sentNs)
}

// releaseDisplaced injects the withheld frame, if any.
func (l *Link) releaseDisplaced() {
	if l.displaced == nil {
		return
	}
	f, sent := l.displaced, l.displacedSent
	l.displaced = nil
	l.stats.Reordered++
	l.deliver(f, sent)
}

// deliver is the actual handoff into the receiver's ring, stamping the
// frame's wire interval (transmit start and arrival). A frame the ring
// drops goes back to the sender's pool.
func (l *Link) deliver(frame []byte, sentNs uint64) {
	l.stats.FramesDelivered++
	l.stats.BytesDelivered += uint64(len(frame))
	if !l.dst.ReceiveFromWire(nic.Frame{Data: frame, SentNs: sentNs, ArriveNs: l.sim.Now()}) {
		l.sender.Frames.Put(frame)
	}
}

// DeliverReverse carries a receiver-transmitted frame back to the sender
// after the propagation delay.
func (l *Link) DeliverReverse(frame []byte) { l.DeliverReverseDelayed(frame, 0) }

// DeliverReverseDelayed additionally holds the frame for extraNs before it
// leaves the receiver (CPU processing time of the round that produced it).
func (l *Link) DeliverReverseDelayed(frame []byte, extraNs uint64) {
	l.stats.ReverseFrames++
	var c *ackCarrier
	if n := len(l.ackFree); n > 0 {
		c = l.ackFree[n-1]
		l.ackFree = l.ackFree[:n-1]
	} else {
		c = &ackCarrier{l: l}
		c.deliver = c.fire
	}
	c.frame = frame
	l.sim.After(extraNs+l.DelayNs, c.deliver)
}
