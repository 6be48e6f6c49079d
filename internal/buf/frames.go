package buf

import "bytes"

// FrameCap is the capacity of every pooled frame buffer: the 2048-byte
// receive buffer an e1000-class driver posts for a standard-MTU ring,
// large enough for any frame the simulator builds at the default MSS
// (14 + 20 + 60 + 1448 bytes at most).
const FrameCap = 2048

// poisonByte fills released frames in poison mode.
const poisonByte = 0xA5

// poisonFrame is a whole frame of poisonByte, the fill and the check.
var poisonFrame = bytes.Repeat([]byte{poisonByte}, FrameCap)

// FramePool recycles data-frame buffers through a LIFO free list: Get
// hands out the most recently released frame, so reuse order is a pure
// function of the run's event order. It is deliberately not a sync.Pool,
// whose reuse order depends on the Go scheduler and the collector and
// would let an aliasing bug show up in one run and hide in the next.
//
// One pool serves one run topology: senders build data frames from it,
// and the receive side releases a frame where the model consumes it for
// the last time (an RX SKB's Free, a wire or ring drop, the source of a
// Xen grant copy). A frame handed to Put must have no other live
// reference. The pool owns only the frames it made — Put ignores any
// buffer whose capacity is not FrameCap — so a frame built elsewhere
// (a test's, an ACK copy) is never recycled. A missed release only
// leaves the frame to the collector. A nil *FramePool is valid: Get
// allocates and Put does nothing.
//
// The pool is not safe for concurrent use; a run is one serial event
// loop, and concurrent runs each build their own topology and pool.
type FramePool struct {
	free [][]byte
	live int // frames handed out by Get and not yet released

	// poison is the test mode: a released frame is overwritten with
	// poisonByte, a second release panics, and Get panics if a free
	// frame was written after its release. released holds the frames
	// on the free list, keyed by their first byte.
	poison   bool
	released map[*byte]bool
}

// maxFreeFrames bounds the free list; releases beyond it go to the
// collector. A run keeps at most a few ring's worth of frames live.
const maxFreeFrames = 4096

// NewFramePool returns an empty pool.
func NewFramePool() *FramePool { return &FramePool{} }

// NewPoisonFramePool returns a pool in poison mode, for tests: released
// frames are overwritten with 0xA5, so a use after release corrupts a
// checksum or a byte-exact comparison instead of reading stale data that
// happens to be right, and releasing a frame twice panics as a double
// SKB free does.
func NewPoisonFramePool() *FramePool {
	return &FramePool{poison: true, released: make(map[*byte]bool)}
}

// Get returns a frame of length n. Lengths up to FrameCap come from the
// free list (or a fresh FrameCap buffer); the contents are whatever the
// previous user left, so the caller must write every byte it uses.
// Longer frames are plain allocations the pool never takes back.
func (p *FramePool) Get(n int) []byte {
	if p == nil || n > FrameCap {
		return make([]byte, n)
	}
	p.live++
	k := len(p.free)
	if k == 0 {
		return make([]byte, n, FrameCap)
	}
	b := p.free[k-1]
	p.free[k-1] = nil
	p.free = p.free[:k-1]
	if p.poison {
		delete(p.released, &b[0])
		if !bytes.Equal(b, poisonFrame) {
			panic("buf: frame written after release")
		}
	}
	return b[:n]
}

// Put releases frame b to the pool. Buffers the pool did not make are
// ignored.
func (p *FramePool) Put(b []byte) {
	if p == nil || cap(b) != FrameCap {
		return
	}
	b = b[:FrameCap]
	p.live--
	if p.poison {
		if p.released[&b[0]] {
			panic("buf: double frame release")
		}
		copy(b, poisonFrame)
		p.released[&b[0]] = true
	}
	if len(p.free) < maxFreeFrames {
		p.free = append(p.free, b)
	}
}

// Live returns the number of frames Get has handed out that have not
// been released since: a leak check for code that owns pool frames. A
// frame the pool did not make but that has its capacity counts as a
// release too, so Live can go negative. A nil pool has none out.
func (p *FramePool) Live() int {
	if p == nil {
		return 0
	}
	return p.live
}
