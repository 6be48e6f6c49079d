package sim

import "repro/internal/buf"

// poisonFrames builds every run topology's frame pool in poison mode
// (buf.NewPoisonFramePool): released frames are overwritten with 0xA5
// and a double release panics. It is a test switch, not a config field:
// it moves no modeled result, it only makes a use of a released frame
// fail loudly. This package's tests turn it on in export_test.go.
var poisonFrames bool

// PoisonFramesForTests turns poisonFrames on for the tests of packages
// built on this one, which cannot reach the unexported switch. Call it
// from a test binary's init, before any run starts.
func PoisonFramesForTests() { poisonFrames = true }

// newFramePool returns the frame pool of one run topology: the senders
// build data frames in it, and the receiving machine's allocator takes
// them back.
func newFramePool() *buf.FramePool {
	if poisonFrames {
		return buf.NewPoisonFramePool()
	}
	return buf.NewFramePool()
}
