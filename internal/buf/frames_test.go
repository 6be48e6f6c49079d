package buf

import (
	"bytes"
	"testing"
)

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func TestFramePoolLIFO(t *testing.T) {
	p := NewFramePool()
	a, b := p.Get(1514), p.Get(66)
	if len(a) != 1514 || cap(a) != FrameCap || len(b) != 66 {
		t.Fatalf("Get lengths: %d/%d, %d", len(a), cap(a), len(b))
	}
	p.Put(a)
	p.Put(b)
	if got := p.Get(100); &got[0] != &b[0] {
		t.Error("Get did not return the most recently released frame")
	}
	if got := p.Get(100); &got[0] != &a[0] {
		t.Error("Get did not return the earlier released frame second")
	}
}

func TestFramePoolIgnoresForeignFrames(t *testing.T) {
	p := NewPoisonFramePool()
	foreign := make([]byte, 1514)
	p.Put(foreign)
	if len(p.free) != 0 {
		t.Fatal("pool took a frame it did not make")
	}
	if foreign[0] != 0 {
		t.Fatal("pool poisoned a frame it did not make")
	}
	if big := p.Get(FrameCap + 1); cap(big) == FrameCap {
		t.Fatal("oversize frame came from the pool")
	}
}

func TestFramePoolLive(t *testing.T) {
	p := NewFramePool()
	a, b := p.Get(64), p.Get(1514)
	p.Get(FrameCap + 1) // not a pool frame
	if got := p.Live(); got != 2 {
		t.Fatalf("Live = %d after two pool Gets, want 2", got)
	}
	p.Put(a)
	p.Put(make([]byte, 64)) // foreign: ignored
	if got := p.Live(); got != 1 {
		t.Fatalf("Live = %d after one release, want 1", got)
	}
	p.Put(b)
	p.Get(64) // recycled frames count again
	if got := p.Live(); got != 1 {
		t.Fatalf("Live = %d, want 1", got)
	}
}

func TestNilFramePool(t *testing.T) {
	var p *FramePool
	b := p.Get(60)
	if len(b) != 60 {
		t.Fatalf("nil pool Get length %d", len(b))
	}
	p.Put(b) // must not panic
	if p.Live() != 0 {
		t.Fatal("nil pool reports frames out")
	}
}

func TestPoisonFramePool(t *testing.T) {
	p := NewPoisonFramePool()
	f := p.Get(1514)
	f[0] = 1
	p.Put(f)
	if !bytes.Equal(f[:1514], bytes.Repeat([]byte{poisonByte}, 1514)) {
		t.Fatal("released frame not poisoned")
	}
	mustPanic(t, "double release", func() { p.Put(f) })

	f[10] = 0 // a write after release
	mustPanic(t, "Get of a frame written after release", func() { p.Get(64) })

	q := NewPoisonFramePool()
	g := q.Get(64)
	q.Put(g)
	if h := q.Get(64); &h[0] != &g[0] {
		t.Fatal("poison pool did not recycle the frame")
	}
	q.Put(g) // released again after its reuse: legal
}

// TestFreeReleasesRxFrames: an RX SKB's Free releases its head frame and
// every fragment's owning frame; a TX SKB's Free releases nothing, since
// the wire still holds its Head.
func TestFreeReleasesRxFrames(t *testing.T) {
	a, _, _ := newTestAlloc()
	a.Frames = NewPoisonFramePool()
	head, f1, f2 := a.Frames.Get(1514), a.Frames.Get(1514), a.Frames.Get(1514)
	rx := a.NewRx(head, 14)
	a.AttachFrag(rx, Frag{Data: f1[66:], Frame: f1})
	a.AttachFrag(rx, Frag{Data: f2[66:], Frame: f2})
	a.Free(rx)
	if len(a.Frames.free) != 3 {
		t.Fatalf("free list holds %d frames after an RX free, want 3", len(a.Frames.free))
	}

	tx := a.NewData(a.Frames.Get(1514), 14)
	a.Free(tx)
	if len(a.Frames.free) != 2 {
		t.Fatalf("free list holds %d frames after a TX free, want 2", len(a.Frames.free))
	}
}
