package netstack

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/tcp"
)

// slotDigest hashes every shard's open-addressed slots in index order:
// the slot count, then per slot its hash, probe distance, key and the
// identity of the bound endpoint (its index in eps, 0xff when empty).
// The endpoint is resolved through Peek, so the digest does not depend
// on how a slot stores its endpoint.
func slotDigest(tab *FlowTable, eps []*tcp.Endpoint) string {
	h := sha256.New()
	var b [21]byte
	for si := range tab.shards {
		s := &tab.shards[si]
		binary.LittleEndian.PutUint32(b[:4], uint32(len(s.slots)))
		h.Write(b[:4])
		for j := range s.slots {
			sl := &s.slots[j]
			b = [21]byte{}
			binary.LittleEndian.PutUint32(b[0:], sl.hash)
			binary.LittleEndian.PutUint16(b[4:], sl.dist)
			copy(b[6:10], sl.key.Src[:])
			copy(b[10:14], sl.key.Dst[:])
			binary.LittleEndian.PutUint16(b[14:], sl.key.SrcPort)
			binary.LittleEndian.PutUint16(b[16:], sl.key.DstPort)
			b[20] = 0xff
			if sl.dist != 0 {
				ep := tab.Peek(sl.key)
				for i, e := range eps {
					if e == ep {
						b[20] = byte(i)
					}
				}
			}
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFlowTableLayoutPinned pins the open layout's exact slot placement
// and its priced build cost on a population well past the 2 MiB capacity
// threshold (so insert, remove and lookup charges are non-zero): 200k
// inserts over three endpoints with sprinkled duplicate attempts, a
// seeded third removed, half of those re-inserted, then attributed
// lookups over hits and misses. Every constant was recorded from the
// pointer-slot representation; a change to slot layout, growth points,
// probe counts or capacity pricing moves at least one of them.
func TestFlowTableLayoutPinned(t *testing.T) {
	const (
		n          = 200_000
		wantDigest = "3f3e1247a388230cb2c86dc5f97dc5c8e3d80e313198e98227686cdb47deba8e"
		wantDemux  = 120124463
		wantRx     = 8542608
		wantBytes  = 16777216
		wantStats  = "{Layout:open Entries:166667 Slots:524288 Bytes:16777216 DemuxCycles:120124463 " +
			"LoadMin:0.302978515625 LoadP50:0.317626953125 LoadMax:0.326904296875 " +
			"ProbeMin:1 ProbeP50:1 ProbeMax:7 ProbeHist:[133941 27672 4382 584 73 13 2]}"
	)
	params := cost.NativeUP()
	var m cycles.Meter
	tab, err := NewFlowTable(0)
	if err != nil {
		t.Fatal(err)
	}
	tab.SetPricing(&m, &params)
	tab.SetQueues(2)
	eps := []*tcp.Endpoint{
		testEndpoint(t, 5001, 44000),
		testEndpoint(t, 5002, 44000),
		testEndpoint(t, 5003, 44000),
	}
	for i := 0; i < n; i++ {
		if err := tab.Insert(diffKey(i), eps[i%len(eps)]); err != nil {
			t.Fatal(err)
		}
		if i%997 == 0 {
			if err := tab.Insert(diffKey(i), eps[0]); err == nil {
				t.Fatalf("duplicate insert of key %d accepted", i)
			}
		}
	}
	rng := rand.New(rand.NewSource(14))
	removed := rng.Perm(n)[:n/3]
	for _, i := range removed {
		if !tab.Remove(diffKey(i)) {
			t.Fatalf("Remove(key %d) failed", i)
		}
	}
	for _, i := range removed[:len(removed)/2] {
		if err := tab.Insert(diffKey(i), eps[(i+1)%len(eps)]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n+n/10; i += 7 {
		tab.LookupOn(i%2, diffKey(i), 0, 1, false)
	}

	got := fmt.Sprintf("%+v", tab.TableStats())
	if d := slotDigest(tab, eps); d != wantDigest {
		t.Errorf("slot digest = %s, want %s", d, wantDigest)
	}
	if tab.DemuxCycles() != wantDemux {
		t.Errorf("DemuxCycles = %d, want %d", tab.DemuxCycles(), wantDemux)
	}
	if rx := m.Get(cycles.Rx); rx != wantRx {
		t.Errorf("lookup (Rx) charges = %d, want %d", rx, wantRx)
	}
	if tab.StructBytes() != wantBytes {
		t.Errorf("StructBytes = %d, want %d", tab.StructBytes(), wantBytes)
	}
	if got != wantStats {
		t.Errorf("TableStats =\n%s\nwant\n%s", got, wantStats)
	}
}
