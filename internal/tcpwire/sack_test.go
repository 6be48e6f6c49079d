package tcpwire

import (
	"testing"
)

// sackSegment serializes a 20-byte base header followed by the given
// option bytes (padded to a 4-byte boundary with OptEnd), the way the
// packet builder lays SACK-carrying ACKs on the wire.
func sackSegment(t *testing.T, opts []byte) []byte {
	t.Helper()
	n := len(opts)
	if n%4 != 0 {
		n += 4 - n%4
	}
	b := make([]byte, MinHeaderLen+n)
	h := Header{SrcPort: 5001, DstPort: 33000, Ack: 9999, Flags: FlagACK, Window: 65535}
	if err := h.Put(b[:MinHeaderLen]); err != nil {
		t.Fatal(err)
	}
	copy(b[MinHeaderLen:], opts)
	b[12] = byte(len(b)/4) << 4
	return b
}

func TestBuildOptionsSACKRoundTrip(t *testing.T) {
	blocks := []SACKBlock{
		{Start: 5000, End: 6448},
		{Start: 1000, End: 2448},
		{Start: 9000, End: 10448},
	}
	opts := BuildOptions(true, 111, 222, blocks)
	// NOP,NOP,TS(10) + NOP,NOP,SACK(2+8*3): exactly the 40-byte area.
	if len(opts) != 40 {
		t.Fatalf("options length = %d, want 40 (full area)", len(opts))
	}
	got, err := Parse(sackSegment(t, opts))
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasTimestamp || got.TSVal != 111 || got.TSEcr != 222 {
		t.Errorf("timestamp lost beside SACK: %+v", got)
	}
	if len(got.SACKBlocks) != 3 {
		t.Fatalf("parsed %d blocks, want 3", len(got.SACKBlocks))
	}
	for i, b := range blocks {
		if got.SACKBlocks[i] != b {
			t.Errorf("block %d = %+v, want %+v (RFC 2018 order must survive)",
				i, got.SACKBlocks[i], b)
		}
	}
	if got.TimestampOnly {
		t.Error("TimestampOnly = true on a SACK-carrying ACK; aggregation would corrupt it")
	}
	if !got.OtherOptions {
		t.Error("OtherOptions = false with a SACK option present")
	}
}

func TestBuildOptionsBlockCap(t *testing.T) {
	many := make([]SACKBlock, 6)
	for i := range many {
		many[i] = SACKBlock{Start: uint32(i * 1000), End: uint32(i*1000 + 500)}
	}
	// Beside a timestamp only MaxSACKBlocks fit.
	got, err := Parse(sackSegment(t, BuildOptions(true, 1, 2, many)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.SACKBlocks) != MaxSACKBlocks {
		t.Errorf("with TS: %d blocks, want %d", len(got.SACKBlocks), MaxSACKBlocks)
	}
	// Without a timestamp the 40-byte area admits four.
	got, err = Parse(sackSegment(t, BuildOptions(false, 0, 0, many)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.SACKBlocks) != 4 {
		t.Errorf("without TS: %d blocks, want 4", len(got.SACKBlocks))
	}
	if got.HasTimestamp {
		t.Error("phantom timestamp parsed")
	}
	// The kept prefix must be the most recent blocks, never a truncated one.
	for i, b := range got.SACKBlocks {
		if b != many[i] {
			t.Errorf("block %d = %+v, want %+v", i, b, many[i])
		}
	}
}

func TestBuildOptionsEmpty(t *testing.T) {
	if got := BuildOptions(false, 0, 0, nil); got != nil {
		t.Errorf("BuildOptions with nothing requested = %v, want nil", got)
	}
	// Timestamp-only via BuildOptions parses back as TimestampOnly: the
	// aggregatable layout is preserved when no blocks are pending.
	h, err := Parse(sackSegment(t, BuildOptions(true, 7, 8, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if !h.TimestampOnly || h.TSVal != 7 || h.TSEcr != 8 {
		t.Errorf("timestamp-only layout misparsed: %+v", h)
	}
}

// TestAppendOptionsInPlace: AppendOptions writes the BuildOptions layout
// into dst's spare capacity, after what dst already holds, and
// OptionsLen predicts its length, including when blocks are dropped.
func TestAppendOptionsInPlace(t *testing.T) {
	blocks := []SACKBlock{{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}}
	for _, hasTS := range []bool{true, false} {
		for n := 0; n <= len(blocks); n++ {
			want := BuildOptions(hasTS, 11, 12, blocks[:n])
			if got := OptionsLen(hasTS, n); got != len(want) {
				t.Errorf("hasTS=%v n=%d: OptionsLen = %d, BuildOptions wrote %d", hasTS, n, got, len(want))
			}
			frame := make([]byte, 4, 64)
			got := AppendOptions(frame, hasTS, 11, 12, blocks[:n])
			if &got[0] != &frame[0] {
				t.Fatalf("hasTS=%v n=%d: AppendOptions reallocated", hasTS, n)
			}
			if string(got[4:]) != string(want) {
				t.Errorf("hasTS=%v n=%d: AppendOptions = %x, BuildOptions = %x", hasTS, n, got[4:], want)
			}
		}
	}
}
