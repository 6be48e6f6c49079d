package packet

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/ether"
	"repro/internal/ipv4"
	"repro/internal/tcpwire"
)

// dirtyParsed returns a Parsed holding a previous frame's state in every
// field Decode must reset: IP options, a timestamp, SACK blocks (with
// spare capacity), raw TCP options and a payload.
func dirtyParsed(t testing.TB) Parsed {
	s := baseSpec()
	s.IPOptions = []byte{1, 1, 1, 0}
	s.HasTS, s.TSVal, s.TSEcr = true, 7, 8
	s.SACKBlocks = []tcpwire.SACKBlock{{Start: 10, End: 20}, {Start: 30, End: 40}, {Start: 50, End: 60}}
	s.Payload = []byte("stale payload")
	var p Parsed
	if err := p.Decode(MustBuild(s)); err != nil {
		t.Fatal(err)
	}
	if len(p.IP.Options) == 0 || len(p.TCP.SACKBlocks) != 3 || !p.TCP.HasTimestamp {
		t.Fatalf("dirty fixture lacks the state it must carry: %+v", p)
	}
	return p
}

// FuzzPacketDecode checks the in-place decoder on arbitrary bytes:
//   - Parse and Decode never panic;
//   - Decode into a reused, dirty Parsed accepts exactly what Parse
//     accepts and yields the same value, IP options, SACK blocks and raw
//     TCP options included (an absent SACK list may keep its backing
//     array, so nil and empty compare equal);
//   - an accepted frame re-serializes (ether.Header.Put,
//     ipv4.Header.Put, tcpwire.Header.Put) to its own header bytes,
//     except for what the codecs deliberately do not carry: both
//     checksums (Put computes them), the IP reserved flag bit, and the
//     TCP reserved and ECN bits.
//
// The seed corpus (testdata/fuzz) holds built frames (plain data, a
// timestamp ACK, SACK ACKs, IP options, raw TCP options, a fragment) and
// malformed ones (truncated, bad version, bad IHL, bad data offset,
// non-IPv4, non-TCP, a bad option length).
func FuzzPacketDecode(f *testing.F) {
	dirty := dirtyParsed(f)
	f.Fuzz(func(t *testing.T, frame []byte) {
		fresh, errFresh := Parse(frame)
		reused := dirty
		reused.TCP.SACKBlocks = append(make([]tcpwire.SACKBlock, 0, 4), dirty.TCP.SACKBlocks...)
		errReused := reused.Decode(frame)
		if (errFresh == nil) != (errReused == nil) {
			t.Fatalf("Parse error %v, Decode into a reused Parsed error %v", errFresh, errReused)
		}
		if errFresh != nil {
			return
		}
		if len(reused.TCP.SACKBlocks) == 0 {
			reused.TCP.SACKBlocks = nil
		}
		if !reflect.DeepEqual(fresh, reused) {
			t.Fatalf("Decode into a reused Parsed:\n%+v\nParse:\n%+v", reused, fresh)
		}
		checkReserialize(t, frame, &fresh)
	})
}

// checkReserialize re-encodes p's three headers and compares them with
// the header bytes of frame, masking the bits the codecs do not carry.
func checkReserialize(t *testing.T, frame []byte, p *Parsed) {
	t.Helper()
	n := p.L4Offset + p.TCP.DataOff
	got := make([]byte, n)
	if err := p.Eth.Put(got); err != nil {
		t.Fatalf("ether Put: %v", err)
	}
	ih := p.IP
	if err := ih.Put(got[ether.HeaderLen:]); err != nil {
		t.Fatalf("ipv4 Put: %v", err)
	}
	th := p.TCP
	if err := th.Put(got[p.L4Offset:]); err != nil {
		t.Fatalf("tcpwire Put: %v", err)
	}
	want := bytes.Clone(frame[:n])
	for _, b := range [][]byte{got, want} {
		l3, l4 := b[ether.HeaderLen:], b[p.L4Offset:]
		l3[6] &^= 0x80        // IP reserved flag bit
		l3[10], l3[11] = 0, 0 // IP header checksum
		l4[12] &^= 0x0f       // TCP reserved bits
		l4[13] &^= 0xc0       // TCP CWR/ECE
		l4[tcpwire.OffChecksum], l4[tcpwire.OffChecksum+1] = 0, 0
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("headers re-serialize to\n%x\nwant\n%x", got, want)
	}
}

// TestDecodeReusedMatchesParse runs the fuzz property over built frames
// of every option layout, decoding them one after another into the same
// Parsed, so each decode starts from the previous frame's state.
func TestDecodeReusedMatchesParse(t *testing.T) {
	var frames [][]byte
	s := baseSpec()
	s.Payload = []byte("hello")
	frames = append(frames, MustBuild(s))
	s.HasTS, s.TSVal, s.TSEcr = true, 1, 2
	frames = append(frames, MustBuild(s))
	s.SACKBlocks = []tcpwire.SACKBlock{{Start: 100, End: 200}}
	frames = append(frames, MustBuild(s))
	s.SACKBlocks = []tcpwire.SACKBlock{{Start: 1, End: 2}, {Start: 3, End: 4}, {Start: 5, End: 6}}
	frames = append(frames, MustBuild(s))
	s.SACKBlocks, s.HasTS = nil, false
	s.IPOptions = []byte{1, 1, 1, 0}
	frames = append(frames, MustBuild(s))
	s.IPOptions = nil
	s.RawTCPOptions = []byte{tcpwire.OptMSS, 4, 0x05, 0xb4}
	frames = append(frames, MustBuild(s))

	var p Parsed
	for round := 0; round < 2; round++ {
		for i, frame := range frames {
			want, err := Parse(frame)
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if err := p.Decode(frame); err != nil {
				t.Fatalf("frame %d: Decode: %v", i, err)
			}
			got := p
			if len(got.TCP.SACKBlocks) == 0 {
				got.TCP.SACKBlocks = nil
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d frame %d: reused Decode\n%+v\nParse\n%+v", round, i, got, want)
			}
			checkReserialize(t, frame, &want)
		}
	}
	// Decoding into a header of each layer alone resets it the same way.
	var ih ipv4.Header
	var th tcpwire.Header
	for _, frame := range frames {
		want, _ := Parse(frame)
		if err := ih.Decode(frame[ether.HeaderLen:]); err != nil || !reflect.DeepEqual(ih, want.IP) {
			t.Fatalf("ipv4 Decode = %+v, %v; want %+v", ih, err, want.IP)
		}
		if err := th.Decode(frame[want.L4Offset:]); err != nil {
			t.Fatal(err)
		}
		got := th
		if len(got.SACKBlocks) == 0 {
			got.SACKBlocks = nil
		}
		if !reflect.DeepEqual(got, want.TCP) {
			t.Fatalf("tcpwire Decode = %+v; want %+v", got, want.TCP)
		}
	}
}
