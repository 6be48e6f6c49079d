package packet

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/buf"
	"repro/internal/ether"
	"repro/internal/ipv4"
	"repro/internal/tcpwire"
)

func baseSpec() TCPSpec {
	return TCPSpec{
		SrcMAC:  ether.Addr{0, 1, 2, 3, 4, 5},
		DstMAC:  ether.Addr{6, 7, 8, 9, 10, 11},
		SrcIP:   ipv4.Addr{10, 0, 0, 1},
		DstIP:   ipv4.Addr{10, 0, 0, 2},
		SrcPort: 5001, DstPort: 44000,
		Seq: 1000, Ack: 2000,
		Flags:  tcpwire.FlagACK,
		Window: 65535,
		HasTS:  true, TSVal: 77, TSEcr: 88,
		Payload: []byte("hello tcp receive world"),
		IPID:    42,
	}
}

func TestBuildParseRoundTrip(t *testing.T) {
	s := baseSpec()
	frame := MustBuild(s)
	p, err := Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if p.Eth.Src != s.SrcMAC || p.Eth.Dst != s.DstMAC {
		t.Error("MAC mismatch")
	}
	if p.IP.Src != s.SrcIP || p.IP.Dst != s.DstIP || p.IP.ID != s.IPID {
		t.Error("IP mismatch")
	}
	if p.TCP.SrcPort != s.SrcPort || p.TCP.DstPort != s.DstPort ||
		p.TCP.Seq != s.Seq || p.TCP.Ack != s.Ack {
		t.Error("TCP mismatch")
	}
	if !p.TCP.TimestampOnly || p.TCP.TSVal != 77 || p.TCP.TSEcr != 88 {
		t.Errorf("timestamp mismatch: %+v", p.TCP)
	}
	if !bytes.Equal(p.Payload, s.Payload) {
		t.Errorf("payload mismatch: %q", p.Payload)
	}
	if p.L4Offset != ether.HeaderLen+ipv4.MinHeaderLen {
		t.Errorf("L4Offset = %d", p.L4Offset)
	}
}

func TestBuildChecksumsValid(t *testing.T) {
	frame := MustBuild(baseSpec())
	l3 := frame[ether.HeaderLen:]
	if !ipv4.VerifyChecksum(l3) {
		t.Error("IP checksum invalid")
	}
	ih, _ := ipv4.Parse(l3)
	if !tcpwire.VerifyChecksum(l3[ih.IHL:ih.TotalLen], ih.Src, ih.Dst) {
		t.Error("TCP checksum invalid")
	}
}

func TestBuildCorruption(t *testing.T) {
	s := baseSpec()
	s.CorruptTCPCsum = true
	frame := MustBuild(s)
	l3 := frame[ether.HeaderLen:]
	ih, _ := ipv4.Parse(l3)
	if tcpwire.VerifyChecksum(l3[ih.IHL:ih.TotalLen], ih.Src, ih.Dst) {
		t.Error("corrupted TCP checksum verifies")
	}
	if !ipv4.VerifyChecksum(l3) {
		t.Error("IP checksum should remain valid")
	}

	s = baseSpec()
	s.CorruptIPCsum = true
	frame = MustBuild(s)
	if ipv4.VerifyChecksum(frame[ether.HeaderLen:]) {
		t.Error("corrupted IP checksum verifies")
	}
}

func TestBuildIPOptions(t *testing.T) {
	s := baseSpec()
	s.IPOptions = []byte{0x94, 0x04, 0x00, 0x00}
	frame := MustBuild(s)
	p, err := Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !p.IP.HasOptions() {
		t.Error("IP options lost")
	}
	if !bytes.Equal(p.Payload, s.Payload) {
		t.Error("payload corrupted by IP options")
	}
}

func TestBuildFragment(t *testing.T) {
	s := baseSpec()
	s.MF = true
	s.FragOffset = 0
	frame := MustBuild(s)
	p, err := Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !p.IP.IsFragment() {
		t.Error("fragment flags lost")
	}
}

func TestBuildRawTCPOptions(t *testing.T) {
	s := baseSpec()
	s.RawTCPOptions = []byte{tcpwire.OptSACKPerm, 2, tcpwire.OptNOP, tcpwire.OptNOP}
	frame := MustBuild(s)
	p, err := Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !p.TCP.OtherOptions {
		t.Error("raw options not detected as OtherOptions")
	}
	if !bytes.Equal(p.Payload, s.Payload) {
		t.Error("payload corrupted by raw options")
	}
}

func TestBuildRejectsMisalignedOptions(t *testing.T) {
	s := baseSpec()
	s.RawTCPOptions = []byte{1, 1, 1}
	if _, err := Build(s); err == nil {
		t.Error("expected error for misaligned TCP options")
	}
}

func TestBuildRejectsOversize(t *testing.T) {
	s := baseSpec()
	s.Payload = make([]byte, 70000)
	if _, err := Build(s); err == nil {
		t.Error("expected error for oversized datagram")
	}
}

func TestParseRejectsNonIP(t *testing.T) {
	frame := MustBuild(baseSpec())
	frame[12], frame[13] = 0x08, 0x06 // ARP
	if _, err := Parse(frame); err == nil {
		t.Error("expected error for non-IPv4 frame")
	}
}

func TestDefaultTTL(t *testing.T) {
	s := baseSpec()
	s.TTL = 0
	p, err := Parse(MustBuild(s))
	if err != nil {
		t.Fatal(err)
	}
	if p.IP.TTL != 64 {
		t.Errorf("TTL = %d, want default 64", p.IP.TTL)
	}
}

// Property: Build/Parse round-trips arbitrary field values, and checksums
// always verify for uncorrupted frames.
func TestRoundTrip_Quick(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, win uint16, tsval, tsecr uint32, payload []byte) bool {
		if len(payload) > 1448 {
			payload = payload[:1448]
		}
		s := baseSpec()
		s.SrcPort, s.DstPort = sp, dp
		s.Seq, s.Ack = seq, ack
		s.Window = win
		s.TSVal, s.TSEcr = tsval, tsecr
		s.Payload = payload
		frame, err := Build(s)
		if err != nil {
			return false
		}
		p, err := Parse(frame)
		if err != nil {
			return false
		}
		l3 := frame[ether.HeaderLen:]
		ih, _ := ipv4.Parse(l3)
		return p.TCP.Seq == seq && p.TCP.Ack == ack &&
			p.TCP.SrcPort == sp && p.TCP.DstPort == dp &&
			p.TCP.Window == win && bytes.Equal(p.Payload, payload) &&
			ipv4.VerifyChecksum(l3) &&
			tcpwire.VerifyChecksum(l3[ih.IHL:ih.TotalLen], ih.Src, ih.Dst)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBuildSACKAckAllocatesNothing: with a frame pool, building a
// SACK-bearing ACK writes its options straight into the frame, so the
// whole build allocates nothing.
func TestBuildSACKAckAllocatesNothing(t *testing.T) {
	s := baseSpec()
	s.Payload = nil
	s.SACKBlocks = []tcpwire.SACKBlock{{Start: 5000, End: 6448}, {Start: 9000, End: 10448}}
	s.Frames = buf.NewFramePool()
	s.Frames.Put(MustBuild(s))
	allocs := testing.AllocsPerRun(100, func() { s.Frames.Put(MustBuild(s)) })
	if allocs != 0 {
		t.Errorf("SACK ACK build allocated %.0f times", allocs)
	}
	p, err := Parse(MustBuild(s))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.TCP.SACKBlocks) != 2 || !p.TCP.HasTimestamp || p.TCP.TSVal != s.TSVal {
		t.Errorf("SACK ACK parsed back as %+v", p.TCP)
	}
}

// TestBuildSourceMatchesPayload: a payload written in place by Source
// gives the same frame as the same bytes copied in from Payload, also
// into a recycled buffer that held an earlier frame.
func TestBuildSourceMatchesPayload(t *testing.T) {
	src := func(seq uint32, b []byte) {
		for i := range b {
			b[i] = byte(seq) + byte(i)*3
		}
	}
	s := baseSpec()
	s.Payload = make([]byte, 1448)
	src(s.Seq, s.Payload)
	want := MustBuild(s)

	pool := buf.NewFramePool()
	old := baseSpec()
	old.Payload = bytes.Repeat([]byte{0xee}, 1448)
	old.IPOptions = []byte{0xee, 0xee, 0xee} // padding the next frame must not inherit
	old.Frames = pool
	pool.Put(MustBuild(old))

	s.Payload = nil
	s.Source, s.PayloadLen, s.Frames = src, 1448, pool
	if got := MustBuild(s); !bytes.Equal(got, want) {
		t.Error("Source-built frame differs from the Payload-built frame")
	}
}
