// Package packet builds and dissects complete Ethernet/IPv4/TCP frames.
// It is the single frame-construction path shared by the sender machines,
// the TCP endpoint's transmit side, and the test suites.
package packet

import (
	"fmt"

	"repro/internal/buf"
	"repro/internal/ether"
	"repro/internal/ipv4"
	"repro/internal/tcpwire"
)

// TCPSpec describes one TCP/IPv4/Ethernet frame to build.
type TCPSpec struct {
	SrcMAC, DstMAC   ether.Addr
	SrcIP, DstIP     ipv4.Addr
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	HasTS            bool
	TSVal, TSEcr     uint32
	// SACKBlocks emits a SACK option after the timestamp (RFC 2018
	// NOP,NOP,TS + NOP,NOP,SACK layout); at most tcpwire.MaxSACKBlocks
	// blocks fit beside a timestamp. Ignored when RawTCPOptions is set.
	SACKBlocks []tcpwire.SACKBlock
	// Payload is copied into the frame after the headers.
	Payload []byte
	// Source, when set, replaces Payload: Build calls it to write
	// PayloadLen bytes of the stream, starting at sequence number Seq,
	// straight into the frame.
	Source     func(seq uint32, b []byte)
	PayloadLen int
	// Frames, when set, supplies the frame buffer (nil allocates one).
	Frames *buf.FramePool
	IPID   uint16
	TTL    uint8

	// Fault/feature injection for tests and rule coverage:

	// IPOptions adds raw IP options (padded to 32 bits).
	IPOptions []byte
	// MF/FragOffset mark the packet as an IP fragment.
	MF         bool
	FragOffset int
	// RawTCPOptions overrides the TCP options bytes entirely (length
	// must be a multiple of 4); HasTS is ignored when set.
	RawTCPOptions []byte
	// CorruptTCPCsum flips a bit in the TCP checksum after computing it.
	CorruptTCPCsum bool
	// CorruptIPCsum flips a bit in the IP header checksum.
	CorruptIPCsum bool
}

// Build serializes the frame described by s into one buffer: headers,
// then the payload, copied from Payload or written in place by Source,
// then the transport checksum over the finished segment.
func Build(s TCPSpec) ([]byte, error) {
	th := tcpwire.Header{
		SrcPort: s.SrcPort,
		DstPort: s.DstPort,
		Seq:     s.Seq,
		Ack:     s.Ack,
		Flags:   s.Flags,
		Window:  s.Window,
	}
	// Options other than the plain timestamp layout are written after a
	// bare 20-byte header: either the raw bytes given, or the TS+SACK
	// layout appended in place.
	optLen := 0
	switch {
	case s.RawTCPOptions != nil:
		if len(s.RawTCPOptions)%4 != 0 {
			return nil, fmt.Errorf("packet: TCP options length %d not 32-bit aligned", len(s.RawTCPOptions))
		}
		optLen = len(s.RawTCPOptions)
	case len(s.SACKBlocks) > 0:
		optLen = tcpwire.OptionsLen(s.HasTS, len(s.SACKBlocks))
	case s.HasTS:
		th.HasTimestamp = true
		th.TSVal = s.TSVal
		th.TSEcr = s.TSEcr
	}
	tcpLen := tcpwire.MinHeaderLen + optLen
	if th.HasTimestamp {
		tcpLen = tcpwire.TimestampHeaderLen
	}

	ih := ipv4.Header{
		IHL:        ipv4.MinHeaderLen + len(s.IPOptions),
		ID:         s.IPID,
		DF:         !s.MF && s.FragOffset == 0,
		MF:         s.MF,
		FragOffset: s.FragOffset,
		TTL:        s.TTL,
		Proto:      ipv4.ProtoTCP,
		Src:        s.SrcIP,
		Dst:        s.DstIP,
		Options:    s.IPOptions,
	}
	if ih.TTL == 0 {
		ih.TTL = 64
	}
	payloadLen := len(s.Payload)
	if s.Source != nil {
		payloadLen = s.PayloadLen
	}
	ipLen := ih.Len()
	ih.TotalLen = ipLen + tcpLen + payloadLen
	if ih.TotalLen > 0xffff {
		return nil, fmt.Errorf("packet: datagram too large: %d", ih.TotalLen)
	}

	frame := s.Frames.Get(ether.HeaderLen + ih.TotalLen)
	// A recycled buffer holds an old frame: zero the headers, whose
	// option padding the encoders below leave untouched.
	clear(frame[:ether.HeaderLen+ipLen+tcpLen])
	eh := ether.Header{Dst: s.DstMAC, Src: s.SrcMAC, Type: ether.TypeIPv4}
	if err := eh.Put(frame); err != nil {
		return nil, err
	}
	l3 := frame[ether.HeaderLen:]
	if err := ih.Put(l3); err != nil {
		return nil, err
	}
	seg := l3[ipLen:]
	if err := th.Put(seg); err != nil {
		return nil, err
	}
	if optLen > 0 {
		seg[12] = byte(tcpLen/4) << 4
		if s.RawTCPOptions != nil {
			copy(seg[tcpwire.MinHeaderLen:], s.RawTCPOptions)
		} else {
			tcpwire.AppendOptions(seg[tcpwire.MinHeaderLen:tcpwire.MinHeaderLen], s.HasTS, s.TSVal, s.TSEcr, s.SACKBlocks)
		}
	}
	if s.Source != nil {
		s.Source(s.Seq, seg[tcpLen:])
	} else {
		copy(seg[tcpLen:], s.Payload)
	}
	if err := tcpwire.SetChecksum(seg, ih.Src, ih.Dst); err != nil {
		return nil, err
	}
	if s.CorruptTCPCsum {
		seg[tcpwire.OffChecksum] ^= 0x01
	}
	if s.CorruptIPCsum {
		l3[10] ^= 0x01
	}
	return frame, nil
}

// MustBuild is Build for specs known valid at compile time; it panics on
// error and is intended for tests and fixed-format senders.
func MustBuild(s TCPSpec) []byte {
	b, err := Build(s)
	if err != nil {
		panic(err)
	}
	return b
}

// Parsed is a fully dissected TCP frame.
type Parsed struct {
	Eth     ether.Header
	IP      ipv4.Header
	TCP     tcpwire.Header
	Payload []byte
	// L4Offset is the TCP header's offset within the frame.
	L4Offset int
}

// Parse dissects a serialized frame built by Build (or received from the
// simulated wire). It is Decode into a fresh Parsed.
func Parse(frame []byte) (Parsed, error) {
	var p Parsed
	if err := p.Decode(frame); err != nil {
		return Parsed{}, err
	}
	return p, nil
}

// Decode dissects frame into p, overwriting every field. The headers are
// decoded in place (ipv4.Header.Decode, tcpwire.Header.Decode), so a
// Parsed reused for frame after frame copies no header and, once its SACK
// block array has grown, allocates nothing. Payload and the option fields
// alias frame. After an error p holds no meaningful value.
func (p *Parsed) Decode(frame []byte) error {
	eh, err := ether.Parse(frame)
	if err != nil {
		return err
	}
	if eh.Type != ether.TypeIPv4 {
		return fmt.Errorf("packet: not IPv4: type %#04x", eh.Type)
	}
	p.Eth = eh
	l3 := frame[ether.HeaderLen:]
	if err := p.IP.Decode(l3); err != nil {
		return err
	}
	if p.IP.Proto != ipv4.ProtoTCP {
		return fmt.Errorf("packet: not TCP: proto %d", p.IP.Proto)
	}
	seg := l3[p.IP.IHL:p.IP.TotalLen]
	if err := p.TCP.Decode(seg); err != nil {
		return err
	}
	p.Payload = seg[p.TCP.DataOff:]
	p.L4Offset = ether.HeaderLen + p.IP.IHL
	return nil
}
