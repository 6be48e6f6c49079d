// Package ackoff implements the mechanics of Acknowledgment Offload, the
// paper's second optimization (§4): a sequence of near-identical TCP ACK
// packets is represented by a single template — the first ACK packet plus
// the list of subsequent ACK numbers — and materialized into individual
// packets just above the NIC.
//
// The TCP layer builds templates (see internal/tcp: flushAcks); the driver
// expands them (see internal/driver: Transmit). This package holds the
// shared expansion logic and its correctness contract: expanded ACKs are
// byte-identical to the packets an unmodified stack would have generated,
// assuming identical timestamps — the same assumption the paper makes
// (§4.2), valid because the batched ACKs are generated microseconds apart
// against a millisecond timestamp clock (§3.6).
package ackoff

import (
	"encoding/binary"
	"fmt"

	"repro/internal/buf"
	"repro/internal/checksum"
	"repro/internal/tcpwire"
)

// Expand materializes the ACK packets described by a template.
//
// template is the serialized frame of the first ACK (headers with valid
// checksums); l3off is the IP header offset; extras are the ACK numbers of
// the subsequent ACKs. Each expanded packet differs from the template only
// in its TCP acknowledgment number, its IP ID (templates expand to
// consecutive IDs, as individually generated packets would have), and the
// two incrementally-updated checksums.
//
// The expanded packets are appended to dst, which is returned with
// len(extras) more entries; the template itself is the first ACK and is
// not duplicated here. Each packet's buffer comes from frames (nil
// allocates), so a driver that passes its scratch slice and the run's
// pool expands templates without allocating.
func Expand(dst [][]byte, template []byte, l3off int, extras []uint32, frames *buf.FramePool) ([][]byte, error) {
	if l3off < 0 || len(template) < l3off+20 {
		return nil, fmt.Errorf("ackoff: template too short (%d bytes, l3off %d)", len(template), l3off)
	}
	ihl := int(template[l3off]&0x0f) * 4
	if ihl < 20 || len(template) < l3off+ihl+tcpwire.MinHeaderLen {
		return nil, fmt.Errorf("ackoff: malformed template IP header")
	}
	l4off := l3off + ihl
	baseID := binary.BigEndian.Uint16(template[l3off+4:])

	for i, ackNum := range extras {
		cp := frames.Get(len(template))
		copy(cp, template)
		if err := tcpwire.PatchAck(cp[l4off:], ackNum); err != nil {
			return nil, fmt.Errorf("ackoff: %w", err)
		}
		patchIPID(cp[l3off:], baseID+uint16(i)+1)
		dst = append(dst, cp)
	}
	return dst, nil
}

// patchIPID rewrites the IP identification field with an incremental
// header-checksum update (RFC 1624).
func patchIPID(l3 []byte, id uint16) {
	old := binary.BigEndian.Uint16(l3[4:6])
	cs := binary.BigEndian.Uint16(l3[10:12])
	binary.BigEndian.PutUint16(l3[4:6], id)
	binary.BigEndian.PutUint16(l3[10:12], checksum.Update16(cs, old, id))
}

// TemplateSavings reports how many host packets the transmit stack was
// spared for a template covering n ACKs: n-1 (one template replaces n
// stack traversals; the driver still emits n wire packets).
func TemplateSavings(n int) int {
	if n <= 1 {
		return 0
	}
	return n - 1
}
