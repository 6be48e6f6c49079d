// Package checksum implements the Internet checksum (RFC 1071) and its
// incremental update (RFC 1624).
//
// The receive path uses it to verify and rewrite IP headers when building
// aggregated packets (paper §3.2), and Acknowledgment Offload uses the
// incremental form to patch the TCP checksum of each ACK generated from a
// template without touching the rest of the packet (paper §4.2).
package checksum

import (
	"encoding/binary"
	"math/bits"
)

// Sum computes the one's-complement sum of b folded to 16 bits, without the
// final complement. Odd-length buffers are padded with a zero byte, as
// specified by RFC 1071.
//
// The sum is accumulated over 64-bit big-endian words with the carries
// deferred: each word is added with a plain 64-bit add, the carries out
// of bit 63 are counted separately, and everything is folded to 16 bits
// once at the end. This is the RFC 1071 §2 observation that the
// one's-complement sum may be computed in any word size wider than 16
// bits (2^16 ≡ 1 mod 0xffff, so every 16-bit lane of a wide word, and
// every carry out of it, lands on the same residue), and is how Linux's
// csum_partial sums with add-with-carry over machine words. The result
// equals the plain 16-bit loop's for every input.
func Sum(b []byte) uint16 {
	var sum, carries, c uint64
	for len(b) >= 32 {
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b[0:8]), 0)
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b[8:16]), c)
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b[16:24]), c)
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b[24:32]), c)
		carries += c
		b = b[32:]
	}
	for len(b) >= 8 {
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b[:8]), 0)
		carries += c
		b = b[8:]
	}
	// The tail is under 8 bytes: its 16-bit words (the odd byte padded on
	// the right) fit in a 32-bit sum, which cannot overflow.
	var tail uint64
	if len(b) >= 4 {
		tail += uint64(binary.BigEndian.Uint32(b[:4]))
		b = b[4:]
	}
	if len(b) >= 2 {
		tail += uint64(binary.BigEndian.Uint16(b[:2]))
		b = b[2:]
	}
	if len(b) == 1 {
		tail += uint64(b[0]) << 8
	}
	sum, c = bits.Add64(sum, tail, 0)
	carries += c
	// 2^32 and 2^64 are both ≡ 1 mod 0xffff: the two halves of the sum and
	// the deferred carries add up to the same residue, with no overflow.
	return fold(sum>>32 + sum&0xffffffff + carries)
}

// Checksum computes the Internet checksum of b: the one's complement of the
// one's-complement sum.
func Checksum(b []byte) uint16 {
	return ^Sum(b)
}

// Combine adds two partial one's-complement sums (as returned by Sum).
func Combine(a, b uint16) uint16 {
	return fold(uint64(a) + uint64(b))
}

// fold reduces an accumulator to 16 bits with end-around carry.
func fold(sum uint64) uint16 {
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return uint16(sum)
}

// Verify reports whether a buffer that embeds its own checksum field sums to
// the all-ones pattern, i.e. checksums correctly (RFC 1071 §4.1).
func Verify(b []byte) bool {
	return Sum(b) == 0xffff
}

// Update16 incrementally updates checksum old when a 16-bit field of the
// covered data changes from oldVal to newVal, per RFC 1624 (eqn. 3):
//
//	HC' = ~(~HC + ~m + m')
//
// It returns the new checksum. Using the RFC 1624 form (rather than the
// original RFC 1071 incremental equation) avoids the -0/+0 ambiguity.
func Update16(old, oldVal, newVal uint16) uint16 {
	sum := uint64(^old) + uint64(^oldVal) + uint64(newVal)
	return ^fold(sum)
}

// Update32 incrementally updates checksum old when an aligned 32-bit field
// changes from oldVal to newVal. TCP sequence and acknowledgment numbers are
// such fields; this is the core of ACK-template expansion.
func Update32(old uint16, oldVal, newVal uint32) uint16 {
	c := Update16(old, uint16(oldVal>>16), uint16(newVal>>16))
	return Update16(c, uint16(oldVal&0xffff), uint16(newVal&0xffff))
}

// PseudoHeaderSum computes the partial sum of the TCP/UDP pseudo-header for
// the given IPv4 addresses, protocol and transport length, for inclusion in
// a transport checksum.
func PseudoHeaderSum(src, dst [4]byte, proto uint8, length int) uint16 {
	var ph [12]byte
	copy(ph[0:4], src[:])
	copy(ph[4:8], dst[:])
	ph[8] = 0
	ph[9] = proto
	binary.BigEndian.PutUint16(ph[10:12], uint16(length))
	return Sum(ph[:])
}

// TransportChecksum computes the checksum of a transport segment (header +
// payload, with its checksum field already zeroed) covered by the IPv4
// pseudo-header.
func TransportChecksum(src, dst [4]byte, proto uint8, segment []byte) uint16 {
	sum := PseudoHeaderSum(src, dst, proto, len(segment))
	return ^Combine(sum, Sum(segment))
}

// VerifyTransport reports whether a transport segment with an embedded
// checksum field verifies under the IPv4 pseudo-header.
func VerifyTransport(src, dst [4]byte, proto uint8, segment []byte) bool {
	sum := PseudoHeaderSum(src, dst, proto, len(segment))
	return Combine(sum, Sum(segment)) == 0xffff
}
