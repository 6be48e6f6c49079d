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
// The sum is accumulated over native little-endian 64-bit words and
// byte-swapped once at the end. RFC 1071 §2(B): the one's-complement sum
// is byte-order independent, so summing the byte-swapped 16-bit words
// gives the byte-swapped sum, and no load needs a byte swap. The words are
// added with add-with-carry in a chain of eight per 64-byte block, the
// carries out of bit 63 counted separately, and everything folded to 16
// bits once: RFC 1071 §2(C) parallel summation and §2(D) deferred carries
// (2^16 ≡ 1 mod 0xffff, so every 16-bit lane of a wide word, and every
// carry out of it, lands on the same residue). This is how Linux's
// csum_partial sums. The result equals the plain 16-bit big-endian loop's
// for every input.
func Sum(b []byte) uint16 {
	var sum, carries, c uint64
	for len(b) >= 64 {
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(b[0:8]), 0)
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(b[8:16]), c)
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(b[16:24]), c)
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(b[24:32]), c)
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(b[32:40]), c)
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(b[40:48]), c)
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(b[48:56]), c)
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(b[56:64]), c)
		carries += c
		b = b[64:]
	}
	for len(b) >= 8 {
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(b[:8]), 0)
		carries += c
		b = b[8:]
	}
	// The tail is under 8 bytes: its 16-bit words fit in a 32-bit sum,
	// which cannot overflow. In little-endian order the odd byte is the
	// low byte of its word, which the final swap moves to the high byte:
	// the RFC's zero pad on the right.
	var tail uint64
	if len(b) >= 4 {
		tail += uint64(binary.LittleEndian.Uint32(b[:4]))
		b = b[4:]
	}
	if len(b) >= 2 {
		tail += uint64(binary.LittleEndian.Uint16(b[:2]))
		b = b[2:]
	}
	if len(b) == 1 {
		tail += uint64(b[0])
	}
	sum, c = bits.Add64(sum, tail, 0)
	carries += c
	// 2^32 and 2^64 are both ≡ 1 mod 0xffff: the two halves of the sum and
	// the deferred carries add up to the same residue, with no overflow.
	return bits.ReverseBytes16(fold(sum>>32 + sum&0xffffffff + carries))
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
// a transport checksum. It adds the pseudo-header's six 16-bit words
// directly: source, destination, zero+protocol and length.
func PseudoHeaderSum(src, dst [4]byte, proto uint8, length int) uint16 {
	sum := uint64(binary.BigEndian.Uint16(src[0:2])) + uint64(binary.BigEndian.Uint16(src[2:4])) +
		uint64(binary.BigEndian.Uint16(dst[0:2])) + uint64(binary.BigEndian.Uint16(dst[2:4])) +
		uint64(proto) + uint64(uint16(length))
	return fold(sum)
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
