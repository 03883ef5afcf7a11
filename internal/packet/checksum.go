package packet

// Internet checksum (RFC 1071) plus incremental update (RFC 1624). The AC/DC
// datapath rewrites single header fields (RWND, ECN bits) on the fast path,
// so incremental updates matter: they touch 2 bytes instead of re-summing the
// whole header.

import "encoding/binary"

// Checksum computes the Internet checksum over b. An odd trailing byte is
// padded with zero, per RFC 1071.
func Checksum(b []byte) uint16 {
	return finish(sum(b, 0))
}

// ChecksumWith computes the Internet checksum over b with an initial partial
// sum (e.g. a pseudo-header sum).
func ChecksumWith(b []byte, initial uint32) uint16 {
	return finish(sum(b, initial))
}

// sum adds b to acc as big-endian 16-bit words, an odd trailing byte padded
// with zero. It adds four bytes at a time into 64 bits and folds at the end:
// 2^16 ≡ 1 modulo 0xffff, so a 32-bit word adds what its two halves do, and
// the fold keeps every nonzero sum nonzero, so finish gives exactly what
// adding the 16-bit words one by one would.
func sum(b []byte, acc uint32) uint32 {
	s := uint64(acc)
	for ; len(b) >= 4; b = b[4:] {
		s += uint64(binary.BigEndian.Uint32(b))
	}
	if len(b) >= 2 {
		s += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		s += uint64(b[0]) << 8
	}
	return fold32(s)
}

// fold32 folds a 64-bit sum of words to 32 bits with end-around carry. The
// result is congruent to s modulo 0xffff, and zero only when s is.
func fold32(s uint64) uint32 {
	s = s>>32 + s&0xffffffff
	s = s>>32 + s&0xffffffff
	return uint32(s)
}

func finish(acc uint32) uint16 {
	for acc > 0xffff {
		acc = (acc >> 16) + (acc & 0xffff)
	}
	return ^uint16(acc)
}

// UpdateChecksum16 incrementally updates checksum old when a 16-bit field
// changes from from to to (RFC 1624, eqn. 3: HC' = ~(~HC + ~m + m')).
func UpdateChecksum16(old, from, to uint16) uint16 {
	acc := uint32(^old&0xffff) + uint32(^from&0xffff) + uint32(to)
	for acc > 0xffff {
		acc = (acc >> 16) + (acc & 0xffff)
	}
	return ^uint16(acc)
}

// UpdateChecksum8Pair incrementally updates a checksum when a 16-bit-aligned
// byte pair changes. hi reports whether the changed byte is the high octet of
// its 16-bit word.
func UpdateChecksum8Pair(old uint16, from, to byte, hi bool) uint16 {
	if hi {
		return UpdateChecksum16(old, uint16(from)<<8, uint16(to)<<8)
	}
	return UpdateChecksum16(old, uint16(from), uint16(to))
}
