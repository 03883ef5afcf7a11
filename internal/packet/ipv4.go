// Package packet implements the wire formats the AC/DC datapath operates on:
// IPv4 and TCP headers with typed, zero-copy accessors over []byte (in the
// style of gopacket's layer views), TCP options including the AC/DC PACK
// congestion-feedback option, and Internet checksums with incremental update.
//
// Simulation note: packets carry real header bytes but payload bytes are not
// materialized — a Packet records its payload length only. Consequently the
// TCP checksum is defined over pseudo-header + TCP header, mirroring a NIC
// with checksum offload (the paper's prototype also offloads TCP checksums).
package packet

import (
	"encoding/binary"
	"fmt"
)

// Addr is an IPv4 address in host byte order (e.g. 10.0.0.1 = 0x0a000001).
type Addr uint32

// MakeAddr builds an Addr from dotted-quad components.
func MakeAddr(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// ECN is the 2-bit ECN codepoint in the IPv4 TOS field (RFC 3168).
type ECN uint8

const (
	// NotECT marks a packet from a non-ECN-capable transport.
	NotECT ECN = 0b00
	// ECT1 is ECN-capable transport, codepoint 1.
	ECT1 ECN = 0b01
	// ECT0 is ECN-capable transport, codepoint 0 (the common one).
	ECT0 ECN = 0b10
	// CE is Congestion Experienced, set by switches above the mark threshold.
	CE ECN = 0b11
)

func (e ECN) String() string {
	switch e {
	case NotECT:
		return "Not-ECT"
	case ECT0:
		return "ECT(0)"
	case ECT1:
		return "ECT(1)"
	default:
		return "CE"
	}
}

// IPv4HeaderLen is the length of the fixed IPv4 header (we never emit IP
// options, as is universal in datacenter traffic).
const IPv4HeaderLen = 20

// ProtoTCP is the IPv4 protocol number for TCP.
const ProtoTCP = 6

// IPv4 is a zero-copy view over an IPv4 packet (header + payload).
type IPv4 []byte

// Valid reports whether the buffer is long enough to hold the header it
// claims and is IP version 4.
func (p IPv4) Valid() bool {
	return len(p) >= IPv4HeaderLen && p[0]>>4 == 4 && p.HeaderLen() >= IPv4HeaderLen && len(p) >= p.HeaderLen()
}

// HeaderLen returns the header length in bytes (IHL * 4).
func (p IPv4) HeaderLen() int { return int(p[0]&0x0f) * 4 }

// TotalLen returns the IP total length field. In this simulator it counts
// header bytes plus the *virtual* payload length (payload bytes are not
// materialized in the buffer).
func (p IPv4) TotalLen() uint16 { return binary.BigEndian.Uint16(p[2:4]) }

// SetTotalLen sets the total length and incrementally fixes the checksum.
func (p IPv4) SetTotalLen(v uint16) {
	old := p.TotalLen()
	binary.BigEndian.PutUint16(p[2:4], v)
	p.setChecksum(UpdateChecksum16(p.Checksum(), old, v))
}

// ECN returns the ECN codepoint.
func (p IPv4) ECN() ECN { return ECN(p[1] & 0x3) }

// SetECN sets the ECN codepoint and incrementally fixes the checksum.
func (p IPv4) SetECN(e ECN) {
	old := p[1]
	p[1] = (p[1] &^ 0x3) | uint8(e)
	p.setChecksum(UpdateChecksum8Pair(p.Checksum(), old, p[1], false))
}

// DecTTL decrements TTL, fixing the checksum; returns false if TTL hit zero.
func (p IPv4) DecTTL() bool {
	if p[8] == 0 {
		return false
	}
	old := p[8]
	p[8]--
	p.setChecksum(UpdateChecksum8Pair(p.Checksum(), old, p[8], true))
	return p[8] > 0
}

// Protocol returns the transport protocol number.
func (p IPv4) Protocol() uint8 { return p[9] }

// Src returns the source address.
func (p IPv4) Src() Addr { return Addr(binary.BigEndian.Uint32(p[12:16])) }

// Dst returns the destination address.
func (p IPv4) Dst() Addr { return Addr(binary.BigEndian.Uint32(p[16:20])) }

// Checksum returns the header checksum field.
func (p IPv4) Checksum() uint16 { return binary.BigEndian.Uint16(p[10:12]) }

func (p IPv4) setChecksum(v uint16) { binary.BigEndian.PutUint16(p[10:12], v) }

// ComputeChecksum recomputes the header checksum from scratch and stores it.
func (p IPv4) ComputeChecksum() {
	p.setChecksum(0)
	p.setChecksum(Checksum(p[:p.HeaderLen()]))
}

// VerifyChecksum reports whether the stored header checksum is correct.
func (p IPv4) VerifyChecksum() bool {
	return Checksum(p[:p.HeaderLen()]) == 0
}

// Payload returns the bytes after the IP header (the TCP segment).
func (p IPv4) Payload() []byte { return p[p.HeaderLen():] }

// TCP returns the TCP view of the payload. The caller must have checked
// Protocol() == ProtoTCP.
func (p IPv4) TCP() TCP { return TCP(p.Payload()) }

// PseudoHeaderSum returns the partial checksum of the TCP pseudo-header
// (src, dst, zero+proto, TCP length) for use in TCP checksum computation: the
// sum of its six 16-bit words, taken from the addresses as numbers.
func (p IPv4) PseudoHeaderSum(tcpLen uint16) uint32 {
	return wordSum(p.Src()) + wordSum(p.Dst()) + uint32(p.Protocol()) + uint32(tcpLen)
}

// wordSum is the sum of a's two 16-bit words.
func wordSum(a Addr) uint32 { return uint32(a>>16) + uint32(a&0xffff) }

// InitIPv4 writes a fresh IPv4 header into b (which must be at least
// IPv4HeaderLen bytes), with the given addresses, total length and ECN
// codepoint, protocol TCP, TTL 64, and a valid checksum, summed from those
// fields rather than read back from b.
func InitIPv4(b []byte, src, dst Addr, totalLen uint16, ecn ECN) IPv4 {
	_ = b[IPv4HeaderLen-1]
	b[0] = 0x45 // version 4, IHL 5
	b[1] = uint8(ecn)
	binary.BigEndian.PutUint16(b[2:4], totalLen)
	binary.BigEndian.PutUint16(b[4:6], 0) // identification
	binary.BigEndian.PutUint16(b[6:8], 0x4000)
	b[8] = 64 // TTL
	b[9] = ProtoTCP
	binary.BigEndian.PutUint32(b[12:16], uint32(src))
	binary.BigEndian.PutUint32(b[16:20], uint32(dst))
	// The header's ten 16-bit words: version, IHL and ECN; totalLen; the
	// identification (0); the flags; TTL and protocol; the checksum itself
	// (0); and two for each address.
	acc := 0x4500 + uint32(ecn) + uint32(totalLen) + 0x4000 + 64<<8 + ProtoTCP + wordSum(src) + wordSum(dst)
	binary.BigEndian.PutUint16(b[10:12], finish(acc))
	return IPv4(b)
}
