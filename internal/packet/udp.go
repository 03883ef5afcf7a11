package packet

import "encoding/binary"

// ProtoUDP is the IPv4 protocol number for UDP.
const ProtoUDP = 17

// UDPHeaderLen is the UDP header length.
const UDPHeaderLen = 8

// UDP is a zero-copy view over a UDP datagram (header + payload).
type UDP []byte

// Valid reports whether the buffer holds a UDP header.
func (u UDP) Valid() bool { return len(u) >= UDPHeaderLen }

// SrcPort returns the source port.
func (u UDP) SrcPort() uint16 { return binary.BigEndian.Uint16(u[0:2]) }

// DstPort returns the destination port.
func (u UDP) DstPort() uint16 { return binary.BigEndian.Uint16(u[2:4]) }

// UDP returns the UDP view of an IPv4 packet's payload. The caller must
// have checked Protocol() == ProtoUDP.
func (p IPv4) UDP() UDP { return UDP(p.Payload()) }
