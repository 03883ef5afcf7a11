package packet

import (
	"encoding/binary"
)

// TCP header flags.
const (
	FlagFIN uint8 = 1 << 0
	FlagSYN uint8 = 1 << 1
	FlagRST uint8 = 1 << 2
	FlagPSH uint8 = 1 << 3
	FlagACK uint8 = 1 << 4
	FlagECE uint8 = 1 << 6
	FlagCWR uint8 = 1 << 7
)

// TCPHeaderLen is the length of the fixed TCP header (no options).
const TCPHeaderLen = 20

// MaxTCPHeaderLen is the largest encodable TCP header (data offset 15).
const MaxTCPHeaderLen = 60

// TCP is a zero-copy view over a TCP segment (header + options + payload).
type TCP []byte

// Valid reports whether the buffer holds at least the header it claims.
func (t TCP) Valid() bool {
	return len(t) >= TCPHeaderLen && t.HeaderLen() >= TCPHeaderLen && len(t) >= t.HeaderLen()
}

// SrcPort returns the source port.
func (t TCP) SrcPort() uint16 { return binary.BigEndian.Uint16(t[0:2]) }

// DstPort returns the destination port.
func (t TCP) DstPort() uint16 { return binary.BigEndian.Uint16(t[2:4]) }

// Seq returns the sequence number.
func (t TCP) Seq() uint32 { return binary.BigEndian.Uint32(t[4:8]) }

// Ack returns the acknowledgement number.
func (t TCP) Ack() uint32 { return binary.BigEndian.Uint32(t[8:12]) }

// HeaderLen returns the header length in bytes (DataOffset * 4).
func (t TCP) HeaderLen() int { return int(t[12]>>4) * 4 }

// setHeaderLen sets the data-offset field; n must be a multiple of 4.
func (t TCP) setHeaderLen(n int) { t[12] = uint8(n/4) << 4 }

// Flags returns the flag byte (CWR..FIN).
func (t TCP) Flags() uint8 { return t[13] }

// HasFlags reports whether all flags in mask are set.
func (t TCP) HasFlags(mask uint8) bool { return t[13]&mask == mask }

// Window returns the (unscaled) receive window field.
func (t TCP) Window() uint16 { return binary.BigEndian.Uint16(t[14:16]) }

// SetWindow overwrites the receive window field, incrementally fixing the
// checksum. This is AC/DC's enforcement primitive.
func (t TCP) SetWindow(w uint16) {
	old := t.Window()
	binary.BigEndian.PutUint16(t[14:16], w)
	t.setChecksum(UpdateChecksum16(t.Checksum(), old, w))
}

// Checksum returns the TCP checksum field.
func (t TCP) Checksum() uint16 { return binary.BigEndian.Uint16(t[16:18]) }

func (t TCP) setChecksum(v uint16) { binary.BigEndian.PutUint16(t[16:18], v) }

// Options returns the raw options bytes.
func (t TCP) Options() []byte { return t[TCPHeaderLen:t.HeaderLen()] }

// ComputeChecksum recomputes the TCP checksum over the pseudo-header and the
// TCP header bytes present in the buffer (payload is virtual; see package
// comment) and stores it.
func (t TCP) ComputeChecksum(pseudoSum uint32) {
	t.setChecksum(0)
	t.setChecksum(ChecksumWith(t[:t.HeaderLen()], pseudoSum))
}

// TCPFields collects the values needed to build a TCP header.
type TCPFields struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	Options          []byte // already-encoded options, padded to 4n by Encode
}

// EncodeTCP writes a TCP header (+options) into b and returns the view. The
// checksum is computed with the given pseudo-header sum: the fixed header's
// words are summed from f, and only the option bytes are read back from b.
// b must be large enough for TCPHeaderLen + padded options.
func EncodeTCP(b []byte, f TCPFields, pseudoSum uint32) TCP {
	optLen := (len(f.Options) + 3) &^ 3
	hdrLen := TCPHeaderLen + optLen
	_ = b[hdrLen-1]
	binary.BigEndian.PutUint16(b[0:2], f.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], f.DstPort)
	binary.BigEndian.PutUint32(b[4:8], f.Seq)
	binary.BigEndian.PutUint32(b[8:12], f.Ack)
	t := TCP(b)
	t.setHeaderLen(hdrLen)
	b[13] = f.Flags
	binary.BigEndian.PutUint16(b[14:16], f.Window)
	binary.BigEndian.PutUint32(b[16:20], 0) // checksum, urgent pointer
	copy(b[TCPHeaderLen:], f.Options)
	for i := TCPHeaderLen + len(f.Options); i < hdrLen; i++ {
		b[i] = OptNOP
	}
	// Every term is below 2^32, so the sum of nine of them cannot overflow.
	acc := uint64(pseudoSum) + uint64(f.SrcPort) + uint64(f.DstPort) +
		uint64(f.Seq) + uint64(f.Ack) + uint64(b[12])<<8 + uint64(f.Flags) + uint64(f.Window) +
		uint64(sum(b[TCPHeaderLen:hdrLen], 0))
	t.setChecksum(finish(fold32(acc)))
	return t
}
