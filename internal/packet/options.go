package packet

import "encoding/binary"

// TCP option kinds.
const (
	OptEOL      = 0
	OptNOP      = 1
	OptMSS      = 2 // length 4
	OptWScale   = 3 // length 3
	OptSACKPerm = 4 // length 2
	OptSACK     = 5 // variable
	// OptPACK is AC/DC's Piggy-backed ACK congestion-feedback option
	// (experimental kind per RFC 4727). It carries the receiver module's
	// running totals of received and CE-marked bytes: 8 bytes of data, as in
	// the paper ("adding an additional 8 bytes as a TCP Option").
	OptPACK = 253 // length 10
	// OptFACK marks a dedicated Fake ACK feedback packet (BuildFACKIn): the
	// PACK layout under its own kind, on a packet the peer's sender module
	// consumes after extracting the feedback. It shares kind 254 with
	// OptECNEcho, which only SYNs carry and a FACK never is.
	OptFACK = 254 // length 10
	// OptECNEcho marks a reserved-bit substitute: AC/DC uses a reserved
	// header bit to remember whether the guest's SYN negotiated ECN; we
	// carry it as a 2-byte option on SYN packets only.
	OptECNEcho = 254 // length 2
)

// Option is one parsed TCP option.
type Option struct {
	Kind byte
	Data []byte // option payload, excluding kind and length bytes
}

// ParseOptions appends all options in opts (a TCP header's option bytes) to
// dst and returns it. Malformed trailing bytes are ignored, matching the
// lenient parsing real stacks use.
func ParseOptions(opts []byte, dst []Option) []Option {
	for len(opts) > 0 {
		kind := opts[0]
		switch kind {
		case OptEOL:
			return dst
		case OptNOP:
			opts = opts[1:]
		default:
			if len(opts) < 2 {
				return dst
			}
			l := int(opts[1])
			if l < 2 || l > len(opts) {
				return dst
			}
			dst = append(dst, Option{Kind: kind, Data: opts[2:l]})
			opts = opts[l:]
		}
	}
	return dst
}

// FindOption returns the payload of the first option with the given kind, or
// nil if absent. It allocates nothing.
func FindOption(opts []byte, kind byte) []byte {
	for len(opts) > 0 {
		k := opts[0]
		switch k {
		case OptEOL:
			return nil
		case OptNOP:
			opts = opts[1:]
		default:
			if len(opts) < 2 {
				return nil
			}
			l := int(opts[1])
			if l < 2 || l > len(opts) {
				return nil
			}
			if k == kind {
				return opts[2:l]
			}
			opts = opts[l:]
		}
	}
	return nil
}

// OptionsWellFormed reports whether opts parses cleanly to its end: only
// NOP/EOL appear as single-byte kinds and every other option's length byte
// is at least 2 and within bounds. The parsers in this package never read
// out of range on malformed input — they silently ignore the bad tail — so
// the datapath uses this check to detect damaged option blocks up front and
// fail open rather than act on a partial parse.
func OptionsWellFormed(opts []byte) bool {
	for len(opts) > 0 {
		switch opts[0] {
		case OptEOL:
			return true
		case OptNOP:
			opts = opts[1:]
		default:
			if len(opts) < 2 {
				return false
			}
			l := int(opts[1])
			if l < 2 || l > len(opts) {
				return false
			}
			opts = opts[l:]
		}
	}
	return true
}

// SynOptions holds the handshake options AC/DC and the endpoints care about.
type SynOptions struct {
	MSS        uint16
	WScale     uint8
	WScaleOK   bool
	SACKPerm   bool
	GuestECN   bool // OptECNEcho present: guest stack negotiated ECN
	HasGuestEC bool
}

// ParseSynOptions extracts handshake options from a SYN/SYN-ACK's options.
func ParseSynOptions(opts []byte) SynOptions {
	var so SynOptions
	for len(opts) > 0 {
		k := opts[0]
		if k == OptEOL {
			break
		}
		if k == OptNOP {
			opts = opts[1:]
			continue
		}
		if len(opts) < 2 {
			break
		}
		l := int(opts[1])
		if l < 2 || l > len(opts) {
			break
		}
		data := opts[2:l]
		switch k {
		case OptMSS:
			if len(data) >= 2 {
				so.MSS = binary.BigEndian.Uint16(data)
			}
		case OptWScale:
			if len(data) >= 1 {
				so.WScale = data[0]
				so.WScaleOK = true
			}
		case OptSACKPerm:
			so.SACKPerm = true
		case OptECNEcho:
			so.GuestECN = true
			so.HasGuestEC = true
		}
		opts = opts[l:]
	}
	return so
}

// AppendSynOptions appends the handshake options (MSS, window scale, SACK
// permitted) to dst in the layout Linux uses and returns the extended slice:
// MSS(4) + NOP + WScale(3), then NOP + NOP + SACKPerm(2), 12 bytes at most.
func AppendSynOptions(dst []byte, mss uint16, wscale uint8, sackPerm bool) []byte {
	dst = append(dst, OptMSS, 4, byte(mss>>8), byte(mss))
	dst = append(dst, OptNOP, OptWScale, 3, wscale)
	if sackPerm {
		dst = append(dst, OptNOP, OptNOP, OptSACKPerm, 2)
	}
	return dst
}

// BuildSynOptions is AppendSynOptions into a new slice.
func BuildSynOptions(mss uint16, wscale uint8, sackPerm bool) []byte {
	return AppendSynOptions(make([]byte, 0, 12), mss, wscale, sackPerm)
}

// PACKInfo is the congestion feedback carried in a PACK/FACK: running totals
// of bytes received and bytes received with CE marks for one flow direction.
type PACKInfo struct {
	TotalBytes  uint32
	MarkedBytes uint32
}

// PACKOptionLen is the wire length of a PACK option (kind + len + 8 data).
const PACKOptionLen = 10

// EncodePACK writes a PACK option into dst and returns the bytes written.
func EncodePACK(dst []byte, info PACKInfo) int {
	_ = dst[PACKOptionLen-1]
	dst[0] = OptPACK
	dst[1] = PACKOptionLen
	binary.BigEndian.PutUint32(dst[2:6], info.TotalBytes)
	binary.BigEndian.PutUint32(dst[6:10], info.MarkedBytes)
	return PACKOptionLen
}

// BuildFACKIn builds a dedicated feedback packet from pl: a pure ACK with f's
// ports, sequence numbers and window, carrying info under OptFACK.
func BuildFACKIn(pl *Pool, src, dst Addr, ecn ECN, f TCPFields, info PACKInfo) *Packet {
	var opt [PACKOptionLen]byte
	EncodePACK(opt[:], info)
	opt[0] = OptFACK
	f.Flags, f.Options = FlagACK, opt[:]
	return BuildIn(pl, src, dst, ecn, f, 0)
}

// ParsePACK decodes a PACK or FACK option payload (as returned by FindOption).
func ParsePACK(data []byte) (PACKInfo, bool) {
	if len(data) < 8 {
		return PACKInfo{}, false
	}
	return PACKInfo{
		TotalBytes:  binary.BigEndian.Uint32(data[0:4]),
		MarkedBytes: binary.BigEndian.Uint32(data[4:8]),
	}, true
}

// InsertTCPOptionInPlace appends opt to p's TCP options, padded to a 4-byte
// boundary, fixing the IP total length, the data offset and both checksums.
// It mutates p.Buf directly, extending the slice within its existing capacity
// when possible (pooled buffers carry spare capacity for exactly this) and
// reallocating otherwise. It reports whether the insert happened; on false p
// is untouched — invalid headers, a total length below them, an option block
// an appended option would be unreachable behind, or a TCP header that would
// exceed MaxTCPHeaderLen — and the caller should fall back to a dedicated
// feedback packet.
func InsertTCPOptionInPlace(p *Packet, opt []byte) bool {
	pkt := p.Buf
	ip := IPv4(pkt)
	if !ip.Valid() || ip.Protocol() != ProtoTCP {
		return false
	}
	t := ip.TCP()
	if !t.Valid() {
		return false
	}
	if !optionsAppendable(t.Options()) {
		return false
	}
	// A total length smaller than the headers (or one the grown packet would
	// overflow) cannot be rewritten consistently.
	if int(ip.TotalLen()) < ip.HeaderLen()+t.HeaderLen() {
		return false
	}
	padded := (len(opt) + 3) &^ 3
	newTCPHdr := t.HeaderLen() + padded
	if newTCPHdr > MaxTCPHeaderLen || int(ip.TotalLen())+padded > 65535 {
		return false
	}
	ihl := ip.HeaderLen()
	hdrEnd := ihl + t.HeaderLen()
	var out []byte
	if len(pkt)+padded <= cap(pkt) {
		out = pkt[:len(pkt)+padded]
		// Slide any trailing (materialized) payload bytes out of the way.
		copy(out[hdrEnd+padded:], pkt[hdrEnd:])
	} else {
		out = make([]byte, len(pkt)+padded)
		copy(out, pkt[:hdrEnd])
		copy(out[hdrEnd+padded:], pkt[hdrEnd:])
	}
	n := hdrEnd + copy(out[hdrEnd:], opt)
	for i := 0; i < padded-len(opt); i++ {
		out[n] = OptNOP
		n++
	}
	oip := IPv4(out)
	oip.SetTotalLen(ip.TotalLen() + uint16(padded))
	ot := oip.TCP()
	ot.setHeaderLen(newTCPHdr)
	ot.ComputeChecksum(oip.PseudoHeaderSum(tcpLenOf(oip)))
	p.Buf = out
	return true
}

// StripTCPOptionInPlace overwrites the first option of the given kind with
// NOPs directly in p.Buf and fixes the TCP checksum — the zero-allocation
// sibling of RemoveTCPOption for post-wire use (the header does not shrink,
// so wire timing is unaffected; this runs at ingress, after the packet has
// left the fabric). It reports whether an option was stripped.
func StripTCPOptionInPlace(p *Packet, kind byte) bool {
	ip := IPv4(p.Buf)
	if !ip.Valid() || ip.Protocol() != ProtoTCP {
		return false
	}
	t := ip.TCP()
	if !t.Valid() {
		return false
	}
	if int(ip.TotalLen()) < ip.HeaderLen()+t.HeaderLen() {
		return false
	}
	opts := t.Options()
	start, length := locateOption(opts, kind)
	if start < 0 {
		return false
	}
	for i := start; i < start+length; i++ {
		opts[i] = OptNOP
	}
	t.ComputeChecksum(ip.PseudoHeaderSum(tcpLenOf(ip)))
	return true
}

// RemoveTCPOption returns a new packet buffer with the first option of the
// given kind removed from the TCP header (header shrinks; lengths and
// checksums fixed). If the option is absent the original buffer is returned
// unchanged.
func RemoveTCPOption(pkt []byte, kind byte) []byte {
	ip := IPv4(pkt)
	if !ip.Valid() || ip.Protocol() != ProtoTCP {
		return pkt
	}
	t := ip.TCP()
	if !t.Valid() {
		return pkt
	}
	// A total length smaller than the headers is a lying header; shrinking
	// it would underflow, so the packet passes through untouched.
	if int(ip.TotalLen()) < ip.HeaderLen()+t.HeaderLen() {
		return pkt
	}
	opts := t.Options()
	start, length := locateOption(opts, kind)
	if start < 0 {
		return pkt
	}
	// Extend the cut over adjacent NOP padding until the removed span is a
	// 4-byte multiple, so the shrunken header stays aligned.
	end := start + length
	for (end-start)%4 != 0 && end < len(opts) && opts[end] == OptNOP {
		end++
	}
	for (end-start)%4 != 0 && start > 0 && opts[start-1] == OptNOP {
		start--
	}
	removed := end - start
	if removed%4 != 0 {
		// Not alignable: overwrite with NOPs in place (no resize).
		out := make([]byte, len(pkt))
		copy(out, pkt)
		oip := IPv4(out)
		ot := oip.TCP()
		oo := ot.Options()
		oStart, oLen := locateOption(oo, kind)
		for i := oStart; i < oStart+oLen; i++ {
			oo[i] = OptNOP
		}
		ot.ComputeChecksum(oip.PseudoHeaderSum(tcpLenOf(oip)))
		return out
	}
	ihl := ip.HeaderLen()
	optAbs := ihl + TCPHeaderLen
	out := make([]byte, 0, len(pkt)-removed)
	out = append(out, pkt[:optAbs+start]...)
	out = append(out, pkt[optAbs+end:]...)
	oip := IPv4(out)
	oip.SetTotalLen(ip.TotalLen() - uint16(removed))
	ot := oip.TCP()
	ot.setHeaderLen(t.HeaderLen() - removed)
	ot.ComputeChecksum(oip.PseudoHeaderSum(tcpLenOf(oip)))
	return out
}

// optionsAppendable reports whether an option appended after opts would be
// reachable by the parsers: the block must parse cleanly and must not be
// terminated by an EOL, behind which an appended option is invisible. When
// it is not, InsertTCPOptionInPlace refuses and the datapath falls back to a
// dedicated FACK packet instead of emitting dead feedback.
func optionsAppendable(opts []byte) bool {
	for len(opts) > 0 {
		switch opts[0] {
		case OptEOL:
			return false
		case OptNOP:
			opts = opts[1:]
		default:
			if len(opts) < 2 {
				return false
			}
			l := int(opts[1])
			if l < 2 || l > len(opts) {
				return false
			}
			opts = opts[l:]
		}
	}
	return true
}

// locateOption returns the byte offset and wire length of the first option
// with the given kind inside opts, or (-1, 0).
func locateOption(opts []byte, kind byte) (int, int) {
	i := 0
	for i < len(opts) {
		k := opts[i]
		switch k {
		case OptEOL:
			return -1, 0
		case OptNOP:
			if k == kind {
				return i, 1
			}
			i++
		default:
			if i+1 >= len(opts) {
				return -1, 0
			}
			l := int(opts[i+1])
			if l < 2 || i+l > len(opts) {
				return -1, 0
			}
			if k == kind {
				return i, l
			}
			i += l
		}
	}
	return -1, 0
}

// tcpLenOf returns the TCP length for the pseudo-header: the IP total length
// minus the IP header. Because payloads are virtual, this may exceed the
// bytes materialized in the buffer; the checksum covers only materialized
// header bytes (NIC-offload model), but the pseudo-header still carries the
// true segment length so RWND rewrites can't silently change it.
func tcpLenOf(ip IPv4) uint16 {
	return ip.TotalLen() - uint16(ip.HeaderLen())
}
