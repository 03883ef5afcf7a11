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
// It grows p.Buf within its capacity when it can (a pooled packet's header
// array has room for exactly this) and reallocates otherwise. It reports
// whether the insert happened; on false p is untouched — invalid headers, a
// total length below them, an option block an appended option would be
// unreachable behind, or a TCP header that would exceed MaxTCPHeaderLen —
// and the caller should fall back to a dedicated feedback packet.
func InsertTCPOptionInPlace(p *Packet, opt []byte) bool {
	t := editable(p)
	if t == nil || !optionsAppendable(t.Options()) {
		return false
	}
	return splice(p, t, len(t.Options()), 0, opt)
}

// StripTCPOptionInPlace overwrites the first option of the given kind with
// NOPs and fixes the TCP checksum. The header does not shrink, so wire timing
// is unaffected; the datapath runs it at ingress, after the packet has left
// the fabric. It reports whether an option was stripped.
func StripTCPOptionInPlace(p *Packet, kind byte) bool {
	t := editable(p)
	if t == nil {
		return false
	}
	start, length := locateOption(t.Options(), kind)
	if start < 0 {
		return false
	}
	nopOut(p, start, length)
	return true
}

// RemoveTCPOptionInPlace removes the first option of the given kind from p's
// TCP header, shrinking it. The cut extends over adjacent NOP padding until it
// is a 4-byte multiple; an option that cannot be cut that way is overwritten
// with NOPs instead, as StripTCPOptionInPlace does. It reports whether the
// option was found and removed.
func RemoveTCPOptionInPlace(p *Packet, kind byte) bool {
	t := editable(p)
	if t == nil {
		return false
	}
	opts := t.Options()
	at, length := locateOption(opts, kind)
	if at < 0 {
		return false
	}
	start, end := at, at+length
	for (end-start)%4 != 0 && end < len(opts) && opts[end] == OptNOP {
		end++
	}
	for (end-start)%4 != 0 && start > 0 && opts[start-1] == OptNOP {
		start--
	}
	if (end-start)%4 != 0 {
		nopOut(p, at, length)
		return true
	}
	return splice(p, t, start, end-start, nil)
}

// RemoveAllTCPOptionsInPlace removes p's whole TCP option block, as
// option-intolerant middleboxes do, shrinking the header to 20 bytes. It
// reports whether there was anything to remove.
func RemoveAllTCPOptionsInPlace(p *Packet) bool {
	t := editable(p)
	if t == nil || t.HeaderLen() == TCPHeaderLen {
		return false
	}
	return splice(p, t, 0, t.HeaderLen()-TCPHeaderLen, nil)
}

// editable returns p's TCP view when p is a TCP packet whose headers are
// whole and whose IP total length covers them, and nil otherwise. A shorter
// total length is a lying header: resizing it would wrap, so no option edit
// touches such a packet.
func editable(p *Packet) TCP {
	ip := IPv4(p.Buf)
	if !ip.Valid() || ip.Protocol() != ProtoTCP {
		return nil
	}
	t := ip.TCP()
	if !t.Valid() || int(ip.TotalLen()) < ip.HeaderLen()+t.HeaderLen() {
		return nil
	}
	return t
}

// splice is the one resizing option edit: it replaces the n option bytes at
// off with repl followed by the NOPs that keep the block a 4-byte multiple,
// and shifts what follows — the rest of the block and any materialized
// payload. It fixes the IP total length, the data offset (keeping the
// reserved bits beside it) and both checksums. A shrinking or fitting edit
// stays in p.Buf's array, so a pooled packet keeps its inline header; only a
// Buf with no room left is reallocated. It refuses, leaving p untouched, a
// TCP header that would exceed MaxTCPHeaderLen or a total length past 65535.
func splice(p *Packet, t TCP, off, n int, repl []byte) bool {
	ip := IPv4(p.Buf)
	ihl := ip.HeaderLen()
	old := t.HeaderLen()
	pad := -(old - TCPHeaderLen - n + len(repl)) & 3
	delta := len(repl) + pad - n
	hdr := old + delta
	total := int(ip.TotalLen()) + delta
	if hdr > MaxTCPHeaderLen || total > 65535 {
		return false
	}
	at := ihl + TCPHeaderLen + off
	out := p.Buf
	if size := len(out) + delta; size <= cap(out) {
		out = out[:size]
	} else {
		out = make([]byte, size)
		copy(out, p.Buf[:at])
	}
	copy(out[at+len(repl)+pad:], p.Buf[at+n:])
	copy(out[at:], repl)
	for i := at + len(repl); i < at+len(repl)+pad; i++ {
		out[i] = OptNOP
	}
	oip := IPv4(out)
	oip.SetTotalLen(uint16(total))
	out[ihl+12] = uint8(hdr/4)<<4 | out[ihl+12]&0x0f
	TCP(out[ihl:]).ComputeChecksum(oip.PseudoHeaderSum(uint16(total - ihl)))
	p.Buf = out
	return true
}

// nopOut overwrites length option bytes at off with NOPs and recomputes the
// TCP checksum.
func nopOut(p *Packet, off, length int) {
	ip := IPv4(p.Buf)
	t := ip.TCP()
	opts := t.Options()
	for i := off; i < off+length; i++ {
		opts[i] = OptNOP
	}
	t.ComputeChecksum(ip.PseudoHeaderSum(tcpLenOf(ip)))
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
