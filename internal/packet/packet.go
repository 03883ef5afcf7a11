package packet

import "fmt"

// FrameOverhead is the per-packet link-layer cost added when timing a packet
// onto a wire: Ethernet preamble (8) + header (14) + FCS (4) + minimum
// inter-frame gap (12).
const FrameOverhead = 38

// Packet is the unit moved through the simulated network. Buf holds real
// wire-format IPv4+TCP header bytes (which the AC/DC datapath parses and
// rewrites exactly as OVS would); payload bytes are virtual and accounted by
// the IP total-length field.
//
// A Packet is one 128-byte object: Buf is normally a slice of its own header
// array, which holds the longest header the simulation builds (IPv4 20, no
// IP options, + TCP ≤ 60). Only a longer Buf — a hand-built packet with
// materialized payload, or a rewrite that outgrew it — lives on the heap,
// until the pool's next Get points it back. A Packet must not be copied by
// value: the copy's Buf would still alias the original's array (go vet's
// copylocks check reports such copies).
type Packet struct {
	noCopy noCopy
	// Buf is the materialized IPv4 header + TCP header (+options). Payload
	// bytes are not materialized.
	Buf []byte
	// next links the packet into one intrusive FIFO (see FIFO); nil when
	// it is in none.
	next *Packet
	// SentAt is the departure (ns) the FIFO serializer of the link now
	// carrying the packet fixed when it queued it.
	SentAt int64
	// FlowTag is an opaque workload identifier used by tracing and stats.
	FlowTag uint32
	// Hops counts switch traversals, for loop detection in tests; TTL
	// bounds it.
	Hops uint8
	// pooled marks a packet currently sitting on a Pool free list, so a
	// double release panics instead of corrupting a reused packet.
	pooled bool
	hdr    [IPv4HeaderLen + MaxTCPHeaderLen]byte
}

// noCopy makes go vet's copylocks check report a Packet copied by value.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// setLen points Buf at the first n bytes of the packet's own header array,
// or at a fresh heap slice when n exceeds it.
func (p *Packet) setLen(n int) {
	if n <= len(p.hdr) {
		p.Buf = p.hdr[:n]
	} else {
		p.Buf = make([]byte, n)
	}
}

// IP returns the IPv4 view of the packet.
func (p *Packet) IP() IPv4 { return IPv4(p.Buf) }

// TCP returns the TCP view of the packet.
func (p *Packet) TCP() TCP { return p.IP().TCP() }

// PayloadLen returns the virtual TCP payload length in bytes.
func (p *Packet) PayloadLen() int {
	ip := p.IP()
	return int(ip.TotalLen()) - ip.HeaderLen() - p.TCP().HeaderLen()
}

// IPLen returns the IP total length (headers + virtual payload).
func (p *Packet) IPLen() int { return int(p.IP().TotalLen()) }

// WireLen returns the bytes a link serializes for this packet, including
// link-layer overhead.
func (p *Packet) WireLen() int { return p.IPLen() + FrameOverhead }

// Clone deep-copies the packet into a new one with its own header array
// (the datapath clones before mutating packets that are also retained
// elsewhere, e.g. retransmission queues).
func (p *Packet) Clone() *Packet {
	q := &Packet{SentAt: p.SentAt, FlowTag: p.FlowTag, Hops: p.Hops}
	q.setLen(len(p.Buf))
	copy(q.Buf, p.Buf)
	return q
}

// String renders a compact human-readable summary for traces and test
// failures, e.g. "10.0.0.1:40000>10.0.0.2:5001 SA seq=1 ack=1 win=65535 len=0".
func (p *Packet) String() string {
	ip := p.IP()
	if !ip.Valid() {
		return fmt.Sprintf("invalid-ip(%d bytes)", len(p.Buf))
	}
	t := ip.TCP()
	if !t.Valid() {
		return fmt.Sprintf("%v>%v proto=%d", ip.Src(), ip.Dst(), ip.Protocol())
	}
	fl := t.Flags()
	var fb [7]byte // at most one byte per rendered flag; stack-allocated
	fs := fb[:0]
	for _, f := range [...]struct {
		bit  uint8
		name byte
	}{{FlagSYN, 'S'}, {FlagFIN, 'F'}, {FlagRST, 'R'}, {FlagPSH, 'P'}, {FlagACK, 'A'}, {FlagECE, 'E'}, {FlagCWR, 'C'}} {
		if fl&f.bit != 0 {
			fs = append(fs, f.name)
		}
	}
	return fmt.Sprintf("%v:%d>%v:%d %s seq=%d ack=%d win=%d len=%d %s",
		ip.Src(), t.SrcPort(), ip.Dst(), t.DstPort(), fs, t.Seq(), t.Ack(),
		t.Window(), p.PayloadLen(), ip.ECN())
}

// Build constructs a complete packet with the given addresses, TCP fields and
// virtual payload length. The IP ECN codepoint is ecn; checksums are valid.
func Build(src, dst Addr, ecn ECN, f TCPFields, payloadLen int) *Packet {
	return BuildIn(nil, src, dst, ecn, f, payloadLen)
}
