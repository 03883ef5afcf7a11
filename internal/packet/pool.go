package packet

import "encoding/binary"

// Pool is a free-list-backed allocator for Packets, each of which carries
// its header bytes inline. The simulator is single-threaded per
// sim.Simulator, so the pool needs no locking (and deliberately avoids
// sync.Pool's per-P overhead); one Pool is shared by everything attached to
// one simulator and must not be touched from other goroutines.
//
// Ownership rules (see ARCHITECTURE.md "Performance model" for the full
// walk-through): a packet obtained from Get/Clone/BuildIn/BuildUDPIn is owned
// by whoever holds the pointer; handing it to Send/Output/HandlePacket
// transfers ownership; whoever terminates a packet (delivers it to a guest
// endpoint, or drops it) calls Put exactly once. Code that retains packets
// past a handoff (retransmission-style queues, the UDP tunnel's token queue)
// owns them until it reinjects or drops them. A nil *Pool is valid
// everywhere and degrades to plain garbage-collected allocation, so unit
// tests and pool-less datapaths keep their exact old behaviour.
type Pool struct {
	free []*Packet
	// Gets/Puts/News count pool traffic; News is the free-list miss count
	// (fresh heap allocations), so Gets-News is the number of reuses.
	Gets, Puts, News int64
}

// maxFreePackets bounds the free list so a burst (e.g. an incast wave) does
// not pin its high-water mark of packets forever.
const maxFreePackets = 1 << 14

// NewPool creates an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a packet whose Buf is n bytes of its own header array (a heap
// slice past it) and whose bookkeeping fields are zero. The buffer bytes are
// NOT zeroed — callers are expected to overwrite the full header range (every
// builder in this package does). Safe on a nil pool: falls back to a plain
// allocation.
func (pl *Pool) Get(n int) *Packet {
	if pl == nil {
		p := &Packet{}
		p.setLen(n)
		return p
	}
	pl.Gets++
	var p *Packet
	if f := len(pl.free) - 1; f >= 0 {
		p = pl.free[f]
		pl.free[f] = nil
		pl.free = pl.free[:f]
		p.SentAt, p.FlowTag, p.Hops, p.pooled = 0, 0, 0, false
	} else {
		pl.News++
		p = &Packet{}
	}
	p.setLen(n)
	return p
}

// Put returns p to the pool. Safe with a nil pool or nil packet (no-op).
// Releasing the same packet twice panics — a double release means two owners
// believe they hold the packet and the second would corrupt whatever the
// reuse turned it into — and so does releasing one still linked into a FIFO,
// which its FIFO still owns.
func (pl *Pool) Put(p *Packet) {
	if pl == nil || p == nil {
		return
	}
	if p.pooled {
		panic("packet: double release to pool")
	}
	if p.next != nil {
		panic("packet: release of a packet still linked into a FIFO")
	}
	pl.Puts++
	if len(pl.free) >= maxFreePackets {
		return // the pool is full: let GC take it
	}
	p.pooled = true
	pl.free = append(pl.free, p)
}

// Clone deep-copies p into a pooled packet with its own header array. Safe
// on a nil pool (falls back to Packet.Clone).
func (pl *Pool) Clone(p *Packet) *Packet {
	if pl == nil {
		return p.Clone()
	}
	q := pl.Get(len(p.Buf))
	copy(q.Buf, p.Buf)
	q.SentAt, q.FlowTag, q.Hops = p.SentAt, p.FlowTag, p.Hops
	return q
}

// BuildIn is Build drawing its packet from pl (nil pl ⇒ identical to Build).
func BuildIn(pl *Pool, src, dst Addr, ecn ECN, f TCPFields, payloadLen int) *Packet {
	optLen := (len(f.Options) + 3) &^ 3
	tcpHdr := TCPHeaderLen + optLen
	total := IPv4HeaderLen + tcpHdr + payloadLen
	p := pl.Get(IPv4HeaderLen + tcpHdr)
	ip := InitIPv4(p.Buf, src, dst, uint16(total), ecn)
	EncodeTCP(p.Buf[IPv4HeaderLen:], f, ip.PseudoHeaderSum(uint16(tcpHdr+payloadLen)))
	return p
}

// BuildUDPIn constructs a UDP packet drawn from pl (nil pl allocates it)
// with a virtual payload of payloadLen bytes: as with TCP, payload bytes are
// not materialized, and the checksum covers the materialized header,
// mirroring NIC offload.
func BuildUDPIn(pl *Pool, src, dst Addr, ecn ECN, sport, dport uint16, payloadLen int) *Packet {
	total := IPv4HeaderLen + UDPHeaderLen + payloadLen
	p := pl.Get(IPv4HeaderLen + UDPHeaderLen)
	buf := p.Buf
	InitIPv4(buf, src, dst, uint16(total), ecn)
	buf[9] = ProtoUDP
	IPv4(buf).ComputeChecksum()
	binary.BigEndian.PutUint16(buf[IPv4HeaderLen+0:], sport)
	binary.BigEndian.PutUint16(buf[IPv4HeaderLen+2:], dport)
	binary.BigEndian.PutUint16(buf[IPv4HeaderLen+4:], uint16(UDPHeaderLen+payloadLen))
	binary.BigEndian.PutUint16(buf[IPv4HeaderLen+6:], 0)
	return p
}
