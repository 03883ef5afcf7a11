package packet

import "encoding/binary"

// Pool is a free-list-backed allocator for Packets and their header buffers.
// The simulator is single-threaded per sim.Simulator, so the pool needs no
// locking (and deliberately avoids sync.Pool's per-P overhead); one Pool is
// shared by everything attached to one simulator and must not be touched from
// other goroutines.
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

// poolBufCap is the buffer capacity given to every pooled packet. Payloads
// are virtual, so a buffer only ever holds IPv4 (20) + TCP (≤60) header
// bytes; rounding up to 128 leaves room for in-place option insertion to
// extend the slice without reallocating.
const poolBufCap = 128

// maxFreePackets bounds the free list so a burst (e.g. an incast wave) does
// not pin its high-water mark of buffers forever.
const maxFreePackets = 1 << 14

// NewPool creates an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a packet whose Buf has length n and zeroed bookkeeping fields.
// The buffer bytes are NOT zeroed — callers are expected to overwrite the
// full header range (every builder in this package does). Safe on a nil
// pool: falls back to a plain allocation.
func (pl *Pool) Get(n int) *Packet {
	if pl == nil {
		return &Packet{Buf: make([]byte, n, poolBufCap)}
	}
	pl.Gets++
	if f := len(pl.free); f > 0 && n <= poolBufCap {
		p := pl.free[f-1]
		pl.free[f-1] = nil
		pl.free = pl.free[:f-1]
		p.Buf = p.Buf[:n]
		p.FlowTag, p.EnqueuedAt, p.SentAt, p.Hops = 0, 0, 0, 0
		p.pooled = false
		return p
	}
	pl.News++
	c := poolBufCap
	if n > c {
		c = n
	}
	return &Packet{Buf: make([]byte, n, c)}
}

// Put returns p to the pool. Safe with a nil pool or nil packet (no-op).
// Releasing the same packet twice panics — a double release means two owners
// believe they hold the packet and the second would corrupt whatever the
// reuse turned it into.
func (pl *Pool) Put(p *Packet) {
	if pl == nil || p == nil {
		return
	}
	if p.pooled {
		panic("packet: double release to pool")
	}
	pl.Puts++
	if cap(p.Buf) < poolBufCap || len(pl.free) >= maxFreePackets {
		// Oversized or foreign buffer, or the pool is full: let GC take it.
		return
	}
	p.pooled = true
	pl.free = append(pl.free, p)
}

// Clone deep-copies p using a pooled buffer. Safe on a nil pool (falls back
// to Packet.Clone).
func (pl *Pool) Clone(p *Packet) *Packet {
	if pl == nil {
		return p.Clone()
	}
	q := pl.Get(len(p.Buf))
	copy(q.Buf, p.Buf)
	q.FlowTag, q.EnqueuedAt, q.SentAt, q.Hops = p.FlowTag, p.EnqueuedAt, p.SentAt, p.Hops
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
