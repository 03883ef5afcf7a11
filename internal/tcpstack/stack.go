package tcpstack

import (
	"fmt"

	"acdc/internal/netsim"
	"acdc/internal/packet"
	"acdc/internal/sim"
)

// connKey identifies a connection from the stack's point of view: local port,
// remote address and remote port packed into one word, the key of the
// demux index and of the TIME_WAIT table.
type connKey uint64

func makeKey(localPort uint16, remoteAddr packet.Addr, remotePort uint16) connKey {
	return connKey(localPort)<<48 | connKey(remoteAddr)<<16 | connKey(remotePort)
}

func (k connKey) localPort() uint16       { return uint16(k >> 48) }
func (k connKey) remoteAddr() packet.Addr { return packet.Addr(k >> 16) }
func (k connKey) remotePort() uint16      { return uint16(k) }

// Stack is one host's transport layer. It registers as the host's Demux and
// owns every Conn terminating at that host.
type Stack struct {
	Sim  *sim.Simulator
	Host *netsim.Host
	Cfg  Config

	conns     sim.Index[connKey, *Conn] // the open connections: demux and TSQ feedback
	listeners map[uint16]func(*Conn)

	// parked holds torn-down Conns for newConn to take back; see park.
	parked []*Conn
	// timeWaits holds the connections in TIME_WAIT, which keep no Conn (see
	// timeWait); the first one makes it.
	timeWaits *twTable

	// Scratch shared by every Conn of the stack. Each is filled and consumed
	// inside one transmit call (BuildIn copies options into the packet buffer)
	// or one output call, so no connection needs a copy of its own.
	sackScratch [packet.MaxSACKBlocks]packet.SACKBlock
	optScratch  [2 + 8*packet.MaxSACKBlocks]byte // also fits the 12 bytes of SYN options
	nextPort    uint16                           // in optScratch's padding: Stack stays at 320 B
	// bursts[d] is the tx burst buffer (Conn.bursting) of the output call at
	// nesting depth d: while one connection flushes, txFree → txCompleted →
	// output can start another connection's burst, which must not append to
	// the slice being flushed. burstDepth is the number of output calls in
	// progress.
	bursts     [][]*packet.Packet
	burstDepth int

	// Counters.
	DeliveredSegs int64
	DroppedSegs   int64 // segments with no matching connection
}

// NewStack creates a stack bound to host with the given default config and
// installs it as the host's demux.
func NewStack(s *sim.Simulator, host *netsim.Host, cfg Config) *Stack {
	st := &Stack{
		Sim:       s,
		Host:      host,
		Cfg:       cfg,
		listeners: make(map[uint16]func(*Conn)),
		nextPort:  40000,
	}
	host.Demux = st
	// NIC tx-completion feedback for TSQ backpressure.
	if host.NIC != nil {
		host.NIC.OnTxDone = st.txFree
	}
	host.OnTxFree = st.txFree
	return st
}

// txFree credits a connection's TSQ budget when one of its packets leaves
// the egress path (serialized by the NIC or dropped before the wire).
func (st *Stack) txFree(p *packet.Packet) {
	ip := p.IP()
	if !ip.Valid() || ip.Protocol() != packet.ProtoTCP {
		return
	}
	t := ip.TCP()
	if !t.Valid() {
		return
	}
	if c := st.conns.Get(makeKey(t.SrcPort(), ip.Dst(), t.DstPort())); c != nil {
		c.txCompleted(int64(p.IPLen()))
	}
}

// Listen registers an accept callback for the given port. Incoming SYNs to
// the port create server-side connections; onAccept runs when the connection
// is created (before it is established) so the app can set callbacks.
func (st *Stack) Listen(port uint16, onAccept func(*Conn)) {
	st.listeners[port] = onAccept
}

// Dial creates a client connection to raddr:rport using the stack's default
// config and sends the SYN.
func (st *Stack) Dial(raddr packet.Addr, rport uint16) *Conn {
	return st.DialCfg(raddr, rport, st.Cfg)
}

// DialCfg creates a client connection with a per-connection config override.
func (st *Stack) DialCfg(raddr packet.Addr, rport uint16, cfg Config) *Conn {
	lport := st.allocPort(raddr, rport)
	c := newConn(st, makeKey(lport, raddr, rport), cfg, false)
	st.conns.Put(c.key, c)
	c.sendSYN()
	return c
}

// allocPort returns the next ephemeral port that no connection to raddr:rport
// holds, in TIME_WAIT included, and no listener owns, trying each port once.
func (st *Stack) allocPort(raddr packet.Addr, rport uint16) uint16 {
	for range 1<<16 - 40000 {
		p := st.nextPort
		st.nextPort++
		if st.nextPort < 40000 {
			st.nextPort = 40000
		}
		key := makeKey(p, raddr, rport)
		if st.conns.Get(key) != nil || st.timeWaits.find(key) >= 0 {
			continue
		}
		if _, listening := st.listeners[p]; !listening {
			return p
		}
	}
	panic("tcpstack: out of ephemeral ports")
}

// HandlePacket implements netsim.Handler: demux to a connection or a
// TIME_WAIT record, or create a connection for a SYN to a listening port.
func (st *Stack) HandlePacket(p *packet.Packet) {
	// The stack terminates every segment handed to it: receive() copies what
	// it needs (reassembly tracks byte ranges, not packets), so the packet is
	// recycled on every exit path below.
	ip := p.IP()
	if !ip.Valid() || ip.Protocol() != packet.ProtoTCP {
		st.DroppedSegs++
		st.Host.Pool.Put(p)
		return
	}
	t := ip.TCP()
	if !t.Valid() {
		st.DroppedSegs++
		st.Host.Pool.Put(p)
		return
	}
	key := makeKey(t.DstPort(), ip.Src(), t.SrcPort())
	c := st.conns.Get(key)
	if c == nil {
		if i := st.timeWaits.find(key); i >= 0 {
			st.DeliveredSegs++
			st.timeWaitReceive(uint32(i), t)
			st.Host.Pool.Put(p)
			return
		}
		if t.HasFlags(packet.FlagSYN) && !t.HasFlags(packet.FlagACK) {
			if onAccept, listening := st.listeners[t.DstPort()]; listening {
				c = newConn(st, key, st.Cfg, true)
				st.conns.Put(key, c)
				onAccept(c)
				st.DeliveredSegs++
				c.receive(p)
				st.Host.Pool.Put(p)
				return
			}
		}
		st.DroppedSegs++
		st.Host.Pool.Put(p)
		return
	}
	st.DeliveredSegs++
	c.receive(p)
	if c.tw != 0 {
		st.handOff(c)
	}
	st.Host.Pool.Put(p)
}

// remove deletes a closed connection from the demux table.
func (st *Stack) remove(c *Conn) {
	st.conns.Delete(c.key)
}

// park puts a torn-down Conn on the free list, stamped with the event it died
// in. teardown is reached from deep inside receive, whose frames go on
// reading c after it returns, and OnClosed may dial at once: the record must
// not be handed out again before that event has ended. Sim.Processed is
// unique per event, so the stamp costs no event and no timer of its own.
func (st *Stack) park(c *Conn) {
	c.parkedAt = uint32(st.Sim.Processed)
	// A parked record must not keep the application's objects alive.
	c.OnRecv, c.OnEstablished, c.OnPeerClose, c.OnClosed, c.OnRTTSample = nil, nil, nil, nil, nil
	st.parked = append(st.parked, c)
}

// unpark takes the most recently parked Conn that died in an earlier event
// than the current one, or returns nil. Records of the current event sit on
// top of the list; an older one whose truncated stamp happens to collide is
// skipped too, which is merely conservative.
func (st *Stack) unpark() *Conn {
	now := uint32(st.Sim.Processed)
	for i := len(st.parked) - 1; i >= 0; i-- {
		if c := st.parked[i]; c.parkedAt != now {
			last := len(st.parked) - 1
			st.parked[i] = st.parked[last]
			st.parked[last] = nil
			st.parked = st.parked[:last]
			return c
		}
	}
	return nil
}

// timeWait is a connection in TIME_WAIT, as Linux keeps it after freeing the
// socket (inet_timewait_sock): the key, the final ACK ready to be sent again,
// the application's OnClosed and the stamp its wait drew. All a connection
// does in TIME_WAIT is answer a retransmitted FIN: it needs no Conn.
type timeWait struct {
	key      connKey
	seq, ack uint32 // of the final ACK
	flowTag  uint32
	window   uint16
	flags    uint8
	ecn      packet.ECN
	onClosed func()
	at       sim.Stamp // while the wait keeps arm order in the ring; else zero
}

// twPage is the number of TIME_WAIT records in one page of a twTable.
const twPage = 64

// twDue names the due entry in twTable.expiry. No record takes it as its
// number, whose index slot, number + 1, would be the empty slot.
const twDue = 1<<32 - 1

// twTable holds a stack's TIME_WAIT records, as Linux keeps them in a slab
// cache of their own, numbered in arm order: record i is
// pages[(i-base)/twPage][i%twPage], tail the next. Waits of the stack's
// length, dur, end in arm order (as Linux's fixed TCP_TIMEWAIT_LEN assumes),
// so one entry of expiry, the due entry, sits at the stamp of the oldest, due;
// the page due leaves goes to the far end of the ring. A wait restarted by a
// FIN or of another length moves to late, with an entry of its own that keeps
// its stamp and re-arms lazily: it ends where a Timer of its own would fire.
// index's slots hold a record number + 1.
type twTable struct {
	pages           []*[twPage]timeWait
	base, due, tail uint32 // due: the oldest record in arm order, or tail
	dur             sim.Duration
	index           sim.Slots[uint32]
	expiry          *sim.Deadlines[uint32]
	dueH            sim.Deadline
	late            map[uint32]*twLateWait // made by the first leave
}

// twLateWait is a record out of arm order, its entry and its wait's length.
type twLateWait struct {
	tw  timeWait
	h   sim.Deadline
	dur sim.Duration
}

func (ts *twTable) rec(i uint32) *timeWait {
	if len(ts.late) != 0 && ts.late[i] != nil {
		return &ts.late[i].tw
	}
	return &ts.pages[(i-ts.base)/twPage][i%twPage]
}

// hash is the hash of the key of the record index slot o names.
func (ts *twTable) hash(o uint32) uint64 { return sim.HashWord(ts.rec(o - 1).key) }

// find returns the number of the record holding k, or −1.
func (ts *twTable) find(k connKey) int {
	if ts == nil {
		return -1
	}
	j := ts.index.Find(sim.HashWord(k), func(o uint32) bool { return ts.rec(o-1).key == k })
	if j < 0 {
		return -1
	}
	return int(ts.index.At(j) - 1)
}

// twTable returns the stack's TIME_WAIT table; the first call makes it.
func (st *Stack) twTable() *twTable {
	if st.timeWaits == nil {
		ts := &twTable{dur: st.Cfg.timeWait()}
		ts.expiry = sim.NewDeadlines(st.Sim, st.expireTimeWait, func(i uint32) *sim.Deadline {
			if i == twDue {
				return &ts.dueH
			}
			return &ts.late[i].h
		})
		st.timeWaits = ts
	}
	return st.timeWaits
}

// armTimeWait takes the next record, draws the stamp of its wait and returns
// its number + 1; handOff fills it in at the end of the event.
func (st *Stack) armTimeWait(dur sim.Duration) uint32 {
	ts := st.twTable()
	idle := ts.due == ts.tail
	for ts.tail == twDue || ts.late[ts.tail] != nil { // a late record's wait outlived 2³² arms
		ts.tail++
	}
	for ts.tail-ts.base >= uint32(len(ts.pages))*twPage {
		ts.pages = append(ts.pages, new([twPage]timeWait))
	}
	i := ts.tail
	ts.tail++
	if at := st.Sim.StampAt(st.Sim.Now() + dur); dur == ts.dur {
		ts.rec(i).at = at
	} else {
		ts.leave(i, at, dur)
	}
	if idle {
		ts.seekDue()
	}
	return i + 1
}

// leave moves record i, whose wait is stamped at, to late, where its wait has
// an entry of its own; its slot in the ring is free.
func (ts *twTable) leave(i uint32, at sim.Stamp, dur sim.Duration) {
	if ts.late == nil {
		ts.late = map[uint32]*twLateWait{}
	}
	tw := ts.rec(i)
	ts.late[i] = &twLateWait{tw: *tw, dur: dur}
	ts.late[i].tw.at, *tw = sim.Stamp{}, timeWait{}
	ts.expiry.Adopt(i, at)
}

// seekDue moves due, and the due entry, to the oldest record in arm order,
// and the pages it leaves to the far end of the ring.
func (ts *twTable) seekDue() {
	for ts.due != ts.tail && ts.rec(ts.due).at.Seq == 0 {
		if ts.due++; ts.due-ts.base == twPage {
			p := ts.pages[0]
			copy(ts.pages, ts.pages[1:])
			ts.pages[len(ts.pages)-1] = p
			ts.base += twPage
		}
	}
	if ts.due == ts.tail {
		ts.expiry.Stop(twDue)
	} else {
		ts.expiry.Adopt(twDue, ts.rec(ts.due).at)
	}
}

// handOff moves a connection that entered TIME_WAIT during the segment just
// received to the record armTimeWait took: the record copies the final ACK
// and OnClosed and answers for the key from now on, and the Conn is torn down
// and parked at once. OnClosed runs from the record when the wait ends.
func (st *Stack) handOff(c *Conn) {
	i := c.tw - 1
	c.tw = 0
	tw := st.timeWaits.rec(i)
	f := c.ackFields()
	*tw = timeWait{
		key: c.key,
		seq: f.Seq, ack: f.Ack, flowTag: c.FlowTag,
		window: f.Window, flags: f.Flags, ecn: c.wireECN(packet.NotECT),
		onClosed: c.OnClosed, at: tw.at,
	}
	c.OnClosed = nil
	c.teardown()
	st.timeWaits.index.Insert(sim.HashWord(c.key), i+1, st.timeWaits.hash)
}

// timeWaitReceive answers a segment for a connection in TIME_WAIT, held by
// record i. A FIN is the peer's retransmission, sent because our final ACK was
// lost: send the ACK again and restart the 2 MSL wait (RFC 793 §3.9), so the
// record outlives the retransmissions the new ACK may still cross; the wait
// leaves arm order. Anything else, a SYN for the key included, is ignored.
func (st *Stack) timeWaitReceive(i uint32, t packet.TCP) {
	if !t.HasFlags(packet.FlagFIN) {
		return
	}
	ts, tw := st.timeWaits, st.timeWaits.rec(i)
	p := packet.BuildIn(st.Host.Pool, st.Host.Addr, tw.key.remoteAddr(), tw.ecn, packet.TCPFields{
		SrcPort: tw.key.localPort(), DstPort: tw.key.remotePort(),
		Seq: tw.seq, Ack: tw.ack, Flags: tw.flags, Window: tw.window,
	}, 0)
	p.FlowTag = tw.flowTag
	st.Host.Output(p)
	if tw.at.Seq != 0 {
		ts.leave(i, tw.at, ts.dur)
		ts.seekDue()
	}
	ts.expiry.Reset(i, ts.late[i].dur)
}

// expireTimeWait ends the due record's wait (v = twDue) or late record v's;
// OnClosed runs last, so it may itself start a TIME_WAIT.
func (st *Stack) expireTimeWait(v uint32) {
	ts := st.timeWaits
	i := v
	if v == twDue {
		i = ts.due
	}
	tw := ts.rec(i)
	onClosed := tw.onClosed
	ts.index.Delete(ts.index.Find(sim.HashWord(tw.key), func(o uint32) bool { return o == i+1 }), ts.hash)
	*tw = timeWait{}
	delete(ts.late, i)
	if v == twDue {
		ts.seekDue()
	}
	if onClosed != nil {
		onClosed()
	}
}

// NumConns returns the number of live connections, TIME_WAIT included (for
// tests).
func (st *Stack) NumConns() int {
	if st.timeWaits == nil {
		return st.conns.Len()
	}
	return st.conns.Len() + st.timeWaits.index.Len()
}

// ConnRecords returns how many Conn records the stack holds: the open
// connections' and those parked for reuse. A connection in TIME_WAIT holds
// none (for tests).
func (st *Stack) ConnRecords() int { return st.conns.Len() + len(st.parked) }

func (st *Stack) String() string {
	return fmt.Sprintf("stack(%s conns=%d)", st.Host.Name, st.NumConns())
}
