package tcpstack

import (
	"fmt"

	"acdc/internal/cc"
	"acdc/internal/packet"
	"acdc/internal/sim"
)

// State is the TCP connection state.
type State int

// Connection states (RFC 793 subset; no RST handling — the simulated
// network never generates resets).
const (
	StateClosed State = iota
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateClosing
	StateTimeWait
	StateCloseWait
	StateLastAck
)

var stateNames = [...]string{"Closed", "SynSent", "SynRcvd", "Established",
	"FinWait1", "FinWait2", "Closing", "TimeWait", "CloseWait", "LastAck"}

func (s State) String() string { return stateNames[s] }

// seqRange is a half-open range of absolute sequence offsets.
type seqRange struct{ start, end int64 }

// Conn is one TCP connection endpoint. Absolute offsets count from the ISS:
// offset 0 is the SYN, data bytes occupy [1, 1+appEnd), and the FIN (when
// queued) sits at 1+appEnd.
//
// The stack reuses a closed connection's record for a later one (see
// newConn). A *Conn that enters TIME_WAIT is the stack's again at the end of
// that event; TIME_WAIT itself is kept by a small record, not the Conn (see
// timeWait). Otherwise it is the stack's again once OnClosed has returned and
// its event has ended. Read counters in OnPeerClose or before Close, and drop
// the pointer by then.
type Conn struct {
	stack  *Stack // its Cfg is the connection's config
	key    connKey
	server bool
	parked bool // torn down; on (or about to join) the stack's free list
	state  State

	alg cc.Algorithm
	ctx cc.Ctx

	iss, irs uint32

	// --- sender ---
	sndUna, sndNxt int64
	appEnd         int64 // bytes queued by the app
	finQueued      bool
	sndWnd         int64 // peer advertised window, bytes
	sndWL          int64 // abs ack of last window update
	peerWScale     uint8
	peerMSS        int
	dupAcks        int
	inRecovery     bool
	recoverAt      int64
	inCWR          bool
	highSeq        int64
	ceWindowEnd    int64

	probeStart        sim.Time
	probeEnd          int64 // 0 = no probe outstanding
	retransSinceProbe bool
	srtt, rttvar      int64
	backoff           int

	rtoTimer, delackTimer, persistTimer *sim.Timer
	// tw is the TIME_WAIT record's number + 1 from enterTimeWait until
	// Stack.handOff, at the end of the same event, gives it the connection.
	tw uint32

	ecnOK   bool
	sendCWR bool

	// SACK state.
	sackOK  bool       // negotiated on both SYNs
	sacked  []seqRange // sender scoreboard (absolute offsets)
	rtxNext int64      // next hole offset to retransmit this recovery

	// TSQ accounting: bytes of ours sitting in the host NIC queue.
	nicQueued int64

	// output reentrancy guard.
	inOutput    bool
	outputAgain bool

	// tx burst buffer: while bursting, transmit collects segments into the
	// stack's burst buffer instead of handing them to Host.Output; output
	// flushes them, in order, once the whole window is built (at most
	// txBurstCap at a time). It stays for ordering, not speed: the vSwitch
	// and NIC see a window only after every segment of it has been built,
	// so what they schedule follows the stack's own timer arms. Sending each
	// segment as it is built moved feedback-blackout/acdc's fairness by 0.30
	// (EXPERIMENTS.md "Batch datapath removed").
	bursting bool

	// --- receiver ---
	rcvNxt   int64
	finRcvd  int64 // absolute offset of the peer FIN; -1 until seen
	eceLatch bool  // RFC 3168 echo latch
	ceAccum  bool  // DCTCP: CE seen since last ACK sent
	lastCE   bool  // DCTCP receiver CE state
	ooo      []seqRange
	lastOOO  seqRange // most recently received island (first SACK block)
	delAcked int      // full segments since last ACK

	// --- app interface ---
	// OnRecv is called with each chunk of newly in-order-delivered payload.
	OnRecv func(n int)
	// OnEstablished fires when the three-way handshake completes.
	OnEstablished func()
	// OnPeerClose fires when the peer's FIN is delivered in order (EOF).
	OnPeerClose func()
	// OnClosed fires when the connection is fully closed and removed: when
	// the last FIN is acknowledged, or when TIME_WAIT ends. In the second
	// case the stack's TIME_WAIT record runs it, long after the *Conn was
	// reused, so it must not touch the Conn.
	OnClosed func()
	// OnRTTSample receives raw sender RTT samples in ns.
	OnRTTSample func(ns int64)
	// FlowTag labels packets this connection sends (workload bookkeeping).
	FlowTag uint32
	// parkedAt is Sim.Processed, truncated, when the record was parked. It
	// sits in the padding after FlowTag: the struct must not grow into the
	// next malloc size class (TestConnSizeClass).
	parkedAt uint32

	// Delivered counts in-order payload bytes handed to the app.
	Delivered int64
	// AckedBytes counts bytes the peer has acknowledged.
	AckedBytes int64

	// Counters.
	SentSegs, RecvSegs, RetransSegs, Timeouts, FastRecoveries int64
}

// newConn returns a connection in StateClosed, in a record taken back from
// the stack's free list when one is available. What a record keeps from its
// previous life is only what costs an allocation and carries no state: the
// three timers (stopped), the algorithm value (every connection of the stack
// runs the same one), the algorithm's private state (Init resets it in place)
// and the capacity of the SACK scoreboard and reassembly lists.
func newConn(st *Stack, key connKey, server bool) *Conn {
	c := st.unpark()
	if c == nil {
		c = &Conn{}
		c.rtoTimer = sim.NewTimer(st.Sim, c.onRTO)
		c.delackTimer = sim.NewTimer(st.Sim, c.onDelAck)
		c.persistTimer = sim.NewTimer(st.Sim, c.onPersist)
	}
	// teardown stopped them, but the frames it returned into could have armed
	// one again; it must not fire on this connection.
	c.rtoTimer.Stop()
	c.delackTimer.Stop()
	c.persistTimer.Stop()
	alg := c.alg
	if alg == nil {
		alg = cc.New(st.Cfg.CC)
	}
	// Overwrite the whole record, so that a field added later starts at its
	// zero value without having to be listed here.
	*c = Conn{
		stack:  st,
		key:    key,
		server: server,
		state:  StateClosed,
		alg:    alg,
		ctx: cc.Ctx{
			MSS:       st.Cfg.MSS(),
			Cwnd:      initCwnd,
			Ssthresh:  1 << 30,
			CwndClamp: st.Cfg.CwndClamp,
			Now:       int64(st.Sim.Now()),
		}.Recycle(&c.ctx),
		finRcvd:      -1,
		sacked:       c.sacked[:0],
		ooo:          c.ooo[:0],
		rtoTimer:     c.rtoTimer,
		delackTimer:  c.delackTimer,
		persistTimer: c.persistTimer,
	}
	c.iss = uint32(st.Sim.Rand().Int63()) | 1
	c.alg.Init(&c.ctx)
	c.peerMSS = st.Cfg.MSS()
	return c
}

// --- public API ---

// LocalPort returns the local port.
func (c *Conn) LocalPort() uint16 { return c.key.localPort() }

// RemoteAddr returns the peer address and port.
func (c *Conn) RemoteAddr() (packet.Addr, uint16) { return c.key.remoteAddr(), c.key.remotePort() }

// Cwnd returns the congestion window in MSS units (for instrumentation).
func (c *Conn) Cwnd() float64 { return c.ctx.Cwnd }

// CwndBytes returns the congestion window in bytes.
func (c *Conn) CwndBytes() int64 { return int64(c.ctx.Cwnd * float64(c.ctx.MSS)) }

// SndWnd returns the peer's advertised window in bytes.
func (c *Conn) SndWnd() int64 { return c.sndWnd }

// SRTT returns the smoothed RTT in ns (0 before the first sample).
func (c *Conn) SRTT() int64 { return c.srtt }

// MSS returns the connection's segment size.
func (c *Conn) MSS() int { return c.ctx.MSS }

// Send queues n virtual payload bytes for transmission.
func (c *Conn) Send(n int64) {
	if n <= 0 {
		return
	}
	if c.finQueued {
		panic("tcpstack: Send after Close")
	}
	c.appEnd += n
	c.output()
}

// Close queues a FIN after all pending data.
func (c *Conn) Close() {
	if c.finQueued {
		return
	}
	c.finQueued = true
	switch c.state {
	case StateEstablished:
		c.state = StateFinWait1
	case StateCloseWait:
		c.state = StateLastAck
	case StateSynSent, StateSynRcvd:
		// Defer: establish() moves straight to FinWait1 and the FIN goes
		// out after any queued data.
		return
	case StateClosed:
		c.teardown()
		return
	}
	c.output()
}

func (c *Conn) String() string {
	return fmt.Sprintf("conn(%s:%d>%v:%d %v una=%d nxt=%d cwnd=%.1f)",
		c.stack.Host.Name, c.key.localPort(), c.key.remoteAddr(), c.key.remotePort(),
		c.state, c.sndUna, c.sndNxt, c.ctx.Cwnd)
}

// --- sequence mapping ---

func (c *Conn) wireSeq(abs int64) uint32 { return c.iss + uint32(abs) }
func (c *Conn) wireAck(abs int64) uint32 { return c.irs + uint32(abs) }

// unwrap maps a 32-bit wire value to the absolute offset nearest ref.
func unwrap(wire, base uint32, ref int64) int64 {
	delta := int64(int32(wire - (base + uint32(ref))))
	return ref + delta
}

func (c *Conn) absSeqFromPeer(wire uint32) int64 { return unwrap(wire, c.irs, c.rcvNxt) }
func (c *Conn) absAckFromPeer(wire uint32) int64 { return unwrap(wire, c.iss, c.sndUna) }

// --- handshake ---

func (c *Conn) sendSYN() {
	c.state = StateSynSent
	c.probeStart = c.stack.Sim.Now() // handshake RTT seed (SYN → SYN-ACK)
	flags := packet.FlagSYN
	if c.stack.Cfg.ECN != ECNOff {
		flags |= packet.FlagECE | packet.FlagCWR
	}
	c.sndNxt = 1
	c.transmit(packet.TCPFields{
		SrcPort: c.key.localPort(), DstPort: c.key.remotePort(),
		Seq: c.iss, Flags: flags, Window: 65535,
		Options: c.synOptions(c.stack.Cfg.SACK),
	}, 0, packet.NotECT)
	c.rtoTimer.Reset(rtoInit)
}

// synOptions encodes the handshake options into the stack's scratch;
// transmit copies them into the packet before the scratch is used again.
func (c *Conn) synOptions(sackPerm bool) []byte {
	return packet.AppendSynOptions(c.stack.optScratch[:0], uint16(c.stack.Cfg.MSS()), wscale, sackPerm)
}

func (c *Conn) handleSYN(p *packet.Packet, t packet.TCP) {
	so := packet.ParseSynOptions(t.Options())
	c.irs = t.Seq()
	c.rcvNxt = 1
	if so.WScaleOK {
		c.peerWScale = so.WScale
	}
	if so.MSS > 0 && int(so.MSS) < c.ctx.MSS {
		c.ctx.MSS = int(so.MSS)
	}
	peerECN := t.HasFlags(packet.FlagECE | packet.FlagCWR)
	c.ecnOK = peerECN && c.stack.Cfg.ECN != ECNOff
	c.sackOK = so.SACKPerm && c.stack.Cfg.SACK
	c.state = StateSynRcvd
	c.probeStart = c.stack.Sim.Now() // handshake RTT seed (SYN-ACK → ACK)
	flags := packet.FlagSYN | packet.FlagACK
	if c.ecnOK {
		flags |= packet.FlagECE
	}
	c.sndNxt = 1
	c.transmit(packet.TCPFields{
		SrcPort: c.key.localPort(), DstPort: c.key.remotePort(),
		Seq: c.iss, Ack: c.wireAck(c.rcvNxt), Flags: flags, Window: 65535,
		Options: c.synOptions(c.sackOK),
	}, 0, packet.NotECT)
	c.rtoTimer.Reset(rtoInit)
}

func (c *Conn) handleSynAck(p *packet.Packet, t packet.TCP) {
	so := packet.ParseSynOptions(t.Options())
	c.irs = t.Seq()
	c.rcvNxt = 1
	if so.WScaleOK {
		c.peerWScale = so.WScale
	}
	if so.MSS > 0 && int(so.MSS) < c.ctx.MSS {
		c.ctx.MSS = int(so.MSS)
	}
	c.ecnOK = t.HasFlags(packet.FlagECE) && c.stack.Cfg.ECN != ECNOff
	c.sackOK = so.SACKPerm && c.stack.Cfg.SACK
	c.sndUna = 1
	c.sndWnd = int64(t.Window()) << c.peerWScale
	c.sndWL = 1
	c.rtoTimer.Stop()
	c.backoff = 0
	// Seed SRTT from the handshake, as Linux does.
	c.rttSample(int64(c.stack.Sim.Now() - c.probeStart))
	c.establish()
	c.sendAck()
	c.output()
}

func (c *Conn) establish() {
	if c.finQueued {
		// Close raced the handshake.
		c.state = StateFinWait1
	} else {
		c.state = StateEstablished
	}
	c.ceWindowEnd = c.sndNxt
	if c.OnEstablished != nil {
		c.OnEstablished()
	}
}

// --- segment dispatch ---

func (c *Conn) receive(p *packet.Packet) {
	c.RecvSegs++
	c.ctx.Now = int64(c.stack.Sim.Now())
	t := p.TCP()
	switch c.state {
	case StateClosed:
		if c.server && t.HasFlags(packet.FlagSYN) && !t.HasFlags(packet.FlagACK) {
			c.handleSYN(p, t)
		}
		return
	case StateSynSent:
		if t.HasFlags(packet.FlagSYN | packet.FlagACK) {
			c.handleSynAck(p, t)
		}
		return
	case StateSynRcvd:
		if t.HasFlags(packet.FlagSYN) && !t.HasFlags(packet.FlagACK) {
			// Duplicate SYN: retransmit SYN-ACK on timer; ignore here.
			return
		}
		if t.HasFlags(packet.FlagACK) {
			abs := c.absAckFromPeer(t.Ack())
			if abs >= 1 {
				c.sndUna = 1
				c.sndWnd = int64(t.Window()) << c.peerWScale
				c.sndWL = 1
				c.rtoTimer.Stop()
				c.backoff = 0
				c.rttSample(int64(c.stack.Sim.Now() - c.probeStart))
				c.establish()
				// Fall through: the ACK may carry data.
				c.processSegment(p, t)
			}
		}
		return
	default:
		c.processSegment(p, t)
	}
}

func (c *Conn) processSegment(p *packet.Packet, t packet.TCP) {
	if t.HasFlags(packet.FlagACK) {
		c.processAck(p, t)
	}
	if p.PayloadLen() > 0 || t.HasFlags(packet.FlagFIN) {
		c.processData(p, t)
	}
}

// --- teardown ---

// finAbs returns the absolute offset of our FIN (valid when finQueued).
func (c *Conn) finAbs() int64 { return 1 + c.appEnd }

// finAcked reports whether the peer has acknowledged our FIN.
func (c *Conn) finAcked() bool { return c.finQueued && c.sndUna > c.finAbs() }

func (c *Conn) maybeAdvanceClose() {
	if !c.finAcked() {
		return
	}
	switch c.state {
	case StateFinWait1:
		c.state = StateFinWait2
	case StateClosing:
		c.enterTimeWait()
	case StateLastAck:
		c.teardown()
	}
}

// enterTimeWait arms the wait on a TIME_WAIT record; the stack hands the
// connection to it once the segment that got here has been processed (the
// FIN's ACK still goes out from the Conn).
func (c *Conn) enterTimeWait() {
	c.state = StateTimeWait
	c.rtoTimer.Stop()
	c.persistTimer.Stop()
	c.tw = c.stack.armTimeWait()
}

// teardown ends the connection: it leaves the demux table, OnClosed runs, and
// the record is parked for reuse. A connection is torn down once; a second
// call would park the record twice and hand it to two connections, so it
// panics, as packet.Pool does on a double Put.
func (c *Conn) teardown() {
	if c.parked {
		panic("tcpstack: teardown of a connection already torn down")
	}
	c.parked = true
	c.state = StateClosed
	c.rtoTimer.Stop()
	c.delackTimer.Stop()
	c.persistTimer.Stop()
	c.stack.remove(c)
	if c.OnClosed != nil {
		c.OnClosed()
	}
	c.stack.park(c)
}
