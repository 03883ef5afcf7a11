package tcpstack

import (
	"fmt"

	"acdc/internal/netsim"
	"acdc/internal/packet"
	"acdc/internal/sim"
)

// connKey identifies a connection from the stack's point of view.
type connKey struct {
	localPort  uint16
	remoteAddr packet.Addr
	remotePort uint16
}

// Stack is one host's transport layer. It registers as the host's Demux and
// owns every Conn terminating at that host.
type Stack struct {
	Sim  *sim.Simulator
	Host *netsim.Host
	Cfg  Config

	conns     map[connKey]*Conn
	listeners map[uint16]func(*Conn)
	nextPort  uint16

	// parked holds torn-down Conns for newConn to take back; see park.
	parked []*Conn

	// Scratch shared by every Conn of the stack. Each is filled and consumed
	// inside one transmit call (BuildIn copies options into the packet buffer)
	// or one output call, so no connection needs a copy of its own.
	sackScratch [packet.MaxSACKBlocks]packet.SACKBlock
	optScratch  [2 + 8*packet.MaxSACKBlocks]byte // also fits the 12 bytes of SYN options
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
		conns:     make(map[connKey]*Conn),
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
	key := connKey{t.SrcPort(), ip.Dst(), t.DstPort()}
	if c, ok := st.conns[key]; ok {
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
	c := newConn(st, connKey{lport, raddr, rport}, cfg, false)
	st.conns[c.key] = c
	c.sendSYN()
	return c
}

func (st *Stack) allocPort(raddr packet.Addr, rport uint16) uint16 {
	for i := 0; i < 1<<16; i++ {
		p := st.nextPort
		st.nextPort++
		if st.nextPort < 40000 {
			st.nextPort = 40000
		}
		if _, busy := st.conns[connKey{p, raddr, rport}]; !busy {
			if _, listening := st.listeners[p]; !listening {
				return p
			}
		}
	}
	panic("tcpstack: out of ephemeral ports")
}

// HandlePacket implements netsim.Handler: demux to a connection, or create
// one for a SYN to a listening port.
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
	key := connKey{t.DstPort(), ip.Src(), t.SrcPort()}
	c, ok := st.conns[key]
	if !ok {
		if t.HasFlags(packet.FlagSYN) && !t.HasFlags(packet.FlagACK) {
			if onAccept, listening := st.listeners[t.DstPort()]; listening {
				c = newConn(st, key, st.Cfg, true)
				st.conns[key] = c
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
	st.Host.Pool.Put(p)
}

// remove deletes a closed connection from the demux table.
func (st *Stack) remove(c *Conn) {
	delete(st.conns, c.key)
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

// NumConns returns the number of live connections (for tests).
func (st *Stack) NumConns() int { return len(st.conns) }

func (st *Stack) String() string {
	return fmt.Sprintf("stack(%s conns=%d)", st.Host.Name, len(st.conns))
}
