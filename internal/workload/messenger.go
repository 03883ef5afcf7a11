package workload

import (
	"fmt"
	"slices"

	"acdc/internal/packet"
	"acdc/internal/sim"
	"acdc/internal/tcpstack"
	"acdc/internal/topo"
)

// Manager owns the connection plumbing on one Net: every host listens on a
// common port, and accepted connections are matched back to the Messenger
// that dialed them. It reuses a Messenger once both its ends have seen EOF.
type Manager struct {
	Net  *topo.Net
	Port uint16

	pending map[connID]*Messenger
	free    []*Messenger // released records, most recently released last
}

type connID struct {
	addr packet.Addr
	port uint16
}

// NewManager installs listeners on every host.
func NewManager(net *topo.Net) *Manager {
	m := &Manager{Net: net, Port: 5001, pending: make(map[connID]*Messenger)}
	for i := range net.Hosts {
		m.listenOn(i)
	}
	return m
}

func (m *Manager) listenOn(i int) {
	m.Net.Stacks[i].Listen(m.Port, func(c *tcpstack.Conn) {
		raddr, rport := c.RemoteAddr()
		id := connID{raddr, rport}
		ms, ok := m.pending[id]
		if !ok {
			return // unknown connection; leave it unused
		}
		delete(m.pending, id)
		ms.attachServer(c)
	})
}

// Open dials a persistent connection from host `from` to host `to` and
// returns its Messenger: a released one if there is one, else a new one.
func (m *Manager) Open(from, to int) *Messenger {
	if from == to {
		panic(fmt.Sprintf("workload: self-connection on host %d", from))
	}
	cli := m.Net.Stacks[from].Dial(m.Net.Addr(to), m.Port)
	ms := m.reuse()
	if ms == nil {
		ms = &Messenger{m: m}
		ms.onRecv = func(int) { ms.checkComplete() }
		ms.onEOF = ms.peerClosed
	}
	ms.Cli, cli.OnPeerClose = cli, ms.onEOF
	m.pending[connID{m.Net.Addr(from), cli.LocalPort()}] = ms
	return ms
}

// reuse takes the latest Messenger released in an earlier event, or nil.
func (m *Manager) reuse() *Messenger {
	for i := len(m.free) - 1; i >= 0; i-- {
		if ms := m.free[i]; ms.releasedAt != uint32(m.Net.Sim.Processed) {
			m.free = slices.Delete(m.free, i, i+1)
			return ms
		}
	}
	return nil
}

// message is one tracked application message in flight.
type message struct {
	end     int64 // cumulative delivered-bytes offset that completes it
	size    int64
	started sim.Time
	done    func(fct sim.Duration)
}

// Messenger is a one-direction message stream over a persistent TCP
// connection: the client writes messages back to back and completion is
// observed at the *receiver*, when the in-order delivered byte count crosses
// each message boundary (the paper's "simple TCP application ... to measure
// FCTs"). Measuring at the receiver makes an FCT include every delay the
// paper cares about — queueing on both the data and ACK path, loss recovery,
// and RTO stalls — not just the sender's last write.
//
// Messages on one Messenger complete strictly in send order (TCP delivers in
// order), so a queued message's FCT includes the time spent waiting behind
// its predecessors; drivers that need independent timings (e.g. Prober) use
// a dedicated connection. The zero message count is fine: a Messenger used
// only via SendBulk tracks Delivered() without per-message accounting.
//
// A Messenger is the Manager's again, for a later Open, once both of its
// connections have received the other's FIN and that event has ended: drop
// the pointer by then. Its own OnPeerClose callbacks count the FINs, so a
// caller that replaces either connection's OnPeerClose keeps it from reuse.
type Messenger struct {
	m   *Manager
	Cli *tcpstack.Conn

	srv    *tcpstack.Conn
	queued int64
	msgs   []message
	// OnMessage fires at the receiver when a tracked message fully arrives.
	OnMessage  func(size int64)
	onRecv     func(int) // the server's OnRecv; built once, kept across reuse
	onEOF      func()    // both ends' OnPeerClose; likewise
	eofs       uint32    // ends that have received the other's FIN
	releasedAt uint32    // Sim.Processed, truncated, when released
}

func (ms *Messenger) attachServer(c *tcpstack.Conn) {
	ms.srv = c
	c.OnRecv, c.OnPeerClose = ms.onRecv, ms.onEOF
	ms.checkComplete()
}

// peerClosed counts one end's EOF; the second releases the record. Neither
// Conn calls in again (no payload follows a FIN; a Conn reports EOF once),
// and either may already serve another connection, so release leaves them be.
func (ms *Messenger) peerClosed() {
	if ms.eofs++; ms.eofs < 2 {
		return
	}
	*ms = Messenger{m: ms.m, msgs: ms.msgs[:0], onRecv: ms.onRecv, onEOF: ms.onEOF,
		releasedAt: uint32(ms.m.Net.Sim.Processed)}
	ms.m.free = append(ms.m.free, ms)
}

// Srv returns the server-side connection (nil before accept).
func (ms *Messenger) Srv() *tcpstack.Conn { return ms.srv }

// SendMessage queues one tracked message of n bytes; done (optional) runs at
// the receiver with the flow completion time.
func (ms *Messenger) SendMessage(n int64, done func(fct sim.Duration)) {
	ms.queued += n
	ms.msgs = append(ms.msgs, message{
		end: ms.queued, size: n, started: ms.m.Net.Sim.Now(), done: done,
	})
	ms.Cli.Send(n)
}

// SendBulk queues untracked bytes (long-lived background flows).
func (ms *Messenger) SendBulk(n int64) {
	ms.queued += n
	ms.Cli.Send(n)
}

func (ms *Messenger) checkComplete() {
	if ms.srv == nil {
		return
	}
	for len(ms.msgs) > 0 && ms.srv.Delivered >= ms.msgs[0].end {
		msg := ms.msgs[0]
		ms.msgs[0] = message{} // keeps no callback alive
		// Popping the last message keeps the storage for the next send.
		if len(ms.msgs) == 1 {
			ms.msgs = ms.msgs[:0]
		} else {
			ms.msgs = ms.msgs[1:]
		}
		if msg.done != nil {
			msg.done(ms.m.Net.Sim.Now() - msg.started)
		}
		if ms.OnMessage != nil {
			ms.OnMessage(msg.size)
		}
	}
}

// Delivered returns bytes delivered in order at the receiver.
func (ms *Messenger) Delivered() int64 {
	if ms.srv == nil {
		return 0
	}
	return ms.srv.Delivered
}
