package netsim

import (
	"acdc/internal/packet"
	"acdc/internal/sim"
)

// PathHook is a vSwitch datapath interception point. It receives one packet
// and returns the packets that continue along the path as a pair: out is the
// input packet (possibly mutated or replaced) or nil if the hook consumed it
// (policing drop, absorbed feedback, retained for later injection), and
// extra is at most one additional generated packet (e.g. a coalesced AC/DC
// window probe) — no datapath in this repository produces more than one. The
// pair form keeps the per-packet hot path free of slice allocations. A nil
// hook is a passthrough.
//
// Ownership: the hook owns the input while it runs. Returning it (as out)
// hands it back to the caller; returning nil,nil means the hook consumed it,
// and the host recycles it (on egress after crediting TSQ). An egress hook
// that keeps the packet instead (the UDP tunnel's queue) calls Host.Retain
// first and releases it itself; an ingress hook never keeps one.
type PathHook func(p *packet.Packet) (out, extra *packet.Packet)

// Host is a server: a guest stack above a vSwitch above a NIC. The guest
// TCP endpoints (internal/tcpstack) register as the Demux; the AC/DC module
// (internal/core) installs Egress/Ingress hooks exactly where OVS sits —
// between the stack and the NIC.
type Host struct {
	Sim  *sim.Simulator
	Name string
	Addr packet.Addr

	// NIC is the egress link toward the first-hop switch.
	NIC *Link

	// Egress processes packets leaving the guest stack before they reach the
	// NIC; Ingress processes packets arriving from the NIC before the stack.
	Egress  PathHook
	Ingress PathHook

	// Demux delivers packets to the guest transport layer.
	Demux Handler

	// Pool recycles packet buffers for everything attached to this host's
	// simulator (one shared Pool per topology). Nil is valid and falls back
	// to garbage-collected allocation everywhere.
	Pool *packet.Pool

	// OnTxFree, when set, is called for packets that leave the egress path
	// without reaching the wire (dropped by the egress hook or the NIC
	// queue), so TSQ accounting in the stack does not leak.
	OnTxFree func(p *packet.Packet)

	// Counters.
	SentPackets, RecvPackets      int64
	SentBytes, RecvBytes          int64
	EgressDropped, IngressDropped int64

	retained *packet.Packet // what the running egress hook keeps (Retain)
}

// NewHost creates a host with the given address. Attach the NIC afterwards.
func NewHost(s *sim.Simulator, name string, addr packet.Addr) *Host {
	return &Host{Sim: s, Name: name, Addr: addr}
}

// Output sends a guest-stack packet through the egress hook and onto the NIC.
func (h *Host) Output(p *packet.Packet) {
	out, extra := applyHook(h.Egress, p)
	if out == nil && extra == nil {
		h.EgressDropped++
		// Read before the credit: TSQ may send more through the hook.
		kept := h.retained == p
		h.retained = nil
		if h.OnTxFree != nil {
			// Credit TSQ for the packet that never reached the wire, while
			// it is still unreleased.
			h.OnTxFree(p)
		}
		if !kept {
			h.Pool.Put(p) // dropped by the hook (policing, a full tunnel queue)
		}
		return
	}
	h.sendOne(out)
	h.sendOne(extra)
}

// Retain tells Output that the running egress hook keeps p, which it returns
// as consumed: Output credits TSQ for p but does not recycle it, and the hook
// puts it back to the pool when it is done with it.
func (h *Host) Retain(p *packet.Packet) { h.retained = p }

func (h *Host) sendOne(q *packet.Packet) {
	if q == nil {
		return
	}
	h.SentPackets++
	h.SentBytes += int64(q.IPLen())
	if !h.NIC.Send(q) {
		// NIC queue rejected it: the packet dies here.
		if h.OnTxFree != nil {
			h.OnTxFree(q)
		}
		h.Pool.Put(q)
	}
}

// HandlePacket implements Handler: packets arriving from the network pass
// the ingress hook and are delivered to the guest stack.
func (h *Host) HandlePacket(p *packet.Packet) {
	out, extra := applyHook(h.Ingress, p)
	if out == nil && extra == nil {
		// Consumed by the hook (absorbed FACK, policing drop). Per the
		// PathHook contract the hook did not retain it, so recycle.
		h.IngressDropped++
		h.Pool.Put(p)
		return
	}
	h.deliverOne(out)
	h.deliverOne(extra)
}

func (h *Host) deliverOne(q *packet.Packet) {
	if q == nil {
		return
	}
	h.RecvPackets++
	h.RecvBytes += int64(q.IPLen())
	if h.Demux != nil {
		h.Demux.HandlePacket(q)
	} else {
		h.Pool.Put(q)
	}
}

// DeliverLocal injects a vSwitch-generated packet (e.g. a window update or a
// duplicate ACK) directly into the guest stack, bypassing the ingress hook.
// Ownership of p transfers to the guest side.
func (h *Host) DeliverLocal(p *packet.Packet) {
	if h.Demux != nil {
		h.Demux.HandlePacket(p)
	} else {
		h.Pool.Put(p)
	}
}

// InjectToWire puts a vSwitch-generated packet (e.g. a FACK) directly on the
// NIC, bypassing the egress hook.
func (h *Host) InjectToWire(p *packet.Packet) {
	h.SentPackets++
	h.SentBytes += int64(p.IPLen())
	if !h.NIC.Send(p) {
		h.Pool.Put(p)
	}
}

func applyHook(hook PathHook, p *packet.Packet) (out, extra *packet.Packet) {
	if hook == nil {
		return p, nil
	}
	return hook(p)
}
