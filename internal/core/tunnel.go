package core

import "acdc/internal/packet"

// DCTCP-friendly UDP tunnels — the future work §3.3 sketches ("we believe
// it can be extended to handle UDP similar to prior schemes"). UDP has no
// ACK stream to piggyback on and no receive window to rewrite, so the
// tunnel supplies both halves itself:
//
//   - the sender vSwitch admits datagrams up to a virtual DCTCP window
//     (excess is buffered briefly, then dropped — the guest has no
//     congestion control to slow it down, so the tunnel is the backstop);
//   - the receiver vSwitch counts total/CE-marked bytes and streams them
//     back in dedicated FACK control packets;
//   - the sender runs the TCP path's Figure 5 code over those counters
//     (creditFeedbackLocked, reactLocked, collapseLocked) and drains its
//     queue as the window opens.
//
// All accounting is in wire bytes (UDP has no sequence numbers): SndNxt is
// bytes admitted to the network, SndUna is bytes the peer reported received.

// udpFeedbackBytes is how often the receiver module reports (every ~2
// jumbo datagrams), keeping the control loop at sub-RTT granularity.
const udpFeedbackBytes = 18_000

// udpTunnelQueueCap bounds the sender-side tunnel queue.
const udpTunnelQueueCap = 256 << 10

// tunnelState is what only a tunnel flow carries, kept behind Flow.cold so
// that TCP flows do not pay for it.
type tunnelState struct {
	tq          []*packet.Packet // sender-side tunnel queue
	tqBytes     int
	fbLastTotal uint32 // receiver side: TotalBytes at last feedback
	fbLastCE    bool
}

// tunnel returns f's tunnel state, made on first use.
func (f *Flow) tunnel() *tunnelState {
	if f.cold == nil {
		f.cold = &tunnelState{}
	}
	return f.cold
}

// udpEgress is the sender-module path for guest datagrams.
func (v *VSwitch) udpEgress(p *packet.Packet) (*packet.Packet, *packet.Packet) {
	ip := p.IP()
	u := ip.UDP()
	if !u.Valid() {
		return p, nil
	}
	key := FlowKey{Src: ip.Src(), Dst: ip.Dst(), SPort: u.SrcPort(), DPort: u.DstPort()}
	f := v.flowFor(key)
	if f == nil {
		// Table full: the tunnel cannot admit-control this datagram, so it
		// passes through unwindowed rather than being dropped.
		return p, nil
	}
	if !f.issValid {
		f.isUDP = true
		f.issValid = true
		// Tunnel accounting is in IP-length bytes, so the "MSS" (window
		// floor / growth quantum) is a full MTU-sized datagram.
		f.MSS = int32(v.Cfg.MTU)
		f.CwndBytes = initCwndPkts * float64(f.MSS)
		f.alphaSeq, f.cutSeq = 0, 0
	}
	f.lastActive = v.Sim.Now()
	tn := f.tunnel()

	v.inactivityTimer(f).ArmIfIdle(v.Cfg.VTimeout)

	if len(tn.tq) == 0 && fitsLocked(f, p) {
		v.admitLocked(f, p)
		return p, nil
	}
	if size := p.IPLen(); tn.tqBytes+size <= udpTunnelQueueCap {
		// Retained: the flow owns the datagram until the window opens (the
		// egress-hook contract lets a consumed packet be kept).
		tn.tq = append(tn.tq, p)
		tn.tqBytes += size
		return nil, nil
	}
	v.Metrics.PolicingDrops.Inc()
	return nil, nil
}

// udpIngress is the receiver-module path: count, strip ECN, and stream
// feedback back to the sender's vSwitch.
func (v *VSwitch) udpIngress(p *packet.Packet) (*packet.Packet, *packet.Packet) {
	ip := p.IP()
	u := ip.UDP()
	if !u.Valid() {
		return p, nil
	}
	key := FlowKey{Src: ip.Src(), Dst: ip.Dst(), SPort: u.SrcPort(), DPort: u.DstPort()}
	var fb *packet.Packet
	// A full table delivers the datagram uncounted: no feedback stream.
	if f := v.flowFor(key); f != nil {
		f.isUDP = true
		f.lastActive = v.Sim.Now()
		f.TotalBytes += uint32(p.IPLen())
		v.Metrics.DataBytes.Add(int64(p.IPLen()))
		ce := ip.ECN() == packet.CE
		if ce {
			f.MarkedBytes += uint32(p.IPLen())
			v.Metrics.CEBytes.Add(int64(p.IPLen()))
		}
		if tn := f.tunnel(); f.TotalBytes-tn.fbLastTotal >= udpFeedbackBytes || ce != tn.fbLastCE {
			tn.fbLastTotal, tn.fbLastCE = f.TotalBytes, ce
			// TCP-formatted, so the peer datapath parses it with the same
			// machinery, and addressed so its reverse lookup lands on the
			// UDP flow entry.
			fb = packet.BuildFACKIn(v.pool(), f.Key.Dst, f.Key.Src, packet.ECT0,
				packet.TCPFields{SrcPort: f.Key.DPort, DstPort: f.Key.SPort},
				packet.PACKInfo{TotalBytes: f.TotalBytes, MarkedBytes: f.MarkedBytes})
			v.Metrics.FacksSent.Inc()
		}
	}
	if v.Cfg.StripECN {
		v.stripECN(p, nil) // guest datagram sockets never negotiated ECN
	}
	if fb != nil {
		v.Host.InjectToWire(fb)
	}
	return p, nil
}

// processUDPFeedback runs the sender loop over tunnel feedback and drains the
// tunnel queue into the opened window. The peer reports bytes received, not
// an acknowledgement point, so SndUna advances by the total delta.
func (v *VSwitch) processUDPFeedback(f *Flow, info packet.PACKInfo) {
	f.lastActive = v.Sim.Now()
	totalDelta, markedDelta, reset := v.creditFeedbackLocked(f, info)
	f.SndUna = min(f.SndUna+int64(totalDelta), f.SndNxt)
	if f.inactivity != nil {
		f.inactivity.Reset(v.Cfg.VTimeout)
	}
	// No dupack loss signal, no RWND to enforce, no staleness freeze.
	v.reactLocked(f, f.SndUna, int64(totalDelta), markedDelta, false, false, false)
	if reset {
		// The restarted peer will never report what it received before.
		f.SndUna = f.SndNxt
	}
	for _, q := range v.drainTunnelLocked(f) {
		v.Host.InjectToWire(q)
	}
}

// fitsLocked reports whether the window has room for p.
func fitsLocked(f *Flow, p *packet.Packet) bool {
	return f.SndNxt-f.SndUna+int64(p.IPLen()) <= int64(f.CwndBytes)
}

// admitLocked sends p into the window: its bytes are in flight and it leaves
// ECN-capable.
func (v *VSwitch) admitLocked(f *Flow, p *packet.Packet) {
	f.SndNxt += int64(p.IPLen())
	f.maxInflight = max(f.maxInflight, f.SndNxt-f.SndUna)
	if v.Cfg.MarkECT && p.IP().ECN() == packet.NotECT {
		p.IP().SetECN(packet.ECT0)
	}
}

// drainTunnelLocked releases queued datagrams into the opened window.
func (v *VSwitch) drainTunnelLocked(f *Flow) []*packet.Packet {
	var out []*packet.Packet
	tn := f.tunnel()
	for len(tn.tq) > 0 && fitsLocked(f, tn.tq[0]) {
		p := tn.tq[0]
		tn.tq = tn.tq[1:]
		tn.tqBytes -= p.IPLen()
		v.admitLocked(f, p)
		out = append(out, p)
	}
	return out
}

// onUDPTimeout handles feedback silence: assume everything outstanding was
// lost (or the receiver vanished), collapse the window, restart.
func (v *VSwitch) onUDPTimeout(f *Flow) {
	if f.SndUna >= f.SndNxt && len(f.tunnel().tq) == 0 {
		return
	}
	v.collapseLocked(f)
	f.SndUna = f.SndNxt // write off outstanding bytes
	out := v.drainTunnelLocked(f)
	f.inactivity.Reset(v.Cfg.VTimeout)
	for _, q := range out {
		v.Host.InjectToWire(q)
	}
}
