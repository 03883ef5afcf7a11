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
//   - the sender runs the same Figure 5 machinery over those counters
//     (α EWMA, once-per-window cuts, NewReno growth) and drains its queue
//     as the window opens.
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

// tunnel returns f's tunnel state, made on first use. Caller holds f.mu.
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
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.issValid {
		f.isUDP = true
		f.issValid = true
		// Tunnel accounting is in IP-length bytes, so the "MSS" (window
		// floor / growth quantum) is a full MTU-sized datagram.
		f.MSS = int32(v.Cfg.MTU)
		f.CwndBytes = v.Cfg.InitCwndPkts * float64(f.MSS)
		f.alphaSeq, f.cutSeq = 0, 0
	}
	f.lastActive = v.Sim.Now()
	size := int64(p.IPLen())
	tn := f.tunnel()

	v.inactivityTimer(f).ArmIfIdle(v.Cfg.VTimeout)

	if len(tn.tq) == 0 && f.SndNxt-f.SndUna+size <= int64(f.CwndBytes) {
		f.SndNxt += size
		if infl := f.SndNxt - f.SndUna; infl > f.maxInflight {
			f.maxInflight = infl
		}
		if v.Cfg.MarkECT && ip.ECN() == packet.NotECT {
			ip.SetECN(packet.ECT0)
		}
		return p, nil
	}
	if tn.tqBytes+int(size) <= udpTunnelQueueCap {
		// Retained: the flow owns the datagram until the window opens (the
		// egress-hook contract lets a consumed packet be kept).
		tn.tq = append(tn.tq, p)
		tn.tqBytes += int(size)
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
	f := v.flowFor(key)
	if f == nil {
		// Table full: deliver uncounted (no feedback stream for this flow).
		if v.Cfg.StripECN && ip.ECN() != packet.NotECT {
			ip.SetECN(packet.NotECT)
			v.Metrics.ECNStripped.Inc()
		}
		return p, nil
	}
	f.mu.Lock()
	f.isUDP = true
	f.lastActive = v.Sim.Now()
	f.TotalBytes += uint32(p.IPLen())
	v.Metrics.DataBytes.Add(int64(p.IPLen()))
	if ip.ECN() == packet.CE {
		f.MarkedBytes += uint32(p.IPLen())
		v.Metrics.CEBytes.Add(int64(p.IPLen()))
	}
	tn := f.tunnel()
	needFb := f.TotalBytes-tn.fbLastTotal >= udpFeedbackBytes ||
		(ip.ECN() == packet.CE) != tn.fbLastCE
	var fb *packet.Packet
	if needFb {
		tn.fbLastTotal = f.TotalBytes
		tn.fbLastCE = ip.ECN() == packet.CE
		fb = v.buildUDPFeedbackLocked(f)
		v.Metrics.FacksSent.Inc()
	}
	f.mu.Unlock()

	if v.Cfg.StripECN && ip.ECN() != packet.NotECT {
		ip.SetECN(packet.NotECT) // guest datagram sockets never negotiated ECN
		v.Metrics.ECNStripped.Inc()
	}
	if fb != nil {
		v.Host.InjectToWire(fb)
	}
	return p, nil
}

// buildUDPFeedbackLocked crafts the control packet: TCP-formatted (so the
// peer datapath parses it with the same machinery), carrying the counters
// in an OptFACK option, addressed so the peer's reverse lookup lands on the
// UDP flow entry. Caller holds f.mu.
func (v *VSwitch) buildUDPFeedbackLocked(f *Flow) *packet.Packet {
	var opt [packet.PACKOptionLen]byte
	opt[0] = OptFACK
	opt[1] = packet.PACKOptionLen
	putU32(opt[2:6], f.TotalBytes)
	putU32(opt[6:10], f.MarkedBytes)
	fb := packet.BuildIn(v.pool(), f.Key.Dst, f.Key.Src, packet.ECT0, packet.TCPFields{
		SrcPort: f.Key.DPort, DstPort: f.Key.SPort,
		Flags: packet.FlagACK, Window: 0, Options: opt[:],
	}, 0)
	return fb
}

// processUDPFeedback runs the virtual congestion control over tunnel
// feedback and drains the tunnel queue into the opened window.
func (v *VSwitch) processUDPFeedback(f *Flow, info packet.PACKInfo) {
	f.mu.Lock()
	f.lastActive = v.Sim.Now()
	totalDelta := info.TotalBytes - f.lastTotal
	markedDelta := info.MarkedBytes - f.lastMarked
	f.lastTotal = info.TotalBytes
	f.lastMarked = info.MarkedBytes
	f.windowTotal += totalDelta
	f.windowMarked += markedDelta

	f.SndUna += int64(totalDelta)
	if f.SndUna > f.SndNxt {
		f.SndUna = f.SndNxt
	}
	if f.inactivity != nil {
		f.inactivity.Reset(v.Cfg.VTimeout)
	}

	if f.SndUna >= f.alphaSeq {
		var frac float64
		if f.windowTotal > 0 {
			frac = float64(f.windowMarked) / float64(f.windowTotal)
			if frac > 1 { // corrupt feedback: marked can't exceed total
				frac = 1
			}
		}
		f.Alpha = (1-v.Cfg.G)*f.Alpha + v.Cfg.G*frac
		f.windowTotal, f.windowMarked = 0, 0
		f.alphaSeq = f.SndNxt
		h := v.Metrics.hists[f.vcc]
		h.cwnd.Observe(f.CwndBytes)
		h.alpha.Observe(f.Alpha)
	}

	cwndLimited := float64(f.maxInflight) >= f.CwndBytes-float64(f.MSS)
	f.maxInflight = f.SndNxt - f.SndUna
	if markedDelta > 0 {
		v.cutWindow(f, f.SndUna, false) // once per window (guarded)
		if totalDelta > 0 && cwndLimited {
			f.law().OnAck(f, int64(totalDelta)) // keep growing between cuts
		}
	} else if totalDelta > 0 && cwndLimited {
		f.law().OnAck(f, int64(totalDelta))
	}
	v.clampFlow(f)
	out := v.drainTunnelLocked(f)
	f.mu.Unlock()
	for _, q := range out {
		v.Host.InjectToWire(q)
	}
}

// drainTunnelLocked releases queued datagrams into the opened window.
func (v *VSwitch) drainTunnelLocked(f *Flow) []*packet.Packet {
	var out []*packet.Packet
	tn := f.tunnel()
	for len(tn.tq) > 0 {
		p := tn.tq[0]
		size := int64(p.IPLen())
		if f.SndNxt-f.SndUna+size > int64(f.CwndBytes) {
			break
		}
		tn.tq = tn.tq[1:]
		tn.tqBytes -= int(size)
		f.SndNxt += size
		if infl := f.SndNxt - f.SndUna; infl > f.maxInflight {
			f.maxInflight = infl
		}
		if v.Cfg.MarkECT && p.IP().ECN() == packet.NotECT {
			p.IP().SetECN(packet.ECT0)
		}
		out = append(out, p)
	}
	return out
}

// onUDPTimeout handles feedback silence: assume everything outstanding was
// lost (or the receiver vanished), collapse the window, restart.
func (v *VSwitch) onUDPTimeout(f *Flow) {
	f.mu.Lock()
	if f.SndUna >= f.SndNxt && len(f.tunnel().tq) == 0 {
		f.mu.Unlock()
		return
	}
	v.Metrics.VTimeouts.Inc()
	f.VTimeouts++
	f.Alpha = v.Cfg.MaxAlpha
	f.law().OnTimeout(f)
	v.clampFlow(f)
	f.SndUna = f.SndNxt // write off outstanding bytes
	out := v.drainTunnelLocked(f)
	f.inactivity.Reset(v.Cfg.VTimeout)
	f.mu.Unlock()
	for _, q := range out {
		v.Host.InjectToWire(q)
	}
}
