package core

import (
	"acdc/internal/packet"
	"acdc/internal/sim"
)

// pktClass is the fast-path disposition decided by one header parse.
type pktClass uint8

const (
	classBadIP   pktClass = iota // invalid IPv4: fail open
	classUDP                     // UDP with the tunnel enabled
	classPass                    // non-TCP passthrough
	classBadTCP                  // invalid TCP header or total length: fail open
	classBadOpts                 // damaged option block: fail open
	classTCP                     // full TCP processing
)

// pktMeta is the per-packet parse result: headers are validated and the flow
// key extracted exactly once, then egressRun/ingressRun branch on the class
// without re-parsing.
type pktMeta struct {
	class         pktClass
	syn, ack, fin bool
	plen          int64
	iplen         int64
	key           FlowKey
}

// classify parses p once into m. It is side-effect free: the class-specific
// metric increments stay in egressRun/ingressRun.
func classify(p *packet.Packet, udpTunnel bool, m *pktMeta) {
	ip := p.IP()
	if !ip.Valid() {
		m.class = classBadIP
		return
	}
	m.iplen = int64(p.IPLen())
	proto := ip.Protocol()
	if proto != packet.ProtoTCP {
		if proto == packet.ProtoUDP && udpTunnel {
			m.class = classUDP
		} else {
			m.class = classPass
		}
		return
	}
	t := ip.TCP()
	// A total length below the headers claims a negative payload: a lying
	// header, refused like a short one (the packet editors refuse it too).
	if !t.Valid() || int(ip.TotalLen()) < ip.HeaderLen()+t.HeaderLen() {
		m.class = classBadTCP
		return
	}
	if !packet.OptionsWellFormed(t.Options()) {
		m.class = classBadOpts
		return
	}
	m.class = classTCP
	m.key = FlowKey{Src: ip.Src(), Dst: ip.Dst(), SPort: t.SrcPort(), DPort: t.DstPort()}
	fl := t.Flags()
	m.syn = fl&packet.FlagSYN != 0
	m.ack = fl&packet.FlagACK != 0
	m.fin = fl&packet.FlagFIN != 0
	m.plen = int64(p.PayloadLen())
}

// EgressPath is the vSwitch hook for packets leaving the guest stack (§4's
// ovs_dp_process_packet on the transmit side). With an auditor attached it
// brackets the traversal with a pre-capture and a PacketEvent; a nil auditor
// costs one branch.
func (v *VSwitch) EgressPath(p *packet.Packet) (*packet.Packet, *packet.Packet) {
	if v.Audit == nil {
		return v.egressPath(p)
	}
	pre := v.CapturePre(p)
	out, extra := v.egressPath(p)
	v.Audit.PacketEvent(v, AuditEgress, pre, out, extra, out == p)
	return out, extra
}

func (v *VSwitch) egressPath(p *packet.Packet) (*packet.Packet, *packet.Packet) {
	v.Metrics.EgressSegs.Inc()
	v.maybeSweep()
	var m pktMeta
	classify(p, v.Cfg.UDPTunnel, &m)
	return v.egressRun(p, &m)
}

// lookup resolves the flow for k on the datapath. When the caller already
// holds other, the flow for k's reverse direction, the answer comes through
// its link (Table.reverseOf) instead of a second probe of the table;
// otherwise the table is probed. Both give what Table.Get(k) would. Every
// caller got other from a probe or create of this packet with no create
// (which may evict) since, so other is in the table, as reverseOf requires.
func (v *VSwitch) lookup(other *Flow, k FlowKey) *Flow {
	if other != nil {
		return v.Table.reverseOf(other)
	}
	return v.Table.Get(k)
}

// egressRun is the egress datapath body: one table probe for m.key, the
// reverse direction through that flow's link (lookup).
func (v *VSwitch) egressRun(p *packet.Packet, m *pktMeta) (*packet.Packet, *packet.Packet) {
	// Byte accounting for every class but bad-IP.
	if m.class != classBadIP {
		v.Metrics.EgressBytes.Add(m.iplen)
	}
	switch m.class {
	case classBadIP:
		v.Metrics.FailOpen.Inc()
		return p, nil
	case classUDP:
		return v.udpEgress(p)
	case classPass:
		return p, nil
	case classBadTCP:
		v.Metrics.FailOpen.Inc()
		return p, nil
	case classBadOpts:
		// Damaged option block: acting on a partial parse could corrupt flow
		// state, so the segment passes through untouched.
		v.Metrics.MalformedOptions.Inc()
		v.Metrics.FailOpen.Inc()
		return p, nil
	}
	t := p.IP().TCP()
	out := p

	// --- sender module: track our data direction ---
	var fwd *Flow
	if m.syn || m.plen > 0 || m.fin {
		fwd = v.flowFor(m.key, true)
	} else {
		fwd = v.Table.Get(m.key)
	}
	if fwd != nil {
		if dropped := v.senderEgress(fwd, t, m.syn, m.plen); dropped {
			return nil, nil
		}
	}

	// --- receiver module: piggyback feedback on ACKs of the reverse flow ---
	var extra *packet.Packet
	if m.ack && !m.syn {
		if rev := v.lookup(fwd, m.key.Reverse()); rev != nil {
			out, extra = v.attachFeedback(rev, out)
		}
	}

	// Mark everything ECN-capable so switches mark instead of dropping.
	if v.Cfg.MarkECT {
		oip := out.IP()
		if oip.ECN() == packet.NotECT {
			oip.SetECN(packet.ECT0)
			v.Metrics.ECTMarks.Inc()
		}
	}
	if extra != nil && v.Cfg.MarkECT {
		eip := extra.IP()
		if eip.ECN() == packet.NotECT {
			eip.SetECN(packet.ECT0)
			v.Metrics.ECTMarks.Inc()
		}
	}
	return out, extra
}

// senderEgress updates connection-tracking state for outgoing segments and
// applies policing. It reports whether the packet was dropped.
func (v *VSwitch) senderEgress(f *Flow, t packet.TCP, syn bool, plen int64) bool {
	f.lastActive = v.Sim.Now()
	b := v.ownSender(f)

	if syn {
		f.iss = t.Seq()
		b.issValid = true
		b.SndUna, b.SndNxt = 1, 1
		b.alphaSeq, b.cutSeq = 1, 0
		f.synSeen = true
		so := packet.ParseSynOptions(t.Options())
		if so.MSS > 0 && int32(so.MSS) < b.MSS {
			b.MSS = int32(so.MSS)
			b.CwndBytes = initCwndPkts * float64(b.MSS)
		}
		ecnIntent := t.Flags()&(packet.FlagECE|packet.FlagCWR) != 0
		if t.HasFlags(packet.FlagACK) {
			// SYN-ACK (we are the data receiver becoming a sender too):
			// negotiation outcome is "accepted" iff ECE set here.
			f.GuestECN = t.HasFlags(packet.FlagECE)
			f.synAckSeen = true
		} else {
			f.GuestECN = ecnIntent
		}
		return false
	}

	if !b.issValid {
		// Adopted mid-stream (no handshake observed — vSwitch attached or
		// restarted under a live connection): anchor absolute space at this
		// segment and enter the conservative resync mode — the window scale
		// and feedback baseline are unknown, so enforcement and policing
		// stay off until one clean feedback round completes (resync.go).
		f.iss = t.Seq()
		b.issValid = true
		b.SndUna, b.SndNxt = 0, 0
		b.alphaSeq, b.cutSeq = 0, 0
		f.enterResyncLocked()
		v.Metrics.FlowsAdoptedMidstream.Inc()
	}

	if plen > 0 || t.HasFlags(packet.FlagFIN) {
		absSeq := f.absSeq(t.Seq(), b.SndNxt)
		segEnd := absSeq + plen
		if t.HasFlags(packet.FlagFIN) {
			segEnd++
			v.closeLocked(f)
		}

		// Policing trusts the tracked window; a resyncing flow's window is
		// exactly what cannot be trusted yet, so policing waits with it. A
		// Policy.Disable flow is exempt from enforcement, so dropping its
		// beyond-window segments would be exactly the harm it opted out of.
		if b.resync == resyncNone && !f.Policy.Disable && v.policeLocked(f, segEnd, plen) {
			return true
		}

		if segEnd > b.SndNxt {
			b.SndNxt = segEnd
		}
		if infl := b.SndNxt - b.SndUna; infl > b.maxInflight {
			b.maxInflight = infl
		}
		// Arm the inactivity timer while data is outstanding.
		v.armVTimeout(f)
	}
	return false
}

// policeLocked is §3.3 policing: it reports whether a data segment ending at
// segEnd lies beyond the allowed window plus two MSS of slack and must be
// dropped. The pre-cut window is still honored, so a guest draining its old
// window is not punished for the cut.
func (v *VSwitch) policeLocked(f *Flow, segEnd, plen int64) bool {
	if !v.Cfg.Police || plen <= 0 {
		return false
	}
	allowance := f.CwndBytes
	if f.prevCwndBytes > allowance {
		allowance = f.prevCwndBytes
	}
	slack := 2 * int64(f.MSS)
	if segEnd-f.SndUna <= int64(allowance)+slack {
		return false
	}
	v.Metrics.PolicingDrops.Inc()
	if a := v.Audit; a != nil {
		a.PoliceEvent(v, PoliceEvent{Key: f.Key,
			SegEnd: segEnd, SndUna: f.SndUna,
			Enforced: f.enforcedWindow(v.minRwnd(f)), Slack: slack,
			Resyncing: f.resync != resyncNone, Dropped: true})
	}
	return true
}

// armVTimeout (re)arms f's inactivity deadline vTimeout from now.
func (v *VSwitch) armVTimeout(f *Flow) {
	if v.vtimeouts == nil {
		v.vtimeouts = sim.NewDeadlines(v.Sim, v.onInactive, func(f *Flow) *sim.Deadline { return &f.vtimeout })
	}
	f.vtArmed = true
	v.vtimeouts.Reset(f, vTimeout)
}

// onInactive is the expiry of a flow's inactivity deadline; the flow's kind
// picks the timeout.
func (v *VSwitch) onInactive(f *Flow) {
	if f.isUDP {
		v.onUDPTimeout(f)
	} else {
		v.onVTimeout(f)
	}
}

// attachFeedback implements the receiver module's PACK/FACK emission: the
// running totals ride a TCP option on the real ACK, or a dedicated FACK when
// they do not fit (or when PACK is disabled for ablation).
func (v *VSwitch) attachFeedback(rev *Flow, ack *packet.Packet) (out, extra *packet.Packet) {
	info := packet.PACKInfo{TotalBytes: rev.TotalBytes, MarkedBytes: rev.MarkedBytes}
	rev.lastActive = v.Sim.Now()
	if info.TotalBytes == 0 && info.MarkedBytes == 0 {
		return ack, nil
	}

	if !v.Cfg.DisablePACK {
		var opt [packet.PACKOptionLen]byte
		packet.EncodePACK(opt[:], info)
		if packet.InsertTCPOptionInPlace(ack, opt[:]) {
			v.Metrics.PacksAttached.Inc()
			return ack, nil
		}
	}

	// FACK fallback: a separate pure ACK carrying the feedback, consumed by
	// the peer's sender module.
	v.Metrics.FacksSent.Inc()
	t := ack.TCP()
	ip := ack.IP()
	fack := packet.BuildFACKIn(v.pool(), ip.Src(), ip.Dst(), packet.NotECT, packet.TCPFields{
		SrcPort: t.SrcPort(), DstPort: t.DstPort(),
		Seq: t.Seq(), Ack: t.Ack(), Window: t.Window(),
	}, info)
	fack.FlowTag = ack.FlowTag
	return ack, fack
}

// IngressPath is the vSwitch hook for packets arriving from the network.
// Audit bracketing mirrors EgressPath.
func (v *VSwitch) IngressPath(p *packet.Packet) (*packet.Packet, *packet.Packet) {
	if v.Audit == nil {
		return v.ingressPath(p)
	}
	pre := v.CapturePre(p)
	out, extra := v.ingressPath(p)
	v.Audit.PacketEvent(v, AuditIngress, pre, out, extra, out == p)
	return out, extra
}

func (v *VSwitch) ingressPath(p *packet.Packet) (*packet.Packet, *packet.Packet) {
	v.Metrics.IngressSegs.Inc()
	v.maybeSweep()
	var m pktMeta
	classify(p, v.Cfg.UDPTunnel, &m)
	return v.ingressRun(p, &m)
}

// ingressRun is the ingress datapath body; lookups mirror egressRun.
func (v *VSwitch) ingressRun(p *packet.Packet, m *pktMeta) (*packet.Packet, *packet.Packet) {
	// Byte accounting mirrors egressRun.
	if m.class != classBadIP {
		v.Metrics.IngressBytes.Add(m.iplen)
	}
	switch m.class {
	case classBadIP:
		v.Metrics.FailOpen.Inc()
		return p, nil
	case classUDP:
		return v.udpIngress(p)
	case classPass:
		return p, nil
	case classBadTCP:
		v.Metrics.FailOpen.Inc()
		return p, nil
	case classBadOpts:
		v.Metrics.MalformedOptions.Inc()
		v.Metrics.FailOpen.Inc()
		return p, nil
	}
	t := p.IP().TCP()

	// fwdKey (m.key): peer's data direction (we are receiver). revKey: ours.
	revKey := m.key.Reverse()

	if m.syn {
		v.ingressHandshake(p, t, m.key, revKey)
	}

	// --- sender module: ACKs for our data direction ---
	// own is our data direction's flow once this has looked it up; the
	// receiver module below reaches the peer's direction through its link.
	var own *Flow
	if m.ack && !m.syn {
		own = v.Table.Get(revKey)
		f := own
		if info, ok := packet.ParsePACK(packet.FindOption(t.Options(), packet.OptFACK)); ok {
			// Dedicated FACK: consume feedback, drop the packet.
			if f != nil {
				if f.isUDP {
					v.processUDPFeedback(f, info)
				} else {
					v.processFeedbackAndAck(f, p, t, info, true)
				}
			}
			v.Metrics.FacksConsumed.Inc()
			// Consumed: the caller (Host.HandlePacket) recycles the packet.
			return nil, nil
		}
		if f != nil {
			var info packet.PACKInfo
			havePack := false
			if d := packet.FindOption(t.Options(), packet.OptPACK); d != nil {
				if pi, ok := packet.ParsePACK(d); ok {
					info = pi
					havePack = true
					v.Metrics.PacksConsumed.Inc()
				}
			}
			v.processFeedbackAndAck(f, p, t, info, havePack)
			if havePack {
				// Strip the PACK so the guest never sees it. The in-place
				// strip overwrites the option with NOPs (no reallocation);
				// this runs post-wire, so the unchanged length is free.
				packet.StripTCPOptionInPlace(p, packet.OptPACK)
			}
		} else {
			v.Metrics.UntrackedSegs.Inc()
		}
	}

	// --- receiver module: count and strip for the peer's data direction ---
	if m.plen > 0 || m.fin || m.syn {
		f := v.lookup(own, m.key)
		if f == nil && (m.plen > 0 || m.fin) {
			f = v.flowFor(m.key, false)
		}
		if f != nil {
			v.receiverIngress(f, p, t, m.plen)
		}
	} else if v.Cfg.StripECN {
		// Pure ACKs: remove the ECT we (or the peer's AC/DC) set.
		v.stripECN(p, v.lookup(own, m.key))
	}

	return p, nil
}

// ingressHandshake learns window scales and guest ECN negotiation from
// handshake segments passing toward the guest.
func (v *VSwitch) ingressHandshake(p *packet.Packet, t packet.TCP, fwdKey, revKey FlowKey) {
	so := packet.ParseSynOptions(t.Options())
	// The peer's SYN/SYN-ACK announces the scale applied to the RWND fields
	// of the ACKs the peer will send — which our sender module rewrites.
	rev := v.flowFor(revKey, true)
	if rev == nil {
		return
	}
	v.ownSender(rev)
	if so.WScaleOK {
		rev.PeerWScale = so.WScale
		rev.WScaleKnown = true
	}
	if so.MSS > 0 && int32(so.MSS) < rev.MSS {
		rev.MSS = int32(so.MSS)
		if rev.SndNxt <= 1 { // before data: rescale IW
			rev.CwndBytes = initCwndPkts * float64(rev.MSS)
		}
	}
	if t.HasFlags(packet.FlagACK) {
		// SYN-ACK: ECN accepted iff ECE present.
		rev.GuestECN = t.HasFlags(packet.FlagECE)
		rev.synAckSeen = true
	}
	rev.lastActive = v.Sim.Now()

	fwd := v.flowFor(fwdKey, false)
	if fwd == nil {
		return
	}
	if t.HasFlags(packet.FlagACK) {
		fwd.GuestECN = t.HasFlags(packet.FlagECE)
		fwd.synAckSeen = true
	} else {
		fwd.GuestECN = t.Flags()&(packet.FlagECE|packet.FlagCWR) != 0
		fwd.synSeen = true
	}
	fwd.lastActive = v.Sim.Now()
}

// receiverIngress counts feedback totals and restores guest ECN semantics.
func (v *VSwitch) receiverIngress(f *Flow, p *packet.Packet, t packet.TCP, plen int64) {
	f.lastActive = v.Sim.Now()
	if plen > 0 {
		f.TotalBytes += uint32(plen)
		v.Metrics.DataBytes.Add(plen)
		if p.IP().ECN() == packet.CE {
			f.MarkedBytes += uint32(plen)
			v.Metrics.CEBytes.Add(plen)
		}
	}
	if t.HasFlags(packet.FlagFIN) {
		v.closeLocked(f)
	}
	if v.Cfg.StripECN {
		v.stripECN(p, f)
	}
}

// closeLocked records a FIN in f's data direction, whichever side of the
// vSwitch it crossed, on both records of the pair: f.finFwd and the reverse
// record's finRev. It also takes f.finRev from a FIN the reverse record saw
// before f existed, so each record is closed once both FINs have passed and
// both go at the first sweep past GCInterval.
func (v *VSwitch) closeLocked(f *Flow) {
	f.finFwd = true
	if rev := v.lookup(f, f.Key.Reverse()); rev != nil {
		rev.finRev = true
		if rev.finFwd {
			f.finRev = true
		}
	}
}

// stripECN restores the guest's ECN semantics on a packet headed to it: a
// guest that did not negotiate ECN sees no ECN field, and one that did never
// sees CE — its own loop would over-react or double-react, so AC/DC reacts
// instead. f is the flow the packet belongs to, or nil.
func (v *VSwitch) stripECN(p *packet.Packet, f *Flow) {
	guestECN := f != nil && f.GuestECN
	ip := p.IP()
	switch {
	case !guestECN && ip.ECN() != packet.NotECT:
		ip.SetECN(packet.NotECT)
		v.Metrics.ECNStripped.Inc()
	case guestECN && ip.ECN() == packet.CE:
		ip.SetECN(packet.ECT0)
		v.Metrics.ECNStripped.Inc()
	}
}
