package tcpstack

import (
	"acdc/internal/cc"
	"acdc/internal/packet"
	"acdc/internal/sim"
)

// ccCtx aliases cc.Ctx for the once-per-RTT boundary interface below.
type ccCtx = cc.Ctx

// processAck handles the acknowledgement portion of an incoming segment.
func (c *Conn) processAck(p *packet.Packet, t packet.TCP) {
	absAck := c.absAckFromPeer(t.Ack())
	if absAck > c.sndNxt {
		absAck = c.sndNxt // ack of data we never sent; clamp
	}
	// Window update (simplified SND.WL: any ACK at or above snd_una).
	wndBefore := c.sndWnd
	if absAck >= c.sndWL && absAck >= c.sndUna {
		c.sndWnd = int64(t.Window()) << c.peerWScale
		c.sndWL = absAck
		if c.sndWnd > 0 {
			c.persistTimer.Stop()
		}
	}
	ece := t.HasFlags(packet.FlagECE) && c.ecnOK
	newSack := c.processSACK(t)

	acked := absAck - c.sndUna
	switch {
	case acked > 0:
		c.ackAdvance(absAck, acked, ece)
	case acked == 0 && p.PayloadLen() == 0 && t.Flags()&(packet.FlagSYN|packet.FlagFIN) == 0 &&
		c.sndNxt > c.sndUna && absAck == c.sndUna && (c.sndWnd == wndBefore || newSack):
		// RFC 5681 duplicate ACK: no data, no SYN/FIN, nothing acked, data
		// outstanding, and no window update (AC/DC's RWND rewrites make the
		// window-update exclusion matter) — unless the ACK carries new SACK
		// information, which always counts.
		c.dupAck()
	}
	c.maybeAdvanceClose()
	c.output()
}

func (c *Conn) ackAdvance(absAck, acked int64, ece bool) {
	c.sndUna = absAck
	c.sacked = trimBelow(c.sacked, c.sndUna)
	if c.rtxNext < c.sndUna {
		c.rtxNext = c.sndUna
	}
	c.AckedBytes = absAck - 1
	if c.AckedBytes > c.appEnd {
		c.AckedBytes = c.appEnd
	}
	c.dupAcks = 0

	// RTT sampling with Karn's rule: only when nothing was retransmitted
	// since the probe segment was sent.
	if c.probeEnd > 0 && absAck >= c.probeEnd {
		if !c.retransSinceProbe {
			c.rttSample(int64(c.stack.Sim.Now() - c.probeStart))
		}
		c.probeEnd = 0
	}

	c.alg.AckedWithECN(&c.ctx, int(acked), ece)

	if ece && !c.inCWR && !c.inRecovery {
		c.enterCWR()
	}

	if c.inRecovery {
		if absAck >= c.recoverAt {
			// Full ACK: recovery complete, deflate to ssthresh.
			c.inRecovery = false
			c.ctx.Cwnd = c.ctx.Ssthresh
		} else {
			// Partial ACK: the next hole is lost too. With SACK the hole is
			// located from the scoreboard; NewReno assumes it is snd_una.
			if !c.sackOK || !c.retransmitNextHole() {
				c.retransmitOne(c.sndUna)
			}
			c.ctx.Cwnd -= float64(acked) / float64(c.ctx.MSS)
			c.ctx.Cwnd++ // partial-ACK re-inflation
		}
	} else if !c.inCWR {
		c.alg.CongAvoid(&c.ctx, int(acked))
	}

	// Once-per-RTT boundary: DCTCP α folding, Vegas/Illinois updates.
	if absAck >= c.ceWindowEnd {
		c.callWindowBoundary()
		c.ceWindowEnd = c.sndNxt
	}
	if c.inCWR && absAck >= c.highSeq {
		c.inCWR = false
	}
	c.ctx.ClampCwnd(minCwnd)

	// RTO management: restart while data is outstanding.
	if c.sndUna < c.sndNxt || (c.finQueued && !c.finAcked() && c.sndNxt > c.finAbs()) {
		c.backoff = 0
		c.rtoTimer.Reset(c.currentRTO())
	} else {
		c.rtoTimer.Stop()
		c.backoff = 0
	}
}

func (c *Conn) dupAck() {
	c.dupAcks++
	if c.dupAcks == 3 && !c.inRecovery {
		c.enterFastRecovery()
	} else if c.inRecovery {
		// Each dupack signals one packet left the network, buying one
		// transmission: with SACK that goes to the next hole repair first;
		// only when no hole remains does the window inflate so output can
		// send new data (NewReno always inflates).
		if c.sackOK {
			if !c.retransmitNextHole() {
				c.ctx.Cwnd++
			}
		} else {
			c.ctx.Cwnd++
		}
	}
}

func (c *Conn) enterCWR() {
	c.ctx.Ssthresh = c.alg.SsthreshOnLoss(&c.ctx)
	c.ctx.Cwnd = c.ctx.Ssthresh
	c.ctx.ClampCwnd(minCwnd)
	c.inCWR = true
	c.highSeq = c.sndNxt
	c.sendCWR = true
}

func (c *Conn) enterFastRecovery() {
	c.FastRecoveries++
	c.ctx.Ssthresh = c.alg.SsthreshOnLoss(&c.ctx)
	c.ctx.Cwnd = c.ctx.Ssthresh + 3
	c.ctx.ClampCwnd(minCwnd)
	c.inRecovery = true
	c.recoverAt = c.sndNxt
	c.rtxNext = c.sndUna
	if !c.sackOK || !c.retransmitNextHole() {
		c.retransmitOne(c.sndUna)
	}
}

func (c *Conn) callWindowBoundary() {
	type boundary interface{ WindowBoundary(*ccCtx) }
	if b, ok := c.alg.(boundary); ok {
		b.WindowBoundary(&c.ctx)
	}
}

// rttSample folds one RTT measurement into SRTT/RTTVAR (RFC 6298).
func (c *Conn) rttSample(ns int64) {
	if ns <= 0 {
		ns = 1
	}
	if c.srtt == 0 {
		c.srtt = ns
		c.rttvar = ns / 2
	} else {
		d := c.srtt - ns
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + ns) / 8
	}
	c.ctx.SRTT = c.srtt
	if c.ctx.MinRTT == 0 || ns < c.ctx.MinRTT {
		c.ctx.MinRTT = ns
	}
	c.alg.PktsAcked(&c.ctx, ns)
	if c.OnRTTSample != nil {
		c.OnRTTSample(ns)
	}
}

// currentRTO computes the backed-off RTO with the configured floor.
func (c *Conn) currentRTO() sim.Duration {
	var base sim.Duration
	if c.srtt == 0 {
		base = rtoInit
	} else {
		base = sim.Duration(c.srtt + 4*c.rttvar)
	}
	if base < c.stack.Cfg.RTOMin {
		base = c.stack.Cfg.RTOMin
	}
	rto := base << uint(c.backoff)
	if rto > 4*sim.Second {
		rto = 4 * sim.Second
	}
	return rto
}

// onRTO fires on retransmission timeout.
func (c *Conn) onRTO() {
	c.ctx.Now = int64(c.stack.Sim.Now())
	switch c.state {
	case StateSynSent:
		c.backoff++
		c.Timeouts++
		c.sendSYNRetrans()
		return
	case StateSynRcvd:
		c.backoff++
		c.Timeouts++
		c.resendSynAck()
		return
	case StateClosed:
		return
	}
	if c.sndUna >= c.sndNxt {
		return // nothing outstanding
	}
	c.Timeouts++
	c.ctx.Ssthresh = c.alg.SsthreshOnLoss(&c.ctx)
	c.ctx.Cwnd = 1
	c.ctx.ClampCwnd(1)
	c.alg.OnRTO(&c.ctx)
	c.inRecovery = false
	c.inCWR = false
	c.dupAcks = 0
	c.sacked = c.sacked[:0]
	c.rtxNext = 0
	// Go-back-N: rewind and retransmit from snd_una.
	c.sndNxt = c.sndUna
	c.probeEnd = 0
	c.backoff++
	c.output()
	c.rtoTimer.Reset(c.currentRTO())
}

func (c *Conn) sendSYNRetrans() {
	flags := packet.FlagSYN
	if c.stack.Cfg.ECN != ECNOff {
		flags |= packet.FlagECE | packet.FlagCWR
	}
	c.RetransSegs++
	c.transmit(packet.TCPFields{
		SrcPort: c.key.localPort(), DstPort: c.key.remotePort(),
		Seq: c.iss, Flags: flags, Window: 65535,
		Options: c.synOptions(c.stack.Cfg.SACK),
	}, 0, packet.NotECT)
	c.rtoTimer.Reset(c.currentRTO())
}

func (c *Conn) resendSynAck() {
	flags := packet.FlagSYN | packet.FlagACK
	if c.ecnOK {
		flags |= packet.FlagECE
	}
	c.RetransSegs++
	c.transmit(packet.TCPFields{
		SrcPort: c.key.localPort(), DstPort: c.key.remotePort(),
		Seq: c.iss, Ack: c.wireAck(c.rcvNxt), Flags: flags, Window: 65535,
		Options: c.synOptions(c.sackOK),
	}, 0, packet.NotECT)
	c.rtoTimer.Reset(c.currentRTO())
}

// onPersist probes a zero window.
func (c *Conn) onPersist() {
	if c.sndWnd > 0 || c.state == StateClosed {
		return
	}
	if c.sndNxt <= c.appEnd { // unsent data pending
		c.sendSegment(c.sndNxt, 1, false)
	} else {
		// Re-probe with a pure ACK.
		c.sendAck()
	}
	c.persistTimer.Reset(c.currentRTO())
}

// output transmits as much as the congestion and flow-control windows allow.
// Reentrant calls (e.g. a synchronous egress drop refunding TSQ budget from
// inside transmit) are flattened into iterations of the outer call.
func (c *Conn) output() {
	if c.inOutput {
		c.outputAgain = true
		return
	}
	c.inOutput = true
	st := c.stack
	if st.burstDepth == len(st.bursts) {
		st.bursts = append(st.bursts, make([]*packet.Packet, 0, txBurstCap))
	}
	st.burstDepth++ // this call's segments collect in st.bursts[st.burstDepth-1]
	defer func() {
		st.burstDepth--
		c.inOutput = false
	}()
	for {
		c.outputAgain = false
		c.bursting = true
		c.outputLoop()
		c.bursting = false
		st.flushBurst()
		if !c.outputAgain {
			return
		}
	}
}

// txBurstCap bounds how many segments accumulate before a flush, and so how
// far the stack builds ahead of its vSwitch and NIC. It is part of the
// ordering the burst buffer fixes (Conn.bursting): changing it is a re-bless.
const txBurstCap = 64

// flushBurst hands the segments accumulated by the innermost output call to
// the host's egress path one at a time, in order. Re-entrant output triggered
// by a send (synchronous egress drop or NIC rejection crediting TSQ) is
// flattened into the caller's loop by the inOutput guard when it is the same
// connection's, and collects one level deeper in st.bursts when it is
// another's, so a burst is never appended to while it is being flushed.
func (st *Stack) flushBurst() {
	d := st.burstDepth - 1
	for _, p := range st.bursts[d] {
		st.Host.Output(p)
	}
	// A nested output may have grown st.bursts: index again, hold no pointer.
	clear(st.bursts[d])
	st.bursts[d] = st.bursts[d][:0]
}

func (c *Conn) outputLoop() {
	if c.state == StateClosed || c.state == StateSynSent || c.state == StateSynRcvd {
		return
	}
	dataEnd := 1 + c.appEnd
	for {
		wnd := c.CwndBytes()
		if !c.stack.Cfg.IgnoreRwnd && c.sndWnd < wnd {
			wnd = c.sndWnd
		}
		usable := c.sndUna + wnd - c.sndNxt
		if c.sndNxt < dataEnd {
			// TSQ: don't queue more than tsqLimit into the NIC; resume on
			// tx completion.
			if c.nicQueued >= tsqLimit {
				return
			}
			// Unsent payload remains.
			if usable <= 0 {
				if c.sndWnd == 0 && c.sndUna == c.sndNxt {
					c.persistTimer.ArmIfIdle(c.currentRTO())
				}
				return
			}
			segLen := int64(c.ctx.MSS)
			if r := dataEnd - c.sndNxt; r < segLen {
				segLen = r
			}
			if usable < segLen {
				segLen = usable
			}
			fin := c.finQueued && c.sndNxt+segLen == dataEnd
			c.sendSegment(c.sndNxt, segLen, fin)
			c.sndNxt += segLen
			if fin {
				c.sndNxt++
			}
			continue
		}
		// Payload all sent; maybe a lone FIN remains.
		if c.finQueued && c.sndNxt == dataEnd {
			c.sendSegment(c.sndNxt, 0, true)
			c.sndNxt++
			continue
		}
		return
	}
}

// retransmitOne resends the segment starting at abs.
func (c *Conn) retransmitOne(abs int64) {
	dataEnd := 1 + c.appEnd
	segLen := int64(c.ctx.MSS)
	if r := dataEnd - abs; r < segLen {
		segLen = r
	}
	if segLen < 0 {
		segLen = 0
	}
	fin := c.finQueued && abs+segLen == dataEnd
	if segLen == 0 && !fin {
		return
	}
	c.RetransSegs++
	c.retransSinceProbe = true
	c.sendSegment(abs, segLen, fin)
	c.rtoTimer.Reset(c.currentRTO())
}

// sendSegment builds and transmits one data/FIN segment at absolute offset
// abs. It also carries the current ACK state (TCP segments always do).
func (c *Conn) sendSegment(abs, segLen int64, fin bool) {
	flags := packet.FlagACK
	if fin {
		flags |= packet.FlagFIN
	}
	if segLen > 0 {
		flags |= packet.FlagPSH
	}
	if c.echoECE() {
		flags |= packet.FlagECE
	}
	if c.sendCWR && segLen > 0 {
		flags |= packet.FlagCWR
		c.sendCWR = false
	}
	ecn := packet.NotECT
	if c.ecnOK && segLen > 0 {
		ecn = packet.ECT0
	}
	c.transmit(packet.TCPFields{
		SrcPort: c.key.localPort(), DstPort: c.key.remotePort(),
		Seq: c.wireSeq(abs), Ack: c.wireAck(c.rcvNxt),
		Flags: flags, Window: c.advWindow(),
		Options: packet.EncodeSACK(c.stack.optScratch[:0], c.sackBlocks()),
	}, int(segLen), ecn)
	c.ackSent()

	// Arm the RTT probe on fresh (non-retransmitted) data.
	if c.probeEnd == 0 && abs+segLen > c.probeEnd && abs >= c.sndNxt {
		c.probeStart = c.stack.Sim.Now()
		c.probeEnd = abs + segLen
		if fin {
			c.probeEnd++
		}
		c.retransSinceProbe = false
	}
	c.rtoTimer.ArmIfIdle(c.currentRTO())
}

// wireECN is the codepoint a segment that asks for ecn leaves with. Linux's
// DCTCP (tcp_ca_needs_ecn) marks every packet ECN-capable — SYNs and pure
// ACKs included — so WRED marks them instead of dropping.
func (c *Conn) wireECN(ecn packet.ECN) packet.ECN {
	if c.stack.Cfg.ECN == ECNDCTCP {
		return packet.ECT0
	}
	return ecn
}

// transmit finalizes a packet and hands it to the host's egress path.
func (c *Conn) transmit(f packet.TCPFields, payloadLen int, ecn packet.ECN) {
	p := packet.BuildIn(c.stack.Host.Pool, c.stack.Host.Addr, c.key.remoteAddr(), c.wireECN(ecn), f, payloadLen)
	p.FlowTag = c.FlowTag
	c.SentSegs++
	c.nicQueued += int64(p.IPLen())
	if c.bursting {
		st := c.stack
		d := st.burstDepth - 1
		st.bursts[d] = append(st.bursts[d], p)
		if len(st.bursts[d]) >= txBurstCap {
			// Mid-loop flush: bursting stays set; this connection's transmit
			// is never reached re-entrantly (the inOutput guard flattens
			// nested output calls), so the buffer is safe to drain and reuse.
			st.flushBurst()
		}
		return
	}
	c.stack.Host.Output(p)
}

// txCompleted credits TSQ budget when a packet of ours leaves the host
// (serialized or dropped) and resumes output if it was TSQ-throttled.
func (c *Conn) txCompleted(n int64) {
	throttled := c.nicQueued >= tsqLimit
	c.nicQueued -= n
	if c.nicQueued < 0 {
		c.nicQueued = 0
	}
	if throttled && c.nicQueued < tsqLimit && c.state != StateClosed {
		c.output()
	}
}
