package tcpstack

import (
	"acdc/internal/packet"
)

// processData handles the payload and FIN portion of an incoming segment.
func (c *Conn) processData(p *packet.Packet, t packet.TCP) {
	absSeq := c.absSeqFromPeer(t.Seq())
	plen := int64(p.PayloadLen())
	end := absSeq + plen
	ce := p.IP().ECN() == packet.CE

	immediate := false

	// ECN receiver accounting (only for payload-bearing segments).
	if plen > 0 && c.ecnOK {
		switch c.stack.Cfg.ECN {
		case ECNDCTCP:
			if ce {
				c.ceAccum = true
			}
			if ce != c.lastCE {
				// DCTCP state-change rule: ACK immediately so the sender's
				// marking-fraction estimate stays accurate.
				c.lastCE = ce
				immediate = true
			}
		case ECNRFC3168:
			if ce {
				c.eceLatch = true
			}
		}
	}
	if t.HasFlags(packet.FlagCWR) {
		c.eceLatch = false
	}

	if plen > 0 {
		switch {
		case end <= c.rcvNxt:
			// Stale duplicate: re-ACK immediately.
			immediate = true
		case absSeq > c.rcvNxt:
			// Out of order: buffer and send a duplicate ACK.
			c.addOOO(absSeq, end)
			immediate = true
		default:
			delivered := end - c.rcvNxt
			c.rcvNxt = end
			delivered += c.drainOOO()
			c.Delivered += delivered
			if c.OnRecv != nil {
				c.OnRecv(int(delivered))
			}
			c.delAcked++
			if c.delAcked >= delAckSegs {
				immediate = true
			}
		}
	}

	// FIN handling: it occupies the sequence slot after the payload, and is
	// consumed once everything before it has arrived — on its own segment,
	// or on the one that fills the last hole ahead of a FIN recorded early.
	if t.HasFlags(packet.FlagFIN) {
		if c.finRcvd < 0 {
			c.finRcvd = end
		}
		if end < c.rcvNxt {
			immediate = true // duplicate FIN
		}
	}
	if c.finRcvd == c.rcvNxt { // rcvNxt ≥ 1, so never while finRcvd is -1
		c.rcvNxt++
		immediate = true
		c.peerClosed()
	}

	if immediate {
		c.sendAck()
	} else if plen > 0 {
		c.delackTimer.ArmIfIdle(delAckDelay)
	}
}

func (c *Conn) peerClosed() {
	switch c.state {
	case StateEstablished:
		c.state = StateCloseWait
	case StateFinWait1:
		if c.finAcked() {
			c.enterTimeWait()
		} else {
			c.state = StateClosing
		}
	case StateFinWait2:
		c.enterTimeWait()
	}
	if c.OnPeerClose != nil {
		c.OnPeerClose()
	}
}

// addOOO inserts [start, end) into the out-of-order buffer, merging
// overlaps, and remembers the island for the first SACK block.
func (c *Conn) addOOO(start, end int64) {
	c.ooo = insertRange(c.ooo, seqRange{start, end})
	// The first SACK block must describe the island containing the segment
	// that just arrived (RFC 2018 §4).
	c.lastOOO = seqRange{start, end}
	for _, r := range c.ooo {
		if r.start <= start && end <= r.end {
			c.lastOOO = r
			break
		}
	}
}

// drainOOO advances rcvNxt through any now-contiguous buffered ranges and
// returns the bytes freed.
func (c *Conn) drainOOO() int64 {
	var freed int64
	for len(c.ooo) > 0 && c.ooo[0].start <= c.rcvNxt {
		r := c.ooo[0]
		if r.end > c.rcvNxt {
			freed += r.end - c.rcvNxt
			c.rcvNxt = r.end
		}
		c.ooo = c.ooo[1:]
	}
	if len(c.ooo) == 0 {
		c.lastOOO = seqRange{}
	}
	return freed
}

// echoECE reports whether outgoing segments should carry ECE right now.
func (c *Conn) echoECE() bool {
	if !c.ecnOK {
		return false
	}
	switch c.stack.Cfg.ECN {
	case ECNDCTCP:
		return c.ceAccum
	case ECNRFC3168:
		return c.eceLatch
	}
	return false
}

// advWindow computes the receive window field to advertise. Applications in
// this simulator consume instantly, so the window is the full buffer scaled
// down; it still exercises the RWND path AC/DC rewrites.
func (c *Conn) advWindow() uint16 {
	w := c.stack.Cfg.RcvBuf >> wscale
	if w > 65535 {
		w = 65535
	}
	return uint16(w)
}

// sendAck emits a pure ACK reflecting the receiver state.
func (c *Conn) sendAck() {
	if c.state == StateClosed || c.state == StateSynSent {
		return
	}
	f := c.ackFields()
	f.Options = packet.EncodeSACK(c.stack.optScratch[:0], c.sackBlocks())
	c.transmit(f, 0, packet.NotECT)
	c.ackSent()
}

// ackFields is the header of a pure ACK reflecting the receiver state, SACK
// blocks aside. It is also the final ACK a TIME_WAIT record keeps.
func (c *Conn) ackFields() packet.TCPFields {
	flags := packet.FlagACK
	if c.echoECE() {
		flags |= packet.FlagECE
	}
	return packet.TCPFields{
		SrcPort: c.key.localPort(), DstPort: c.key.remotePort(),
		Seq: c.wireSeq(c.sndNxt), Ack: c.wireAck(c.rcvNxt),
		Flags: flags, Window: c.advWindow(),
	}
}

// ackSent resets delayed-ACK state after any segment carrying an ACK.
func (c *Conn) ackSent() {
	c.delAcked = 0
	c.delackTimer.Stop()
	if c.stack.Cfg.ECN == ECNDCTCP {
		// The echo for accumulated CEs has been delivered.
		c.ceAccum = c.lastCE
	}
}

// onDelAck fires when the delayed-ACK timer expires.
func (c *Conn) onDelAck() {
	if c.delAcked > 0 || c.ceAccum || c.eceLatch {
		c.sendAck()
	}
}
