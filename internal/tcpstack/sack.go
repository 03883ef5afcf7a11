package tcpstack

import (
	"sort"

	"acdc/internal/packet"
)

// SACK support (RFC 2018 with a simplified RFC 6675 recovery): the receiver
// reports out-of-order islands; the sender keeps a scoreboard and
// retransmits only the holes, which is what keeps burst losses from
// degenerating into timeouts.

// insertRange merges r into the sorted, disjoint range list rs.
func insertRange(rs []seqRange, r seqRange) []seqRange {
	if r.end <= r.start {
		return rs
	}
	rs = append(rs, r)
	sort.Slice(rs, func(i, j int) bool { return rs[i].start < rs[j].start })
	merged := rs[:1]
	for _, x := range rs[1:] {
		last := &merged[len(merged)-1]
		if x.start <= last.end {
			if x.end > last.end {
				last.end = x.end
			}
		} else {
			merged = append(merged, x)
		}
	}
	return merged
}

// trimBelow removes range content below off.
func trimBelow(rs []seqRange, off int64) []seqRange {
	out := rs[:0]
	for _, r := range rs {
		if r.end <= off {
			continue
		}
		if r.start < off {
			r.start = off
		}
		out = append(out, r)
	}
	return out
}

// rangesBytes sums the length of all ranges.
func rangesBytes(rs []seqRange) int64 {
	var n int64
	for _, r := range rs {
		n += r.end - r.start
	}
	return n
}

// sackBlocks builds the receiver's SACK option payload from the OOO buffer:
// the most recently changed island first (RFC 2018 §4), up to 3 blocks.
func (c *Conn) sackBlocks() []packet.SACKBlock {
	if !c.sackOK || len(c.ooo) == 0 {
		return nil
	}
	blocks := c.stack.sackScratch[:0]
	toWire := func(r seqRange) packet.SACKBlock {
		return packet.SACKBlock{Start: c.irs + uint32(r.start), End: c.irs + uint32(r.end)}
	}
	if c.lastOOO.end > c.lastOOO.start {
		blocks = append(blocks, toWire(c.lastOOO))
	}
	for _, r := range c.ooo {
		if len(blocks) >= packet.MaxSACKBlocks {
			break
		}
		if r == c.lastOOO {
			continue
		}
		blocks = append(blocks, toWire(r))
	}
	return blocks
}

// processSACK folds the ACK's SACK blocks into the sender scoreboard and
// reports whether it learned of any newly sacked bytes.
func (c *Conn) processSACK(t packet.TCP) bool {
	if !c.sackOK {
		return false
	}
	data := packet.FindOption(t.Options(), packet.OptSACK)
	if data == nil {
		return false
	}
	before := rangesBytes(c.sacked)
	for _, b := range packet.ParseSACK(data) {
		start := unwrap(b.Start, c.iss, c.sndUna)
		end := unwrap(b.End, c.iss, start)
		if start < c.sndUna {
			start = c.sndUna
		}
		if end > c.sndNxt {
			end = c.sndNxt
		}
		c.sacked = insertRange(c.sacked, seqRange{start, end})
	}
	return rangesBytes(c.sacked) > before
}

// retransmitNextHole resends the lowest unsacked, not-yet-retransmitted
// segment below the highest SACKed offset (only data with SACKed data above
// it is presumed lost, per RFC 6675). Returns false when no hole remains.
func (c *Conn) retransmitNextHole() bool {
	if len(c.sacked) == 0 {
		return false
	}
	limit := c.sacked[len(c.sacked)-1].end // highest SACKed offset
	if limit > c.recoverAt {
		limit = c.recoverAt
	}
	start := c.sndUna
	if c.rtxNext > start {
		start = c.rtxNext
	}
	for _, r := range c.sacked {
		if start >= limit {
			return false
		}
		if start < r.start {
			break // hole before this sacked island
		}
		if start < r.end {
			start = r.end
		}
	}
	if start >= limit {
		return false
	}
	segLen := int64(c.ctx.MSS)
	// Don't run into the next sacked island.
	for _, r := range c.sacked {
		if r.start > start && r.start < start+segLen {
			segLen = r.start - start
		}
	}
	if rem := limit - start; rem < segLen {
		segLen = rem
	}
	dataEnd := 1 + c.appEnd
	fin := false
	if start+segLen > dataEnd {
		segLen = dataEnd - start
		fin = c.finQueued
	}
	if segLen <= 0 && !fin {
		return false
	}
	c.RetransSegs++
	c.retransSinceProbe = true
	c.sendSegment(start, segLen, fin)
	c.rtxNext = start + segLen
	c.rtoTimer.Reset(c.currentRTO())
	return true
}
