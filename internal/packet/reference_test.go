package packet

// The four TCP option editors as they stood before the one splice, kept as
// the reference FuzzOptionEditsMatchReference holds the editors to: on any
// header, each editor writes the bytes its reference writes and gives the
// same verdict. The bodies are the old ones with the names prefixed by ref;
// refStripAllOptions comes from the fault injector, with its packet.
// qualifiers dropped, and refSetHeaderLen is the old data-offset setter,
// which cleared the reserved bits the editors now keep.

func refSetHeaderLen(t TCP, n int) { t[12] = uint8(n/4) << 4 }

func refInsertTCPOptionInPlace(p *Packet, opt []byte) bool {
	pkt := p.Buf
	ip := IPv4(pkt)
	if !ip.Valid() || ip.Protocol() != ProtoTCP {
		return false
	}
	t := ip.TCP()
	if !t.Valid() {
		return false
	}
	if !optionsAppendable(t.Options()) {
		return false
	}
	// A total length smaller than the headers (or one the grown packet would
	// overflow) cannot be rewritten consistently.
	if int(ip.TotalLen()) < ip.HeaderLen()+t.HeaderLen() {
		return false
	}
	padded := (len(opt) + 3) &^ 3
	newTCPHdr := t.HeaderLen() + padded
	if newTCPHdr > MaxTCPHeaderLen || int(ip.TotalLen())+padded > 65535 {
		return false
	}
	ihl := ip.HeaderLen()
	hdrEnd := ihl + t.HeaderLen()
	var out []byte
	if len(pkt)+padded <= cap(pkt) {
		out = pkt[:len(pkt)+padded]
		// Slide any trailing (materialized) payload bytes out of the way.
		copy(out[hdrEnd+padded:], pkt[hdrEnd:])
	} else {
		out = make([]byte, len(pkt)+padded)
		copy(out, pkt[:hdrEnd])
		copy(out[hdrEnd+padded:], pkt[hdrEnd:])
	}
	n := hdrEnd + copy(out[hdrEnd:], opt)
	for i := 0; i < padded-len(opt); i++ {
		out[n] = OptNOP
		n++
	}
	oip := IPv4(out)
	oip.SetTotalLen(ip.TotalLen() + uint16(padded))
	ot := oip.TCP()
	refSetHeaderLen(ot, newTCPHdr)
	ot.ComputeChecksum(oip.PseudoHeaderSum(tcpLenOf(oip)))
	p.Buf = out
	return true
}

func refStripTCPOptionInPlace(p *Packet, kind byte) bool {
	ip := IPv4(p.Buf)
	if !ip.Valid() || ip.Protocol() != ProtoTCP {
		return false
	}
	t := ip.TCP()
	if !t.Valid() {
		return false
	}
	if int(ip.TotalLen()) < ip.HeaderLen()+t.HeaderLen() {
		return false
	}
	opts := t.Options()
	start, length := locateOption(opts, kind)
	if start < 0 {
		return false
	}
	for i := start; i < start+length; i++ {
		opts[i] = OptNOP
	}
	t.ComputeChecksum(ip.PseudoHeaderSum(tcpLenOf(ip)))
	return true
}

func refRemoveTCPOption(pkt []byte, kind byte) []byte {
	ip := IPv4(pkt)
	if !ip.Valid() || ip.Protocol() != ProtoTCP {
		return pkt
	}
	t := ip.TCP()
	if !t.Valid() {
		return pkt
	}
	// A total length smaller than the headers is a lying header; shrinking
	// it would underflow, so the packet passes through untouched.
	if int(ip.TotalLen()) < ip.HeaderLen()+t.HeaderLen() {
		return pkt
	}
	opts := t.Options()
	start, length := locateOption(opts, kind)
	if start < 0 {
		return pkt
	}
	// Extend the cut over adjacent NOP padding until the removed span is a
	// 4-byte multiple, so the shrunken header stays aligned.
	end := start + length
	for (end-start)%4 != 0 && end < len(opts) && opts[end] == OptNOP {
		end++
	}
	for (end-start)%4 != 0 && start > 0 && opts[start-1] == OptNOP {
		start--
	}
	removed := end - start
	if removed%4 != 0 {
		// Not alignable: overwrite with NOPs in place (no resize).
		out := make([]byte, len(pkt))
		copy(out, pkt)
		oip := IPv4(out)
		ot := oip.TCP()
		oo := ot.Options()
		oStart, oLen := locateOption(oo, kind)
		for i := oStart; i < oStart+oLen; i++ {
			oo[i] = OptNOP
		}
		ot.ComputeChecksum(oip.PseudoHeaderSum(tcpLenOf(oip)))
		return out
	}
	ihl := ip.HeaderLen()
	optAbs := ihl + TCPHeaderLen
	out := make([]byte, 0, len(pkt)-removed)
	out = append(out, pkt[:optAbs+start]...)
	out = append(out, pkt[optAbs+end:]...)
	oip := IPv4(out)
	oip.SetTotalLen(ip.TotalLen() - uint16(removed))
	ot := oip.TCP()
	refSetHeaderLen(ot, t.HeaderLen()-removed)
	ot.ComputeChecksum(oip.PseudoHeaderSum(tcpLenOf(oip)))
	return out
}

func refStripAllOptions(p *Packet) bool {
	ip := p.IP()
	if !ip.Valid() || ip.Protocol() != ProtoTCP {
		return false
	}
	t := ip.TCP()
	// A total length short of the headers would wrap when shrunk: refuse it.
	if !t.Valid() || t.HeaderLen() <= TCPHeaderLen || int(ip.TotalLen()) < ip.HeaderLen()+t.HeaderLen() {
		return false
	}
	ihl := ip.HeaderLen()
	hdr := t.HeaderLen()
	removed := hdr - TCPHeaderLen
	buf := make([]byte, len(p.Buf)-removed)
	n := copy(buf, p.Buf[:ihl+TCPHeaderLen])
	copy(buf[n:], p.Buf[ihl+hdr:])
	oip := IPv4(buf)
	oip.SetTotalLen(ip.TotalLen() - uint16(removed))
	// Data offset: 5 words, preserving the reserved low nibble.
	buf[ihl+12] = 5<<4 | buf[ihl+12]&0x0f
	ot := oip.TCP()
	ot.ComputeChecksum(oip.PseudoHeaderSum(oip.TotalLen() - uint16(oip.HeaderLen())))
	p.Buf = buf
	return true
}
