package packet

// FIFO is a queue of packets linked through the packets themselves, so
// queueing one allocates nothing and a packet is in at most one FIFO. The
// tail links to itself, which tells a linked packet (next != nil) from a
// free one even at the tail: Pool.Put refuses a packet still linked. The
// zero FIFO is empty.
type FIFO struct{ head, tail *Packet }

// Front returns the first packet, nil when the FIFO is empty.
func (f *FIFO) Front() *Packet { return f.head }

// Next returns the packet after p in its FIFO, nil at the tail.
func (p *Packet) Next() *Packet {
	if p.next == p {
		return nil
	}
	return p.next
}

// Push appends p, which must be in no FIFO.
func (f *FIFO) Push(p *Packet) {
	if p.next != nil {
		panic("packet: push of a packet already linked")
	}
	if f.tail == nil {
		f.head = p
	} else {
		f.tail.next = p
	}
	p.next, f.tail = p, p
}

// Pop removes and returns the first packet; the FIFO must not be empty.
func (f *FIFO) Pop() *Packet {
	p := f.head
	if p.next == p {
		f.head, f.tail = nil, nil
	} else {
		f.head = p.next
	}
	p.next = nil
	return p
}

// Remove unlinks p, which must be in f, walking from the front to find the
// packet before it.
func (f *FIFO) Remove(p *Packet) {
	if f.head == p {
		f.Pop()
		return
	}
	prev := f.head
	for prev.next != p {
		prev = prev.next
	}
	if p.next == p {
		prev.next, f.tail = prev, prev
	} else {
		prev.next = p.next
	}
	p.next = nil
}
