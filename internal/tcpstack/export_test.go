package tcpstack

import "acdc/internal/cc"

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// BytesQueued returns app bytes not yet acknowledged by the peer.
func (c *Conn) BytesQueued() int64 {
	q := 1 + c.appEnd - c.sndUna
	if q < 0 {
		q = 0
	}
	return q
}

// Algorithm exposes the congestion-control algorithm (instrumentation).
func (c *Conn) Algorithm() cc.Algorithm { return c.alg }

// OOORanges returns the count of buffered out-of-order ranges (tests).
func (c *Conn) OOORanges() int { return len(c.ooo) }

// startTimeWaitsAt makes the stack's TIME_WAIT table with the record counter
// at n, so tests can run it across the counter's wrap.
func (st *Stack) startTimeWaitsAt(n uint32) {
	ts := st.twTable()
	ts.base, ts.due, ts.tail = n&^(twPage-1), n, n
}

// putTimeWaitsOutOfOrder moves every wait the stack's TIME_WAIT table keeps
// in arm order to an entry of its own in the table's sim.Deadlines, as every
// wait had before the table kept arm order.
func (st *Stack) putTimeWaitsOutOfOrder() {
	ts := st.timeWaits
	for i := ts.due; i != ts.tail; i++ {
		if at := ts.rec(i).at; at.Seq != 0 {
			ts.leave(i, at)
		}
	}
	ts.seekDue()
}
