package netsim

import "acdc/internal/packet"

// SharedBuffer models a switch's shared packet memory with the classic
// Dynamic Threshold algorithm (Choudhury & Hahne): a port may queue at most
// Alpha × (free buffer) bytes, so a single congested port can take roughly
// Alpha/(1+Alpha) of the pool while idle ports keep headroom. The paper's
// G8264 has a 9MB buffer shared by 48 ports and "dynamic buffer allocation",
// which this reproduces.
type SharedBuffer struct {
	Total int // bytes in the pool
	Alpha float64
	used  int
	ports []*Link // the egress links that draw on the pool (Switch.AddPort)
}

// NewSharedBuffer creates a pool of total bytes with dynamic threshold alpha.
func NewSharedBuffer(total int, alpha float64) *SharedBuffer {
	return &SharedBuffer{Total: total, Alpha: alpha}
}

// Admit reports whether a port currently holding portBytes may queue n more
// bytes, and reserves them if so.
//
// Ports settle their departures lazily (see Link), so used may still count
// bytes whose departure is due; it is never below the settled figure, and a
// smaller free pool only makes the threshold stricter. An admission on the
// unsettled figure therefore stands, and only a refusal settles every port
// and decides again: each decision is the one exact occupancy gives.
func (b *SharedBuffer) Admit(portBytes, n int) bool {
	if b == nil {
		return true
	}
	if !b.fits(portBytes, n) {
		b.settle()
		if !b.fits(portBytes, n) {
			return false
		}
	}
	b.used += n
	return true
}

// settle settles every port's due departures, so used and the ports'
// queued bytes are exact.
func (b *SharedBuffer) settle() {
	for _, l := range b.ports {
		l.settle()
	}
}

// fits applies the Dynamic Threshold to the pool as it stands.
func (b *SharedBuffer) fits(portBytes, n int) bool {
	free := b.Total - b.used
	return n <= free && float64(portBytes+n) <= b.Alpha*float64(free)
}

// Release returns n bytes to the pool.
func (b *SharedBuffer) Release(n int) {
	if b == nil {
		return
	}
	b.used -= n
	if b.used < 0 {
		panic("netsim: SharedBuffer released more than admitted")
	}
}

// REDConfig configures a port's marking/drop behaviour, mirroring the
// single-threshold WRED/ECN setup the paper uses (DCTCP-style "mark above K").
type REDConfig struct {
	// MarkThresholdBytes is K: when the instantaneous queue length meets or
	// exceeds K, arriving ECT packets are CE-marked and arriving Not-ECT
	// packets are dropped. Zero disables marking (plain drop-tail), which is
	// the paper's CUBIC baseline configuration.
	MarkThresholdBytes int
}

// PortQueue is the QueuePolicy for one switch egress port: single-threshold
// ECN marking plus shared-buffer admission.
type PortQueue struct {
	Red    REDConfig
	Buffer *SharedBuffer // nil means unlimited memory
}

// OnEnqueue implements QueuePolicy.
func (q *PortQueue) OnEnqueue(l *Link, p *packet.Packet) bool {
	size := p.WireLen()
	// Send has settled l, so its queue figure is exact.
	if q.Red.MarkThresholdBytes > 0 && l.queueBytes >= q.Red.MarkThresholdBytes {
		ip := p.IP()
		switch ip.ECN() {
		case packet.ECT0, packet.ECT1:
			ip.SetECN(packet.CE)
			l.Stats.Marks++
		case packet.CE:
			// already marked upstream
		default:
			// Not-ECT above threshold: WRED drops it. This is the ECN
			// coexistence failure mode from Judd [36] / Wu [72].
			return false
		}
	}
	if q.Buffer != nil && !q.Buffer.Admit(l.queueBytes, size) {
		return false
	}
	return true
}

// OnDequeue implements QueuePolicy.
func (q *PortQueue) OnDequeue(l *Link, p *packet.Packet) {
	if q.Buffer != nil {
		q.Buffer.Release(p.WireLen())
	}
}
