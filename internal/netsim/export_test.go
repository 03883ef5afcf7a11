package netsim

// QueueLen returns the number of queued packets (including the one being
// serialized).
func (l *Link) QueueLen() int {
	l.settle()
	return l.nQueued
}

// QueueBytes returns the current backlog.
func (sh *Shaper) QueueBytes() int { return sh.queueBytes }

// Used returns the bytes currently held.
func (b *SharedBuffer) Used() int {
	b.settle()
	return b.used
}

// Free returns the unallocated bytes.
func (b *SharedBuffer) Free() int { return b.Total - b.Used() }

// Utilization returns the fraction of capacity used over [0, now].
func (l *Link) Utilization() float64 {
	l.settle()
	now := l.Sim.Now()
	if now == 0 {
		return 0
	}
	sentBits := float64(l.Stats.SentBytes) * 8
	capBits := float64(l.Rate) * now.Seconds()
	return sentBits / capBits
}

// DropRate returns drops / (drops + sent) across the switch, the metric the
// paper reports from switch counters.
func (sw *Switch) DropRate() float64 {
	d, s := sw.TotalDrops(), sw.TotalSent()
	if d+s == 0 {
		return 0
	}
	return float64(d) / float64(d+s)
}
