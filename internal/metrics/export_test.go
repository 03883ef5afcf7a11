package metrics

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
}

// Gauge returns the gauge named name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge { return named[Gauge](r, name) }
