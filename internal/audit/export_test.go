package audit

// Count returns the number of violations of one rule.
func (a *Auditor) Count(rule Rule) int64 {
	c, ok := a.local[rule]
	if !ok {
		return 0
	}
	return c.Load()
}

// Violations returns the logged violation reports (bounded by MaxLog).
func (a *Auditor) Violations() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, len(a.recent))
	copy(out, a.recent)
	return out
}
