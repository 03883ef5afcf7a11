package core

// Resyncing reports whether the flow is still in conservative mode.
func (f *Flow) Resyncing() bool { return f.resync != resyncNone }

// ResyncState returns the state name ("none", "await-feedback",
// "await-round") for tests and instrumentation.
func (f *Flow) ResyncState() string { return f.resync.String() }

// Delete removes the flow for k.
func (t *Table) Delete(k FlowKey) {
	if _, i := t.find(k); i >= 0 {
		unlink(t.s.At(i).f)
		t.s.Delete(i, slotHash)
	}
}

// Attached reports whether the datapath hooks are live.
func (v *VSwitch) Attached() bool { return v.attached }

// PolicyOverride returns the live override for k, if any.
func (v *VSwitch) PolicyOverride(k FlowKey) (Policy, bool) {
	if p, ok := v.overrides[k]; ok {
		return *p, true
	}
	return Policy{}, false
}
