package core

// Live per-flow policy installation — the vSwitch side of the daemon's
// policy control plane (cmd/acdcd streams FlowPolicy updates here).
//
// Every accepted policy passes Validate (reject malformed input at the API
// boundary) and then the Sanitized choke point (belt and braces with the
// FlowPolicy and snapshot-restore paths), so a hostile update can never put
// β>1 — a window that GROWS on congestion — into the enforcement math.

// InstallPolicy validates p, records it as the live override for k, and
// applies it to the flow immediately if one is already tracked. It returns
// the policy as installed (post-sanitization).
func (v *VSwitch) InstallPolicy(k FlowKey, p Policy) (Policy, error) {
	if err := p.Validate(); err != nil {
		return Policy{}, err
	}
	p = p.Sanitized()
	if v.overrides == nil {
		v.overrides = map[FlowKey]*Policy{}
	}
	v.overrides[k] = &p
	v.applyToLive(k, &p)
	v.Metrics.PolicyInstalls.Inc()
	return p, nil
}

// ClearPolicy removes the live override for k, reverting the flow to the
// configured FlowPolicy callback (or DefaultPolicy). It reports whether an
// override existed.
func (v *VSwitch) ClearPolicy(k FlowKey) bool {
	if _, ok := v.overrides[k]; !ok {
		return false
	}
	delete(v.overrides, k)
	// Re-resolve through the normal chain so a tracked flow reverts now
	// rather than on its next table miss.
	v.applyToLive(k, v.policy(k))
	return true
}

// PolicyOverride returns the live override for k, if any.
func (v *VSwitch) PolicyOverride(k FlowKey) (Policy, bool) {
	if p, ok := v.overrides[k]; ok {
		return *p, true
	}
	return Policy{}, false
}

// PolicyOverrides returns a copy of the live override table (admin listing).
func (v *VSwitch) PolicyOverrides() map[FlowKey]Policy {
	out := make(map[FlowKey]Policy, len(v.overrides))
	for k, p := range v.overrides {
		out[k] = *p
	}
	return out
}

// applyToLive pushes a resolved policy into an already-tracked flow,
// swapping the virtual-CC law if it changed (the same mid-flight swap
// snapshot restore performs). Untracked keys are a no-op: the override map
// catches the flow at setup.
func (v *VSwitch) applyToLive(k FlowKey, p *Policy) {
	if f := v.Table.Get(k); f != nil {
		f.Policy = p
		v.setLaw(f)
	}
}
