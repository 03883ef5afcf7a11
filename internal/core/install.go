package core

// Live per-flow policy installation — the vSwitch side of the daemon's
// policy control plane (cmd/acdcd streams FlowPolicy updates here).
//
// Overrides live in a copy-on-write map behind an atomic pointer: installs
// build a fresh map and CAS it in, so the datapath resolves policy at flow
// setup with one atomic load and is never blocked by — or racing — a push.
// Writers contend only with each other, and only on the CAS.
//
// Every accepted policy passes Validate (reject malformed input at the API
// boundary) and then the Sanitized choke point (belt and braces with the
// FlowPolicy and snapshot-restore paths), so a hostile update can never put
// β>1 — a window that GROWS on congestion — into the enforcement math.

// InstallPolicy validates p, records it as the live override for k, and
// applies it to the flow immediately if one is already tracked. It returns
// the policy as installed (post-sanitization). Safe to call from any
// goroutine while traffic flows.
func (v *VSwitch) InstallPolicy(k FlowKey, p Policy) (Policy, error) {
	if err := p.Validate(); err != nil {
		return Policy{}, err
	}
	if !backendKnown(p.Backend) {
		// Unknown backend names are not an error on this surface (the
		// daemon's stream must keep making forward progress mid-flight);
		// Sanitized clamps to the default and the counter is the trace.
		v.Metrics.BackendUnknown.Inc()
	}
	p = p.Sanitized()
	v.swapOverride(k, &p)
	v.applyToLive(k, &p)
	v.Metrics.PolicyInstalls.Inc()
	return p, nil
}

// ClearPolicy removes the live override for k, reverting the flow to the
// configured FlowPolicy callback (or DefaultPolicy). It reports whether an
// override existed.
func (v *VSwitch) ClearPolicy(k FlowKey) bool {
	if !v.swapOverride(k, nil) {
		return false
	}
	// Re-resolve through the normal chain so a tracked flow reverts now
	// rather than on its next table miss.
	v.applyToLive(k, v.policy(k))
	return true
}

// swapOverride sets k's override to p, or removes it when p is nil, by
// swapping in an updated copy of the override map, and reports whether k had
// one. Removing an absent override swaps nothing.
func (v *VSwitch) swapOverride(k FlowKey, p *Policy) (had bool) {
	for {
		old := v.overrides.Load()
		var cur map[FlowKey]*Policy
		if old != nil {
			cur = *old
		}
		if _, had = cur[k]; p == nil && !had {
			return false
		}
		next := make(map[FlowKey]*Policy, len(cur)+1)
		for ok, op := range cur {
			if ok != k {
				next[ok] = op
			}
		}
		if p != nil {
			next[k] = p
		}
		if v.overrides.CompareAndSwap(old, &next) {
			return had
		}
	}
}

// PolicyOverride returns the live override for k, if any.
func (v *VSwitch) PolicyOverride(k FlowKey) (Policy, bool) {
	if m := v.overrides.Load(); m != nil {
		if p, ok := (*m)[k]; ok {
			return *p, true
		}
	}
	return Policy{}, false
}

// PolicyOverrides returns a copy of the live override table (admin listing).
func (v *VSwitch) PolicyOverrides() map[FlowKey]Policy {
	m := v.overrides.Load()
	if m == nil {
		return nil
	}
	out := make(map[FlowKey]Policy, len(*m))
	for k, p := range *m {
		out[k] = *p
	}
	return out
}

// applyToLive pushes a resolved policy into an already-tracked flow under
// its mutex, swapping the virtual-CC law and the backend if they changed (the
// same mid-flight swap snapshot restore performs). No backend teardown is
// needed: a pace flow's shaper keeps draining already-admitted segments on
// the simulation goroutine (this path may run on a control-plane goroutine
// and must not touch it), then idles for the GC. Untracked keys are a no-op:
// the override map catches the flow at setup. So is a record that stopped
// being k's between the probe and the lock: the GC may have removed it and
// the datapath recycled it into another flow, which must not get k's policy.
func (v *VSwitch) applyToLive(k FlowKey, p *Policy) {
	f := v.Table.Get(k)
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.Key != k {
		return
	}
	f.Policy = p
	v.setLaws(f)
}
