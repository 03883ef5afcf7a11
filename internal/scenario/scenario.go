package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"acdc/internal/audit"
	"acdc/internal/sim"
	"acdc/internal/topo"
)

// Duration is a sim.Duration that marshals to/from human-readable strings
// ("50ms", "200us") so scenario specs stay legible as config files. Plain
// JSON numbers are accepted too and read as nanoseconds.
type Duration sim.Duration

// D converts to the simulator's duration type.
func (d Duration) D() sim.Duration { return sim.Duration(d) }

// String renders time.Duration syntax ("1.5ms").
func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON renders the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) { return json.Marshal(d.String()) }

// UnmarshalJSON accepts "50ms"-style strings or nanosecond numbers.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		td, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %v", s, err)
		}
		*d = Duration(td.Nanoseconds())
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("scenario: duration must be a string or ns number: %s", b)
	}
	*d = Duration(n)
	return nil
}

// TopoSpec declares the fabric a scenario runs on. It maps one-to-one onto
// the internal/topo builders; link/buffer fields of zero take the paper's
// testbed defaults (10 Gbps, 5µs, 9MB shared buffer).
type TopoSpec struct {
	// Kind is "star", "dumbbell", "parkinglot", or "fattree".
	Kind string `json:"kind"`
	// Hosts is the star's host count or the dumbbell's sender/receiver pair
	// count; ignored for the fixed-shape parking lot and for fat-trees
	// (whose host count follows from K and HostsPerTor).
	Hosts int `json:"hosts,omitempty"`
	// K is the fat-tree arity (even, default 4); fattree only.
	K int `json:"k,omitempty"`
	// HostsPerTor oversubscribes each fat-tree ToR (default K/2, the
	// rearrangeably non-blocking shape); fattree only.
	HostsPerTor int `json:"hosts_per_tor,omitempty"`
	// LinkRate overrides every link's rate in bits/sec. Negative values of
	// this and the two fields below are rejected.
	LinkRate int64 `json:"link_rate,omitempty"`
	// LinkDelay overrides the per-link one-way propagation delay.
	LinkDelay Duration `json:"link_delay,omitempty"`
	// BufferBytes overrides each switch's shared buffer.
	BufferBytes int `json:"buffer_bytes,omitempty"`
}

// WorkloadSpec declares one traffic element. Kind selects the driver in
// internal/workload; the other fields parameterize it (unused fields are
// ignored by kinds that don't need them).
type WorkloadSpec struct {
	// Kind is one of:
	//
	//	bulk-pairs    one long-lived flow per dumbbell pair (dumbbell only)
	//	incast        Senders long-lived flows into one receiver (star)
	//	prober        sockperf-style RTT ping-pong From → To
	//	partagg       partition/aggregate fan-out with QCT measurement
	//	stride        the §5.2 concurrent-stride mix (background + mice)
	//	trace         closed-loop trace-driven mix over Dist
	//	flash-crowd   periodic request waves from Senders hosts into Hot
	//	tenant-churn  multi-tenant background+mice with arrivals/departures
	Kind string `json:"kind"`

	// Senders is the fan-in (incast, partagg, flash-crowd): hosts 0..Senders-1
	// send; the receiver/hot host is host Senders.
	Senders int `json:"senders,omitempty"`
	// From/To are the prober's endpoints.
	From int `json:"from,omitempty"`
	To   int `json:"to,omitempty"`
	// Bytes is the element's message/shard size (driver-specific default).
	Bytes int64 `json:"bytes,omitempty"`
	// MiceBytes is the mice size for stride/tenant-churn.
	MiceBytes int64 `json:"mice_bytes,omitempty"`
	// Period is the element's repeat interval (mice period, wave period,
	// query spacing — driver-specific default).
	Period Duration `json:"period,omitempty"`
	// Hosts bounds how many hosts the element spans (stride/trace N;
	// default: the whole topology).
	Hosts int `json:"hosts,omitempty"`
	// Dist is the trace distribution: "web-search" or "data-mining".
	Dist string `json:"dist,omitempty"`
	// Tenants and HostsPerTenant shape the tenant-churn element.
	Tenants        int `json:"tenants,omitempty"`
	HostsPerTenant int `json:"hosts_per_tenant,omitempty"`
	// ChurnPeriod is the tenant-churn arrival/departure interval.
	ChurnPeriod Duration `json:"churn_period,omitempty"`
}

// Check is one expected-invariant assertion over a scenario's aggregated
// per-scheme metrics: the named metric must lie in [Min, Max] (either bound
// optional). Checks express what must hold for the scenario to be *valid* —
// traffic flowed, the auditor stayed clean, drops stayed at zero — as
// opposed to the baseline diff, which tracks drift in what the numbers *are*.
type Check struct {
	// Scheme restricts the check to one scheme key ("cubic", "dctcp",
	// "acdc"); empty applies it to every scheme the scenario runs.
	Scheme string `json:"scheme,omitempty"`
	// Metric is the metric key (see runner.go for the namespace).
	Metric string   `json:"metric"`
	Min    *float64 `json:"min,omitempty"`
	Max    *float64 `json:"max,omitempty"`
}

// bound formats the check's interval for reports.
func (c Check) bound() string {
	switch {
	case c.Min != nil && c.Max != nil:
		return fmt.Sprintf("[%g, %g]", *c.Min, *c.Max)
	case c.Min != nil:
		return fmt.Sprintf("≥ %g", *c.Min)
	case c.Max != nil:
		return fmt.Sprintf("≤ %g", *c.Max)
	default:
		return "(unbounded)"
	}
}

// Adjust is the smoke-mode override set: any non-zero field replaces the
// spec's full-mode value so CI can run the whole catalog at a fraction of
// the cost while keeping the same shape.
type Adjust struct {
	Hosts   int      `json:"hosts,omitempty"`
	Trials  int      `json:"trials,omitempty"`
	Warmup  Duration `json:"warmup,omitempty"`
	Measure Duration `json:"measure,omitempty"`
	// Workloads, when non-empty, replaces the workload list wholesale (for
	// scaling element fan-ins along with the host count).
	Workloads []WorkloadSpec `json:"workloads,omitempty"`
	// Fabric, when non-empty, replaces the fabric fault-domain plan (fault
	// times usually need rescaling along with the warmup/measure windows).
	Fabric string `json:"fabric,omitempty"`
}

// Spec is one declarative scenario: a topology, a workload mix, an optional
// fault/restart plan, the schemes to run it under, and the invariant checks
// that must hold. Specs are plain data — JSON-serializable so scenarios can
// live in small config files as well as in the built-in catalog.
type Spec struct {
	// Name is the scenario's catalog key (kebab-case).
	Name string `json:"name"`
	// Title is the one-line human description.
	Title string `json:"title,omitempty"`
	// Paper names the figure/section this scenario generalizes.
	Paper string `json:"paper,omitempty"`

	Topo      TopoSpec       `json:"topo"`
	Workloads []WorkloadSpec `json:"workloads"`

	// Schemes are the enforcement configurations to compare: "cubic",
	// "dctcp", "acdc" (default: all three).
	Schemes []string `json:"schemes,omitempty"`
	// MTU is the guest MTU (default 9000, the testbed's jumbo frames).
	MTU int `json:"mtu,omitempty"`
	// MinRwndBytes overrides AC/DC's RWND floor (the §5.2 byte-granularity
	// knob; 0 keeps core.DefaultConfig's floor).
	MinRwndBytes int64 `json:"min_rwnd_bytes,omitempty"`

	// Faults is a fault profile in faults.Parse syntax ("loss",
	// "drop=0.01,jitter=50us"); empty injects nothing.
	Faults string `json:"faults,omitempty"`
	// Restart is a vSwitch restart plan in faults.ParseRestart syntax
	// ("warm@1ms,every=5ms"); empty leaves the restart machinery cold.
	Restart string `json:"restart,omitempty"`
	// Fabric is a fabric fault-domain plan in faults.ParseDomains syntax
	// ("switch-down@25ms,switch=p3-tor1,for=5ms"); empty leaves the link
	// lifecycle machinery cold. Times are absolute simulation times, so plans
	// are written against the warmup+measure window.
	Fabric string `json:"fabric,omitempty"`
	// Audit, when true, attaches the invariant auditor (internal/audit) to
	// every AC/DC vSwitch and exports audit_violations as a metric.
	Audit bool `json:"audit,omitempty"`

	// Trials is how many seeds to run per scheme (default 1); trial t uses
	// seed base+t and metrics are aggregated across trials.
	Trials int `json:"trials,omitempty"`
	// Warmup runs before measurement starts (default 20ms simulated).
	Warmup Duration `json:"warmup,omitempty"`
	// Measure is the measurement window (default 50ms simulated).
	Measure Duration `json:"measure,omitempty"`

	Checks []Check `json:"checks,omitempty"`
	// Smoke, when non-nil, overrides fields in smoke mode (reduced CI runs).
	Smoke *Adjust `json:"smoke,omitempty"`
}

// SchemeKeys are the recognized scheme names, in report order.
var SchemeKeys = []string{"cubic", "dctcp", "acdc"}

// withDefaults fills unset fields.
func (s Spec) withDefaults() Spec {
	if len(s.Schemes) == 0 {
		s.Schemes = append([]string(nil), SchemeKeys...)
	}
	if s.MTU == 0 {
		s.MTU = 9000
	}
	if s.Trials == 0 {
		s.Trials = 1
	}
	if s.Warmup == 0 {
		s.Warmup = Duration(20 * sim.Millisecond)
	}
	if s.Measure == 0 {
		s.Measure = Duration(50 * sim.Millisecond)
	}
	return s
}

// ForSmoke returns the spec with its Smoke overrides applied (and defaults
// filled); without a Smoke block only Trials is forced to 1. The scenario
// keeps its name, so smoke results are baselined under a separate mode key
// rather than a separate catalog.
func (s Spec) ForSmoke() Spec {
	s = s.withDefaults()
	s.Trials = 1
	a := s.Smoke
	if a == nil {
		return s
	}
	if a.Hosts > 0 {
		s.Topo.Hosts = a.Hosts
	}
	if a.Trials > 0 {
		s.Trials = a.Trials
	}
	if a.Warmup > 0 {
		s.Warmup = a.Warmup
	}
	if a.Measure > 0 {
		s.Measure = a.Measure
	}
	if len(a.Workloads) > 0 {
		s.Workloads = a.Workloads
	}
	if a.Fabric != "" {
		s.Fabric = a.Fabric
	}
	return s
}

// Validate checks the spec for structural errors: unknown kinds or schemes,
// malformed fault/restart plans, out-of-range host references. It is run on
// every catalog entry by the package tests and on every loaded config file
// before a suite run.
func (s Spec) Validate() error {
	s = s.withDefaults()
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	hosts, err := s.hostCount()
	if err != nil {
		return fmt.Errorf("scenario %s: %v", s.Name, err)
	}
	if len(s.Workloads) == 0 {
		return fmt.Errorf("scenario %s: no workloads", s.Name)
	}
	if s.Trials < 1 || s.Warmup <= 0 || s.Measure <= 0 {
		return fmt.Errorf("scenario %s: needs trials ≥ 1 and positive warmup and measure windows, have %d, %v, %v",
			s.Name, s.Trials, s.Warmup, s.Measure)
	}
	const zeroIsDefault = "(0 takes the testbed default)"
	switch {
	case s.Topo.LinkRate < 0:
		return fmt.Errorf("scenario %s: negative link_rate %d %s", s.Name, s.Topo.LinkRate, zeroIsDefault)
	case s.Topo.LinkDelay < 0:
		return fmt.Errorf("scenario %s: negative link_delay %v %s", s.Name, s.Topo.LinkDelay, zeroIsDefault)
	case s.Topo.BufferBytes < 0:
		return fmt.Errorf("scenario %s: negative buffer_bytes %d %s", s.Name, s.Topo.BufferBytes, zeroIsDefault)
	}
	if s.MTU < 68 || s.MTU > 65535 || s.MinRwndBytes < 0 {
		return fmt.Errorf("scenario %s: mtu %d outside [68, 65535] or negative min_rwnd_bytes %d",
			s.Name, s.MTU, s.MinRwndBytes)
	}
	for _, k := range s.Schemes {
		if k != "cubic" && k != "dctcp" && k != "acdc" {
			return fmt.Errorf("scenario %s: unknown scheme %q (have %s)",
				s.Name, k, strings.Join(SchemeKeys, ", "))
		}
	}
	env, err := s.env()
	if err != nil {
		return fmt.Errorf("scenario %s: %v", s.Name, err)
	}
	if p := env.Restart; p != nil {
		for _, h := range p.Hosts {
			if h >= hosts {
				return fmt.Errorf("scenario %s: restart plan names host %d outside [0,%d)", s.Name, h, hosts)
			}
		}
	}
	for i, w := range s.Workloads {
		if err := w.validate(s.Topo.Kind, hosts); err != nil {
			return fmt.Errorf("scenario %s: workload %d: %v", s.Name, i, err)
		}
	}
	for _, c := range s.Checks {
		if c.Metric == "" {
			return fmt.Errorf("scenario %s: check without a metric", s.Name)
		}
		if c.Scheme != "" && !slices.Contains(s.Schemes, c.Scheme) {
			return fmt.Errorf("scenario %s: check on scheme %q the scenario does not run", s.Name, c.Scheme)
		}
		if c.Min != nil && c.Max != nil && *c.Min > *c.Max {
			return fmt.Errorf("scenario %s: check %s has min %g > max %g", s.Name, c.Metric, *c.Min, *c.Max)
		}
	}
	if s.Smoke != nil {
		sm := s.ForSmoke()
		sm.Smoke = nil // the smoke variant is validated exactly once
		if err := sm.Validate(); err != nil {
			return fmt.Errorf("scenario %s (smoke): %v", s.Name, err)
		}
	}
	return nil
}

// env parses the spec's run-environment fields: Validate checks a spec with
// it, and Run builds every trial's topologies from its result.
func (s Spec) env() (topo.Env, error) {
	var env topo.Env
	for _, o := range [][2]string{{"faults", s.Faults}, {"restart", s.Restart}, {"fabric", s.Fabric}} {
		if err := env.Set(o[0], o[1]); err != nil {
			return env, err
		}
	}
	if s.Audit {
		env.Audit = &audit.Config{MaxLog: 8}
	}
	return env, nil
}

// hostCount resolves the topology's addressable host count.
func (s Spec) hostCount() (int, error) {
	switch s.Topo.Kind {
	case "star":
		if s.Topo.Hosts < 2 {
			return 0, fmt.Errorf("star needs ≥ 2 hosts, have %d", s.Topo.Hosts)
		}
		return s.Topo.Hosts, nil
	case "dumbbell":
		if s.Topo.Hosts < 1 {
			return 0, fmt.Errorf("dumbbell needs ≥ 1 pair, have %d", s.Topo.Hosts)
		}
		return 2 * s.Topo.Hosts, nil
	case "parkinglot":
		return 6, nil // fixed shape: 1 receiver + 5 senders
	case "fattree":
		cfg := topo.FatTreeConfig{K: s.Topo.K, HostsPerTor: s.Topo.HostsPerTor}
		if k := s.Topo.K; k != 0 && (k < 2 || k%2 != 0) {
			return 0, fmt.Errorf("fattree K must be even and ≥ 2, have %d", k)
		}
		if s.Topo.HostsPerTor < 0 {
			return 0, fmt.Errorf("fattree hosts_per_tor must be ≥ 0, have %d", s.Topo.HostsPerTor)
		}
		return cfg.Hosts(), nil
	default:
		return 0, fmt.Errorf("unknown topo kind %q (want star, dumbbell, parkinglot, fattree)", s.Topo.Kind)
	}
}

// validate checks one workload element against the topology.
func (w WorkloadSpec) validate(topoKind string, hosts int) error {
	switch w.Kind {
	case "bulk-pairs":
		if topoKind != "dumbbell" {
			return fmt.Errorf("bulk-pairs needs a dumbbell topology")
		}
	case "incast", "partagg", "flash-crowd":
		if w.Senders < 1 {
			return fmt.Errorf("%s needs senders ≥ 1", w.Kind)
		}
		if w.Senders >= hosts {
			return fmt.Errorf("%s: %d senders + receiver exceed %d hosts", w.Kind, w.Senders, hosts)
		}
	case "prober":
		if w.From == w.To {
			return fmt.Errorf("prober needs distinct endpoints")
		}
		if w.From < 0 || w.To < 0 || w.From >= hosts || w.To >= hosts {
			return fmt.Errorf("prober endpoints %d→%d outside [0,%d)", w.From, w.To, hosts)
		}
	case "stride":
		n := w.Hosts
		if n == 0 {
			n = hosts
		}
		if n > hosts {
			return fmt.Errorf("stride over %d hosts exceeds topology's %d", n, hosts)
		}
		// Stride wires host i's mice to (i+8) mod n and background to
		// (i+1..4) mod n; n must not map any host onto itself.
		if n <= 4 || n == 8 {
			return fmt.Errorf("stride needs n > 4 and n ≠ 8 (self-connections), have %d", n)
		}
	case "trace":
		if w.Dist != "web-search" && w.Dist != "data-mining" {
			return fmt.Errorf("trace dist %q (want web-search or data-mining)", w.Dist)
		}
		n := w.Hosts
		if n == 0 {
			n = hosts
		}
		if n < 2 || n > hosts {
			return fmt.Errorf("trace over %d hosts (topology has %d)", n, hosts)
		}
	case "tenant-churn":
		cfg := TenantChurnConfigOf(w)
		if cfg.Hosts() > hosts {
			return fmt.Errorf("tenant-churn needs %d hosts, topology has %d", cfg.Hosts(), hosts)
		}
	default:
		return fmt.Errorf("unknown workload kind %q", w.Kind)
	}
	return nil
}

// LoadSpecs reads scenario specs from a JSON config file: either a single
// spec object or an array of them. Every spec is validated.
func LoadSpecs(path string) ([]Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	return ParseSpecs(data)
}

// ParseSpecs decodes and validates one spec or an array of specs. A key no
// field takes is an error that names it, not a different scenario run clean.
func ParseSpecs(data []byte) ([]Spec, error) {
	if t := bytes.TrimSpace(data); len(t) > 0 && t[0] != '[' {
		data = append(append([]byte{'['}, t...), ']') // one spec
	}
	var many []Spec
	if err := decodeStrict(data, &many); err != nil {
		return nil, fmt.Errorf("scenario: config: %v", err)
	}
	for _, s := range many {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	return many, nil
}

// decodeStrict decodes data, one JSON value, into v. A field v has no place
// for, or anything after the value, is an error.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if _, end := dec.Token(); err == nil && end != io.EOF {
		err = fmt.Errorf("data after the value")
	}
	return err
}
