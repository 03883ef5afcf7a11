package topo

import (
	"flag"
	"fmt"
	"slices"
	"strings"

	"acdc/internal/audit"
	"acdc/internal/faults"
)

// Env is the run environment: the chaos and audit options that apply alike
// to every topology a run builds. The zero Env is a clean run, byte-identical
// to a build without these options.
type Env struct {
	// Faults installs a deterministic fault injector on every link; nil or a
	// disabled profile injects nothing.
	Faults *faults.Profile
	// Restart restarts the AC/DC vSwitches the plan selects.
	Restart *faults.RestartPlan
	// Audit attaches the datapath invariant auditor to every AC/DC vSwitch.
	Audit *audit.Config
	// Fabric arms fault domains against links by name (a dumbbell's trunk is
	// "left>right"); a pattern matching no link panics rather than silently
	// running a clean fabric.
	Fabric []faults.FaultDomain
}

// Set parses one option's text form into e. name is the flag name without
// its dash: "faults", "restart" or "fabric". An empty value leaves e
// unchanged.
func (e *Env) Set(name, value string) error {
	if value == "" {
		return nil
	}
	var err error
	switch name {
	case "faults":
		var p faults.Profile
		if p, err = faults.Parse(value); err == nil {
			e.Faults = &p
		}
	case "restart":
		var p faults.RestartPlan
		if p, err = faults.ParseRestart(value); err == nil {
			e.Restart = &p
		}
	case "fabric":
		e.Fabric, err = faults.ParseDomains(value)
	default:
		err = fmt.Errorf("unknown run-environment option %q", name)
	}
	return err
}

// Describe lists the active options, one line each, for a run header. A
// clean Env has none, so clean output carries no header.
func (e Env) Describe(seed int64) []string {
	var out []string
	if e.Faults != nil && e.Faults.Enabled() {
		out = append(out, fmt.Sprintf("fault injection: %s (seed %d)", e.Faults.String(), seed))
	}
	if e.Restart != nil {
		out = append(out, "vSwitch restart: "+e.Restart.String())
	}
	if len(e.Fabric) > 0 {
		plans := make([]string, len(e.Fabric))
		for i, d := range e.Fabric {
			plans[i] = d.String()
		}
		out = append(out, fmt.Sprintf("fabric fault domains: %s (seed %d)", strings.Join(plans, ";"), seed))
	}
	if e.Audit != nil {
		mode := "log"
		if e.Audit.Panic {
			mode = "panic"
		}
		out = append(out, fmt.Sprintf("invariant audit: enabled (%s mode)", mode))
	}
	return out
}

// envFlags are the run-environment flags in parse order: each one's usage
// line and, for the plan-style ones, the syntax a value of `list` prints.
var envFlags = []struct {
	name, usage string
	list        func() string
}{
	{"faults", "fault profile: a built-in name or k=v list (`list` to enumerate)", faults.ProfilesHelp},
	{"restart", "vSwitch restart plan: mode[@time][,key=val...] (`list` to enumerate)", faults.RestartHelp},
	{"fabric", "fabric fault domains: kind[@time],key=val,...;... (`list` for syntax)", faults.DomainHelp},
	{"audit", "attach the datapath invariant auditor to every AC/DC vSwitch (violations logged to stderr)", nil},
	{"audit-panic", "like -audit, but the first violation aborts the run", nil},
}

// EnvFlags turns command-line flags into an Env.
type EnvFlags struct {
	plans             map[string]*string
	audit, auditPanic bool
}

// BindEnv registers the named run-environment flags on fs — all of -faults,
// -restart, -fabric, -audit and -audit-panic when names is empty —
// and returns the binder to read them with after fs.Parse.
func BindEnv(fs *flag.FlagSet, names ...string) *EnvFlags {
	f := &EnvFlags{plans: map[string]*string{}}
	for _, o := range envFlags {
		switch {
		case len(names) > 0 && !slices.Contains(names, o.name):
		case o.name == "audit":
			fs.BoolVar(&f.audit, o.name, false, o.usage)
		case o.name == "audit-panic":
			fs.BoolVar(&f.auditPanic, o.name, false, o.usage)
		default:
			f.plans[o.name] = fs.String(o.name, "", o.usage)
		}
	}
	return f
}

// Env parses the bound flags. When one asks for its syntax (`list` or
// `help`), Env returns that text as help, for the caller to print before
// exiting 0. An error names the flag and its value, ready to follow the
// program name in an exit-2 message.
func (f *EnvFlags) Env() (env Env, help string, err error) {
	for _, o := range envFlags {
		v, ok := f.plans[o.name]
		if !ok {
			continue
		}
		if *v == "list" || *v == "help" {
			return Env{}, o.list(), nil
		}
		if err := env.Set(o.name, *v); err != nil {
			return Env{}, "", fmt.Errorf("bad -%s %q: %v", o.name, *v, err)
		}
	}
	if f.audit || f.auditPanic {
		env.Audit = &audit.Config{Panic: f.auditPanic}
	}
	return env, "", nil
}
