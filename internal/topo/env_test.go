package topo

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestBindEnv drives every run-environment flag through a fresh FlagSet: a
// good value lands in the Env and in its header line, a bad one fails with
// an error that names the flag, and `list` returns the syntax text instead
// of an Env. The two audit switches are booleans, so their bad value is a
// flag-parse error and they have no `list`.
func TestBindEnv(t *testing.T) {
	cases := []struct {
		args   []string
		ok     func(Env) bool
		header string // substring of the Describe line a good value adds
		fail   string // substring of the error
		help   string // substring of the `list` text
	}{
		{args: []string{"-faults", "loss"}, ok: func(e Env) bool { return e.Faults.Enabled() }, header: "fault injection: "},
		{args: []string{"-faults", "gremlins"}, fail: `bad -faults "gremlins"`},
		{args: []string{"-faults", "list"}, help: "built-in fault profiles"},
		{args: []string{"-restart", "warm@1ms"}, ok: func(e Env) bool { return e.Restart != nil }, header: "vSwitch restart: "},
		{args: []string{"-restart", "hot@never"}, fail: `bad -restart "hot@never"`},
		{args: []string{"-restart", "list"}, help: "vSwitch restart variants"},
		{args: []string{"-fabric", "link-down@1ms,link=left>right"}, ok: func(e Env) bool { return len(e.Fabric) == 1 }, header: "fabric fault domains: "},
		{args: []string{"-fabric", "meteor,link=x"}, fail: `bad -fabric "meteor,link=x"`},
		{args: []string{"-fabric", "list"}, help: "fabric fault domains"},
		{args: []string{"-backend", "pace"}, ok: func(e Env) bool { return e.Backend == "pace" }, header: "enforcement backend: pace"},
		{args: []string{"-backend", "bogus"}, fail: `bad -backend "bogus"`},
		{args: []string{"-backend", "list"}, help: "adaptive-k"},
		{args: []string{"-audit"}, ok: func(e Env) bool { return e.Audit != nil && !e.Audit.Panic }, header: "(log mode)"},
		{args: []string{"-audit=maybe"}, fail: "-audit"},
		{args: []string{"-audit-panic"}, ok: func(e Env) bool { return e.Audit != nil && e.Audit.Panic }, header: "(panic mode)"},
		{args: []string{"-audit-panic=maybe"}, fail: "-audit-panic"},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			fs := flag.NewFlagSet("acdcsim", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			f := BindEnv(fs)
			var env Env
			var help string
			err := fs.Parse(tc.args)
			if err == nil {
				env, help, err = f.Env()
			}
			switch {
			case tc.fail != "":
				if err == nil || !strings.Contains(err.Error(), tc.fail) {
					t.Fatalf("error %v, want one containing %q", err, tc.fail)
				}
			case err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.help != "":
				if !strings.Contains(help, tc.help) {
					t.Fatalf("help %q, want it to contain %q", help, tc.help)
				}
			default:
				if help != "" || !tc.ok(env) {
					t.Fatalf("env %+v (help %q) does not hold the flag's value", env, help)
				}
				if d := env.Describe(1); len(d) != 1 || !strings.Contains(d[0], tc.header) {
					t.Fatalf("Describe = %q, want one line containing %q", d, tc.header)
				}
			}
		})
	}
}

// TestBindEnvSubset: a binary binds only the options it honours, and with
// none given the Env is clean and announces nothing.
func TestBindEnvSubset(t *testing.T) {
	fs := flag.NewFlagSet("acdcd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := BindEnv(fs, "fabric", "backend")
	if fs.Lookup("faults") != nil || fs.Lookup("audit") != nil {
		t.Fatal("unrequested flags were registered")
	}
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	env, help, err := f.Env()
	if err != nil || help != "" {
		t.Fatalf("Env() = %v, %q", err, help)
	}
	if d := env.Describe(1); len(d) != 0 {
		t.Fatalf("clean Env describes itself as %q", d)
	}
}
