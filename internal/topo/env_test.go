package topo

import (
	"flag"
	"io"
	"strings"
	"testing"

	"acdc/internal/faults"
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
		{args: []string{"-restart", "wram"}, fail: `did you mean "warm"`},
		{args: []string{"-fabric", "link-down@1ms,link=left>right"}, ok: func(e Env) bool { return len(e.Fabric) == 1 }, header: "fabric fault domains: "},
		{args: []string{"-fabric", "meteor,link=x"}, fail: `bad -fabric "meteor,link=x"`},
		{args: []string{"-fabric", "list"}, help: "fabric fault domains"},
		{args: []string{"-audit"}, ok: func(e Env) bool { return e.Audit != nil && !e.Audit.Panic }, header: "(log mode)"},
		{args: []string{"-audit=maybe"}, fail: "-audit"},
		{args: []string{"-audit-panic"}, ok: func(e Env) bool { return e.Audit != nil && e.Audit.Panic }, header: "(panic mode)"},
		{args: []string{"-audit-panic=maybe"}, fail: "-audit-panic"},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			env, help, err := envFromArgs(tc.args...)
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

// envFromArgs parses args through a fresh FlagSet bound to every
// run-environment flag.
func envFromArgs(args ...string) (Env, string, error) {
	fs := flag.NewFlagSet("acdcsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := BindEnv(fs)
	if err := fs.Parse(args); err != nil {
		return Env{}, "", err
	}
	return f.Env()
}

// TestListFormsAccepted: every form a `list` query prints goes back in
// through its own flag — each built-in fault profile by name and as its key
// list, each restart variant by name and as its plan, and every example.
// The fabric list's kind lines are prose, not forms.
func TestListFormsAccepted(t *testing.T) {
	for _, o := range []struct {
		flag          string
		namesAreForms bool
	}{{"faults", true}, {"restart", true}, {"fabric", false}} {
		_, help, err := envFromArgs("-"+o.flag, "list")
		if err != nil || help == "" {
			t.Fatalf("-%s list: %q, %v", o.flag, help, err)
		}
		var forms []string
		section := "names"
		for _, line := range strings.Split(help, "\n")[1:] {
			switch {
			case line == "keys:" || line == "examples:":
				section = line
			case section == "names" && o.namesAreForms:
				forms = append(forms, strings.Fields(line)...)
			case section == "examples:" && line != "":
				forms = append(forms, strings.TrimSpace(line))
			}
		}
		if len(forms) < 2 {
			t.Fatalf("-%s list prints %d forms:\n%s", o.flag, len(forms), help)
		}
		for _, form := range forms {
			if _, help, err := envFromArgs("-"+o.flag, form); err != nil || help != "" {
				t.Errorf("-%s list prints %q, which -%s rejects: %v", o.flag, form, o.flag, err)
			}
		}
	}
}

// TestBindEnvSubset: a binary binds only the options it honours, and with
// none given the Env is clean and announces nothing.
func TestBindEnvSubset(t *testing.T) {
	fs := flag.NewFlagSet("acdcd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := BindEnv(fs, "fabric")
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

// TestRestartPlanPastTopologyPanics: a restart plan that names a host the
// topology lacks would restart nothing, so arming it panics, as a fault
// domain that matches no link does. The topology's last host arms.
func TestRestartPlanPastTopologyPanics(t *testing.T) {
	arm := func(plan string) (panicked bool) {
		p, err := faults.ParseRestart(plan)
		if err != nil {
			t.Fatalf("ParseRestart(%q): %v", plan, err)
		}
		defer func() { panicked = recover() != nil }()
		Star(4, Options{Env: Env{Restart: &p}})
		return false
	}
	if arm("warm@5ms,host=3") {
		t.Fatal("a plan naming the star's last host panicked")
	}
	if !arm("warm@5ms,host=0,host=4") {
		t.Fatal("a plan naming host 4 of a 4-host star armed without a panic")
	}
}
