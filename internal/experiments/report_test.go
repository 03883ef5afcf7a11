package experiments

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"acdc/internal/faults"
	"acdc/internal/topo"
)

// TestReportGolden pins the Markdown report — its header and the fig8
// section, plain and with the telemetry blocks — to files recorded from the
// standalone report driver this renderer replaced. Only the "Generated by"
// line differs from that driver's output, and the wall time is masked.
func TestReportGolden(t *testing.T) {
	res := Fig8(RunConfig{Seed: 1})
	wall := regexp.MustCompile(`\(wall [0-9.]+s\)`)
	for _, tc := range []struct {
		golden    string
		telemetry bool
	}{{"report_fig8.golden", false}, {"report_fig8_metrics.golden", true}} {
		t.Run(tc.golden, func(t *testing.T) {
			got := ReportHeader(RunConfig{Seed: 1}) + res.Markdown(time.Second, tc.telemetry)
			got = wall.ReplaceAllString(got, "(wall Ns)")
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("report diverged from %s\n--- golden ---\n%s\n--- got ---\n%s", tc.golden, want, got)
			}
		})
	}
}

// TestReportHeaderNamesEnv: a report run under a non-clean environment says
// so in its header.
func TestReportHeaderNamesEnv(t *testing.T) {
	plan, err := faults.ParseRestart("warm@1ms")
	if err != nil {
		t.Fatal(err)
	}
	h := ReportHeader(RunConfig{Seed: 1, Env: topo.Env{Restart: &plan}})
	if !strings.Contains(h, "**Run environment:** vSwitch restart: warm@1.000ms —") {
		t.Fatalf("header does not name the environment:\n%s", h)
	}
}

// TestFig6HonoursEnv: fig6 builds its own topologies rather than going
// through Scheme.options, and must still build them under the run
// environment — a lossy fabric has to show in its numbers.
func TestFig6HonoursEnv(t *testing.T) {
	loss, err := faults.Parse("loss")
	if err != nil {
		t.Fatal(err)
	}
	clean := Fig6(RunConfig{Seed: 1}).String()
	lossy := Fig6(RunConfig{Seed: 1, Env: topo.Env{Faults: &loss}}).String()
	if lossy == clean {
		t.Fatal("fig6 under -faults loss is identical to the clean run: the environment was dropped")
	}
}
