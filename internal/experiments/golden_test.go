package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGoldens = flag.Bool("update", false, "rewrite golden experiment reports")

// TestDumbbellFiguresGolden pins the rendered reports of the single-path
// dumbbell figures (fig8, fig18, fig20) at seed 1 to checked-in golden
// files. The simulator is deterministic, so any diff means a behaviour
// change in the packet/link/switch layer — most recently guarded against
// the ECMP/link-lifecycle refactor, which must leave single-path
// forwarding byte-identical. Regenerate deliberately with
//
//	go test ./internal/experiments/ -run TestDumbbellFiguresGolden -update
//
// and justify the diff in the PR.
func TestDumbbellFiguresGolden(t *testing.T) {
	for _, id := range []string{"fig8", "fig18", "fig20"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e := ByID(id)
			if e == nil {
				t.Fatalf("experiment %q not registered", id)
			}
			got := e.Run(RunConfig{Seed: 1}).String()
			path := filepath.Join("testdata", id+"_seed1.golden")
			if *updateGoldens {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Fatalf("%s report diverged from golden %s\n--- golden ---\n%s\n--- got ---\n%s",
					id, path, want, got)
			}
		})
	}
}
