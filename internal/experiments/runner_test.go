package experiments

import (
	"fmt"
	"sync"
	"testing"
)

// expByID fails the test rather than returning nil for a typo'd ID.
func expByID(t *testing.T, id string) Experiment {
	t.Helper()
	e := ByID(id)
	if e == nil {
		t.Fatalf("experiment %q not in registry", id)
	}
	return *e
}

// runAll runs each experiment with the same config over `workers` workers.
func runAll(exps []Experiment, cfg RunConfig, workers int, onDone func(i int, r *Result)) []*Result {
	jobs := make([]Job, len(exps))
	for i, e := range exps {
		jobs[i] = Job{Exp: e, Cfg: cfg}
	}
	return Sweep(jobs, workers, onDone)
}

// TestParallelMatchesSequential is the engine's core guarantee: running
// experiments on a worker pool yields byte-identical reports (and therefore
// identical metrics) to running them one at a time, in the same order.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three full experiments twice")
	}
	exps := []Experiment{expByID(t, "fig8"), expByID(t, "fig18"), expByID(t, "fig20")}
	cfg := RunConfig{Seed: 1}

	var seqOrder []string
	seq := runAll(exps, cfg, 1, func(i int, r *Result) {
		seqOrder = append(seqOrder, r.ID)
	})
	var parOrder []string
	par := runAll(exps, cfg, 4, func(i int, r *Result) {
		parOrder = append(parOrder, r.ID)
	})

	if len(seq) != len(par) {
		t.Fatalf("result count: seq %d, par %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].ID != par[i].ID {
			t.Fatalf("result %d: order diverged: seq %s, par %s", i, seq[i].ID, par[i].ID)
		}
		s, p := seq[i].String(), par[i].String()
		if s != p {
			t.Errorf("%s: parallel report differs from sequential:\n--- seq ---\n%s\n--- par ---\n%s",
				seq[i].ID, s, p)
		}
		for k, v := range seq[i].Metrics {
			if pv, ok := par[i].Metrics[k]; !ok || pv != v {
				t.Errorf("%s: metric %s: seq %g, par %g (ok=%v)", seq[i].ID, k, v, pv, ok)
			}
		}
	}
	for i := range seqOrder {
		if seqOrder[i] != parOrder[i] {
			t.Fatalf("onDone order diverged at %d: seq %v, par %v", i, seqOrder, parOrder)
		}
	}
}

// TestSweepOrderAndConcurrency drives the pool with synthetic jobs: results
// land at their job index, onDone sees strictly increasing indices, and the
// per-job configs are not mixed up between workers.
func TestSweepOrderAndConcurrency(t *testing.T) {
	const n = 37
	jobs := make([]Job, n)
	for i := range jobs {
		seed := int64(i + 1)
		jobs[i] = Job{
			Exp: Experiment{
				ID: fmt.Sprintf("job%d", i),
				Run: func(cfg RunConfig) *Result {
					r := newResult(fmt.Sprintf("job%d", seed-1), "synthetic", "")
					r.Metrics["seed"] = float64(cfg.Seed)
					return r
				},
			},
			Cfg: RunConfig{Seed: seed},
		}
	}
	var mu sync.Mutex
	var order []int
	res := Sweep(jobs, 8, func(i int, r *Result) {
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
	})
	if len(res) != n {
		t.Fatalf("got %d results, want %d", len(res), n)
	}
	for i, r := range res {
		if r == nil {
			t.Fatalf("result %d is nil", i)
		}
		if want := fmt.Sprintf("job%d", i); r.ID != want {
			t.Errorf("result %d: ID %s, want %s", i, r.ID, want)
		}
		if got := r.Metrics["seed"]; got != float64(i+1) {
			t.Errorf("result %d: ran with seed %g, want %d", i, got, i+1)
		}
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("onDone visited %v: not in job order", order)
		}
	}
}

// TestWorkers pins the normalization rule.
func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Errorf("Workers(3) = %d", Workers(3))
	}
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Errorf("Workers(0)=%d Workers(-1)=%d; want >= 1", Workers(0), Workers(-1))
	}
}
