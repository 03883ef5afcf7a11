package experiments

import (
	"runtime"
	"sync"
)

// Parallel experiment engine. Every experiment builds its own topo.Net with
// its own sim.Simulator, packet.Pool, and metric registries, so runs share no
// mutable state and can execute on separate goroutines. The engine is a
// fixed worker pool over an index-addressed result slice: output order is
// the input order regardless of which worker finishes first, so a parallel
// run's report is byte-identical to a sequential one.

// Job is one experiment invocation in a batch.
type Job struct {
	Exp Experiment
	Cfg RunConfig
}

// Workers normalizes a worker-count request: n > 0 is taken as-is, anything
// else means one worker per CPU.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// Sweep runs the jobs over `workers` goroutines and returns results in job
// order. workers <= 1 runs inline on the calling goroutine — the sequential
// path spawns nothing, so single-threaded determinism needs no qualifiers.
// onDone, when non-nil, is invoked on the calling goroutine strictly in job
// order (not completion order) as each result becomes available — suitable
// for streaming a report while later experiments still run.
func Sweep(jobs []Job, workers int, onDone func(i int, r *Result)) []*Result {
	results := make([]*Result, len(jobs))
	if Workers(workers) <= 1 || len(jobs) <= 1 {
		for i, j := range jobs {
			results[i] = j.Exp.Run(j.Cfg)
			if onDone != nil {
				onDone(i, results[i])
			}
		}
		return results
	}

	w := Workers(workers)
	if w > len(jobs) {
		w = len(jobs)
	}
	next := make(chan int) // job indices, handed out in order
	done := make([]chan struct{}, len(jobs))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = jobs[i].Exp.Run(jobs[i].Cfg)
				close(done[i])
			}
		}()
	}
	go func() {
		for i := range jobs {
			next <- i
		}
		close(next)
	}()
	// Consume strictly in job order so onDone streams a deterministic report.
	for i := range jobs {
		<-done[i]
		if onDone != nil {
			onDone(i, results[i])
		}
	}
	wg.Wait()
	return results
}
