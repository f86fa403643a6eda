// Package runner shards independent simulation runs across worker
// goroutines while keeping every observable output deterministic.
//
// The simulator's heavy drivers — the benchmark matrix, the fuzz
// matrix, the Monte-Carlo ablations — are all embarrassingly parallel:
// each run builds its own sim.Engine and machine.Machine from a config
// and a seed, and runs share nothing. runner.Map exploits that shape:
// it executes fn(0..n-1) on up to Options.Parallel goroutines and
// returns results ordered by run index, never by completion order, so
// the merged output of a parallel sweep is byte-identical to the
// sequential one (asserted by tests in internal/fuzz and
// internal/experiments, run under -race in CI).
//
// Rules for fn closures, enforced by the cenju4-lint determinism
// analyzer: fn must not write variables captured from the enclosing
// scope (the analyzer flags such assignments); every run derives its
// randomness from its index (e.g. fuzz.CaseSeed) rather than sharing a
// rand.Rand; and each run constructs its own engine/machine — sim
// engines are single-threaded and must never be shared across runs.
//
// A panicking run does not kill the fleet: the panic is captured with
// its stack and reported alongside the run's index and label so the
// failing config+seed can be replayed, while the other runs complete.
package runner

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Options configures a Map call.
type Options struct {
	// Parallel is the maximum number of concurrent runs. Zero or
	// negative means GOMAXPROCS. One runs everything on the calling
	// goroutine.
	Parallel int
	// Label, if non-nil, names run i in panic reports (typically the
	// config+seed string needed to replay it).
	Label func(i int) string
}

// Panic describes one captured run panic.
type Panic struct {
	Index int
	Label string
	Value any
	Stack string
}

func (p *Panic) Error() string {
	if p.Label != "" {
		return fmt.Sprintf("run %d (%s) panicked: %v", p.Index, p.Label, p.Value)
	}
	return fmt.Sprintf("run %d panicked: %v", p.Index, p.Value)
}

// Map runs fn(i) for i in [0, n) across a worker pool and returns the
// results indexed by i. Captured panics are returned ordered by run
// index; results[i] is the zero value for a panicked run.
func Map[R any](o Options, n int, fn func(i int) R) ([]R, []*Panic) {
	return MapEach(o, n, fn, nil)
}

// MapEach is Map with a completion callback: each(i, results[i]) is
// invoked exactly once per non-panicked run, in strictly ascending
// index order, as soon as the prefix 0..i has completed. This is how
// drivers emit deterministic progress output (one line per run, always
// in run order) while the fleet completes out of order behind it. each
// runs on whichever worker goroutine completed the prefix, under the
// runner's lock: it must be fast and must not call back into the
// runner.
func MapEach[R any](o Options, n int, fn func(i int) R, each func(i int, r R)) ([]R, []*Panic) {
	if n <= 0 {
		return nil, nil
	}
	workers := o.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	results := make([]R, n)
	panicked := make([]*Panic, n)

	if workers == 1 {
		for i := 0; i < n; i++ {
			runOne(o, i, fn, results, panicked)
			if each != nil && panicked[i] == nil {
				each(i, results[i])
			}
		}
		return results, compact(panicked)
	}

	// Ordered delivery: done marks finished runs; cursor is the first
	// index whose callback has not fired. Whichever worker finishes the
	// run at the cursor drains the completed prefix.
	var (
		mu     sync.Mutex
		done   = make([]bool, n)
		cursor int
		next   atomic.Int64
		wg     sync.WaitGroup
	)
	deliver := func(i int) {
		mu.Lock()
		done[i] = true
		for cursor < n && done[cursor] {
			if each != nil && panicked[cursor] == nil {
				each(cursor, results[cursor])
			}
			cursor++
		}
		mu.Unlock()
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				runOne(o, i, fn, results, panicked)
				deliver(i)
			}
		}()
	}
	wg.Wait()
	return results, compact(panicked)
}

// NestedBudget caps a per-run (inner) worker count so that outer
// concurrent runs, each using the returned inner parallelism, never
// oversubscribe the machine: outer × result ≤ GOMAXPROCS, with a floor
// of 1. Sweep drivers that enable intra-run parallelism
// (machine.Config.IntraParallel) must pass their Map parallelism as
// outer; non-positive arguments mean GOMAXPROCS, matching
// Options.Parallel semantics.
func NestedBudget(outer, inner int) int {
	procs := runtime.GOMAXPROCS(0)
	if outer <= 0 {
		outer = procs
	}
	if inner <= 0 {
		inner = procs
	}
	budget := procs / outer
	if budget < 1 {
		budget = 1
	}
	if inner > budget {
		inner = budget
	}
	return inner
}

// DeriveSeed expands a base seed into the seed for run i (splitmix64
// applied twice, the repo's standard mixer — fuzz.CaseSeed and the
// experiment ablations both use it). Runs on a worker pool must never
// share a random generator: draw order would depend on goroutine
// scheduling. Instead each run seeds its own stream from its index, so
// a run is reproduced by (base, i) alone and the sweep's output is
// independent of the parallelism level.
func DeriveSeed(base uint64, i int) uint64 {
	return splitmix64(base ^ splitmix64(uint64(i)+1))
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// runOne executes a single run with panic capture.
func runOne[R any](o Options, i int, fn func(int) R, results []R, panicked []*Panic) {
	defer func() {
		if v := recover(); v != nil {
			label := ""
			if o.Label != nil {
				label = o.Label(i)
			}
			panicked[i] = &Panic{Index: i, Label: label, Value: v, Stack: string(debug.Stack())}
		}
	}()
	results[i] = fn(i)
}

func compact(sparse []*Panic) []*Panic {
	var out []*Panic
	for _, p := range sparse {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}
