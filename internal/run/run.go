// Package run is the one pipeline from a job description to a
// simulation result. A Spec names one NPB application run and hashes
// to a stable content digest; Execute validates it, builds the workload
// and the machine, runs it under a context and an event budget, checks
// machine-wide coherence and summarizes the result.
//
// Every surface that runs an application goes through Execute — the
// layering is run ← serve / experiments / facade — so all of them
// accept the same inputs, check coherence and classify errors the same
// way. Like machine, run is a simulation package for the lint suite:
// its only outside input is the context.
package run

import (
	"context"
	"fmt"

	"cenju4/internal/machine"
	"cenju4/internal/metrics"
	"cenju4/internal/msg"
	"cenju4/internal/npb"
	"cenju4/internal/stats"
	"cenju4/internal/trace"
)

// Options are how a run executes and what observes it. None of them
// changes the simulation's outcome.
type Options struct {
	// MaxEvents caps the events the run may fire (0 = unlimited); an
	// overrun returns an error wrapping machine.ErrEventBudget.
	MaxEvents uint64
	// IntraWorkers caps the PDES shard threads of a spec with
	// IntraParallel > 1 (0 = one per shard). Callers running Execute
	// inside their own worker pool budget it with runner.NestedBudget.
	IntraWorkers int
	// Metrics, when non-nil, receives the machine's observability
	// registry after the run (machine.MetricsInto).
	Metrics *metrics.Registry
	// Trace, when non-nil, collects the protocol event stream in place
	// of the collector of Spec.TraceMax events Execute would build; the
	// spec is then validated as traced with the collector's capacity.
	Trace *trace.Collector
}

// Summary is the workload-level view of a run: the figures the CLIs
// print, plus the machine result's own content digest (machine.Digest),
// which ties a summary back to the golden regression machinery — two
// runs with equal result digests were byte-identical simulations. The
// JSON field names are the "result" section of cenju4-serve's payload.
type Summary struct {
	TimeNs       uint64 `json:"time_ns"`
	Events       uint64 `json:"events"`
	Instructions uint64 `json:"instructions"`
	MemAccesses  uint64 `json:"mem_accesses"`
	// MissRatio is secondary-cache misses / memory accesses.
	MissRatio float64 `json:"miss_ratio"`
	// Miss shares by address class (fractions of all misses).
	PrivateMissShare float64 `json:"private_miss_share"`
	LocalMissShare   float64 `json:"local_miss_share"`
	RemoteMissShare  float64 `json:"remote_miss_share"`
	// SyncFraction is synchronization time / total processor time.
	SyncFraction float64 `json:"sync_fraction"`
	// RewriteRatio is the program-rewriting ratio of the variant.
	RewriteRatio float64 `json:"rewrite_ratio"`
	ResultDigest string  `json:"result_digest"`
}

// Result is one finished, coherence-checked run.
type Result struct {
	Machine machine.Result
	Meta    npb.Meta
	Summary Summary
	// Latency holds the machine-wide transaction latency histogram of
	// each request kind.
	Latency map[msg.Kind]*stats.Histogram
	// Trace is the run's protocol event collector (nil when untraced).
	Trace *trace.Collector
}

// Execute runs one spec to completion. It normalizes and validates the
// spec first, so every caller accepts and rejects the same inputs. A
// run that stops early returns an error wrapping the cause:
// machine.ErrDeadlock (the watchdog found unfinished programs at
// quiescence; the error is a *machine.DeadlockError with the
// diagnosis), machine.ErrEventBudget, or ctx's error.
func Execute(ctx context.Context, spec Spec, opts Options) (Result, error) {
	spec = spec.Normalize()
	if opts.Trace != nil {
		spec.TraceMax = opts.Trace.Cap()
	}
	wopts, mcfg, err := spec.resolve()
	if err != nil {
		return Result{}, err
	}
	w, err := npb.Build(wopts)
	if err != nil {
		return Result{}, err
	}
	mcfg.UpdateMode = w.UpdateMode
	mcfg.IntraWorkers = opts.IntraWorkers
	m := machine.New(mcfg)
	col := opts.Trace
	if col == nil && spec.TraceMax > 0 {
		col = trace.NewCollector(spec.TraceMax)
	}
	if col != nil {
		m.SetTracer(col.Tracer())
	}
	r, err := m.RunContext(ctx, w.Progs, opts.MaxEvents)
	if err != nil {
		return Result{}, err
	}
	if err := m.Validate(); err != nil {
		return Result{}, fmt.Errorf("run: coherence violated by %s/%s: %w", spec.App, spec.Variant, err)
	}
	if opts.Metrics != nil {
		m.MetricsInto(opts.Metrics)
	}
	return Result{
		Machine: r,
		Meta:    w.Meta,
		Summary: summarize(r, w.Meta, spec.Nodes),
		Latency: m.LatencyHistograms(),
		Trace:   col,
	}, nil
}

// summarize derives the workload-level figures. Both ratios are
// guarded: a run without misses has zero miss shares, and one that
// took no simulated time has a zero sync fraction.
func summarize(r machine.Result, meta npb.Meta, nodes int) Summary {
	tot := r.Totals()
	misses := float64(tot.Misses)
	if misses == 0 {
		misses = 1
	}
	syncFrac := 0.0
	if r.Time > 0 {
		syncFrac = float64(tot.SyncTime) / (float64(r.Time) * float64(nodes))
	}
	return Summary{
		TimeNs:           r.Time.Nanoseconds(),
		Events:           r.Events,
		Instructions:     tot.Instructions,
		MemAccesses:      tot.MemAccesses,
		MissRatio:        tot.MissRatio(),
		PrivateMissShare: float64(tot.PrivateMisses) / misses,
		LocalMissShare:   float64(tot.LocalMisses) / misses,
		RemoteMissShare:  float64(tot.RemoteMisses) / misses,
		SyncFraction:     syncFrac,
		RewriteRatio:     meta.RewriteRatio,
		ResultDigest:     machine.Digest(r),
	}
}
