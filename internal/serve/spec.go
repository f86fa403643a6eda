// Package serve turns the deterministic simulator into a long-running
// experiment service: an HTTP/JSON job API over a content-addressed
// result cache and an execution pool.
//
// The layering is run → digest → cache → pool:
//
//   - a Spec (internal/run) canonically names one experiment (machine
//     configuration + workload selector + seed), hashes to a stable
//     content digest, and executes through run.Execute — the same
//     pipeline, validation and coherence check as the cenju4 facade
//     and the experiment sweeps; Execute here only renders the result;
//   - because every run is byte-identical for a given spec, the digest
//     is a perfect cache key: the bounded LRU Cache maps digests to
//     rendered result payloads, so a repeated spec costs a map lookup
//     instead of a simulation;
//   - the Pool runs each cache miss on one of a fixed set of worker
//     goroutines, one job at a time per worker, with admission control
//     (bounded queue, queue-full rejection), per-job limits (node
//     ceiling, event budget, wall-clock timeout threaded into the sim
//     loop via machine.RunContext), duplicate-submission coalescing
//     (concurrent identical specs share one run), and graceful
//     draining shutdown;
//   - the Server exposes it all as HTTP: POST /v1/jobs, GET
//     /v1/jobs/{digest}, GET /v1/jobs/{digest}/trace, GET /v1/metrics,
//     GET /healthz.
//
// Unlike every package under the simulation lint scope, serve is
// wall-clock-legitimate: request latencies, timeouts and eviction
// order are service concerns, not simulation outcomes. Determinism is
// preserved where it matters — the cached payload bytes for a digest
// are identical no matter which worker or process produced
// them, and cenju4-load asserts that contract under load.
package serve

import (
	"fmt"

	"cenju4/internal/run"
	"cenju4/internal/topology"
)

// Spec is the job specification of POST /v1/jobs (see run.Spec).
type Spec = run.Spec

// Limits are the service's per-job resource ceilings, enforced at
// admission (MaxNodes) and inside the run (MaxEvents as an event
// budget, Pool.JobTimeout as a wall-clock deadline).
type Limits struct {
	// MaxNodes caps the machine size a job may request (0 = the
	// topology maximum).
	MaxNodes int
	// MaxEvents caps the number of simulation events a job may fire
	// (0 = unlimited).
	MaxEvents uint64
}

// Check reports whether a validated spec fits the limits.
func (l Limits) Check(s Spec) error {
	maxNodes := l.MaxNodes
	if maxNodes <= 0 {
		maxNodes = topology.MaxNodes
	}
	if s.Nodes > maxNodes {
		return fmt.Errorf("serve: over limit: %d nodes exceeds the service ceiling of %d", s.Nodes, maxNodes)
	}
	return nil
}
