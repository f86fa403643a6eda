package run

import (
	"fmt"
	"strings"

	"cenju4/internal/core"
	"cenju4/internal/digest"
	"cenju4/internal/faults"
	"cenju4/internal/machine"
	"cenju4/internal/npb"
	"cenju4/internal/topology"
)

// Spec is the canonical job specification: everything that determines
// a simulation's outcome, and nothing else. JSON field names are the
// wire format of cenju4-serve's POST /v1/jobs.
//
// The zero value of every optional field means "the default", and
// Normalize rewrites a spec into its canonical form (defaults filled,
// names lowercased) before digesting, so two clients spelling the same
// experiment differently share one cache entry.
type Spec struct {
	// App and Variant select the workload: one of the four NPB kernels
	// ("bt", "cg", "ft", "sp") in one program form ("seq", "mpi",
	// "dsm1", "dsm2").
	App     string `json:"app"`
	Variant string `json:"variant"`
	// Nodes is the machine size (power of two; default 16, forced to 1
	// for seq).
	Nodes int `json:"nodes,omitempty"`
	// NoMapping disables the shared-data mappings (dsm variants).
	NoMapping bool `json:"no_mapping,omitempty"`
	// Iterations is the outer time-step count (default 2).
	Iterations int `json:"iterations,omitempty"`
	// Scale is the problem size relative to NPB Class A (default 0.05).
	Scale float64 `json:"scale,omitempty"`
	// Seed labels the run in observability output. The simulation is
	// deterministic — the seed does not perturb it — but it is part of
	// the digest, so distinct seeds are distinct cache entries (the
	// load generator exploits this for cheap unique specs).
	Seed int64 `json:"seed,omitempty"`
	// Protocol selects the coherence protocol: "queuing" (default) or
	// "nack".
	Protocol string `json:"protocol,omitempty"`
	// Stages overrides the network stage count (0 = paper default).
	Stages int `json:"stages,omitempty"`
	// NoMulticast disables the network's multicast/gathering hardware.
	NoMulticast bool `json:"no_multicast,omitempty"`
	// UpdateProtocol runs the hot shared region under the update-type
	// protocol extension.
	UpdateProtocol bool `json:"update_protocol,omitempty"`
	// TraceMax, when positive, collects up to that many protocol trace
	// events (Result.Trace).
	TraceMax int `json:"trace_max,omitempty"`
	// Fault is a deterministic fault plan: a preset name
	// ("light-loss") or a k=v spec ("drop=0.02,seed=7"), canonicalized
	// by Normalize so equivalent spellings share a cache entry. An
	// unrecoverable plan aborts the run with the machine watchdog's
	// diagnosis (machine.ErrDeadlock). Empty means fault-free.
	Fault string `json:"fault,omitempty"`
	// IntraParallel shards the run's simulated nodes over K
	// conservative-PDES partitions that advance in parallel windows
	// (see internal/psim). 0 or 1 selects the sequential kernel. The
	// result is byte-identical at every setting — the field exists so
	// operators can trade cores for latency on big jobs — but it is
	// part of the digest, so PDES and sequential runs of one experiment
	// are distinct cache entries. Must be a power of two dividing the
	// node count; incompatible with the "mpi" variant (blocking Recv
	// has zero lookahead), fault plans, and tracing.
	IntraParallel int `json:"intra_parallel,omitempty"`
}

// Normalize returns the canonical form of s: defaults filled in and
// names folded to their canonical spellings. It does not validate —
// call Validate on the result.
func (s Spec) Normalize() Spec {
	s.App = strings.ToLower(s.App)
	s.Variant = canonicalVariant(s.Variant)
	s.Protocol = strings.ToLower(s.Protocol)
	if s.Protocol == "" {
		s.Protocol = "queuing"
	}
	if s.Nodes == 0 {
		s.Nodes = 16
	}
	if s.Variant == "seq" {
		s.Nodes = 1
	}
	if s.Iterations == 0 {
		s.Iterations = 2
	}
	if s.Scale == 0 {
		s.Scale = 0.05
	}
	if s.TraceMax < 0 {
		s.TraceMax = 0
	}
	if s.IntraParallel == 0 {
		s.IntraParallel = 1
	}
	if s.Fault != "" {
		// Canonicalize so "drop=0.02" and " DROP=0.02 " digest alike;
		// an unparsable plan is left verbatim for Validate to report.
		if f, err := faults.ParseSpec(s.Fault); err == nil {
			s.Fault = f.String()
			if !f.Enabled() {
				s.Fault = ""
			}
		}
	}
	return s
}

// canonicalVariant folds the accepted variant spellings ("dsm(2)",
// "DSM2", ...) to the compact wire form.
func canonicalVariant(v string) string {
	switch strings.ToLower(v) {
	case "dsm1", "dsm(1)":
		return "dsm1"
	case "dsm2", "dsm(2)":
		return "dsm2"
	default:
		return strings.ToLower(v)
	}
}

// Validate checks a normalized spec for well-formedness. It reports
// malformed specs (unknown names, impossible sizes, combinations the
// simulator cannot run) — resource ceilings are the caller's concern,
// not the spec's.
func (s Spec) Validate() error {
	_, _, err := s.resolve()
	return err
}

// resolve validates a normalized spec and translates it into the
// workload options and machine configuration it names. The machine
// configuration still lacks the built workload's UpdateMode and the
// caller's IntraWorkers.
func (s Spec) resolve() (npb.Options, machine.Config, error) {
	bad := func(format string, args ...any) (npb.Options, machine.Config, error) {
		return npb.Options{}, machine.Config{}, fmt.Errorf("run: bad spec: "+format, args...)
	}
	app, err := npb.ParseApp(s.App)
	if err != nil {
		return bad("%w", err)
	}
	v, err := npb.ParseVariant(s.Variant)
	if err != nil {
		return bad("%w", err)
	}
	if v == npb.Seq && s.Nodes != 1 {
		return bad("seq runs on exactly 1 node, got %d", s.Nodes)
	}
	if !topology.ValidNodeCount(s.Nodes) {
		return bad("node count %d is not a power of two <= %d", s.Nodes, topology.MaxNodes)
	}
	mode := core.ModeQueuing
	switch s.Protocol {
	case "queuing":
	case "nack":
		mode = core.ModeNack
	default:
		return bad("unknown protocol %q (want queuing or nack)", s.Protocol)
	}
	if !(s.Scale >= 0.001 && s.Scale <= 4) { // written so NaN fails too
		return bad("scale %g out of range [0.001, 4]", s.Scale)
	}
	if s.Iterations < 1 || s.Iterations > 64 {
		return bad("iterations %d out of range [1, 64]", s.Iterations)
	}
	if s.Stages != 0 {
		if s.Stages < 2 || s.Stages > 6 || s.Stages%2 != 0 {
			return bad("stages %d (want 0 for default, or 2, 4, 6)", s.Stages)
		}
	}
	fault, err := faults.ParseSpec(s.Fault) // "" parses as fault-free
	if err != nil {
		return bad("%w", err)
	}
	if k := s.IntraParallel; k > 1 {
		if k&(k-1) != 0 || k > s.Nodes {
			return bad("intra_parallel %d must be a power of two <= %d nodes", k, s.Nodes)
		}
		if v == npb.MPI {
			return bad("intra_parallel > 1 is incompatible with the mpi variant (blocking Recv has zero lookahead)")
		}
		if s.Fault != "" {
			return bad("intra_parallel > 1 is incompatible with fault injection")
		}
		if s.TraceMax > 0 {
			return bad("intra_parallel > 1 is incompatible with tracing")
		}
	}
	return npb.Options{
			App:            app,
			Variant:        v,
			Nodes:          s.Nodes,
			DataMapping:    !s.NoMapping,
			Iterations:     s.Iterations,
			Scale:          s.Scale,
			UpdateProtocol: s.UpdateProtocol,
		}, machine.Config{
			Nodes:         s.Nodes,
			Stages:        s.Stages,
			Multicast:     !s.NoMulticast,
			Mode:          mode,
			Fault:         fault,
			IntraParallel: s.IntraParallel,
		}, nil
}

// specEncoding versions the digest encoding. Bump it when a field is
// added or the canonical form changes: old cache entries then miss
// instead of aliasing new specs. (v2: fault plan; v3: intra_parallel.)
const specEncoding = "cenju4-serve spec v3"

// Digest returns the content address of a spec: the canonical SHA-256
// of its normalized encoding. Every field that can change a
// simulation's outcome (or its observability payload) is written, in
// declaration order; the golden-stability and field-sensitivity tests
// in internal/serve pin the encoding.
func (s Spec) Digest() string {
	n := s.Normalize()
	w := digest.New()
	w.Printf("%s\n", specEncoding)
	w.Printf("app=%q variant=%q nodes=%d mapped=%t\n", n.App, n.Variant, n.Nodes, !n.NoMapping)
	w.Printf("iters=%d scale=%g seed=%d\n", n.Iterations, n.Scale, n.Seed)
	w.Printf("protocol=%q stages=%d multicast=%t update=%t trace=%d\n",
		n.Protocol, n.Stages, !n.NoMulticast, n.UpdateProtocol, n.TraceMax)
	w.Printf("fault=%q\n", n.Fault)
	w.Printf("intra=%d\n", n.IntraParallel)
	return w.Sum()
}
