// Command cenju4-chaos runs the coherence fuzz matrix under a grid of
// deterministic fault plans and holds every plan to its contract:
// recoverable plans must pass the shadow-memory oracle with
// byte-identical digests at any parallelism, and unrecoverable plans
// must abort within the event budget — a quiescence-watchdog trip with
// a stuck-state diagnosis under the queuing protocol, an event-budget
// abort for the nack protocol's livelock.
//
// Usage:
//
//	cenju4-chaos                                  # full plan grid
//	cenju4-chaos -plan drop-forwards              # one plan (watchdog expected)
//	cenju4-chaos -plan 'drop=0.1,timeout=100000' -expect recover
//	cenju4-chaos -check-parallel                  # cross-check digests at -parallel 1
//
// The run is deterministic: the same seed and flags reproduce a
// byte-identical report. Exit status 1 when any plan violates its
// contract.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"

	"cenju4/internal/core"
	"cenju4/internal/faults"
	"cenju4/internal/fuzz"
	"cenju4/internal/topology"
)

// flags holds the command-line values that chaosOptions validates.
type flags struct {
	seed          uint64
	ops           int
	nodes         int
	rounds        int
	pattern       string
	mode          string
	stages        int
	plan          string
	expect        string
	budget        uint64
	checkParallel bool
	parallel      int
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("cenju4-chaos: ")
	var f flags
	flag.Uint64Var(&f.seed, "seed", 1, "run seed; per-case seeds derive from it")
	flag.IntVar(&f.ops, "ops", 400, "access budget per case")
	flag.IntVar(&f.nodes, "nodes", 8, "node count (power of two, <= 1024)")
	flag.IntVar(&f.rounds, "rounds", 2, "quiescent validation rounds per case")
	flag.StringVar(&f.pattern, "pattern", "", "traffic pattern (default: hotspot+migratory; 'all' for every generator)")
	flag.StringVar(&f.mode, "mode", "all", "protocol mode: queuing, nack, all")
	flag.IntVar(&f.stages, "stages", 4, "network stage count")
	flag.StringVar(&f.plan, "plan", "", "fault plan: preset name or k=v spec (default: the full preset grid)")
	flag.StringVar(&f.expect, "expect", "auto", "expected outcome for -plan: auto, recover, watchdog")
	flag.Uint64Var(&f.budget, "budget", fuzz.DefaultChaosBudget, "per-case event budget (bounds nack-mode livelocks)")
	flag.BoolVar(&f.checkParallel, "check-parallel", false, "re-run recoverable plans at -parallel 1 and compare digests")
	flag.IntVar(&f.parallel, "parallel", runtime.NumCPU(), "concurrent cases (report is byte-identical at every setting)")
	flag.Parse()

	o, err := chaosOptions(f)
	if err != nil {
		log.Fatal(err)
	}
	rep := fuzz.RunChaos(o)
	fmt.Print(rep.String())
	if rep.Failed() {
		os.Exit(1)
	}
}

// chaosOptions validates the flag values and builds the run's options.
// A bad value is an error that names its flag, returned before any case
// runs.
func chaosOptions(f flags) (fuzz.ChaosOptions, error) {
	if !topology.ValidNodeCount(f.nodes) {
		return fuzz.ChaosOptions{}, fmt.Errorf("-nodes: %d is not a power of two <= %d", f.nodes, topology.MaxNodes)
	}
	if !topology.ValidStages(f.nodes, f.stages) {
		return fuzz.ChaosOptions{}, fmt.Errorf("-stages: %d stages cannot connect %d nodes (want 1..%d with 4^stages >= nodes)",
			f.stages, f.nodes, topology.StagesForNodes(topology.MaxNodes))
	}
	o := fuzz.ChaosOptions{
		Fuzz: fuzz.Options{
			Seed:      f.seed,
			Nodes:     f.nodes,
			Ops:       f.ops,
			Rounds:    f.rounds,
			MaxEvents: f.budget,
			Parallel:  f.parallel,
			Patterns:  []fuzz.Pattern{fuzz.PatternHotspot, fuzz.PatternMigratory},
		},
		CheckParallel: f.checkParallel,
	}
	if f.pattern == "all" {
		o.Fuzz.Patterns = fuzz.AllPatterns()
	} else if f.pattern != "" {
		p, err := fuzz.ParsePattern(f.pattern)
		if err != nil {
			return fuzz.ChaosOptions{}, fmt.Errorf("-pattern: %w", err)
		}
		o.Fuzz.Patterns = []fuzz.Pattern{p}
	}
	ms, err := modes(f.mode)
	if err != nil {
		return fuzz.ChaosOptions{}, err
	}
	for _, m := range ms {
		o.Fuzz.Cells = append(o.Fuzz.Cells, fuzz.Cell{Mode: m, Multicast: true, Stages: f.stages})
	}
	if f.plan != "" {
		spec, err := faults.ParseSpec(f.plan)
		if err != nil {
			return fuzz.ChaosOptions{}, fmt.Errorf("-plan: %w", err)
		}
		p := fuzz.Plan{Name: f.plan, Spec: spec}
		switch f.expect {
		case "recover":
			p.ExpectRecover = true
		case "watchdog":
			p.ExpectRecover = false
		case "auto":
			// Recovery covers exactly the request/reply legs; faults
			// confined there are repairable, anything wider is not.
			p.ExpectRecover = spec.Scope == faults.ScopeRequestReply
		default:
			return fuzz.ChaosOptions{}, fmt.Errorf("-expect: %q is not auto, recover, or watchdog", f.expect)
		}
		o.Plans = []fuzz.Plan{p}
	}
	return o, nil
}

func modes(s string) ([]core.Mode, error) {
	switch s {
	case "queuing":
		return []core.Mode{core.ModeQueuing}, nil
	case "nack":
		return []core.Mode{core.ModeNack}, nil
	case "all":
		return []core.Mode{core.ModeQueuing, core.ModeNack}, nil
	}
	return nil, fmt.Errorf("-mode: %q is not queuing, nack, or all", s)
}
