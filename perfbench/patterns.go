package main

import (
	"context"

	"cenju4/internal/cpu"
	"cenju4/internal/fuzz"
	"cenju4/internal/machine"
	"cenju4/internal/metrics"
)

// patternNodes and patternOps size the fuzz-pattern workloads: the
// paper's full machine, and 128 operations per node per pattern, so
// one pass is a few tenths of a second.
const (
	patternNodes = 1024
	patternOps   = 128 * patternNodes
)

// patternRuns runs fuzz traffic patterns on fresh 1024-node machines
// through RunContext, then Validate. Each pass runs every pattern once.
type patternRuns struct {
	e        *env
	name     string
	patterns []fuzz.Pattern
	streams  [][][]cpu.Op       // per pattern, per node
	machines []*machine.Machine // built for the next pass
	digests  []string           // per pattern, from the first pass
	runs     []patternRun       // the latest pass
	reg      *metrics.Registry  // traced passes' counters
	passes   int                // traced passes folded into reg
}

// patternRun is one pattern's run in a pass.
type patternRun struct {
	result           machine.Result
	runErr, validErr error
}

// newShare1024 is wide read-sharing: producer-consumer and partition
// traffic.
func newShare1024(e *env) workload {
	return &patternRuns{e: e, name: "share-1024", patterns: []fuzz.Pattern{fuzz.PatternProducerConsumer, fuzz.PatternPartition}}
}

// newContend1024 is stores beside loads: hotspot and migratory
// traffic.
func newContend1024(e *env) workload {
	return &patternRuns{e: e, name: "contend-1024", patterns: []fuzz.Pattern{fuzz.PatternHotspot, fuzz.PatternMigratory}}
}

func (p *patternRuns) setup() error {
	p.streams = make([][][]cpu.Op, len(p.patterns))
	for i, pat := range p.patterns {
		p.e.tr.do("fuzz.Generate", p.e.root, func() {
			p.streams[i] = fuzz.Generate(pat, uint64(p.e.seed), patternNodes, patternOps)
		})
	}
	p.build()
	return nil
}

func (p *patternRuns) build() {
	p.machines = make([]*machine.Machine, len(p.patterns))
	for i := range p.machines {
		p.e.tr.do("machine.New", p.e.root, func() {
			p.machines[i] = machine.New(machine.Config{Nodes: patternNodes, Multicast: true})
		})
	}
}

func (p *patternRuns) prepare(int) error {
	if p.machines == nil {
		p.e.root = p.e.tr.start("prepare", 0)
		p.build()
		p.e.tr.end(p.e.root, 1)
	}
	return nil
}

func (p *patternRuns) pass(int) error {
	p.runs = make([]patternRun, len(p.patterns))
	ctx := context.Background()
	for i, m := range p.machines {
		progs := make([]cpu.Program, patternNodes)
		for n := range progs {
			progs[n] = &cpu.SliceProgram{Ops: p.streams[i][n]}
		}
		run := &p.runs[i]
		p.e.tr.do("machine.RunContext", p.e.root, func() {
			run.result, run.runErr = m.RunContext(ctx, progs, 0)
		})
		p.e.tr.do("machine.Validate", p.e.root, func() { run.validErr = m.Validate() })
		if p.e.tr != nil {
			if p.reg == nil {
				p.reg = metrics.New()
			}
			p.e.tr.do("machine.MetricsInto", p.e.root, func() { m.MetricsInto(p.reg) })
		}
	}
	return nil
}

func (p *patternRuns) settle(pass int) uint64 {
	if p.digests == nil {
		p.digests = make([]string, len(p.patterns))
	}
	var events uint64
	for i, r := range p.runs {
		pat := p.patterns[i]
		var d string
		p.e.tr.do("machine.Digest", p.e.root, func() { d = machine.Digest(r.result) })
		if p.digests[i] == "" {
			p.digests[i] = d
			checkReference(p.e, p.name+"/"+pat.String(), d)
		}
		// The traced passes come after the untraced ones, so this also
		// holds the traced run to the untraced run's digest.
		p.e.chk.check(r.runErr == nil && r.validErr == nil && d == p.digests[i],
			"%s pass %d: %v: RunContext: %v; Validate: %v; digest %s, first pass %s",
			p.name, pass, pat, r.runErr, r.validErr, d, p.digests[i])
		events += r.result.Events
	}
	if p.e.tr != nil {
		p.passes++
	}
	p.machines = nil
	return events
}

func (p *patternRuns) finish() error { return nil }

func (p *patternRuns) layers(m map[string]float64) error {
	if p.reg == nil {
		return nil // untraced: no counters collected
	}
	c, err := registryCounters(p.reg)
	if err != nil {
		return err
	}
	for name, v := range c {
		if name != "core/fifo/home-requests" { // a high-water mark, not a sum
			c[name] = v / float64(p.passes)
		}
	}
	counterLayers(c, m)
	return nil
}

func (p *patternRuns) close() {}
