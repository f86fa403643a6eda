package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"cenju4/internal/experiments"
	"cenju4/internal/machine"
	"cenju4/internal/npb"
)

// suiteSteps are cenju4-bench's experiments, in its order.
var suiteSteps = []string{"table1", "fig4", "table2", "fig10", "fig11", "fig12", "table3", "table4", "futurework", "ablations"}

// ablationSeed is cenju4-bench's default -ablation-seed.
const ablationSeed = 7

// renderSuite renders the whole suite exactly as `cenju4-bench -quick`
// prints it, with one span per experiment.
func renderSuite(cfg experiments.Config, tr *tracer, parent int) string {
	steps := map[string]func() string{
		"table1":     func() string { return experiments.Table1().Render() },
		"fig4":       func() string { return experiments.Figure4(cfg).Render() },
		"table2":     func() string { return experiments.Table2().Render() },
		"fig10":      func() string { return experiments.Figure10().Render() },
		"fig11":      func() string { return experiments.Figure11(cfg).Render() },
		"fig12":      func() string { return experiments.Figure12(cfg).Render() },
		"table3":     func() string { return experiments.Table3(cfg).Render() },
		"table4":     func() string { return experiments.Table4(cfg).Render() },
		"futurework": func() string { return experiments.FutureWork(cfg).Render() },
		"ablations": func() string {
			var b strings.Builder
			b.WriteString(experiments.AblationNack(32).Render())
			b.WriteString("\n")
			b.WriteString(experiments.AblationSinglecastThreshold(cfg, 64).Render())
			b.WriteString("\n")
			b.WriteString(experiments.AblationImprecision(cfg, 1024, ablationSeed).Render())
			return b.String()
		},
	}
	var b strings.Builder
	for _, name := range suiteSteps {
		var out string
		tr.do("experiments."+name, parent, func() { out = steps[name]() })
		fmt.Fprintf(&b, "==== %s (scale %.2f, %d iters) ====\n%s\n", name, cfg.Scale, cfg.Iterations, out)
	}
	return b.String()
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// paperQuick runs the quick paper-reproduction suite at Parallel =
// nproc. Its set-up runs the suite once at Parallel = 1 with metrics
// collection on, which warms the process and yields the reference
// render every timed pass must match and the event count.
type paperQuick struct {
	e        *env
	cfg      experiments.Config
	render   string // Parallel=1 render hash
	last     string // the latest pass's render hash
	events   uint64
	counters map[string]float64
	errPct   float64
	seqWall  float64    // traced runs: a warm pass at Parallel = 1, seconds
	psim     [3]float64 // K=2 speedup, windows, events per window
}

func newPaperQuick(e *env) workload {
	cfg := experiments.Quick()
	cfg.Seed = e.seed
	cfg.Parallel = e.nproc
	return &paperQuick{e: e, cfg: cfg}
}

func (p *paperQuick) setup() error {
	cfg := p.cfg
	cfg.Parallel = 1
	cfg.Observe = &experiments.Observation{}
	p.render = sha(renderSuite(cfg, p.e.tr, p.e.root))
	if want, ok := p.e.ref["paper-quick"]; ok {
		p.e.chk.check(p.render == want, "paper-quick render %s, reference %s", p.render, want)
	}
	var err error
	p.counters, err = registryCounters(cfg.Observe.Metrics)
	p.events = uint64(p.counters["sim/events"])
	return err
}

func (p *paperQuick) prepare(int) error { return nil }

func (p *paperQuick) pass(int) error {
	p.last = sha(renderSuite(p.cfg, p.e.tr, p.e.root))
	return nil
}

func (p *paperQuick) settle(i int) uint64 {
	p.e.chk.check(p.last == p.render, "pass %d: render at Parallel=%d differs from Parallel=1", i, p.cfg.Parallel)
	return p.events
}

// paperError is the simulator's worst relative error against the
// paper's own numbers, in percent: Table 2's load latencies and the
// Figure 10 store latencies with 1023 sharers.
func paperError() float64 {
	worst := experiments.Table2().MaxError()
	f := experiments.Figure10()
	for _, c := range []struct {
		multicast bool
		paper     float64
	}{{true, float64(f.PaperMulticast1024)}, {false, float64(f.PaperSinglecast1024)}} {
		pt, ok := f.EndPoint(1024, c.multicast)
		if !ok {
			continue
		}
		if e := math.Abs(float64(pt.Latency)-c.paper) / c.paper; e > worst {
			worst = e
		}
	}
	return 100 * worst
}

func (p *paperQuick) finish() error {
	p.errPct = paperError()
	if p.e.tr == nil {
		return nil
	}
	// runner.speedup's numerator: one more pass, warm and with metrics
	// collection off like the timed passes, at Parallel = 1.
	seq := p.cfg
	seq.Parallel = 1
	runtime.GC()
	var render string
	t0 := time.Now()
	p.e.tr.do("suite.parallel1", p.e.root, func() { render = sha(renderSuite(seq, nil, 0)) })
	p.seqWall = time.Since(t0).Seconds()
	p.e.chk.check(render == p.render, "paper-quick: warm render at Parallel=1 differs from the set-up's")
	// npb.Build for Figure 11's twenty programs, which the suite builds
	// inside the experiments package where no span can reach.
	for _, app := range []npb.App{npb.BT, npb.CG, npb.FT, npb.SP} {
		nodes := 128
		if app == npb.BT || app == npb.SP {
			nodes = 64
		}
		for _, v := range []struct {
			v      npb.Variant
			mapped bool
		}{{npb.MPI, false}, {npb.DSM1, false}, {npb.DSM1, true}, {npb.DSM2, false}, {npb.DSM2, true}} {
			var err error
			p.e.tr.do("npb.Build", p.e.root, func() {
				_, err = npb.Build(npb.Options{App: app, Variant: v.v, Nodes: nodes, DataMapping: v.mapped,
					Iterations: p.cfg.Iterations, Scale: p.cfg.Scale})
			})
			if err != nil {
				return err
			}
		}
	}
	return p.psimProbe()
}

// psimProbe times one NPB dsm2 shape, CG on 64 nodes, on the
// sequential kernel and on two conservative-PDES partitions.
func (p *paperQuick) psimProbe() error {
	var walls [2]float64
	var digests [2]string
	for i, k := range []int{1, 2} {
		w, err := npb.Build(npb.Options{App: npb.CG, Variant: npb.DSM2, Nodes: 64, DataMapping: true,
			Iterations: p.cfg.Iterations, Scale: p.cfg.Scale})
		if err != nil {
			return err
		}
		m := machine.New(machine.Config{Nodes: 64, Multicast: true, IntraParallel: k, IntraWorkers: k})
		t0 := time.Now()
		r, err := m.RunContext(context.Background(), w.Progs, 0)
		walls[i] = time.Since(t0).Seconds()
		p.e.chk.check(err == nil, "psim probe K=%d: %v", k, err)
		digests[i] = machine.Digest(r)
		if k == 2 && m.Intra() != nil {
			windows := float64(m.Intra().Windows())
			p.psim[1] = windows
			if windows > 0 {
				p.psim[2] = float64(r.Events) / windows
			}
		}
	}
	p.e.chk.check(digests[0] == digests[1], "psim probe: digest at K=2 differs from K=1")
	p.psim[0] = walls[0] / walls[1]
	return nil
}

func (p *paperQuick) layers(m map[string]float64) error {
	counterLayers(p.counters, m)
	m["experiments.paper_err_pct"] = p.errPct
	if p.seqWall > 0 {
		m["runner.speedup"] = p.seqWall / m["wall_s"]
		m["runner.efficiency"] = m["runner.speedup"] / float64(p.e.nproc)
	}
	m["psim.k2_speedup"], m["psim.windows"], m["psim.events_per_window"] = p.psim[0], p.psim[1], p.psim[2]
	return nil
}

func (p *paperQuick) close() {}
