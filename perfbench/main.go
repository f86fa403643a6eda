// Command perfbench is the repository's benchmark. It runs one
// workload in-process through the simulator's public Go functions,
// checks that the outputs are correct, and prints one JSON result as
// the last line of standard output.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload share-1024 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of set-ups
// and timed passes run with tracing off. With --trace 1 it
// carries the per-layer metrics of a traced run instead: spans around
// the benchmark's calls into each layer, a CPU profile bucketed by
// package, the simulator's own counters, and the tracing overhead.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"
)

// metricDef is a metric the result may carry, with its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Every workload reports
// every one of them.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"events_per_s", "1/s"},
	{"alloc_mb", "MB"},
}

// perLayer are the metrics of a traced run. A workload that does not
// exercise a layer reports 0 for it. An untraced run prints the ones it
// can measure without tracing (serve latencies, the paper error, peak
// RSS) but does not report them: they apply to one workload each, or
// spread too widely between runs to gate (peak RSS follows the
// collector's timing).
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, m := range append(profModules, "gc", "runtime", "other") {
		defs = append(defs, metricDef{"prof." + m + ".self_share", "ratio"})
	}
	return append(defs, []metricDef{
		{"trace.untraced_wall_s", "s"},
		{"trace.traced_wall_s", "s"},
		{"trace.overhead_s", "s"},
		{"mem.peak_rss_mb", "MB"},
		{"gc.cpu_share", "ratio"},
		{"alloc_bytes_per_event", "B"},
		{"sim.events", "count"},
		{"sim.ns_per_event", "ns"},
		{"net.messages", "count"},
		{"net.hops", "count"},
		{"net.hops_per_message", "ratio"},
		{"net.multicasts", "count"},
		{"net.replications", "count"},
		{"net.gather_merges", "count"},
		{"net.merges_per_gather", "ratio"},
		{"net.contended_hops", "count"},
		{"core.targets_per_invalidation", "ratio"},
		{"core.home_requests", "count"},
		{"core.invalidations", "count"},
		{"core.inv_targets", "count"},
		{"core.queued_requests", "count"},
		{"core.slave_requests", "count"},
		{"core.fifo_home_requests_hw", "count"},
		{"npb.build_s", "s"},
		{"fuzz.generate_s", "s"},
		{"machine.new_s", "s"},
		{"machine.run_s", "s"},
		{"machine.validate_s", "s"},
		{"machine.metrics_s", "s"},
		{"machine.digest_s", "s"},
		{"experiments.table1_s", "s"},
		{"experiments.fig4_s", "s"},
		{"experiments.table2_s", "s"},
		{"experiments.fig10_s", "s"},
		{"experiments.fig11_s", "s"},
		{"experiments.fig12_s", "s"},
		{"experiments.table3_s", "s"},
		{"experiments.table4_s", "s"},
		{"experiments.futurework_s", "s"},
		{"experiments.ablations_s", "s"},
		{"experiments.paper_err_pct", "%"},
		{"runner.speedup", "ratio"},
		{"runner.efficiency", "ratio"},
		{"serve.hit_p50_us", "us"},
		{"serve.hit_p99_us", "us"},
		{"serve.hit_samples", "count"},
		{"serve.miss_p50_ms", "ms"},
		{"serve.miss_p90_ms", "ms"},
		{"serve.miss_samples", "count"},
		{"serve.throughput_rps", "1/s"},
		{"serve.normalize_us", "us"},
		{"serve.validate_us", "us"},
		{"serve.digest_us", "us"},
		{"serve.execute_ms", "ms"},
		{"serve.queue_wait_ms", "ms"},
		{"serve.hit_ratio", "ratio"},
		{"serve.coalesced", "count"},
		{"serve.rejected", "count"},
		{"serve.batches", "count"},
		{"psim.k2_speedup", "ratio"},
		{"psim.windows", "count"},
		{"psim.events_per_window", "ratio"},
	}...)
}()

// env is what every workload shares: its inputs' seed, the core count,
// the correctness tally and, during traced phases, the tracer.
type env struct {
	seed  int64
	nproc int
	chk   *checker
	tr    *tracer // nil when untraced
	root  int     // the current set-up, pass or probe span
	ref   map[string]string
}

// checker counts checked operations and failed checks. A failure is
// reported on stderr and never stops the run.
type checker struct{ attempted, failed int }

func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
	}
}

// workload is one benchmark workload. The harness times setup and
// pass; everything else is untimed.
type workload interface {
	// setup generates the inputs and builds the system under test.
	setup() error
	// prepare readies pass i (fresh machines, request bodies).
	prepare(i int) error
	// pass runs the timed work once.
	pass(i int) error
	// settle checks pass i's outputs and returns the simulation events
	// it fired.
	settle(i int) uint64
	// finish runs the end-of-run checks and, when traced, the probes.
	finish() error
	// layers adds the workload's own per-layer metrics.
	layers(m map[string]float64) error
	// close releases what setup built.
	close()
}

// workloads maps a name to its constructor. The reasons each exists
// are in BENCHMARK.json.
var workloads = map[string]func(e *env) workload{
	"paper-quick":  newPaperQuick,
	"share-1024":   newShare1024,
	"contend-1024": newContend1024,
	"serve-mix":    newServeMix,
}

// moreSetups reports whether a run that has timed these set-ups
// should time one more, to report their median. paper-quick sets up
// once because its set-up is a whole suite pass. The others take 15 to
// 200 ms, so they repeat until at least ten set-ups and a second of
// them have run.
func moreSetups(name string, setups []float64) bool {
	if name == "paper-quick" {
		return len(setups) == 0
	}
	var sum float64
	for _, s := range setups {
		sum += s
	}
	return len(setups) < 10 || sum < 1
}

// phase is one loop of timed passes.
type phase struct {
	walls, allocs []float64 // per pass: seconds, heap bytes
	events        []uint64  // per pass
	cpu, gcCPU    float64   // process CPU seconds, of which GC, leaving out the forced collections
	spent         float64   // wall seconds of the whole loop
	profiles      [][]byte  // traced loops: each pass's CPU profile
}

func (p *phase) eventsPerSecond() []float64 {
	out := make([]float64, len(p.walls))
	for i, w := range p.walls {
		out[i] = float64(p.events[i]) / w
	}
	return out
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

// readRuntime returns the bytes allocated so far, the CPU time the
// process has used (the runtime's estimate) and the part of it spent
// collecting garbage. The runtime books CPU time when a collection
// ends, so the CPU figures stand as of the latest collection.
func readRuntime() (alloc uint64, cpu, gcCPU float64) {
	metrics.Read(rtSamples)
	busy := rtSamples[1].Value.Float64() - rtSamples[2].Value.Float64()
	return rtSamples[0].Value.Uint64(), busy, rtSamples[3].Value.Float64()
}

// collect runs a full collection and returns the GC CPU time booked
// across it, which is the collection's own.
func collect() float64 {
	_, _, gc0 := readRuntime()
	runtime.GC()
	_, _, gc1 := readRuntime()
	return gc1 - gc0
}

// loop runs passes until seconds have gone by, starting at pass index
// first, and returns the per-pass figures. A traced loop (e.tr set)
// profiles each timed pass.
func loop(w workload, e *env, first int, seconds float64) (*phase, error) {
	p := &phase{}
	start := time.Now()
	collect() // books the CPU time so far, so the readings start fresh
	_, cpu0, gc0 := readRuntime()
	var forced float64 // GC CPU time of the collections the loop forces
	for i := first; ; i++ {
		if i > first {
			// Each pass starts from a collected heap, as a fresh
			// process would, rather than paying for the previous
			// pass's garbage.
			forced += collect()
		}
		if err := w.prepare(i); err != nil {
			return nil, err
		}
		var prof bytes.Buffer
		if e.tr != nil {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, err
			}
		}
		e.root = e.tr.start("pass", 0)
		a0, _, _ := readRuntime()
		t0 := time.Now()
		err := w.pass(i)
		wall := time.Since(t0).Seconds()
		a1, _, _ := readRuntime()
		e.tr.end(e.root, 1)
		if e.tr != nil {
			pprof.StopCPUProfile()
			p.profiles = append(p.profiles, prof.Bytes())
		}
		if err != nil {
			return nil, err
		}
		p.walls = append(p.walls, wall)
		p.allocs = append(p.allocs, float64(a1-a0))
		p.events = append(p.events, w.settle(i))
		if time.Since(start).Seconds() >= seconds {
			break
		}
	}
	// A last collection books the CPU time since the previous one.
	forced += collect()
	p.spent = time.Since(start).Seconds()
	_, cpu1, gc1 := readRuntime()
	p.cpu, p.gcCPU = cpu1-cpu0-forced, gc1-gc0-forced
	return p, nil
}

// result is the benchmark's output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// peakRSSMB is the process's high-water resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

func main() {
	name := flag.String("workload", "", "workload to run: paper-quick, share-1024, contend-1024 or serve-mix")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "how long the timed passes run")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = untraced run reporting end-to-end metrics")
	outDir := flag.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for the traced run's spans and CPU profile")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(*name, mk, *seed, *seconds, *traced == 1, *outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(name string, mk func(*env) workload, seed int64, seconds float64, traced bool, outDir string) (*result, error) {
	ref, err := loadReference(seed)
	if err != nil {
		return nil, err
	}
	e := &env{seed: seed, nproc: runtime.NumCPU(), chk: &checker{}, ref: ref}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	w := mk(e)
	defer w.close()

	var setups []float64
	e.tr = tr
	for i := 0; moreSetups(name, setups); i++ {
		if i > 0 {
			w.close() // release the previous set-up before timing the next
		}
		e.root = tr.start("setup", 0)
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		tr.end(e.root, 1)
	}

	e.tr = nil
	plain, err := loop(w, e, 0, seconds)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{
		"wall_s":       median(plain.walls),
		"setup_s":      median(setups),
		"events_per_s": median(plain.eventsPerSecond()),
		"alloc_mb":     median(plain.allocs) / 1e6,
	}

	var profiles [][]byte
	if traced {
		e.tr = tr
		tracedPhase, err := loop(w, e, len(plain.walls), seconds)
		if err != nil {
			return nil, err
		}
		profiles = tracedPhase.profiles
		m["trace.untraced_wall_s"] = m["wall_s"]
		m["trace.traced_wall_s"] = median(tracedPhase.walls)
		m["trace.overhead_s"] = m["trace.traced_wall_s"] - m["wall_s"]
		m["gc.cpu_share"] = plain.gcCPU / plain.cpu
		if ev := median(floats(plain.events)); ev > 0 {
			m["alloc_bytes_per_event"] = median(plain.allocs) / ev
			m["sim.events"] = ev
		}
		e.root = tr.start("probe", 0)
	}
	if err := w.finish(); err != nil {
		return nil, err
	}
	m["mem.peak_rss_mb"] = peakRSSMB()
	e.chk.check(len(plain.walls) > 0, "no timed pass ran")

	defs := endToEnd
	if traced {
		tr.end(e.root, 1)
		files, err := writeTrace(outDir, name, seed, tr, profiles)
		if err != nil {
			return nil, err
		}
		samples, err := pprofSamples(files)
		if err != nil {
			return nil, err
		}
		for b, share := range profileShares(samples) {
			m["prof."+b+".self_share"] = share
		}
		var cpu int64
		for _, s := range samples {
			cpu += s.value
		}
		fmt.Printf("profile: %.1f CPU seconds in %d stacks from %d passes\n", float64(cpu)/1e9, len(samples), len(files))
		spanLayers(aggregate(tr.spans), m)
		defs = perLayer
	}
	if err := w.layers(m); err != nil {
		return nil, err
	}
	fmt.Printf("%s seed=%d: %d set-ups, %d timed passes in %.1fs, fail_ratio %d/%d\n",
		name, seed, len(setups), len(plain.walls), plain.spent, e.chk.failed, e.chk.attempted)
	if !traced {
		for _, d := range perLayer {
			if v := m[d.name]; v != 0 {
				fmt.Printf("  %-32s %14.6g %s (not gated)\n", d.name, v, d.unit)
			}
		}
	}

	res := &result{Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		if !traced && v <= 0 {
			return nil, fmt.Errorf("end-to-end metric %s is %v, want > 0", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("  %-32s %14.6g %s\n", d.name, v, d.unit)
	}
	res.Attempted, res.Failed = e.chk.attempted, e.chk.failed
	res.Correct = res.Failed == 0
	return res, nil
}

// spanLayers derives the per-layer times of the spans the harness and
// the workloads record around their calls into each layer.
func spanLayers(agg map[string]spanStats, m map[string]float64) {
	for metric, key := range map[string]string{
		"fuzz.generate_s":    "setup/fuzz.Generate",
		"machine.new_s":      "prepare/machine.New",
		"machine.run_s":      "pass/machine.RunContext",
		"machine.validate_s": "pass/machine.Validate",
		"machine.metrics_s":  "pass/machine.MetricsInto",
		"machine.digest_s":   "pass/machine.Digest",
		"npb.build_s":        "probe/npb.Build",
	} {
		m[metric] = perRoot(agg, key)
	}
	for _, step := range suiteSteps {
		m["experiments."+step+"_s"] = perRoot(agg, "pass/experiments."+step)
	}
	m["serve.normalize_us"] = 1e6 * perOp(agg, "probe/serve.Spec.Normalize")
	m["serve.validate_us"] = 1e6 * perOp(agg, "probe/serve.Spec.Validate")
	m["serve.digest_us"] = 1e6 * perOp(agg, "probe/serve.Spec.Digest")
	m["serve.execute_ms"] = 1e3 * perOp(agg, "probe/serve.Execute")
	if ev := m["sim.events"]; ev > 0 && m["machine.run_s"] > 0 {
		m["sim.ns_per_event"] = 1e9 * m["machine.run_s"] / ev
	}
}

// writeTrace writes the traced run's spans and one CPU profile per
// traced pass, and returns the profiles' paths.
func writeTrace(dir, name string, seed int64, tr *tracer, profiles [][]byte) ([]string, error) {
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	profDir := base + ".cpu"
	if err := os.RemoveAll(profDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(profDir, 0o755); err != nil {
		return nil, err
	}
	var files []string
	for i, prof := range profiles {
		file := filepath.Join(profDir, fmt.Sprintf("pass%04d.pprof", i))
		if err := os.WriteFile(file, prof, 0o644); err != nil {
			return nil, err
		}
		files = append(files, file)
	}
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return nil, err
	}
	if err := tr.writeJSON(f); err != nil {
		f.Close()
		return nil, err
	}
	return files, f.Close()
}

func floats(xs []uint64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
