package perfgate

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: cenju4/internal/sim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEngineSchedule-8    	 4316576	       280.9 ns/op	     160 B/op	       0 allocs/op
BenchmarkEngineSchedule-8    	 4267922	       305.0 ns/op	     160 B/op	       0 allocs/op
BenchmarkEngineRunDense-8    	    1250	    950123 ns/op	   24832 B/op	     478 allocs/op
BenchmarkEngineRunDense-8    	    1203	    931022 ns/op	   24832 B/op	     478 allocs/op
PASS
ok  	cenju4/internal/sim	12.345s
`

func baseline(t *testing.T) Baseline {
	t.Helper()
	b := Baseline{Benchmarks: []BaselineBenchmark{
		{Name: "BenchmarkEngineSchedule", After: BaselineRange{NsOpRange: []float64{263, 497}, AllocsOp: 0}},
		{Name: "BenchmarkEngineRunDense", After: BaselineRange{NsOpRange: []float64{904297, 1042875}, AllocsOp: 478}},
	}}
	return b
}

func TestParseBench(t *testing.T) {
	samples, err := ParseBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 4 {
		t.Fatalf("parsed %d samples, want 4", len(samples))
	}
	s := samples[0]
	if s.Name != "BenchmarkEngineSchedule" || s.NsOp != 280.9 || s.BOp != 160 || s.AllocsOp != 0 {
		t.Fatalf("first sample = %+v", s)
	}
	if samples[2].AllocsOp != 478 {
		t.Fatalf("dense allocs = %g, want 478", samples[2].AllocsOp)
	}
}

func TestParseBenchRejectsEmpty(t *testing.T) {
	if _, err := ParseBench(strings.NewReader("PASS\nok\n")); err == nil {
		t.Fatal("empty bench output accepted")
	}
}

func TestParseBenchWithoutBenchmem(t *testing.T) {
	samples, err := ParseBench(strings.NewReader("BenchmarkX-4  100  5000 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if samples[0].AllocsOp != -1 || samples[0].BOp != -1 {
		t.Fatalf("missing benchmem columns should read as -1: %+v", samples[0])
	}
}

func TestCheckPasses(t *testing.T) {
	samples, err := ParseBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Gate(&buf, baseline(t), samples, Options{}); err != nil {
		t.Fatalf("in-range samples failed the gate: %v\n%s", err, buf.String())
	}
}

func TestCheckFailsOnSlowdown(t *testing.T) {
	samples := []Sample{
		{Name: "BenchmarkEngineSchedule", NsOp: 497 * 10, AllocsOp: 0},
		{Name: "BenchmarkEngineRunDense", NsOp: 950000, AllocsOp: 478},
	}
	verdicts := Check(baseline(t), samples, Options{Tolerance: 2.5})
	var failed []string
	for _, v := range verdicts {
		if !v.Pass {
			failed = append(failed, v.Name)
		}
	}
	if len(failed) != 1 || failed[0] != "BenchmarkEngineSchedule" {
		t.Fatalf("failed = %v, want only the slowed benchmark", failed)
	}
}

// TestCheckMinOfSamples: one noisy repetition must not fail the gate
// when another repetition is in range — the gate keys on the minimum.
func TestCheckMinOfSamples(t *testing.T) {
	samples := []Sample{
		{Name: "BenchmarkEngineSchedule", NsOp: 90000, AllocsOp: -1}, // noise spike
		{Name: "BenchmarkEngineSchedule", NsOp: 300, AllocsOp: -1},
		{Name: "BenchmarkEngineRunDense", NsOp: 950000, AllocsOp: -1},
	}
	for _, v := range Check(baseline(t), samples, Options{}) {
		if !v.Pass {
			t.Fatalf("%s failed despite an in-range minimum: %s", v.Name, v.Reason)
		}
	}
}

// TestCheckFailsOnNewAllocations: a formerly allocation-free benchmark
// that now allocates fails even inside the ns/op ceiling.
func TestCheckFailsOnNewAllocations(t *testing.T) {
	samples := []Sample{
		{Name: "BenchmarkEngineSchedule", NsOp: 300, AllocsOp: 3},
		{Name: "BenchmarkEngineRunDense", NsOp: 950000, AllocsOp: 478},
	}
	var failed int
	for _, v := range Check(baseline(t), samples, Options{}) {
		if !v.Pass {
			failed++
			if v.Name != "BenchmarkEngineSchedule" {
				t.Fatalf("wrong benchmark failed: %s", v.Name)
			}
		}
	}
	if failed != 1 {
		t.Fatalf("failed = %d, want 1", failed)
	}
}

func TestCheckFailsOnMissingBenchmark(t *testing.T) {
	samples := []Sample{{Name: "BenchmarkEngineSchedule", NsOp: 300}}
	var buf bytes.Buffer
	if err := Gate(&buf, baseline(t), samples, Options{}); err == nil {
		t.Fatal("gate passed with a baseline benchmark missing from the output")
	}
}

func TestParseBenchCustomMetrics(t *testing.T) {
	line := "BenchmarkMulticastStorm1024-8  6087  174008 ns/op  11769573 msgs/sec  50 B/op  0 allocs/op\n"
	samples, err := ParseBench(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	s := samples[0]
	if s.Metrics["msgs/sec"] != 11769573 {
		t.Fatalf("msgs/sec = %g, want 11769573", s.Metrics["msgs/sec"])
	}
	if s.BOp != 50 || s.AllocsOp != 0 {
		t.Fatalf("benchmem columns misparsed alongside a custom metric: %+v", s)
	}
}

func floorBaseline() Baseline {
	return Baseline{Benchmarks: []BaselineBenchmark{{
		Name:   "BenchmarkStorm",
		After:  BaselineRange{NsOpRange: []float64{100000, 200000}, AllocsOp: 0},
		Floors: map[string]float64{"msgs/sec": 10_000_000},
	}}}
}

func TestCheckFloorPasses(t *testing.T) {
	samples := []Sample{
		{Name: "BenchmarkStorm", NsOp: 150000, AllocsOp: 0, Metrics: map[string]float64{"msgs/sec": 4_100_000}},
	}
	// 4.1M clears 10M / 2.5 tolerance.
	for _, v := range Check(floorBaseline(), samples, Options{}) {
		if !v.Pass {
			t.Fatalf("%s failed above the tolerated floor: %s", v.Name, v.Reason)
		}
	}
}

func TestCheckFloorFailsBelow(t *testing.T) {
	samples := []Sample{
		{Name: "BenchmarkStorm", NsOp: 150000, AllocsOp: 0, Metrics: map[string]float64{"msgs/sec": 3_900_000}},
	}
	v := Check(floorBaseline(), samples, Options{})[0]
	if v.Pass {
		t.Fatal("gate passed below the throughput floor")
	}
	if !strings.Contains(v.Reason, "msgs/sec") {
		t.Fatalf("reason does not name the metric: %s", v.Reason)
	}
}

func TestCheckFloorFailsWhenUnreported(t *testing.T) {
	samples := []Sample{{Name: "BenchmarkStorm", NsOp: 150000, AllocsOp: 0}}
	v := Check(floorBaseline(), samples, Options{})[0]
	if v.Pass {
		t.Fatal("gate passed with the floored metric missing from the output")
	}
}

// TestCommittedScaleBaselineParses: BENCH_scale.json must stay
// parseable and keep the 10M msgs/sec floor the scale claim rests on,
// and an events/s floor on the 1024-node hotspot run.
func TestCommittedScaleBaselineParses(t *testing.T) {
	f, err := os.Open("../../BENCH_scale.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, err := ParseBaseline(f)
	if err != nil {
		t.Fatal(err)
	}
	floors := make(map[string]map[string]float64)
	for _, bm := range b.Benchmarks {
		floors[bm.Name] = bm.Floors
	}
	for _, want := range []struct {
		bench, metric string
		min           float64
	}{
		{"BenchmarkMulticastStorm1024", "msgs/sec", 10_000_000},
		{"BenchmarkHotspot1024", "events/s", 1},
	} {
		fl, ok := floors[want.bench]
		if !ok {
			t.Fatalf("BENCH_scale.json does not list %s", want.bench)
		}
		if fl[want.metric] < want.min {
			t.Fatalf("%s %s floor = %g, want >= %g", want.bench, want.metric, fl[want.metric], want.min)
		}
	}
}

// TestCommittedBaselineParses: the real BENCH_sim.json at the repo
// root must stay parseable by the gate.
func TestCommittedBaselineParses(t *testing.T) {
	f, err := os.Open("../../BENCH_sim.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, err := ParseBaseline(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Benchmarks) < 5 {
		t.Fatalf("baseline lists %d benchmarks, want >= 5", len(b.Benchmarks))
	}
	for _, bm := range b.Benchmarks {
		if bm.After.NsOpRange[0] > bm.After.NsOpRange[1] {
			t.Fatalf("%s: inverted ns_op_range", bm.Name)
		}
	}
}
