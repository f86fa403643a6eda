package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 99); err == nil {
		t.Error("p99 of 999 samples: want an error (only 9.99 samples beyond it)")
	}
	got, err := percentile(xs, 90)
	if err != nil || math.Abs(got-0.9*998) > 1e-9 {
		t.Errorf("p90 = %g, %v; want %g", got, err, 0.9*998)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"cenju4/internal/network.(*Network).mcStep", "cenju4/internal/sim.(*Engine).fire"}, "network"},
		{[]string{"cenju4/internal/memory.(*Queue[go.shape.struct { cenju4/internal/topology.Addr }]).Push"}, "memory"},
		{[]string{"cenju4/internal/runner.Map[...].func1", "runtime.goexit"}, "runner"},
		{[]string{"runtime.mallocgc", "cenju4/internal/npb.(*gen).next"}, "runtime"},
		{[]string{"internal/runtime/atomic.(*Uint32).Load", "runtime.findRunnable"}, "runtime"},
		{[]string{"aeshashbody", "runtime.mapaccess2_faststr"}, "runtime"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "cenju4/internal/sim.(*Engine).At"}, "gc"},
		{[]string{"runtime.gcStart", "runtime.GC", "main.loop"}, "gc"},
		{[]string{"runtime.GC", "main.loop"}, "runtime"},
		{[]string{"net/http.(*conn).serve"}, "other"},
		{[]string{"cenju4/internal/analysis.Run"}, "other"},
		{[]string{"main.main"}, "other"},
		{nil, "other"},
	} {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("bucketOf(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
}

func TestProfileSharesSumToOne(t *testing.T) {
	shares := profileShares([]profSample{
		{[]string{"cenju4/internal/sim.(*Engine).fire"}, 30},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, 10},
		{[]string{"runtime.memmove"}, 20},
		{[]string{"cenju4/internal/sim.(*calQueue).pop"}, 30},
		{[]string{"encoding/json.Marshal"}, 10},
	})
	want := map[string]float64{"sim": 0.6, "gc": 0.1, "runtime": 0.2, "other": 0.1}
	var sum float64
	for b, v := range shares {
		sum += v
		if math.Abs(v-want[b]) > 1e-12 {
			t.Errorf("share[%s] = %g, want %g", b, v, want[b])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %g", sum)
	}
}

func TestParseTraces(t *testing.T) {
	text := `File: perfbench
Type: cpu
Duration: 1s, Total samples = 1230000000ns (123.00%)
-----------+-------------------------------------------------------
  30000000ns   cenju4/internal/sim.(*Engine).fire
             cenju4/internal/sim.fire (inline)
             cenju4/internal/machine.(*Machine).RunContext
-----------+-------------------------------------------------------
     phase:  timed
1200000000ns   cenju4/internal/memory.(*Queue[go.shape.struct { cenju4/internal/topology.Addr }]).Push
             runtime.goexit
-----------+-------------------------------------------------------
`
	got, err := parseTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := []profSample{
		{[]string{"cenju4/internal/sim.(*Engine).fire", "cenju4/internal/sim.fire", "cenju4/internal/machine.(*Machine).RunContext"}, 30e6},
		{[]string{"cenju4/internal/memory.(*Queue[go.shape.struct { cenju4/internal/topology.Addr }]).Push", "runtime.goexit"}, 1.2e9},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseTraces = %q, want %q", got, want)
	}
	if _, err := parseTraces("-----------+---\n             main.main\n"); err == nil {
		t.Error("a frame before any sample: want an error")
	}
}

// TestPprofSamples profiles this process in two windows and reads the
// profiles back through go tool pprof.
func TestPprofSamples(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command:", err)
	}
	var files []string
	x := 0
	for i := 0; i < 2; i++ {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			t.Skip("CPU profiling unavailable:", err)
		}
		for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
			for i := 0; i < 1e5; i++ {
				x += i * i
			}
		}
		pprof.StopCPUProfile()
		file := filepath.Join(t.TempDir(), "cpu.pprof")
		if err := os.WriteFile(file, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		files = append(files, file)
	}
	samples, err := pprofSamples(files)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		if s.value <= 0 || len(s.frames) == 0 {
			t.Fatalf("sample %+v: want a stack and a positive value", s)
		}
		for _, f := range s.frames {
			found = found || strings.HasSuffix(f, ".TestPprofSamples")
		}
	}
	if !found {
		t.Errorf("no sample's stack names TestPprofSamples (x=%d)", x)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100 * ms},
		// Two requests overlap from 20 to 30 ms: covered once.
		{ID: 2, Parent: 1, Name: "req", Start: 10 * ms, End: 30 * ms, Ops: 1},
		{ID: 3, Parent: 1, Name: "req", Start: 20 * ms, End: 40 * ms, Ops: 1},
		// A child inside a child: covered by its parent already.
		{ID: 4, Parent: 2, Name: "inner", Start: 12 * ms, End: 18 * ms},
		// A child running past its parent's end counts only inside it.
		{ID: 5, Parent: 1, Name: "tail", Start: 90 * ms, End: 120 * ms},
		// A second root.
		{ID: 6, Name: "pass", Start: 200 * ms, End: 210 * ms},
		{ID: 7, Parent: 6, Name: "req", Start: 200 * ms, End: 210 * ms, Ops: 1},
	}
	want := []time.Duration{100*ms - 30*ms - 10*ms, 14 * ms, 20 * ms, 6 * ms, 30 * ms, 0, 10 * ms}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] (%s) = %v, want %v", i, spans[i].Name, got[i], want[i])
		}
	}
	agg := aggregate(spans)
	if st := agg["pass/req"]; st.roots != 2 || st.ops != 3 || st.self != 44*ms {
		t.Errorf("req aggregate = %+v, want 2 roots, 3 ops, 44ms", st)
	}
	if st := agg["pass/inner"]; st.roots != 1 || st.self != 6*ms {
		t.Errorf("inner aggregate = %+v, want 1 root, 6ms", st)
	}
	if got := perRoot(agg, "pass/req"); math.Abs(got-0.022) > 1e-12 {
		t.Errorf("perRoot(req) = %g, want 0.022", got)
	}
}

func TestMetricNames(t *testing.T) {
	for name, want := range map[string]bool{
		"wall_s": true, "prof.sim.self_share": true, "9lives": true, "a-b.c_d": true,
		"": false, "_x": false, ".x": false, "a b": false, "a/b": false, "µs": false,
		strings.Repeat("a", 64): true, strings.Repeat("a", 65): false,
	} {
		if got := validMetricName(name); got != want {
			t.Errorf("validMetricName(%q) = %t, want %t", name, got, want)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(endToEnd, perLayer...) {
		if !validMetricName(d.name) || seen[d.name] {
			t.Errorf("metric %q: invalid or repeated", d.name)
		}
		seen[d.name] = true
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the metrics the code
// reports, name for name and unit for unit, and to the workloads it
// runs.
func TestBenchmarkJSON(t *testing.T) {
	doc, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(doc, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the code", w.Name)
		}
	}
}
