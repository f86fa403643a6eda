package fuzz

// Full-machine shapes at 1024 nodes on a multicast machine.
//
//   - Contention: the hotspot and migratory streams, the traffic where
//     the queuing protocol serializes every request for a hot block
//     through the home FIFO. Their schedule opens with a dense burst
//     near t=0 and settles into a steady state whose events are about
//     100x further apart, which is the shape the event kernel's
//     calendar queue must re-derive its bucket width for.
//   - Sharing: the producer-consumer and partition streams, whose wide
//     read-sharing drives bit-pattern directory entries, 1023-way
//     multicast invalidations and in-network gathering through every
//     routing decision the switches make.
//
// TestContendGoldenDigests pins all four runs' machine.Digest, so a
// kernel, routing or protocol change that perturbs their outcome fails
// here rather than only in an end-to-end benchmark.
// BenchmarkHotspot1024 and BenchmarkShare1024 measure events/s; their
// floors live in BENCH_scale.json.
//
// The goldens live here rather than beside machine's own scale goldens
// because machine's tests cannot import this package's generators.
// Regenerate after an intentional behavior change:
//
//	UPDATE_GOLDEN=1 go test ./internal/fuzz -run TestContendGoldenDigests

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cenju4/internal/cpu"
	"cenju4/internal/machine"
)

const (
	contendNodes = 1024
	contendOps   = 128 * contendNodes // 128 operations per node
	contendSeed  = 1
	// contendBudget is the RunContext event ceiling: headroom over the
	// 0.7M (hotspot), 1.1M (migratory), 1.2M (producer-consumer) and
	// 0.8M (partition) events the runs take, tight enough that an event
	// storm fails fast instead of hanging the suite.
	contendBudget = 8_000_000
	// hotspotScanBound caps the hotspot run's mean calendar-queue
	// buckets scanned per dequeue (measured: 1.5).
	hotspotScanBound = 4
)

// runContend runs one pattern on a fresh 1024-node multicast
// machine and returns the machine (for its engine's queue statistics)
// and the result.
func runContend(tb testing.TB, p Pattern, streams [][]cpu.Op) (*machine.Machine, machine.Result) {
	m := machine.New(machine.Config{Nodes: contendNodes, Multicast: true})
	progs := make([]cpu.Program, contendNodes)
	for n := range progs {
		progs[n] = &cpu.SliceProgram{Ops: streams[n]}
	}
	r, err := m.RunContext(context.Background(), progs, contendBudget)
	if err != nil {
		tb.Fatalf("%v: %v", p, err)
	}
	if err := m.Validate(); err != nil {
		tb.Fatalf("%v: %v", p, err)
	}
	return m, r
}

func TestContendGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node runs are a second each; skipped under -short")
	}
	patterns := []Pattern{PatternHotspot, PatternMigratory, PatternProducerConsumer, PatternPartition}
	path := filepath.Join("testdata", "golden_contend.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		var b strings.Builder
		b.WriteString("# machine.Result digests for the 1024-node contention and sharing patterns (seed 1, 128 ops per node, multicast).\n")
		b.WriteString("# Regenerate: UPDATE_GOLDEN=1 go test ./internal/fuzz -run TestContendGoldenDigests\n")
		for _, p := range patterns {
			_, r := runContend(t, p, Generate(p, contendSeed, contendNodes, contendOps))
			fmt.Fprintf(&b, "%v-n1024 %s\n", p, machine.Digest(r))
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}

	want := readGolden(t, path)
	if len(want) != len(patterns) {
		t.Fatalf("golden file has %d entries, want %d — regenerate", len(want), len(patterns))
	}
	for _, p := range patterns {
		name := p.String() + "-n1024"
		t.Run(name, func(t *testing.T) {
			m, r := runContend(t, p, Generate(p, contendSeed, contendNodes, contendOps))
			got := machine.Digest(r)
			w, ok := want[name]
			if !ok {
				t.Fatalf("no golden entry for %s — regenerate", name)
			}
			if got != w {
				t.Errorf("digest %s\n     want %s\n1024-node outcome changed; if intentional, regenerate with UPDATE_GOLDEN=1 and explain in the commit", got, w)
			}
			// The hotspot burst sizes the calendar queue for ~1 ns
			// spacing; a width that is not re-derived for the steady
			// state scans ~110 empty buckets per dequeue.
			if s := m.Engine().QueueStats(); p == PatternHotspot && s.ScanPerPop() > hotspotScanBound {
				t.Errorf("event queue scanned %.1f buckets per pop (%+v), want <= %d", s.ScanPerPop(), s, hotspotScanBound)
			}
		})
	}
}

// readGolden parses "name digest" lines, skipping blanks and comments.
func readGolden(t *testing.T, path string) map[string]string {
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// BenchmarkHotspot1024 is the hotspot run end to end: one iteration is
// a fresh 1024-node multicast machine running the whole hotspot stream.
// events/s is simulation events fired per wall-clock second; the stream
// is generated once, outside the timer.
func BenchmarkHotspot1024(b *testing.B) {
	streams := Generate(PatternHotspot, contendSeed, contendNodes, contendOps)
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		_, r := runContend(b, PatternHotspot, streams)
		events += r.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkShare1024 is the producer-consumer run end to end, shaped
// like BenchmarkHotspot1024: every rotating producer's store fans out a
// multicast invalidation to the block's sharers and gathers their
// acknowledgements in the network, so its events/s follows the cost of
// the switches' routing decisions.
func BenchmarkShare1024(b *testing.B) {
	streams := Generate(PatternProducerConsumer, contendSeed, contendNodes, contendOps)
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		_, r := runContend(b, PatternProducerConsumer, streams)
		events += r.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}
