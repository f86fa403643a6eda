package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// driveRounds builds a workload whose driver injects one batch of
// events per idle callback, for `rounds` rounds, each batch `step` ns
// after the previous drain. Returns the engine and a pointer to the
// idle-callback count.
func driveRounds(rounds int, step Time) (*Engine, *int) {
	e := NewEngine()
	idles := 0
	round := 0
	e.SetIdleFunc(func() {
		idles++
		if round < rounds {
			round++
			e.After(step, func() {})
		}
	})
	e.After(step, func() {})
	return e, &idles
}

// TestIdleCountParityAcrossRunModes pins the idle-callback count of
// Run and of small RunChunk windows on the same round-injecting
// workload: slicing a run must not skip a quiescent point.
func TestIdleCountParityAcrossRunModes(t *testing.T) {
	const rounds = 5
	const step = Time(10)

	runN := func(e *Engine) uint64 { return e.Run() }
	chunkN := func(e *Engine) uint64 {
		var total uint64
		for {
			n, more := e.RunChunk(3)
			total += n
			if !more {
				return total
			}
		}
	}

	type result struct {
		fired uint64
		idles int
	}
	results := map[string]result{}
	for name, drive := range map[string]func(*Engine) uint64{
		"Run": runN, "RunChunk": chunkN,
	} {
		e, idles := driveRounds(rounds, step)
		fired := drive(e)
		results[name] = result{fired, *idles}
	}

	want := results["Run"]
	if want.idles != rounds+1 {
		t.Fatalf("Run: idle count = %d, want %d (one per round + final drain)", want.idles, rounds+1)
	}
	for name, got := range results {
		if got != want {
			t.Errorf("%s: (fired=%d, idles=%d), want (fired=%d, idles=%d) as in Run",
				name, got.fired, got.idles, want.fired, want.idles)
		}
	}
}

func mustPanicContaining(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want panic mentioning %q", substr)
		}
		msg := fmt.Sprint(r)
		if !contains(msg, substr) {
			t.Fatalf("panic %q does not mention %q", msg, substr)
		}
	}()
	fn()
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestAfterOverflowPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.Run()
	// now = 100; adding ^Time(0) wraps to 99 — in the past. Without the
	// check this would surface as a misleading scheduling-in-the-past
	// panic; the overflow diagnosis names the real bug.
	mustPanicContaining(t, "overflows sim.Time", func() {
		e.After(^Time(0), func() {})
	})
}

func TestAfterMaxNonWrappingDelayOK(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.Run()
	// The largest delay that does not wrap must still be accepted.
	ev := e.After(^Time(0)-100, func() {})
	if ev.When() != ^Time(0) {
		t.Fatalf("When = %v, want max Time", ev.When())
	}
}

// --- Ranked mode: differential against the sequential engine ---

// recordingWorkload schedules a randomized cascade of events on eng and
// appends a trace entry per firing. Every handler reschedules a few
// children at randomized (often colliding) times so tie-breaking is
// exercised hard. The rng must be seeded identically across engines.
func recordingWorkload(eng *Engine, rng *rand.Rand, trace *[]string) {
	var spawn func(id int, depth int) func()
	spawn = func(id int, depth int) func() {
		return func() {
			*trace = append(*trace, fmt.Sprintf("%d@%v", id, eng.Now()))
			if depth >= 3 {
				return
			}
			kids := rng.Intn(3)
			for k := 0; k < kids; k++ {
				// Small deltas (including 0) force same-time ties.
				d := Time(rng.Intn(3))
				eng.After(d, spawn(id*10+k, depth+1))
			}
		}
	}
	for i := 0; i < 16; i++ {
		eng.At(Time(rng.Intn(4)), spawn(i, 0))
	}
}

// TestRankedOrderMatchesSequential proves the core ranked-mode theorem
// on a single engine: (time, rank) firing order is identical to the
// sequential (time, seq) order for the same push pattern.
func TestRankedOrderMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		var seqTrace, rankTrace []string

		seqEng := NewEngine()
		recordingWorkload(seqEng, rand.New(rand.NewSource(seed)), &seqTrace)
		seqEng.Run()

		rankEng := NewEngine()
		rankEng.EnableRankedMode()
		recordingWorkload(rankEng, rand.New(rand.NewSource(seed)), &rankTrace)
		rankEng.Run()

		if len(seqTrace) != len(rankTrace) {
			t.Fatalf("seed %d: fired %d sequential vs %d ranked events", seed, len(seqTrace), len(rankTrace))
		}
		for i := range seqTrace {
			if seqTrace[i] != rankTrace[i] {
				t.Fatalf("seed %d: firing order diverges at %d: seq %s vs ranked %s",
					seed, i, seqTrace[i], rankTrace[i])
			}
		}
	}
}

// TestRankedOrderSurvivesCanonicalize re-runs the differential with a
// CanonicalizeRanks pass injected at window boundaries, proving the
// flattening is order-preserving.
func TestRankedOrderSurvivesCanonicalize(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		var seqTrace, rankTrace []string

		seqEng := NewEngine()
		recordingWorkload(seqEng, rand.New(rand.NewSource(seed)), &seqTrace)
		seqEng.Run()

		rankEng := NewEngine()
		rankEng.EnableRankedMode()
		recordingWorkload(rankEng, rand.New(rand.NewSource(seed)), &rankTrace)
		for deadline := Time(0); rankEng.Pending() > 0; deadline += 2 {
			rankEng.RunDue(deadline)
			CanonicalizeRanks([]*Engine{rankEng})
		}

		if fmt.Sprint(seqTrace) != fmt.Sprint(rankTrace) {
			t.Fatalf("seed %d: ranked+canonicalize trace diverges from sequential", seed)
		}
	}
}

// TestRankedCancel exercises cancellation through the rank heap's
// lazy-delete path.
func TestRankedCancel(t *testing.T) {
	e := NewEngine()
	e.EnableRankedMode()
	fired := []int{}
	e.At(10, func() { fired = append(fired, 1) })
	ev := e.At(10, func() { fired = append(fired, 2) })
	e.At(10, func() { fired = append(fired, 3) })
	e.Cancel(ev)
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2 after cancel", e.Pending())
	}
	e.Run()
	if fmt.Sprint(fired) != "[1 3]" {
		t.Fatalf("fired = %v, want [1 3]", fired)
	}
}

// TestEnableRankedModeRejectsUsedEngine: the orders cannot be spliced
// once anything has happened.
func TestEnableRankedModeRejectsUsedEngine(t *testing.T) {
	e := NewEngine()
	e.At(1, func() {})
	mustPanicContaining(t, "EnableRankedMode", func() { e.EnableRankedMode() })
}

// TestInjectedRankOrdering: externally injected events interleave with
// locally scheduled ones exactly where their rank places them. This is
// the primitive the PDES coordinator relies on to splice cross-shard
// deliveries into a shard's schedule.
func TestInjectedRankOrdering(t *testing.T) {
	e := NewEngine()
	e.EnableRankedMode()
	var got []string

	// Handler at t=5 reserves a slot between two local pushes, as if a
	// deferred outcall happened there; later the "coordinator" injects
	// the outcall's sub-pushes with composed ranks.
	var parent *Rank
	var pushAt Time
	var slot uint64
	e.At(5, func() {
		e.After(10, func() { got = append(got, "local-a") }) // slot 0
		parent, pushAt, slot = e.ReserveRankSlot()           // slot 1 (the outcall)
		e.After(10, func() { got = append(got, "local-b") }) // slot 2
	})
	e.RunDue(5)

	// Replay: the outcall performs two sub-pushes landing at the same
	// t=15 as the locals. Their ranks must order a < sub0 < sub1 < b.
	e.InjectAt(15, ComposedRank(parent, pushAt, slot, 0), func() { got = append(got, "sub-0") })
	e.InjectAt(15, ComposedRank(parent, pushAt, slot, 1), func() { got = append(got, "sub-1") })
	e.Run()

	want := "[local-a sub-0 sub-1 local-b]"
	if fmt.Sprint(got) != want {
		t.Fatalf("order = %v, want %s", got, want)
	}
}

// TestDriverSectionOrdering: pre-run driver pushes sort before event
// pushes at the same time; quiescent-section pushes sort after.
func TestDriverSectionOrdering(t *testing.T) {
	e := NewEngine()
	e.EnableRankedMode()
	var got []string

	// Pre-run driver push at t=10 …
	e.At(10, func() { got = append(got, "driver-pre") })
	// … and an event at t=0 that also pushes to t=10.
	e.At(0, func() {
		e.At(10, func() { got = append(got, "from-event") })
	})
	e.RunDue(20)

	// Quiescent driver section at t=20 pushing to t=20 must sort after
	// anything events pushed at t=20 (nothing here, but the rank must
	// still be mintable and fire).
	e.BeginDriverSection(20)
	e.SyncTo(20)
	e.At(20, func() { got = append(got, "driver-post") })
	e.RunDue(20)

	want := "[driver-pre from-event driver-post]"
	if fmt.Sprint(got) != want {
		t.Fatalf("order = %v, want %s", got, want)
	}
}

// TestSyncToBackwardsPanics guards the coordinator's clock-advance
// primitive.
func TestSyncToBackwardsPanics(t *testing.T) {
	e := NewEngine()
	e.EnableRankedMode()
	e.SyncTo(100)
	mustPanicContaining(t, "backwards", func() { e.SyncTo(50) })
}
