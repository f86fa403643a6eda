package sim

// Microbenchmarks for the event kernel. BENCH_sim.json records the
// before/after numbers for the container/heap -> calendar-queue
// migration; regenerate with
//
//	go test ./internal/sim -bench 'BenchmarkEngine' -benchmem -count 5
//
// The dense case is the protocol simulator's actual shape: many events
// over a short, near-monotonic horizon (every message hop schedules a
// delivery a few hundred nanoseconds out). The sparse case spreads the
// same event count over a horizon six orders of magnitude wider. The
// cancel case measures lazy deletion against the timer-like pattern
// where most scheduled work is canceled before it fires. The
// phase-shift case is the 1024-node hotspot shape: a dense burst sizes
// the queue for 1 ns spacing, then the steady state runs 100x sparser.

import "testing"

// BenchmarkEngineSchedule measures raw At cost: scheduling into a
// standing population of pending events, without running them.
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.At(Time(i%4096), fn)
	}
}

// BenchmarkEngineRunDense fires a dense, near-monotonic schedule: each
// event reschedules itself a short bounded distance ahead, the pattern
// every switch hop and controller service in the simulator produces.
func BenchmarkEngineRunDense(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		const chains = 64
		const perChain = 256
		fired := 0
		for c := 0; c < chains; c++ {
			c := c
			depth := 0
			var step func()
			step = func() {
				fired++
				depth++
				if depth < perChain {
					e.After(Time(1+(c*7+depth)%113), step)
				}
			}
			e.At(Time(c%13), step)
		}
		e.Run()
		if fired != chains*perChain {
			b.Fatalf("fired %d events, want %d", fired, chains*perChain)
		}
	}
}

// BenchmarkEngineRunSparse fires the same event count scattered over a
// horizon ~1e6 wider than the dense case, stressing bucket-cursor
// advance across mostly-empty regions.
func BenchmarkEngineRunSparse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		const n = 16384
		fired := 0
		t := Time(0)
		for j := 0; j < n; j++ {
			// Deterministic pseudo-random gaps up to ~2^27 ns.
			t += Time(1 + (uint64(j)*2654435761)%(1<<27))
			e.At(t, func() { fired++ })
		}
		e.Run()
		if fired != n {
			b.Fatalf("fired %d events, want %d", fired, n)
		}
	}
}

// BenchmarkEngineCancel schedules timer-like events and cancels most of
// them before they fire (the lazy-delete path).
func BenchmarkEngineCancel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		const n = 8192
		evs := make([]*Event, 0, n)
		for j := 0; j < n; j++ {
			evs = append(evs, e.At(Time(j%1024), func() {}))
		}
		for j, ev := range evs {
			if j%8 != 0 {
				e.Cancel(ev)
			}
		}
		e.Run()
	}
}

// Phase-shift schedule: phaseBurst one-shot events and the starts of
// phaseChains chains interleave 1 ns apart over [0, 2048), so the
// growth rebuilds size the queue for 1 ns spacing. Each chain then
// reschedules itself phaseSteps times 51.2-153.6 us ahead: about a
// thousand live events ~100 ns apart, 100x sparser than the burst.
const (
	phaseBurst  = 1024
	phaseChains = 1024
	phaseSteps  = 64
)

// runPhaseShift runs the phase-shift schedule on e and returns the
// number of events fired.
func runPhaseShift(e *Engine) int {
	fired := 0
	for j := 0; j < phaseBurst; j++ {
		e.At(Time(2*j), func() { fired++ })
	}
	for c := 0; c < phaseChains; c++ {
		c := c
		depth := 0
		var step func()
		step = func() {
			fired++
			depth++
			if depth < phaseSteps {
				e.After(Time(51200+(c*7919+depth*104729)%102400), step)
			}
		}
		e.At(Time(2*c+1), step)
	}
	e.Run()
	return fired
}

// BenchmarkEngineRunPhaseShift fires the phase-shift schedule and
// reports the mean buckets each dequeue scanned.
func BenchmarkEngineRunPhaseShift(b *testing.B) {
	b.ReportAllocs()
	var pops, scanned uint64
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		if fired := runPhaseShift(e); fired != phaseBurst+phaseChains*phaseSteps {
			b.Fatalf("fired %d events, want %d", fired, phaseBurst+phaseChains*phaseSteps)
		}
		s := e.QueueStats()
		pops += s.Pops
		scanned += s.Scanned
	}
	b.ReportMetric(float64(scanned)/float64(pops), "buckets/pop")
}
