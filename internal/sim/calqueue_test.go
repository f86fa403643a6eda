package sim

// Differential property test: the calendar-queue Engine must be
// observationally equivalent to a reference engine built on
// container/heap (the implementation the calendar queue replaced).
// Both engines are driven by identical randomized scripts of
// schedule / nested-schedule / cancel / Step / Run / RunUntil / Stop
// operations, and must produce identical firing logs, clocks, and
// counters. Any ordering bug in the bucket scan, cursor reset, lazy
// delete, or rebuild shows up as a log divergence.

import (
	"container/heap"
	"math/rand"
	"testing"
)

// ---------------------------------------------------------------------
// Reference engine: binary heap ordered by (at, seq), eager delete.
// This mirrors the pre-calendar-queue kernel.

type refEvent struct {
	at   Time
	seq  uint64
	fn   func()
	idx  int
	dead bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.idx = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

type refEngine struct {
	now     Time
	seq     uint64
	queue   refHeap
	fired   uint64
	stopped bool
}

func (e *refEngine) at(t Time, fn func()) *refEvent {
	if t < e.now {
		panic("refEngine: scheduling in the past")
	}
	ev := &refEvent{at: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

func (e *refEngine) cancel(ev *refEvent) {
	if ev == nil || ev.dead || ev.idx < 0 || ev.idx >= len(e.queue) || e.queue[ev.idx] != ev {
		return
	}
	ev.dead = true
	heap.Remove(&e.queue, ev.idx)
}

func (e *refEngine) step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*refEvent)
	e.now = ev.at
	e.fired++
	ev.fn()
	return true
}

func (e *refEngine) run() {
	e.stopped = false
	for !e.stopped && e.step() {
	}
}

func (e *refEngine) runUntil(deadline Time) {
	e.stopped = false
	for !e.stopped && len(e.queue) > 0 && e.queue[0].at <= deadline {
		e.step()
	}
	if e.now < deadline && !e.stopped {
		e.now = deadline
	}
}

// ---------------------------------------------------------------------
// Generic driver. The script's rng decisions are consumed inside event
// callbacks, so identical firing order implies identical rng streams;
// a firing-order divergence breaks the streams apart and the logs with
// them, which is exactly the failure the test exists to catch.

type fireRec struct {
	id int
	at Time
}

type diffDriver struct {
	rng  *rand.Rand
	log  []fireRec
	next int

	// Engine hooks, bound by the two adapters below.
	now      func() Time
	schedule func(t Time, fn func()) (cancel func())
	step     func() bool
	run      func()
	runUntil func(Time)
	stop     func()
	pending  func() int

	// live cancel funcs for still-pending events, keyed by event id.
	live map[int]func()
}

func (d *diffDriver) spawn(at Time) {
	id := d.next
	d.next++
	cancel := d.schedule(at, func() {
		d.log = append(d.log, fireRec{id: id, at: d.now()})
		delete(d.live, id)
		r := d.rng.Intn(100)
		switch {
		case r < 35:
			// Schedule 1-2 follow-ups a short distance ahead (the
			// near-monotonic hot path, including zero-delay at ties).
			n := 1 + d.rng.Intn(2)
			for i := 0; i < n; i++ {
				d.spawn(d.now() + Time(d.rng.Intn(64)))
			}
		case r < 45:
			// Cancel a random still-pending event.
			d.cancelRandom()
		case r < 47:
			d.stop()
		}
	})
	d.live[id] = cancel
}

func (d *diffDriver) cancelRandom() {
	if len(d.live) == 0 {
		return
	}
	// Deterministic victim choice: smallest id >= a random threshold.
	k := d.rng.Intn(d.next)
	victim := -1
	for id := range d.live {
		if id >= k && (victim < 0 || id < victim) {
			victim = id
		}
	}
	if victim < 0 {
		return
	}
	d.live[victim]()
	delete(d.live, victim)
}

// chain schedules one link of a self-rescheduling chain at at: each
// firing schedules the next link wide/2..3*wide/2 later until left
// runs out, and occasionally cancels a pending event or stops the run.
func (d *diffDriver) chain(at, wide Time, left int) {
	id := d.next
	d.next++
	cancel := d.schedule(at, func() {
		d.log = append(d.log, fireRec{id: id, at: d.now()})
		delete(d.live, id)
		switch r := d.rng.Intn(100); {
		case r < 5:
			d.cancelRandom()
		case r < 6:
			d.stop()
		}
		if left > 0 {
			d.chain(d.now()+wide/2+Time(d.rng.Int63n(int64(wide))), wide, left-1)
		}
	})
	d.live[id] = cancel
}

// runPhaseScript drives the phase-shift scenario for seed: a burst of
// events about half a nanosecond apart (ties included, each spawning
// short follow-ups as in runScript), then tens to hundreds of chains
// whose links are 1-128 us apart, with RunUntil windows before the
// final drain.
func runPhaseScript(seed int64, d *diffDriver) {
	d.rng = rand.New(rand.NewSource(seed))
	d.live = make(map[int]func())
	burst := 200 + d.rng.Intn(800)
	for i := 0; i < burst; i++ {
		d.spawn(Time(d.rng.Intn(burst / 2)))
	}
	chains := 64 + d.rng.Intn(448)
	wide := Time(1) << (10 + d.rng.Intn(8))
	for c := 0; c < chains; c++ {
		d.chain(Time(d.rng.Intn(burst)), wide, 8+d.rng.Intn(24))
	}
	for r := d.rng.Intn(4); r > 0; r-- {
		d.runUntil(d.now() + Time(d.rng.Int63n(4*int64(wide))))
	}
	d.run()
	for d.pending() > 0 { // drain past any trailing in-callback Stop
		d.run()
	}
}

// runScript drives one engine through the scripted scenario for seed.
func runScript(seed int64, d *diffDriver) {
	d.rng = rand.New(rand.NewSource(seed))
	d.live = make(map[int]func())
	rounds := 2 + d.rng.Intn(3)
	for r := 0; r < rounds; r++ {
		batch := 4 + d.rng.Intn(24)
		base := d.now()
		for i := 0; i < batch; i++ {
			gap := d.rng.Intn(3)
			var at Time
			switch gap {
			case 0: // dense / tie-heavy
				at = base + Time(d.rng.Intn(8))
			case 1: // moderate
				at = base + Time(d.rng.Intn(512))
			default: // sparse, forces cursor rings and rebuild widths
				at = base + Time(d.rng.Intn(1<<22))
			}
			d.spawn(at)
		}
		// Cancel a few before running anything.
		for i := d.rng.Intn(4); i > 0; i-- {
			d.cancelRandom()
		}
		switch d.rng.Intn(4) {
		case 0:
			for i := d.rng.Intn(6); i > 0; i-- {
				d.step()
			}
		case 1:
			d.runUntil(d.now() + Time(d.rng.Intn(1<<21)))
		case 2:
			d.run() // may be cut short by a Stop inside a callback
		case 3:
			// Schedule-only round: let pending events pile up.
		}
	}
	d.run()
	for d.pending() > 0 { // drain past any trailing in-callback Stop
		d.run()
	}
}

func bindReal(e *Engine) *diffDriver {
	d := &diffDriver{}
	d.now = e.Now
	d.schedule = func(t Time, fn func()) func() {
		ev := e.At(t, fn)
		return func() { e.Cancel(ev) }
	}
	d.step = e.Step
	d.run = func() { e.Run() }
	d.runUntil = func(t Time) { e.RunUntil(t) }
	d.stop = e.Stop
	d.pending = e.Pending
	return d
}

func bindRef(e *refEngine) *diffDriver {
	d := &diffDriver{}
	d.now = func() Time { return e.now }
	d.schedule = func(t Time, fn func()) func() {
		ev := e.at(t, fn)
		return func() { e.cancel(ev) }
	}
	d.step = e.step
	d.run = e.run
	d.runUntil = e.runUntil
	d.stop = func() { e.stopped = true }
	d.pending = func() int { return len(e.queue) }
	return d
}

func TestDifferentialCalendarVsHeap(t *testing.T) {
	sequences := 10000
	if testing.Short() {
		sequences = 1500
	}
	for seed := int64(0); seed < int64(sequences); seed++ {
		diffScript(t, seed, runScript)
	}
}

// TestDifferentialCalendarVsHeapPhaseShift runs the differential check
// over phase-shift scripts: a dense burst sizes the queue, then chains
// run far sparser, so the queue must re-derive its width through the
// scan-cost window and empty-ring rebuilds while cancels, Steps,
// RunUntil windows and Stops interleave. The test also checks that the
// scripts reach those rebuilds.
func TestDifferentialCalendarVsHeapPhaseShift(t *testing.T) {
	sequences := 300
	if testing.Short() {
		sequences = 60
	}
	var sweeps uint64
	rederived := 0
	for seed := int64(0); seed < int64(sequences); seed++ {
		e := diffScript(t, seed, runPhaseScript)
		sweeps += e.QueueStats().Sweeps
		if e.queue.shift > 0 { // the burst left it at 0
			rederived++
		}
	}
	if sweeps == 0 || rederived < sequences/2 {
		t.Fatalf("scripts reached %d empty-ring sweeps and re-derived the width in %d of %d runs; want some sweeps and at least half",
			sweeps, rederived, sequences)
	}
}

// diffScript runs script for seed on the calendar-queue engine and on
// the reference heap engine, fails t on any divergence, and returns the
// calendar-queue engine.
func diffScript(t *testing.T, seed int64, script func(int64, *diffDriver)) *Engine {
	t.Helper()
	real := NewEngine()
	ref := &refEngine{}
	dReal := bindReal(real)
	dRef := bindRef(ref)
	script(seed, dReal)
	script(seed, dRef)

	if len(dReal.log) != len(dRef.log) {
		t.Fatalf("seed %d: fired %d events, reference fired %d",
			seed, len(dReal.log), len(dRef.log))
	}
	for i := range dReal.log {
		if dReal.log[i] != dRef.log[i] {
			t.Fatalf("seed %d: firing %d diverged: got {id %d at %v}, reference {id %d at %v}",
				seed, i, dReal.log[i].id, dReal.log[i].at, dRef.log[i].id, dRef.log[i].at)
		}
	}
	if real.Now() != ref.now {
		t.Fatalf("seed %d: clock %v, reference %v", seed, real.Now(), ref.now)
	}
	if real.Fired() != ref.fired {
		t.Fatalf("seed %d: fired counter %d, reference %d", seed, real.Fired(), ref.fired)
	}
	if real.Pending() != 0 {
		t.Fatalf("seed %d: %d events still pending after drain", seed, real.Pending())
	}
	return real
}

// ---------------------------------------------------------------------
// Directed white-box tests for calendar-queue edge paths the property
// test reaches only probabilistically.

// TestCalQueueRingMissFallback forces a full cursor ring with no due
// event: a single event farther ahead than nbuckets*width must still be
// found (via the direct-search fallback) and must reset the cursor.
func TestCalQueueRingMissFallback(t *testing.T) {
	e := NewEngine()
	firedAt := Time(0)
	// Fresh engine: 8 buckets, width 1 → anything past t=8 misses the ring.
	e.At(1<<30, func() { firedAt = e.Now() })
	if n := e.Run(); n != 1 {
		t.Fatalf("ran %d events, want 1", n)
	}
	if firedAt != 1<<30 {
		t.Fatalf("fired at %v, want %v", firedAt, Time(1<<30))
	}
}

// TestCalQueueBackwardInsertAfterDrain checks the push-time cursor
// reset: after the cursor has advanced far ahead, an insert at the
// current clock (behind the window) must still dequeue first.
func TestCalQueueBackwardInsertAfterDrain(t *testing.T) {
	e := NewEngine()
	var order []Time
	rec := func() { order = append(order, e.Now()) }
	e.At(1_000_000, rec)
	e.Run() // cursor now sits at the 1_000_000 window
	e.At(e.Now()+5, rec)
	e.At(e.Now()+5_000_000, rec)
	e.At(e.Now()+1, rec) // behind the later insert: needs cursor reset
	e.Run()
	want := []Time{1_000_000, 1_000_001, 1_000_005, 6_000_000}
	if len(order) != len(want) {
		t.Fatalf("fired %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("firing %d at %v, want %v (full order %v)", i, order[i], want[i], order)
		}
	}
}

// TestCalQueueTombstoneCompaction cancels far more events than survive
// and checks the survivors still fire in order through the compaction
// rebuild.
func TestCalQueueTombstoneCompaction(t *testing.T) {
	e := NewEngine()
	var fired []Time
	const n = 4096
	evs := make([]*Event, 0, n)
	for i := 0; i < n; i++ {
		at := Time(i * 3)
		evs = append(evs, e.At(at, func() { fired = append(fired, e.Now()) }))
	}
	for i, ev := range evs {
		if i%64 != 0 {
			e.Cancel(ev)
		}
	}
	if got, want := e.Pending(), n/64; got != want {
		t.Fatalf("pending %d, want %d", got, want)
	}
	e.Run()
	if len(fired) != n/64 {
		t.Fatalf("fired %d, want %d", len(fired), n/64)
	}
	for i, at := range fired {
		if want := Time(i * 64 * 3); at != want {
			t.Fatalf("firing %d at %v, want %v", i, at, want)
		}
	}
}

// TestCalQueuePhaseShiftScanCost is the regression fence for width
// adaptation: after a dense burst sizes the queue for 1 ns spacing, a
// steady state 100x sparser must not keep scanning the empty buckets
// the stale width leaves between events (a width that is never
// re-derived scans ~100 buckets per dequeue here).
func TestCalQueuePhaseShiftScanCost(t *testing.T) {
	e := NewEngine()
	runPhaseShift(e)
	s := e.QueueStats()
	if s.Pops != phaseBurst+phaseChains*phaseSteps {
		t.Fatalf("popped %d events, want %d", s.Pops, phaseBurst+phaseChains*phaseSteps)
	}
	if got := s.ScanPerPop(); got > 4 {
		t.Fatalf("scanned %.1f buckets per pop (%+v), want <= 4", got, s)
	}
	t.Logf("%+v: %.2f buckets per pop", s, s.ScanPerPop())
}
