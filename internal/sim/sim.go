// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is a single-threaded event queue ordered by (time, sequence
// number). Ties on time are broken by insertion order, which makes every
// simulation fully deterministic for a given input. All Cenju-4 component
// models (switches, caches, protocol modules, processors) schedule work
// through one Engine.
//
// The queue is a lazy-delete bucketed calendar queue (see calqueue.go),
// chosen for the simulator's near-monotonic schedule pattern; the
// differential test in calqueue_test.go proves it dequeue-equivalent to
// the reference binary heap. The engine has one run loop, RunChunk:
// Run is RunChunk without a limit, and drivers that poll for
// cancellation or budgets between bounded chunks fire the identical
// event sequence.
//
// Event records are pooled: once an event has fired, the engine
// recycles its storage for a later At/After. The *Event handle returned
// by At/After is therefore valid for Cancel/Canceled only until the
// event fires; retaining a handle past that point and using it may
// observe an unrelated recycled event. Canceled events are never
// recycled, so a canceled handle's Canceled() stays true indefinitely.
// No simulation model in this repository retains handles past firing.
package sim

import "fmt"

// Time is simulated time in nanoseconds.
type Time uint64

// Nanoseconds returns t as a plain uint64 nanosecond count.
func (t Time) Nanoseconds() uint64 { return uint64(t) }

// Microseconds returns t converted to microseconds as a float.
func (t Time) Microseconds() float64 { return float64(t) / 1e3 }

func (t Time) String() string { return fmt.Sprintf("%dns", uint64(t)) }

// Event is a unit of scheduled work: either a plain callback (fn, from
// At/After) or a callback-with-argument (fnc+arg, from AtCall — the
// allocation-free form: a package-level func plus a pointer-shaped
// argument needs no closure object per event).
type Event struct {
	at     Time
	seq    uint64
	fn     func()
	fnc    func(any)
	arg    any
	next   *Event // intrusive calendar-queue bucket link (see calqueue.go)
	rank   *Rank  // ranked-mode ordering key (nil in sequential mode; see rank.go)
	dead   bool   // canceled before firing
	queued bool   // currently in the calendar queue
}

// Canceled reports whether the event was canceled before firing. Only
// meaningful while the handle is valid (see the package comment on
// event recycling).
func (e *Event) Canceled() bool { return e.dead }

// When returns the time the event is scheduled for.
func (e *Event) When() Time { return e.at }

// Engine is a discrete-event simulation engine.
//
// The zero value is not usable; create engines with NewEngine.
type Engine struct {
	now    Time
	seq    uint64
	queue  calQueue
	fired  uint64
	lastAt Time // time of the most recently fired event
	idle   func()

	// Ranked mode (see rank.go): events are ordered by (time, Rank)
	// instead of (time, seq), which lets an outside coordinator inject
	// events whose ordering reproduces the sequential engine's insertion
	// order exactly. Sequential mode never touches these fields.
	ranked   bool
	rh       rankHeap
	curRank  *Rank  // rank of the currently firing event (nil in driver context)
	pushSlot uint64 // per-firing-context push counter
	drvTime  Time   // current driver section's virtual time
	drvSec   uint64 // driver section counter
	drvSlot  uint64 // push counter within the current driver section
	drvPre   bool   // current driver section precedes the run (sorts first)

	// free and chunk implement the event pool: fired events return to
	// free; fresh events are carved from chunk in blocks so one
	// allocation covers eventChunk schedules.
	free  []*Event
	chunk []Event
}

const eventChunk = 256

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	e := &Engine{}
	e.queue.init()
	return e
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events waiting in the queue (canceled
// events do not count).
func (e *Engine) Pending() int {
	if e.ranked {
		return e.rh.size
	}
	return e.queue.size
}

// QueueStats is the calendar queue's scan-cost accounting: how much
// work dequeues did, not what the simulation computed. Ranked and
// PDES shard engines reach the same results through other queues, so
// it stays out of digests and the metrics registry.
type QueueStats struct {
	Pops     uint64 // events dequeued
	Scanned  uint64 // buckets those dequeues examined
	Sweeps   uint64 // dequeues that found a whole ring empty
	Rebuilds uint64 // rebuilds, for any reason
}

// ScanPerPop returns the mean buckets examined per dequeue (0 before
// the first).
func (s QueueStats) ScanPerPop() float64 {
	if s.Pops == 0 {
		return 0
	}
	return float64(s.Scanned) / float64(s.Pops)
}

// QueueStats returns the calendar queue's counters since NewEngine.
// A ranked engine orders events in its rank heap instead and reports
// zeros.
func (e *Engine) QueueStats() QueueStats {
	q := &e.queue
	return QueueStats{Pops: q.pops, Scanned: q.scanned, Sweeps: q.sweeps, Rebuilds: q.rebuilds}
}

// alloc returns a zeroed event record from the pool.
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	if len(e.chunk) == 0 {
		//cenju4:alloc-ok one block allocation amortizes over eventChunk schedules
		e.chunk = make([]Event, eventChunk)
	}
	ev := &e.chunk[0]
	e.chunk = e.chunk[1:]
	return ev
}

// recycle returns a finished event record to the pool.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.fnc = nil
	ev.arg = nil
	ev.rank = nil
	ev.queued = false
	e.free = append(e.free, ev)
}

// fire runs the event's callback after the record has been recycled.
func fire(fn func(), fnc func(any), arg any) {
	if fnc != nil {
		fnc(arg)
		return
	}
	fn()
}

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it always indicates a model bug. Scheduling between RunChunk
// calls is allowed; the event waits for the next Run/RunChunk.
//
//cenju4:hotpath
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	if e.ranked {
		*ev = Event{at: t, rank: e.nextRank(), fn: fn, queued: true}
		e.rh.push(ev)
		return ev
	}
	*ev = Event{at: t, seq: e.seq, fn: fn, queued: true}
	e.seq++
	e.queue.push(ev)
	return ev
}

// AtCall schedules fn(arg) at absolute time t. It is the
// allocation-free variant of At for per-event scheduling on hot paths:
// fn is typically a package-level function (a static func value) and
// arg a pointer to a pooled record, so — unlike an At closure capturing
// the same state — nothing escapes to the heap per event. Semantics
// (ordering, panics, Cancel) are identical to At.
//
//cenju4:hotpath
func (e *Engine) AtCall(t Time, fn func(any), arg any) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	if e.ranked {
		*ev = Event{at: t, rank: e.nextRank(), fnc: fn, arg: arg, queued: true}
		e.rh.push(ev)
		return ev
	}
	*ev = Event{at: t, seq: e.seq, fnc: fn, arg: arg, queued: true}
	e.seq++
	e.queue.push(ev)
	return ev
}

// After schedules fn to run d nanoseconds from now. A delay so large
// that now+d wraps around sim.Time panics with an overflow diagnosis
// (without the check the wrapped value would trip At's
// scheduling-in-the-past panic, blaming the wrong bug).
//
//cenju4:hotpath
func (e *Engine) After(d Time, fn func()) *Event {
	t := e.now + d
	if t < e.now {
		panic(fmt.Sprintf("sim: After(%v) from now %v overflows sim.Time", d, e.now))
	}
	return e.At(t, fn)
}

// Cancel removes a pending event. Canceling an already-fired or
// already-canceled event (while its handle is still valid) is a no-op,
// as is canceling nil. Cancellation is lazy: the entry is dropped when
// the queue next scans it. Canceled records are not pooled, so the
// handle's Canceled() result stays valid indefinitely.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.dead || !ev.queued {
		return
	}
	ev.dead = true
	ev.queued = false
	if e.ranked {
		e.rh.size--
		return
	}
	e.queue.size--
	e.queue.dead++
}

// pop removes the earliest pending event from whichever queue the
// engine runs on (nil when empty).
//
//cenju4:hotpath
func (e *Engine) pop() *Event {
	if e.ranked {
		return e.rh.pop()
	}
	return e.queue.pop()
}

// fireEvent advances the clock to ev and runs its callback. In ranked
// mode the event's rank becomes the push context for everything the
// callback schedules.
//
//cenju4:hotpath
func (e *Engine) fireEvent(ev *Event) {
	e.now = ev.at
	e.lastAt = ev.at
	e.fired++
	fn, fnc, arg := ev.fn, ev.fnc, ev.arg
	if e.ranked {
		e.curRank = ev.rank
		e.pushSlot = 0
	}
	e.recycle(ev)
	fire(fn, fnc, arg)
	if e.ranked {
		e.curRank = nil
	}
}

// SetIdleFunc installs fn (nil removes it), invoked by Run every time
// the event queue drains — the machine's quiescent points. fn may
// schedule new events; Run then continues. Drivers that inject work in
// rounds therefore get one callback per round without hand-rolling
// idle detection.
func (e *Engine) SetIdleFunc(fn func()) { e.idle = fn }

// Run executes events until the queue drains with nothing rescheduled
// by the idle func, and returns the number of events it executed.
func (e *Engine) Run() uint64 {
	n, _ := e.RunChunk(^uint64(0))
	return n
}

// RunChunk executes at most limit events and reports how many fired
// and whether work remains queued. It is the engine's one run loop:
// the idle func fires at every queue drain, and a drain with nothing
// rescheduled ends the chunk early with more=false. Callers that need
// to interleave the simulation with outside checks — the machine polls
// a context for cancellation and enforces an event budget between
// chunks — loop over RunChunk until more is false; the event sequence
// is identical to one Run call, so chunked execution cannot perturb a
// result digest.
//
// When the event limit lands exactly on a queue drain, the drain has
// not yet been offered to the idle func; RunChunk then reports
// more=true so the next call delivers the callback (which may refill
// the queue). A finished simulation costs at most one extra call that
// fires zero events.
//
//cenju4:hotpath
func (e *Engine) RunChunk(limit uint64) (fired uint64, more bool) {
	start := e.fired
	for e.fired-start < limit {
		if ev := e.pop(); ev != nil {
			e.fireEvent(ev)
			continue
		}
		if e.idle != nil {
			e.idle()
		}
		if e.Pending() == 0 {
			return e.fired - start, false
		}
	}
	return e.fired - start, e.Pending() > 0 || e.idle != nil
}
