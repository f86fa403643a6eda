package sim

import (
	"fmt"
	"sort"
)

// Ranked mode replaces the engine's global push-sequence tie-break with
// structural ranks so that K shard engines, each firing a disjoint
// subset of a sequential run's events, can reproduce the sequential
// (time, seq) total order without sharing a counter.
//
// A Rank records *where* a push happened: the rank of the event whose
// handler performed it (parent), the simulated time of that push
// (pushAt), and the push's ordinal within that handler (idx). Driver
// pushes (made outside any event handler — machine construction,
// quiescent callbacks) have a nil parent and encode a section counter
// in idx instead. Comparing two ranks walks toward the common ancestor
// and compares the first diverging (pushAt, idx) pair; this is exactly
// the order a single sequential engine's monotone seq counter would
// have produced, because within one handler pushes are numbered in
// program order and across handlers the firing order itself is the
// (time, rank) order being defined. See DESIGN.md §12 for the
// equivalence argument.
type Rank struct {
	parent *Rank  // rank of the event whose handler pushed this one; nil for driver pushes
	pushAt Time   // simulated time of the push
	idx    uint64 // ordinal of the push within its context (see subBits/secShift)
	pre    bool   // driver push that precedes the run (sorts before event pushes at equal pushAt)
}

const (
	// idx layout: bits [0,subBits) hold a replay sub-push ordinal
	// (0 = the reserving push itself, j+1 = sub-push j of a deferred
	// outcall replayed at the reserved slot), bits [subBits,secShift)
	// hold the per-handler push slot, and bits [secShift,64) hold the
	// driver section counter for nil-parent ranks.
	subBits  = 20
	secShift = 44
)

// RankLess reports whether a fires strictly before b under the
// sequential-equivalent order. Both arguments must be non-nil; an
// event's full ordering key is (at, rank), so RankLess is only
// consulted for equal-time events. Ancestor/descendant pairs are never
// co-queued (a parent has already fired by the time its child is
// pushed), so the walk always diverges before the chains run out
// together with equal fields.
func RankLess(a, b *Rank) bool {
	for {
		if a.pushAt != b.pushAt {
			return a.pushAt < b.pushAt
		}
		if a.parent == b.parent {
			return a.idx < b.idx
		}
		if a.parent == nil {
			// Driver push vs an event-context push at the same time:
			// pre-run driver sections precede the run (their pushes
			// happened before any event fired), quiescent sections
			// follow it.
			return a.pre
		}
		if b.parent == nil {
			return !b.pre
		}
		a, b = a.parent, b.parent
	}
}

// rankHeap is a binary min-heap of events keyed by (at, rank). Dead
// (cancelled) events are skipped lazily on pop; size counts live
// events only.
type rankHeap struct {
	ev   []*Event
	size int
}

func rankEventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return RankLess(a.rank, b.rank)
}

func (h *rankHeap) push(ev *Event) {
	h.ev = append(h.ev, ev)
	i := len(h.ev) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !rankEventLess(h.ev[i], h.ev[p]) {
			break
		}
		h.ev[i], h.ev[p] = h.ev[p], h.ev[i]
		i = p
	}
	h.size++
}

// pop removes and returns the earliest live event, or nil.
func (h *rankHeap) pop() *Event {
	for len(h.ev) > 0 {
		ev := h.ev[0]
		last := len(h.ev) - 1
		h.ev[0] = h.ev[last]
		h.ev[last] = nil
		h.ev = h.ev[:last]
		if last > 0 {
			h.siftDown(0)
		}
		if ev.dead {
			continue
		}
		h.size--
		return ev
	}
	return nil
}

// peek returns the earliest live event without removing it, or nil.
// Dead events encountered on top are discarded as a side effect.
func (h *rankHeap) peek() *Event {
	for len(h.ev) > 0 {
		ev := h.ev[0]
		if !ev.dead {
			return ev
		}
		last := len(h.ev) - 1
		h.ev[0] = h.ev[last]
		h.ev[last] = nil
		h.ev = h.ev[:last]
		if last > 0 {
			h.siftDown(0)
		}
	}
	return nil
}

func (h *rankHeap) siftDown(i int) {
	n := len(h.ev)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && rankEventLess(h.ev[l], h.ev[m]) {
			m = l
		}
		if r < n && rankEventLess(h.ev[r], h.ev[m]) {
			m = r
		}
		if m == i {
			return
		}
		h.ev[i], h.ev[m] = h.ev[m], h.ev[i]
		i = m
	}
}

// EnableRankedMode switches the engine from the global-seq tie-break to
// structural ranks. It must be called on a virgin engine: once anything
// has been scheduled or fired the two orders can no longer be spliced.
func (e *Engine) EnableRankedMode() {
	if e.seq != 0 || e.fired != 0 || e.Pending() != 0 {
		panic("sim: EnableRankedMode on an engine that already scheduled or fired events")
	}
	e.ranked = true
	e.drvPre = true // construction-time driver pushes precede the run
}

// nextRank mints the rank for a push happening now. Inside an event
// handler the rank descends from the firing event; outside (driver
// context) it is a nil-parent rank carrying the driver section.
func (e *Engine) nextRank() *Rank {
	if e.curRank != nil {
		//cenju4:alloc-ok rank nodes are the ranked mode's ordering state; chains are flattened by CanonicalizeRanks at window barriers, and the sequential kernel (ranked off) never reaches this
		r := &Rank{parent: e.curRank, pushAt: e.now, idx: e.pushSlot << subBits}
		e.pushSlot++
		return r
	}
	//cenju4:alloc-ok driver pushes are rare (launch and quiescent points); see above
	r := &Rank{pushAt: e.drvTime, idx: e.drvSec<<secShift | e.drvSlot<<subBits, pre: e.drvPre}
	e.drvSlot++
	return r
}

// BeginDriverSection opens a new driver context at virtual time t for
// pushes made outside any event handler after the run has started
// (quiescent callbacks). Such pushes sort after event-context pushes at
// the same time, matching the sequential engine where the quiescent
// callback's seq values follow every previously fired event's.
func (e *Engine) BeginDriverSection(t Time) {
	e.drvSec++
	e.drvTime = t
	e.drvSlot = 0
	e.drvPre = false
}

// SetDriverSlot overrides the driver-context push counter. Machine
// construction uses it to stamp node i's launch push with the global
// node index, so launches on different shard engines compare exactly as
// the sequential engine's launch loop ordered them.
func (e *Engine) SetDriverSlot(n uint64) { e.drvSlot = n }

// RunDue fires every queued event with at <= deadline, in (time, rank)
// order, and returns the count fired. Unlike RunChunk it never invokes
// the idle func: shard engines are driven window by window and
// quiescence is a global property the coordinator decides. Ranked mode
// only.
func (e *Engine) RunDue(deadline Time) uint64 {
	if !e.ranked {
		panic("sim: RunDue requires ranked mode")
	}
	start := e.fired
	for {
		ev := e.rh.peek()
		if ev == nil || ev.at > deadline {
			return e.fired - start
		}
		e.rh.pop()
		e.fireEvent(ev)
	}
}

// PeekTime returns the time of the earliest pending event. ok is false
// on an empty queue. Ranked mode only.
func (e *Engine) PeekTime() (Time, bool) {
	if !e.ranked {
		panic("sim: PeekTime requires ranked mode")
	}
	ev := e.rh.peek()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// LastFired returns the timestamp of the most recently fired event
// (zero if none has fired).
func (e *Engine) LastFired() Time { return e.lastAt }

// SyncTo advances the clock to t without firing anything. Moving the
// clock backwards panics.
func (e *Engine) SyncTo(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: SyncTo(%v) would move clock backwards from %v", t, e.now))
	}
	e.now = t
}

// InjectAt schedules fn at time t under an externally supplied rank.
// The PDES coordinator uses it to land replayed cross-shard effects on
// the destination shard with the rank the sequential engine would have
// assigned. Ranked mode only; scheduling in the past panics.
func (e *Engine) InjectAt(t Time, rank *Rank, fn func()) *Event {
	return e.inject(t, rank, fn, nil, nil)
}

// InjectCallAt is InjectAt for a single-argument callback, avoiding the
// closure allocation on hot delivery paths.
func (e *Engine) InjectCallAt(t Time, rank *Rank, fnc func(any), arg any) *Event {
	return e.inject(t, rank, nil, fnc, arg)
}

func (e *Engine) inject(t Time, rank *Rank, fn func(), fnc func(any), arg any) *Event {
	if !e.ranked {
		panic("sim: Inject requires ranked mode")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: inject at %v before now %v", t, e.now))
	}
	if rank == nil {
		panic("sim: inject with nil rank")
	}
	ev := e.alloc()
	*ev = Event{at: t, rank: rank, fn: fn, fnc: fnc, arg: arg, queued: true}
	e.rh.push(ev)
	return ev
}

// ReserveRankSlot burns one push slot of the currently firing event and
// returns the context needed to reconstruct descendant ranks later:
// the firing event's rank, the current time, and the reserved slot.
// Deferred outcalls reserve their slot at log time so replayed
// sub-pushes (see ComposedRank) interleave with the handler's direct
// pushes exactly as inline execution would have ordered them. Panics
// outside an event handler.
func (e *Engine) ReserveRankSlot() (*Rank, Time, uint64) {
	if e.curRank == nil {
		panic("sim: ReserveRankSlot outside event context")
	}
	slot := e.pushSlot
	e.pushSlot++
	return e.curRank, e.now, slot
}

// ComposedRank builds the rank of sub-push sub (0-based) performed
// while replaying a deferred outcall that reserved slot at (parent,
// pushAt). Sub-push ordinals occupy the low idx bits, offset by one so
// the reserving context itself (sub-ordinal 0) sorts first.
func ComposedRank(parent *Rank, pushAt Time, slot, sub uint64) *Rank {
	if sub+1 >= 1<<subBits {
		panic("sim: outcall sub-push ordinal overflows rank encoding")
	}
	return &Rank{parent: parent, pushAt: pushAt, idx: slot<<subBits | (sub + 1)}
}

// CanonicalizeRanks rewrites the ranks of every event queued across the
// given engines into flat (parentless) ranks that preserve the relative
// order. Rank chains otherwise retain their full ancestry — O(total
// events fired) memory — so the PDES coordinator calls this at window
// barriers. It is safe there because every event pushed after the
// barrier carries pushAt strictly greater than any canonicalized
// pushAt (all queued events' pushes happened at or before the barrier's
// deadline), so no new tie against a flattened rank can arise, and
// driver-context idx values (>= 1<<secShift) stay above the ordinals.
func CanonicalizeRanks(engines []*Engine) {
	var all []*Event
	for _, e := range engines {
		if !e.ranked {
			panic("sim: CanonicalizeRanks on unranked engine")
		}
		for _, ev := range e.rh.ev {
			if !ev.dead {
				all = append(all, ev)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return rankEventLess(all[i], all[j]) })
	for ord, ev := range all {
		ev.rank = &Rank{pushAt: ev.rank.pushAt, idx: uint64(ord)}
	}
	// Flat rewrite is order-isomorphic, so each heap's invariant holds.
}
