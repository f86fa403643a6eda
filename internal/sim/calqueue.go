package sim

// calQueue is a lazy-delete bucketed calendar queue (R. Brown, CACM
// 1988) specialized for the simulator's near-monotonic schedule: almost
// every insertion lands at or shortly after the current cursor, so a
// dequeue is an O(1) scan of the cursor bucket instead of an O(log n)
// heap sift. Power-of-two bucket widths keep indexing to a shift and a
// mask.
//
// Buckets are intrusive singly-linked lists threaded through
// Event.next: a push is a pointer prepend, and scans, compactions and
// rebuilds relink events in place. The queue therefore allocates only
// when the bucket *count* grows past its largest earlier size — never
// per push — which is what keeps the sparse-horizon schedule
// allocation-free in steady state (see TestCalQueueSparseAllocs). The
// earlier slice-of-slices layout re-grew every bucket's backing array
// after each rebuild, costing tens of thousands of allocations per
// sparse run.
//
// Ordering contract (identical to the heap it replaced, proven by the
// differential test in calqueue_test.go): events dequeue in ascending
// (at, seq) order. The invariant that makes the cursor-bucket scan
// sufficient: every live event satisfies at >= bucketTop-width (the
// cursor window start) — push resets the cursor whenever an insertion
// would land before it — so all events due in the current window
// [bucketTop-width, bucketTop) hash to the cursor bucket itself, and
// the window minimum is the global minimum. Order within a bucket list
// is irrelevant: a dequeue drains the window into the due min-heap and
// pops its (at, seq) minimum, which is unique because sequence numbers
// are.
//
// Cancellation is lazy: Engine.Cancel only marks the event dead and
// adjusts counters; the entry is unlinked when a scan or rebuild next
// touches it.
//
// A rebuild re-spreads the live events over 2x the live count in
// buckets and re-derives the width from the live span. Three things
// trigger one:
//   - push: the population (tombstones included) outgrows twice the
//     bucket count; pop: tombstones outnumber live events;
//   - pop: a scan finds a whole ring empty, so every event is more
//     than a year ahead;
//   - pop: a window of pops scanned more than calScanLimit buckets
//     each on average (checkWindow).
//
// The last two catch a schedule whose spacing drifts while its
// population does not: the 1024-node hotspot run opens with a burst
// ~1 ns apart that sizes the width, then runs ~100x sparser, where the
// burst's width would make every pop scan ~110 empty buckets. Rebuilds
// reuse the bucket slice's capacity, so they allocate only to grow.
type calQueue struct {
	buckets []*Event // head of each bucket's intrusive list
	mask    uint64   // len(buckets)-1; len is a power of two
	shift   uint     // bucket width = 1 << shift nanoseconds
	size    int      // live (non-canceled) events
	dead    int      // canceled events still resident in buckets or due
	cur     int      // cursor bucket index
	// bucketTop is the exclusive upper time bound of the cursor
	// bucket's active window.
	bucketTop Time
	// due is a binary min-heap (by (at, seq)) of events already unlinked
	// from the cursor bucket because they fall inside the active window.
	// Extracting the whole window once and heap-ordering it makes a
	// same-timestamp burst of k events cost O(k log k) total instead of
	// the O(k^2) a per-pop rescan of the bucket list costs — the
	// difference between milliseconds and microseconds for a 1024-node
	// invalidation storm, whose deliveries all land on one tick. The
	// slice is scratch storage, reused across pops.
	due []*Event

	// Lifetime counters, read through Engine.QueueStats.
	pops, scanned, sweeps, rebuilds uint64

	// Scan-cost window (see checkWindow): its length in pops, the pop
	// count that closes it, and the scanned count when it opened.
	window, windowEnd, windowScanned uint64
}

const (
	calMinBuckets = 8
	// calWindow pops make one scan-cost window; a window averaging more
	// than calScanLimit buckets per pop triggers a rebuild. Rebuilds
	// that leave the geometry unchanged double the window, up to
	// calMaxWindow pops.
	calWindow    = 256
	calScanLimit = 8
	calMaxWindow = 1 << 16
)

func (q *calQueue) init() {
	q.buckets = make([]*Event, calMinBuckets)
	q.mask = calMinBuckets - 1
	q.shift = 0
	q.window = calWindow
	q.windowEnd = calWindow
	q.resetCursor(0)
}

func (q *calQueue) width() Time { return Time(1) << q.shift }

func (q *calQueue) bucketFor(t Time) int {
	return int((uint64(t) >> q.shift) & q.mask)
}

// resetCursor points the cursor at the bucket and window containing t.
func (q *calQueue) resetCursor(t Time) {
	q.cur = q.bucketFor(t)
	q.bucketTop = (t>>q.shift + 1) << q.shift
}

// push inserts ev, repositioning the cursor when the insertion lands
// before the current window (only possible for inserts at the engine's
// current time after the cursor drained past it — e.g. work scheduled
// by an idle callback).
//
//cenju4:hotpath
func (q *calQueue) push(ev *Event) {
	if q.size == 0 || ev.at < q.bucketTop-q.width() {
		q.resetCursor(ev.at)
	}
	b := q.bucketFor(ev.at)
	ev.next = q.buckets[b]
	q.buckets[b] = ev
	q.size++
	if q.size+q.dead > 2*len(q.buckets) {
		q.rebuild()
	}
}

// pop removes and returns the minimum live event by (at, seq), or nil
// when the queue is empty. Dead entries encountered on the way are
// dropped.
//
//cenju4:hotpath
func (q *calQueue) pop() *Event {
	if q.size == 0 {
		return nil
	}
	if q.dead > q.size && q.dead > 64 {
		q.rebuild() // mostly tombstones: compact
	}
	if q.pops++; q.pops >= q.windowEnd {
		q.checkWindow()
	}
	if ev := q.scan(); ev != nil {
		return ev
	}
	// A full ring (one "year") without a due event: every live event is
	// more than nbuckets*width ahead, so the width no longer fits the
	// schedule. Re-derive it; the rebuild parks the cursor on the
	// minimum's window, so the rescan finds it in the first bucket.
	q.sweeps++
	q.rebuild()
	if ev := q.scan(); ev != nil {
		return ev
	}
	panic("sim: calendar queue lost an event") // size said otherwise
}

// scan advances the cursor at most one ring, bucket by bucket, and
// pops the first due event it finds (nil after a whole empty ring).
func (q *calQueue) scan() *Event {
	w := q.width()
	for n := 1; n <= len(q.buckets); n++ {
		q.drainDue(q.cur)
		q.pruneDueHead()
		if len(q.due) > 0 && q.due[0].at < q.bucketTop {
			q.scanned += uint64(n)
			q.size--
			return q.heapPop()
		}
		q.cur = int(uint64(q.cur+1) & q.mask)
		q.bucketTop += w
	}
	q.scanned += uint64(len(q.buckets))
	return nil
}

// checkWindow closes a window of pops: when they scanned more than
// calScanLimit buckets each on average, the width has drifted from the
// schedule's spacing and the queue rebuilds. A rebuild that leaves the
// geometry unchanged cannot help the next window either, so the window
// doubles (up to calMaxWindow) before the next check; one that changes
// it resets the window to calWindow.
func (q *calQueue) checkWindow() {
	if q.scanned-q.windowScanned > calScanLimit*q.window {
		shift, nb := q.shift, len(q.buckets)
		q.rebuild()
		if q.shift == shift && len(q.buckets) == nb {
			q.window = min(2*q.window, calMaxWindow)
		} else {
			q.window = calWindow
		}
	}
	q.windowEnd = q.pops + q.window
	q.windowScanned = q.scanned
}

// drainDue unlinks every event of bucket i that falls inside the active
// window (at < bucketTop) into the due heap, dropping dead entries as it
// goes. Events beyond the window (a whole ring ahead) stay in place.
func (q *calQueue) drainDue(i int) {
	var prev *Event
	for ev := q.buckets[i]; ev != nil; {
		if ev.dead {
			next := ev.next
			if prev == nil {
				q.buckets[i] = next
			} else {
				prev.next = next
			}
			ev.next = nil
			q.dead--
			ev = next
			continue
		}
		if ev.at < q.bucketTop {
			next := ev.next
			if prev == nil {
				q.buckets[i] = next
			} else {
				prev.next = next
			}
			ev.next = nil
			q.heapPush(ev)
			ev = next
			continue
		}
		prev = ev
		ev = ev.next
	}
}

// eventBefore is the queue's total order: ascending (at, seq).
func eventBefore(a, b *Event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// pruneDueHead discards canceled events from the top of the due heap so
// the head, if any, is live.
func (q *calQueue) pruneDueHead() {
	for len(q.due) > 0 && q.due[0].dead {
		q.dead--
		q.heapPop()
	}
}

//cenju4:hotpath
func (q *calQueue) heapPush(ev *Event) {
	//cenju4:alloc-ok due-heap growth amortizes across the bursts that filled it
	q.due = append(q.due, ev)
	j := len(q.due) - 1
	for j > 0 {
		p := (j - 1) / 2
		if !eventBefore(q.due[j], q.due[p]) {
			break
		}
		q.due[j], q.due[p] = q.due[p], q.due[j]
		j = p
	}
}

//cenju4:hotpath
func (q *calQueue) heapPop() *Event {
	ev := q.due[0]
	last := len(q.due) - 1
	q.due[0] = q.due[last]
	q.due[last] = nil
	q.due = q.due[:last]
	j := 0
	for {
		l := 2*j + 1
		if l >= last {
			break
		}
		s := l
		if r := l + 1; r < last && eventBefore(q.due[r], q.due[l]) {
			s = r
		}
		if !eventBefore(q.due[s], q.due[j]) {
			break
		}
		q.due[j], q.due[s] = q.due[s], q.due[j]
		j = s
	}
	return ev
}

// rebuild re-spreads the live events over a bucket count sized for the
// population and a width sized for the live span, dropping tombstones.
// The live events are collected by relinking them into one chain, so
// the only allocation is the bucket-head slice itself — and only when
// the bucket count outgrows its capacity.
func (q *calQueue) rebuild() {
	q.rebuilds++
	// Chain every live event together and measure the population. Due
	// heap residents are live events too — fold them back in.
	var live *Event
	n := 0
	var lo, hi Time
	for i := range q.buckets {
		for ev := q.buckets[i]; ev != nil; {
			next := ev.next
			if ev.dead {
				ev.next = nil
			} else {
				if n == 0 {
					lo, hi = ev.at, ev.at
				} else {
					if ev.at < lo {
						lo = ev.at
					}
					if ev.at > hi {
						hi = ev.at
					}
				}
				ev.next = live
				live = ev
				n++
			}
			ev = next
		}
		q.buckets[i] = nil
	}
	for i, ev := range q.due {
		q.due[i] = nil
		if ev.dead {
			continue
		}
		if n == 0 {
			lo, hi = ev.at, ev.at
		} else {
			if ev.at < lo {
				lo = ev.at
			}
			if ev.at > hi {
				hi = ev.at
			}
		}
		ev.next = live
		live = ev
		n++
	}
	q.due = q.due[:0]
	q.dead = 0
	q.size = n

	nb := calMinBuckets
	for nb < 2*n {
		nb <<= 1
	}
	// Every bucket was emptied above, and so was any tail a shrink left
	// beyond len, so a resize within capacity is a reslice.
	if nb > cap(q.buckets) {
		//cenju4:alloc-ok bucket-count growth amortizes across the pushes that doubled occupancy
		q.buckets = make([]*Event, nb)
	}
	q.buckets = q.buckets[:nb]
	q.mask = uint64(nb) - 1

	// Width: the live population's mean inter-event gap rounded down to
	// a power of two, times 4 (min 1), so a window holds 2-4 gaps of a
	// uniform schedule. Brown uses 3 gaps: an empty bucket costs a scan
	// step, while a few events per window cost only due-heap sifts. A
	// year (nb >= 2*size buckets) then spans over four times the live
	// horizon.
	q.shift = 0
	switch {
	case n > 1:
		gap := (hi - lo) / Time(n)
		for q.shift < 40 && Time(1)<<(q.shift+1) <= gap {
			q.shift++
		}
		if gap > 0 {
			q.shift += 2
		}
		q.resetCursor(lo)
	case n == 1:
		q.resetCursor(live.at)
	default:
		q.resetCursor(0)
	}
	for ev := live; ev != nil; {
		next := ev.next
		b := q.bucketFor(ev.at)
		ev.next = q.buckets[b]
		q.buckets[b] = ev
		ev = next
	}
}
