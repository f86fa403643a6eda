package sim

import (
	"fmt"
	"testing"
)

// TestRunChunkEquivalentToRun: looping RunChunk with any limit fires
// the same events in the same order as one Run call.
func TestRunChunkEquivalentToRun(t *testing.T) {
	build := func() (*Engine, *[]int) {
		e := NewEngine()
		var order []int
		// Mixed schedule with nested reschedules, like the protocol's
		// self-continuing handler chains.
		for i := 0; i < 50; i++ {
			i := i
			e.At(Time(i%7)*10, func() {
				order = append(order, i)
				if i%5 == 0 {
					e.After(3, func() { order = append(order, 1000+i) })
				}
			})
		}
		return e, &order
	}

	ref, refOrder := build()
	ref.Run()

	for _, limit := range []uint64{1, 3, 64, 1 << 20} {
		e, order := build()
		var chunks int
		for {
			_, more := e.RunChunk(limit)
			chunks++
			if !more {
				break
			}
		}
		if e.Fired() != ref.Fired() {
			t.Fatalf("limit %d: fired %d events, Run fired %d", limit, e.Fired(), ref.Fired())
		}
		if len(*order) != len(*refOrder) {
			t.Fatalf("limit %d: %d callbacks, Run had %d", limit, len(*order), len(*refOrder))
		}
		for i := range *order {
			if (*order)[i] != (*refOrder)[i] {
				t.Fatalf("limit %d: order[%d]=%d, Run order %d", limit, i, (*order)[i], (*refOrder)[i])
			}
		}
		if limit == 1 && chunks < int(ref.Fired()) {
			t.Fatalf("limit 1 took %d chunks for %d events", chunks, ref.Fired())
		}
	}
}

// TestRunChunkLimit: a chunk never exceeds its event limit.
func TestRunChunkLimit(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 100; i++ {
		e.At(Time(i), func() {})
	}
	fired, more := e.RunChunk(30)
	if fired != 30 || !more {
		t.Fatalf("RunChunk(30) = (%d, %v), want (30, true)", fired, more)
	}
	fired, more = e.RunChunk(1000)
	if fired != 70 || more {
		t.Fatalf("second chunk = (%d, %v), want (70, false)", fired, more)
	}
}

// TestRunChunkIdleFunc: the idle func fires at queue drains inside a
// chunk, and work it schedules keeps the chunk going — identical to
// Run's quiescent-point contract.
func TestRunChunkIdleFunc(t *testing.T) {
	e := NewEngine()
	rounds := 0
	e.SetIdleFunc(func() {
		if rounds < 3 {
			rounds++
			e.After(5, func() {})
		}
	})
	e.At(0, func() {})
	fired, more := e.RunChunk(1 << 20)
	if more {
		t.Fatal("chunk reported work remaining after full drain")
	}
	if rounds != 3 {
		t.Fatalf("idle func ran %d rounds, want 3", rounds)
	}
	if fired != 4 { // the seed event + one per idle round
		t.Fatalf("fired %d events, want 4", fired)
	}
}

// TestRunChunkEmptyEngine: a chunk on an empty engine fires nothing,
// offers the drain to the idle func once and reports no work left.
func TestRunChunkEmptyEngine(t *testing.T) {
	e := NewEngine()
	if fired, more := e.RunChunk(10); fired != 0 || more {
		t.Fatalf("RunChunk on an empty engine = (%d, %v), want (0, false)", fired, more)
	}
	idles := 0
	e.SetIdleFunc(func() { idles++ })
	if fired, more := e.RunChunk(10); fired != 0 || more || idles != 1 {
		t.Fatalf("RunChunk = (%d, %v) with %d idle calls, want (0, false) and 1", fired, more, idles)
	}
}

// A RunChunk call that returns at its event limit is a stop: the run
// is paused, not drained. The four tests below check what a stop must
// leave alone.

// TestStopLeavesPendingEventsQueued: unfired events stay queued and
// uncanceled across a stop, and the next chunk fires them in order.
func TestStopLeavesPendingEventsQueued(t *testing.T) {
	e := NewEngine()
	var fired []Time
	rec := func() { fired = append(fired, e.Now()) }
	e.At(10, rec)
	ev := e.At(20, rec)
	e.At(30, rec)

	if n, more := e.RunChunk(1); n != 1 || !more {
		t.Fatalf("first chunk = (%d, %v), want (1, true)", n, more)
	}
	if e.Pending() != 2 {
		t.Fatalf("pending %d after the stop, want 2", e.Pending())
	}
	if ev.Canceled() {
		t.Fatal("the stop marked a pending event canceled")
	}
	if n, more := e.RunChunk(1 << 20); n != 2 || more {
		t.Fatalf("second chunk = (%d, %v), want (2, false)", n, more)
	}
	if got, want := fmt.Sprint(fired), "[10ns 20ns 30ns]"; got != want {
		t.Fatalf("fired at %s, want %s", got, want)
	}
}

// TestScheduleAfterStop: a stopped engine still accepts At and After,
// measured from the time of the last fired event, and the next chunk
// fires the new events in time order with the survivors.
func TestScheduleAfterStop(t *testing.T) {
	e := NewEngine()
	var fired []Time
	rec := func() { fired = append(fired, e.Now()) }
	e.At(5, rec)
	e.At(40, rec)
	e.RunChunk(1)

	// The engine is stopped at t=5. Schedule between and after the survivor.
	e.At(20, rec)
	e.After(50, rec) // 5+50 = 55
	if e.Pending() != 3 {
		t.Fatalf("pending %d, want 3", e.Pending())
	}
	e.RunChunk(1 << 20)
	if got, want := fmt.Sprint(fired), "[5ns 20ns 40ns 55ns]"; got != want {
		t.Fatalf("fired at %s, want %s", got, want)
	}
}

// TestIdleFuncNotCalledOnStop: a stop is not a quiescent point, so the
// idle func must not run. A later chunk that drains the queue does
// run it.
func TestIdleFuncNotCalledOnStop(t *testing.T) {
	e := NewEngine()
	idles := 0
	e.SetIdleFunc(func() { idles++ })
	e.At(1, func() {})
	e.At(2, func() {})
	e.RunChunk(1)
	if idles != 0 {
		t.Fatalf("idle func ran %d times during a stopped chunk, want 0", idles)
	}
	e.RunChunk(1 << 20)
	if idles != 1 {
		t.Fatalf("idle func ran %d times after the draining chunk, want 1", idles)
	}
}

// TestCanceledSurvivesStop: Canceled() stays true across a stop and a
// later drain, and the canceled event never fires.
func TestCanceledSurvivesStop(t *testing.T) {
	e := NewEngine()
	canceledRan := false
	ev := e.At(30, func() { canceledRan = true })
	e.At(10, func() {})
	e.At(20, func() {})
	e.Cancel(ev)
	if !ev.Canceled() {
		t.Fatal("Canceled() false immediately after Cancel")
	}
	e.RunChunk(1) // stops at t=10
	if !ev.Canceled() {
		t.Fatal("Canceled() false after a stopped chunk")
	}
	e.RunChunk(1 << 20) // drains
	if canceledRan {
		t.Fatal("canceled event ran")
	}
	if !ev.Canceled() {
		t.Fatal("Canceled() false after the draining chunk")
	}
}
