package runner

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// TestMapOrderIndependence: for a fn whose output depends only on its
// index, every parallelism level must return the identical result
// slice.
func TestMapOrderIndependence(t *testing.T) {
	const n = 257
	fn := func(i int) int { return i*i + 7 }
	seq, p := Map(Options{Parallel: 1}, n, fn)
	if len(p) != 0 {
		t.Fatalf("sequential run panicked: %v", p[0])
	}
	for _, workers := range []int{2, 4, 8, 0} {
		par, p := Map(Options{Parallel: workers}, n, fn)
		if len(p) != 0 {
			t.Fatalf("parallel=%d run panicked: %v", workers, p[0])
		}
		for i := range seq {
			if par[i] != seq[i] {
				t.Fatalf("parallel=%d: result[%d]=%d, sequential %d", workers, i, par[i], seq[i])
			}
		}
	}
}

// TestMapEachAscendingOrder: the each callback fires exactly once per
// run in strictly ascending index order, regardless of completion
// order.
func TestMapEachAscendingOrder(t *testing.T) {
	const n = 512
	var order []int
	_, p := MapEach(Options{Parallel: 8}, n,
		func(i int) int {
			// Skew work so later indices often finish first.
			x := 0
			for k := 0; k < (n-i)*50; k++ {
				x += k
			}
			return x
		},
		func(i int, _ int) { order = append(order, i) })
	if len(p) != 0 {
		t.Fatalf("panics: %v", p[0])
	}
	if len(order) != n {
		t.Fatalf("each fired %d times, want %d", len(order), n)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("each order[%d] = %d, want %d", i, got, i)
		}
	}
}

// TestMapPanicCapture: a panicking run is reported with index, label
// and stack while the rest of the fleet completes.
func TestMapPanicCapture(t *testing.T) {
	const n = 64
	var completed atomic.Int64
	results, panics := Map(
		Options{
			Parallel: 4,
			Label:    func(i int) string { return fmt.Sprintf("cfg=%d seed=%d", i%4, i) },
		},
		n,
		func(i int) int {
			if i == 13 || i == 40 {
				panic(fmt.Sprintf("boom %d", i))
			}
			completed.Add(1)
			return i
		})
	if got := completed.Load(); got != n-2 {
		t.Fatalf("%d runs completed, want %d", got, n-2)
	}
	if len(panics) != 2 {
		t.Fatalf("%d panics captured, want 2: %v", len(panics), panics)
	}
	if panics[0].Index != 13 || panics[1].Index != 40 {
		t.Fatalf("panic indices %d,%d, want 13,40", panics[0].Index, panics[1].Index)
	}
	if panics[0].Label != "cfg=1 seed=13" {
		t.Fatalf("panic label %q", panics[0].Label)
	}
	if panics[0].Value != "boom 13" {
		t.Fatalf("panic value %v", panics[0].Value)
	}
	if !strings.Contains(panics[0].Stack, "runner") {
		t.Fatalf("panic stack missing frames:\n%s", panics[0].Stack)
	}
	if !strings.Contains(panics[0].Error(), "run 13 (cfg=1 seed=13) panicked: boom 13") {
		t.Fatalf("panic Error() = %q", panics[0].Error())
	}
	// Panicked slots hold the zero value; others their result.
	if results[13] != 0 || results[12] != 12 {
		t.Fatalf("results[13]=%d results[12]=%d", results[13], results[12])
	}
}

// TestMapEachSkipsPanickedRuns: each is not invoked for a panicked
// index but still fires, in order, for everything after it.
func TestMapEachSkipsPanickedRuns(t *testing.T) {
	const n = 32
	var order []int
	_, panics := MapEach(Options{Parallel: 4}, n,
		func(i int) int {
			if i == 5 {
				panic("no")
			}
			return i
		},
		func(i int, _ int) { order = append(order, i) })
	if len(panics) != 1 || panics[0].Index != 5 {
		t.Fatalf("panics = %v", panics)
	}
	if len(order) != n-1 {
		t.Fatalf("each fired %d times, want %d", len(order), n-1)
	}
	prev := -1
	for _, i := range order {
		if i == 5 {
			t.Fatal("each fired for the panicked index")
		}
		if i <= prev {
			t.Fatalf("each order not ascending: %v", order)
		}
		prev = i
	}
}

// TestMapEmpty: n <= 0 is a no-op.
func TestMapEmpty(t *testing.T) {
	res, p := Map(Options{}, 0, func(i int) int { return i })
	if res != nil || p != nil {
		t.Fatalf("Map(0) = %v, %v, want nil, nil", res, p)
	}
}

// TestNestedBudget pins the Map × intra ≤ GOMAXPROCS rule.
func TestNestedBudget(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cases := []struct {
		outer, inner, want int
	}{
		{1, 1, 1},
		{1, procs, procs},     // sole run may use the whole machine
		{procs, procs, 1},     // saturated sweep: no intra budget
		{0, 0, 1},             // both default to GOMAXPROCS
		{2 * procs, 8, 1},     // oversubscribed sweep still gets the floor
		{1, 3 * procs, procs}, // inner request clamped to the machine
	}
	for _, c := range cases {
		if got := NestedBudget(c.outer, c.inner); got != c.want {
			t.Errorf("NestedBudget(%d, %d) = %d, want %d (GOMAXPROCS=%d)",
				c.outer, c.inner, got, c.want, procs)
		}
	}
}
