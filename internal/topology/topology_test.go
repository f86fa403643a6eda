package topology

import (
	"testing"
	"testing/quick"
)

func TestSharedAddrRoundTrip(t *testing.T) {
	cases := []struct {
		node   NodeID
		offset uint64
	}{
		{0, 0},
		{1, 128},
		{163, 0x1234580},
		{1023, offsetMask},
	}
	for _, c := range cases {
		a := SharedAddr(c.node, c.offset)
		if !a.Shared() {
			t.Errorf("SharedAddr(%v,%#x).Shared() = false", c.node, c.offset)
		}
		if a.Home() != c.node {
			t.Errorf("Home() = %v, want %v", a.Home(), c.node)
		}
		if a.Offset() != c.offset {
			t.Errorf("Offset() = %#x, want %#x", a.Offset(), c.offset)
		}
	}
}

func TestPrivateAddr(t *testing.T) {
	a := PrivateAddr(0x12345)
	if a.Shared() {
		t.Error("private address reports shared")
	}
	if a.Offset() != 0x12345 {
		t.Errorf("Offset() = %#x, want 0x12345", a.Offset())
	}
	if a.Home() != 0 {
		t.Errorf("Home() on private = %v, want 0", a.Home())
	}
}

func TestAddrOutOfRangePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("node overflow", func() { SharedAddr(1024, 0) })
	mustPanic("offset overflow shared", func() { SharedAddr(0, 1<<OffsetBits) })
	mustPanic("offset overflow private", func() { PrivateAddr(1 << OffsetBits) })
}

func TestBlockGeometry(t *testing.T) {
	a := SharedAddr(5, 1000) // 1000 = 7*128 + 104
	if a.Block() != SharedAddr(5, 896) {
		t.Errorf("Block() = %v, want block at offset 896", a.Block())
	}
	if a.BlockIndex() != 7 {
		t.Errorf("BlockIndex() = %d, want 7", a.BlockIndex())
	}
	if a.Block().Offset()%BlockSize != 0 {
		t.Error("Block() not aligned")
	}
}

func TestStagesForNodes(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 2}, {2, 2}, {4, 2}, {16, 2},
		{17, 4}, {32, 4}, {64, 4}, {128, 4},
		{129, 6}, {256, 6}, {512, 6}, {1024, 6},
	}
	for _, c := range cases {
		if got := StagesForNodes(c.n); got != c.want {
			t.Errorf("StagesForNodes(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestStagesForNodesPanics(t *testing.T) {
	for _, n := range []int{0, -1, 1025} {
		n := n
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("StagesForNodes(%d) did not panic", n)
				}
			}()
			StagesForNodes(n)
		}()
	}
}

func TestValidStages(t *testing.T) {
	cases := []struct {
		nodes, stages int
		want          bool
	}{
		{4, 1, true}, {8, 1, false}, {16, 2, true}, {32, 2, false},
		{16, 6, true}, {1024, 5, true}, {1024, 6, true},
		{16, 0, false}, {16, -1, false}, {16, 7, false}, {16, 14, false},
	}
	for _, c := range cases {
		if got := ValidStages(c.nodes, c.stages); got != c.want {
			t.Errorf("ValidStages(%d, %d) = %v, want %v", c.nodes, c.stages, got, c.want)
		}
	}
	for _, n := range []int{1, 16, 128, 1024} {
		if !ValidStages(n, StagesForNodes(n)) {
			t.Errorf("the paper's %d stages rejected for %d nodes", StagesForNodes(n), n)
		}
	}
}

func TestValidNodeCount(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024} {
		if !ValidNodeCount(n) {
			t.Errorf("ValidNodeCount(%d) = false", n)
		}
	}
	for _, n := range []int{0, 3, 5, 100, 1000, 2048, -4} {
		if ValidNodeCount(n) {
			t.Errorf("ValidNodeCount(%d) = true", n)
		}
	}
}

func TestRouteDigit(t *testing.T) {
	// Node 0b0010100100 = 164. With 5 stages (10 bits), digits MSB-first
	// are 00,10,10,01,00 = 0,2,2,1,0.
	want := []int{0, 2, 2, 1, 0}
	for s, w := range want {
		if got := RouteDigit(164, s, 5); got != w {
			t.Errorf("RouteDigit(164,%d,5) = %d, want %d", s, got, w)
		}
	}
}

func TestRouteDigitReconstructs(t *testing.T) {
	f := func(raw uint16) bool {
		node := NodeID(raw % MaxNodes)
		stages := 5
		var rebuilt int
		for s := 0; s < stages; s++ {
			rebuilt = rebuilt<<2 | RouteDigit(node, s, stages)
		}
		return NodeID(rebuilt) == node
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStageBits(t *testing.T) {
	lo, hi := StageBits(0, 5)
	if lo != 8 || hi != 9 {
		t.Errorf("StageBits(0,5) = %d,%d, want 8,9", lo, hi)
	}
	lo, hi = StageBits(4, 5)
	if lo != 0 || hi != 1 {
		t.Errorf("StageBits(4,5) = %d,%d, want 0,1", lo, hi)
	}
}

func TestLog2(t *testing.T) {
	cases := []struct{ n, want int }{{1, 0}, {2, 1}, {4, 2}, {128, 7}, {1024, 10}}
	for _, c := range cases {
		if got := Log2(c.n); got != c.want {
			t.Errorf("Log2(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPropertySharedAddrFields(t *testing.T) {
	f := func(rawNode uint16, rawOff uint64) bool {
		node := NodeID(rawNode % MaxNodes)
		off := rawOff % (1 << OffsetBits)
		a := SharedAddr(node, off)
		return a.Shared() && a.Home() == node && a.Offset() == off &&
			a.Block().BlockIndex() == off>>BlockShift
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The paper: "The directory occupies 1/16 of the main memory" — one
// 64-bit entry per 128-byte block.
func TestDirectoryOverheadIsOneSixteenth(t *testing.T) {
	if DirEntryBytes*16 != BlockSize {
		t.Fatalf("directory overhead = %d/%d, want 1/16", DirEntryBytes, BlockSize)
	}
}

func TestAddrString(t *testing.T) {
	if s := SharedAddr(3, 256).String(); s != "shared[n3+0x100]" {
		t.Errorf("String() = %q", s)
	}
	if s := PrivateAddr(256).String(); s != "private[0x100]" {
		t.Errorf("String() = %q", s)
	}
}
