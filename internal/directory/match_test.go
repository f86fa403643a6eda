package directory

import (
	"math/rand"
	"testing"

	"cenju4/internal/topology"
)

// Reference implementation: decode members and scan.
func refAnyMatch(d Dest, mask, value uint32) bool {
	for _, m := range d.Members(nil, topology.MaxNodes) {
		if uint32(m)&mask == value {
			return true
		}
	}
	return false
}

func TestAnyMatchAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 500; trial++ {
		var bp BitPattern
		k := 1 + rng.Intn(8)
		for i := 0; i < k; i++ {
			bp.Add(topology.NodeID(rng.Intn(1024)))
		}
		d := Dest{Pattern: bp, IsPattern: true}
		mask := uint32(rng.Intn(1 << 12))
		value := uint32(rng.Intn(1<<12)) & mask
		got := d.AnyMatch(mask, value)
		want := refAnyMatch(d, mask, value)
		if got != want {
			t.Fatalf("AnyMatch(%#x,%#x) on %v = %v, want %v", mask, value, bp, got, want)
		}
	}
	// Wide sharing: 9 to 1024 sharers, up to and including patterns
	// that decode to the whole node space.
	for trial := 0; trial < 500; trial++ {
		var bp BitPattern
		k := 9 + rng.Intn(1024-9+1)
		for i := 0; i < k; i++ {
			bp.Add(topology.NodeID(rng.Intn(1024)))
		}
		d := Dest{Pattern: bp, IsPattern: true}
		for q := 0; q < 8; q++ {
			mask := uint32(rng.Intn(1 << 12))
			value := uint32(rng.Intn(1<<12)) & mask
			if got, want := d.AnyMatch(mask, value), refAnyMatch(d, mask, value); got != want {
				t.Fatalf("AnyMatch(%#x,%#x) on %v (%d sharers) = %v, want %v", mask, value, bp, k, got, want)
			}
		}
	}
	// The saturated pattern, near-saturated ones (one field one bit
	// short) and raw patterns with an empty field, each over every mask
	// and value of 12 bits.
	full := BitPattern(1<<BitPatternBits - 1)
	for _, bp := range []BitPattern{
		full,
		full &^ (1 << f1Shift),
		full &^ (1 << (f3Shift + 1)),
		full &^ (1 << (f4Shift + 31)),
		full &^ f1Mask,
		full &^ f3Mask,
		full &^ f4Mask,
		EncodeNode(0) | EncodeNode(1023),
	} {
		checkAllQueries(t, bp)
	}
}

// checkAllQueries compares bp.AnyMatch with the decoded member set for
// every 12-bit mask and value, including values that set bits the mask
// leaves free or bits above the node width.
func checkAllQueries(t *testing.T, bp BitPattern) {
	t.Helper()
	members := bp.Members(nil, topology.MaxNodes)
	var reach [1 << 12]bool
	for mask := uint32(0); mask < 1<<12; mask++ {
		reach = [1 << 12]bool{}
		for _, n := range members {
			reach[uint32(n)&mask] = true
		}
		for value := uint32(0); value < 1<<12; value++ {
			if got := bp.AnyMatch(mask, value); got != reach[value] {
				t.Fatalf("AnyMatch(%#x,%#x) on %v = %v, want %v", mask, value, bp, got, reach[value])
			}
		}
	}
}

// TestMatchSetAgainstScan compares MatchSet with a scan of the 1024
// nodes for every 12-bit mask and value: a satisfiable constraint gives
// exactly the OR of its nodes' encodings, an unsatisfiable one a
// pattern that represents no node.
func TestMatchSetAgainstScan(t *testing.T) {
	var want [1 << 12]BitPattern
	for mask := uint32(0); mask < 1<<12; mask++ {
		want = [1 << 12]BitPattern{}
		for n := uint32(0); n < topology.MaxNodes; n++ {
			want[n&mask] |= EncodeNode(topology.NodeID(n))
		}
		for value := uint32(0); value < 1<<12; value++ {
			got := MatchSet(mask, value)
			if want[value] == 0 {
				if got.Count() != 0 {
					t.Fatalf("MatchSet(%#x,%#x) = %v, want a pattern of no node", mask, value, got)
				}
			} else if got != want[value] {
				t.Fatalf("MatchSet(%#x,%#x) = %v, want %v", mask, value, got, want[value])
			}
		}
	}
}

func TestAnyMatchPointerDest(t *testing.T) {
	d := PointerDest(5, 160)
	if !d.AnyMatch(0x1f, 5) {
		t.Error("low-bit match for node 5 failed")
	}
	if !d.AnyMatch(0x3e0, 160) {
		t.Error("high-bit match for node 160 failed")
	}
	if d.AnyMatch(0x1f, 7) {
		t.Error("matched absent low bits")
	}
}

func TestAnyMatchEmpty(t *testing.T) {
	var bp BitPattern
	if bp.AnyMatch(0, 0) {
		t.Error("empty pattern matched")
	}
	var d Dest
	if d.AnyMatch(0, 0) {
		t.Error("empty dest matched")
	}
}

func TestAnyMatchUnsatisfiable(t *testing.T) {
	bp := EncodeNode(3)
	if bp.AnyMatch(0x0f, 0x13) {
		t.Error("value outside mask matched")
	}
	if bp.AnyMatch(0xfff, 1<<10|3) {
		t.Error("value above node width matched")
	}
}

func TestAnyMatchZeroMaskMatchesNonEmpty(t *testing.T) {
	bp := EncodeNode(700)
	if !bp.AnyMatch(0, 0) {
		t.Error("zero mask should match any nonempty pattern")
	}
}

func TestAnyMatchRoutingUseCases(t *testing.T) {
	// Multicast port computation: 6-stage network, destination prefix
	// constraints. Nodes 0 and 164 (0b0010100100): stage digits (6
	// digits over 12 bits, top 2 bits zero): 164 -> 0,0,2,2,1,0.
	var bp BitPattern
	bp.Add(0)
	bp.Add(164)
	d := Dest{Pattern: bp, IsPattern: true}
	// Stage 2 (digit covering bits 7-6): with prefix digits 0,0 chosen,
	// are there members with digit2 = 2 (bits 7-6 = 10)?
	if !d.AnyMatch(0b1111000000, 0b0010000000) {
		t.Error("digit constraint for node 164 failed")
	}
	// digit2 = 0 must match node 0.
	if !d.AnyMatch(0b1111000000, 0) {
		t.Error("digit constraint for node 0 failed")
	}
	// digit2 = 1: no member.
	if d.AnyMatch(0b1111000000, 0b0001000000) {
		t.Error("matched nonexistent branch")
	}
}
