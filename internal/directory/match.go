package directory

import "cenju4/internal/topology"

// Match tables, one per bit-pattern field width: matchW[m<<W|v] is the
// one-hot set of the W-bit field values f with f&m == v, empty when v
// sets a bit that m leaves free. Filled once at package init; 1044
// entries in all.
var (
	match5 [1 << (2 * 5)]uint32 // field n[4:0]
	match2 [1 << (2 * 2)]uint32 // fields n[9:8] and n[7:6]
	match1 [1 << (2 * 1)]uint32 // field n[5]
)

func init() {
	fillMatch(match5[:], 5)
	fillMatch(match2[:], 2)
	fillMatch(match1[:], 1)
}

// fillMatch fills the match table for width-bit fields: every value f
// joins the set of each mask m under the value f&m it shows through m.
func fillMatch(tab []uint32, width int) {
	for m := 0; m < 1<<width; m++ {
		for f := 0; f < 1<<width; f++ {
			tab[m<<width|f&m] |= 1 << f
		}
	}
}

// MatchSet returns the bit-pattern encoding of every node n in the
// 10-bit node-number space with n & mask == value. The set is a cross
// product of independent per-field constraints, so the encoding is exact:
// each one-hot field holds the field values consistent with the mask and
// value bits over that field, and a field is empty when the constraint is
// unsatisfiable. Mask bits above the node width constrain nothing (every
// node's address bits there are zero); value bits there match no node.
func MatchSet(mask, value uint32) BitPattern {
	if value>>topology.NodeBits != 0 {
		return 0
	}
	f1 := match2[(mask>>8&3)<<2|value>>8&3]
	f2 := match2[(mask>>6&3)<<2|value>>6&3]
	f3 := match1[(mask>>5&1)<<1|value>>5&1]
	f4 := match5[(mask&0x1f)<<5|value&0x1f]
	return BitPattern(uint64(f1)<<f1Shift | uint64(f2)<<f2Shift | uint64(f3)<<f3Shift | uint64(f4)<<f4Shift)
}

// AnyMatch reports whether the represented set contains any node n with
// n & mask == value (over the 10-bit node-number space). Network
// switches use this to compute multicast output ports (high-bit
// constraints) and gathering wait patterns (low-bit constraints) without
// decoding the full member set — the switch-chip calculation the paper
// describes as "found ... by their own position information in the
// network, the system size, and the multicast destination".
//
// Because the bit-pattern structure is a cross product of independent
// one-hot fields, so is the set of matching nodes: the represented set
// meets it exactly when every field of p & MatchSet(mask, value) is
// non-empty. That is a constant number of table lookups, shifts and
// masks for every pattern, saturated or not.
func (p BitPattern) AnyMatch(mask, value uint32) bool {
	x := p & MatchSet(mask, value)
	return x&f1Mask != 0 && x&f2Mask != 0 && x&f3Mask != 0 && x&f4Mask != 0
}

// AnyMatch reports whether any destination node n satisfies
// n & mask == value.
func (d Dest) AnyMatch(mask, value uint32) bool {
	if d.IsPattern {
		return d.Pattern.AnyMatch(mask, value)
	}
	for _, p := range d.ptrs[:d.nptr] {
		if uint32(p)&mask == value {
			return true
		}
	}
	return false
}
