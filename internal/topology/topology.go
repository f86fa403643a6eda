// Package topology defines the Cenju-4 machine geometry: node numbering,
// the 40-bit physical address map, cache-block geometry, and the
// multistage-network stage counts used throughout the simulator.
//
// Cenju-4 distinguishes private and shared (DSM) accesses by the MSB of a
// 40-bit physical address. A private access uses 29 offset bits. A shared
// access uses 10 bits of node number (the home node) and 29 offset bits:
//
//	bit 39    : 1 = shared (DSM), 0 = private
//	bits 38-29: home node number (shared accesses only)
//	bits 28-0 : offset within the node's main memory
//
// Cache blocks are 128 bytes. The machine scales to MaxNodes = 1024
// nodes; the multistage network of 4x4 crossbar switches uses 2 stages up
// to 16 nodes, 4 stages up to 128 nodes, and 6 stages up to 1024 nodes
// (the configurations evaluated in the paper).
package topology

import "fmt"

const (
	// MaxNodes is the architectural maximum node count.
	MaxNodes = 1024
	// NodeBits is the width of a node number.
	NodeBits = 10
	// OffsetBits is the width of a memory offset.
	OffsetBits = 29
	// BlockSize is the cache line / coherence block size in bytes.
	BlockSize = 128
	// BlockShift is log2(BlockSize).
	BlockShift = 7
	// SharedBit is the physical-address bit distinguishing DSM accesses.
	SharedBit = 39
	// SwitchRadix is the port count of each crossbar switch.
	SwitchRadix = 4
	// DirEntryBytes is the size of one directory entry (64 bits).
	DirEntryBytes = 8
	// MaxOutstanding is the maximum number of outstanding requests one
	// processor (R10000) may have in flight.
	MaxOutstanding = 4
)

// NodeID identifies one node (0..MaxNodes-1).
type NodeID uint16

func (n NodeID) String() string { return fmt.Sprintf("n%d", uint16(n)) }

// Addr is a 40-bit Cenju-4 physical address.
type Addr uint64

const (
	offsetMask = (1 << OffsetBits) - 1
	nodeMask   = (1 << NodeBits) - 1
)

// SharedAddr builds a shared (DSM) physical address for the given home
// node and offset. It panics if node or offset exceed their fields —
// callers construct addresses from validated configuration.
func SharedAddr(node NodeID, offset uint64) Addr {
	if uint64(node) > nodeMask {
		panic(fmt.Sprintf("topology: node %d out of range", node))
	}
	if offset > offsetMask {
		panic(fmt.Sprintf("topology: offset %#x out of range", offset))
	}
	return Addr(1<<SharedBit | uint64(node)<<OffsetBits | offset)
}

// PrivateAddr builds a private physical address with the given offset.
func PrivateAddr(offset uint64) Addr {
	if offset > offsetMask {
		panic(fmt.Sprintf("topology: offset %#x out of range", offset))
	}
	return Addr(offset)
}

// Shared reports whether a is a DSM address.
func (a Addr) Shared() bool { return a>>SharedBit&1 == 1 }

// Home returns the node number field of a shared address. For private
// addresses it returns 0 (the field is unused; only 29 offset bits are
// decoded for private accesses).
func (a Addr) Home() NodeID {
	if !a.Shared() {
		return 0
	}
	return NodeID(a >> OffsetBits & nodeMask)
}

// Offset returns the 29-bit offset field.
func (a Addr) Offset() uint64 { return uint64(a) & offsetMask }

// Block returns the address of the coherence block containing a.
func (a Addr) Block() Addr { return a &^ (BlockSize - 1) }

// BlockIndex returns the block number within the home memory.
func (a Addr) BlockIndex() uint64 { return a.Offset() >> BlockShift }

func (a Addr) String() string {
	if a.Shared() {
		return fmt.Sprintf("shared[%v+%#x]", a.Home(), a.Offset())
	}
	return fmt.Sprintf("private[%#x]", a.Offset())
}

// StagesForNodes returns the number of network stages used for a machine
// of n nodes, following the paper's evaluation: 2 stages up to 16 nodes,
// 4 stages up to 128, 6 stages up to 1024.
func StagesForNodes(n int) int {
	switch {
	case n <= 0:
		panic("topology: non-positive node count")
	case n <= 16:
		return 2
	case n <= 128:
		return 4
	case n <= MaxNodes:
		return 6
	default:
		panic(fmt.Sprintf("topology: %d nodes exceeds maximum %d", n, MaxNodes))
	}
}

// ValidNodeCount reports whether n is an acceptable machine size: a
// power of two between 1 and MaxNodes. Powers of two keep routing-digit
// extraction and the bit-pattern encodings well-formed.
func ValidNodeCount(n int) bool {
	if n < 1 || n > MaxNodes {
		return false
	}
	return n&(n-1) == 0
}

// ValidStages reports whether a network of the given stage count can
// connect a machine of nodes nodes: between 1 and the stage count of the
// largest machine, with 4^stages >= nodes addresses to route to.
func ValidStages(nodes, stages int) bool {
	return stages >= 1 && stages <= StagesForNodes(MaxNodes) && 1<<(2*stages) >= nodes
}

// Log2 returns floor(log2(n)) for n >= 1.
func Log2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

// RouteDigit returns the radix-4 digit of node that stage s (0-based,
// counted from the node side) decides, in a network with the given total
// stages. Stage 0 decides the most significant digit.
func RouteDigit(node NodeID, stage, stages int) int {
	shift := 2 * (stages - 1 - stage)
	return int(node>>shift) & (SwitchRadix - 1)
}

// StageBits returns the node-number bit positions (little-endian, bit 0
// = LSB) that stage s decides: the pair {2*(stages-1-s), 2*(stages-1-s)+1}.
func StageBits(stage, stages int) (lo, hi int) {
	lo = 2 * (stages - 1 - stage)
	return lo, lo + 1
}
