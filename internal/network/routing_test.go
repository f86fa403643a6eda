package network

import (
	"math/rand"
	"testing"

	"cenju4/internal/directory"
	"cenju4/internal/msg"
	"cenju4/internal/sim"
	"cenju4/internal/topology"
)

// The switches compute their coordinates in closed form and ask the
// destination structure their port and wait questions directly. The
// references below are the digit-by-digit forms those replaced; the
// tests hold the closed forms to them over every input a network of
// 1 to 6 stages can produce.

// refDigit returns radix-4 digit j (0 = most significant) of x in a
// stages-digit address.
func refDigit(stages, x, j int) int { return x >> (2 * (stages - 1 - j)) & 3 }

// refSwitchFor is the digit-loop switchFor: coordinates
// dst[0..k-1] ++ src[k+1..S-1].
func refSwitchFor(stages, k, src, dst int) int {
	idx := 0
	for j := 0; j < k; j++ {
		idx = idx<<2 | refDigit(stages, dst, j)
	}
	for j := k + 1; j < stages; j++ {
		idx = idx<<2 | refDigit(stages, src, j)
	}
	return idx
}

// refMcSwitch is the digit-loop mcSwitch: coordinates
// prefix ++ src[k+1..S-1].
func refMcSwitch(stages, k, prefix, src int) int {
	idx := prefix
	for j := k + 1; j < stages; j++ {
		idx = idx<<2 | refDigit(stages, src, j)
	}
	return idx
}

// refDestHasPrefix is destHasPrefix with the node-width clipping done
// before the query rather than left to Dest.AnyMatch.
func refDestHasPrefix(stages int, d directory.Dest, prefix, digits int) bool {
	shift := 2 * (stages - digits)
	mask := (uint32(1)<<(2*digits) - 1) << shift
	value := uint32(prefix) << shift
	if value>>topology.NodeBits != 0 {
		return false
	}
	return d.AnyMatch(mask&(1<<topology.NodeBits-1), value)
}

// refWaitPattern is waitPattern over the decoded member set.
func refWaitPattern(stages int, d directory.Dest, nodes, src, k int) uint8 {
	var pat uint8
	for _, m := range d.Members(nil, nodes) {
		same := true
		for j := k + 1; j < stages; j++ {
			same = same && refDigit(stages, int(m), j) == refDigit(stages, src, j)
		}
		if same {
			pat |= 1 << refDigit(stages, int(m), k)
		}
	}
	return pat
}

// routingNet returns a bare network of the given stage count with as
// many nodes as it can address, up to the machine maximum.
func routingNet(stages int) *Network {
	nodes := 1 << (2 * stages)
	if nodes > topology.MaxNodes {
		nodes = topology.MaxNodes
	}
	return New(sim.NewEngine(), Config{Nodes: nodes, Stages: stages, Multicast: true})
}

func TestSwitchCoordinatesMatchDigitLoops(t *testing.T) {
	for stages := 1; stages <= 6; stages++ {
		n := routingNet(stages)
		nodes := n.Nodes()
		m := &msg.Message{}
		for k := 0; k < stages; k++ {
			sw := n.switches[k*n.perStage : (k+1)*n.perStage]
			for src := 0; src < nodes; src++ {
				for dst := 0; dst < nodes; dst++ {
					if want := refSwitchFor(stages, k, src, dst); n.switchFor(k, src, dst) != &sw[want] {
						t.Fatalf("S=%d k=%d src=%d dst=%d: switchFor is not switch %d", stages, k, src, dst, want)
					}
				}
				m.Src = topology.NodeID(src)
				for prefix := 0; prefix < 1<<(2*k); prefix++ {
					if want := refMcSwitch(stages, k, prefix, src); n.mcSwitch(m, k, prefix) != &sw[want] {
						t.Fatalf("S=%d k=%d src=%d prefix=%d: mcSwitch is not switch %d", stages, k, src, prefix, want)
					}
				}
			}
		}
	}
}

// routingDests returns destination structures for a machine of the
// given size: pointer lists, bit-patterns of a few to every node, and
// the saturated pattern.
func routingDests(rng *rand.Rand, nodes int) []directory.Dest {
	dests := []directory.Dest{
		directory.Single(0),
		directory.Single(topology.NodeID(nodes - 1)),
		directory.PointerDest(0, topology.NodeID(nodes/2), topology.NodeID(nodes-1)),
		{Pattern: 1<<directory.BitPatternBits - 1, IsPattern: true},
	}
	for _, k := range []int{2, 5, 9, 40, nodes} {
		var bp directory.BitPattern
		for i := 0; i < k; i++ {
			bp.Add(topology.NodeID(rng.Intn(nodes)))
		}
		dests = append(dests, directory.Dest{Pattern: bp, IsPattern: true})
	}
	return dests
}

func TestPortAndWaitQueriesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for stages := 1; stages <= 6; stages++ {
		n := routingNet(stages)
		nodes := n.Nodes()
		for _, d := range routingDests(rng, nodes) {
			for digits := 1; digits <= stages; digits++ {
				for prefix := 0; prefix < 1<<(2*digits); prefix++ {
					if got, want := n.destHasPrefix(d, prefix, digits), refDestHasPrefix(stages, d, prefix, digits); got != want {
						t.Fatalf("S=%d %v: destHasPrefix(%d, %d) = %v, want %v", stages, d, prefix, digits, got, want)
					}
				}
			}
			for src := 0; src < nodes; src++ {
				for k := 0; k < stages; k++ {
					if got, want := n.waitPattern(d, src, k), refWaitPattern(stages, d, nodes, src, k); got != want {
						t.Fatalf("S=%d %v: waitPattern(src %d, stage %d) = %04b, want %04b", stages, d, src, k, got, want)
					}
				}
			}
		}
	}
}
