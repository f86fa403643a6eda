package network

import (
	"math/rand"
	"testing"

	"cenju4/internal/directory"
	"cenju4/internal/msg"
	"cenju4/internal/sim"
	"cenju4/internal/timing"
	"cenju4/internal/topology"
)

type delivery struct {
	node topology.NodeID
	m    *msg.Message
	at   sim.Time
}

type harness struct {
	eng *sim.Engine
	net *Network
	got []delivery
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	h := &harness{eng: sim.NewEngine()}
	h.net = New(h.eng, cfg)
	for i := 0; i < cfg.Nodes; i++ {
		node := topology.NodeID(i)
		h.net.Attach(node, func(m *msg.Message) {
			h.got = append(h.got, delivery{node, m, h.eng.Now()})
		})
	}
	return h
}

func singlecast(src, dst topology.NodeID, data bool) *msg.Message {
	return &msg.Message{
		Kind:    msg.ReadShared,
		Src:     src,
		Dest:    directory.Single(dst),
		Addr:    topology.SharedAddr(dst, 0),
		Master:  src,
		HasData: data,
	}
}

func TestUnicastUncontendedLatency(t *testing.T) {
	for _, nodes := range []int{16, 128, 1024} {
		h := newHarness(t, Config{Nodes: nodes, Multicast: true})
		p := timing.Default()
		h.net.Send(singlecast(1, topology.NodeID(nodes-1), false))
		h.eng.Run()
		if len(h.got) != 1 {
			t.Fatalf("nodes=%d: %d deliveries, want 1", nodes, len(h.got))
		}
		want := p.Traversal(h.net.Stages(), false)
		if h.got[0].at != want {
			t.Errorf("nodes=%d: latency %v, want %v", nodes, h.got[0].at, want)
		}
	}
}

func TestUnicastDataSlower(t *testing.T) {
	h := newHarness(t, Config{Nodes: 16, Multicast: true})
	h.net.Send(singlecast(0, 5, true))
	h.eng.Run()
	ctl := timing.Default().Traversal(2, false)
	if h.got[0].at <= ctl {
		t.Errorf("data latency %v not greater than control %v", h.got[0].at, ctl)
	}
}

func TestStageCountsFollowPaper(t *testing.T) {
	for nodes, stages := range map[int]int{16: 2, 128: 4, 1024: 6} {
		h := newHarness(t, Config{Nodes: nodes, Multicast: true})
		if h.net.Stages() != stages {
			t.Errorf("nodes=%d: stages=%d, want %d", nodes, h.net.Stages(), stages)
		}
	}
}

func TestInOrderDeliveryPerPair(t *testing.T) {
	h := newHarness(t, Config{Nodes: 64, Multicast: true})
	// Burst of messages 3 -> 40 interleaved with cross traffic.
	for i := 0; i < 20; i++ {
		h.net.Send(singlecast(3, 40, i%3 == 0))
		h.net.Send(singlecast(17, 40, false))
		h.net.Send(singlecast(3, 9, false))
	}
	h.eng.Run()
	var times []sim.Time
	for _, d := range h.got {
		if d.node == 40 && d.m.Src == 3 {
			times = append(times, d.at)
		}
	}
	if len(times) != 20 {
		t.Fatalf("got %d deliveries 3->40, want 20", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Fatalf("out-of-order delivery: %v then %v", times[i-1], times[i])
		}
	}
}

func TestContentionSerializesPort(t *testing.T) {
	h := newHarness(t, Config{Nodes: 16, Multicast: true})
	// Two messages from the same source back-to-back must not have the
	// same latency: injection port serializes.
	h.net.Send(singlecast(0, 5, false))
	h.net.Send(singlecast(0, 5, false))
	h.eng.Run()
	if h.got[1].at-h.got[0].at < sim.Time(timing.Default().SerializeCtl) {
		t.Errorf("second message arrived %v after first, want >= serialization",
			h.got[1].at-h.got[0].at)
	}
}

func multicastTo(src topology.NodeID, nodes []topology.NodeID) *msg.Message {
	var e directory.Entry
	for _, n := range nodes {
		e.MapAdd(n)
	}
	return &msg.Message{
		Kind:   msg.Invalidate,
		Src:    src,
		Dest:   e.Dest(),
		Addr:   topology.SharedAddr(src, 0),
		Master: src,
	}
}

func TestMulticastReachesExactlyDecodedSet(t *testing.T) {
	h := newHarness(t, Config{Nodes: 1024, Multicast: true})
	targets := []topology.NodeID{0, 4, 5, 32, 164} // Figure 3: decodes to 12 nodes
	m := multicastTo(999, targets)
	want := m.Dest.Members(nil, 1024)
	h.net.Send(m)
	h.eng.Run()
	if len(h.got) != len(want) {
		t.Fatalf("%d deliveries, want %d", len(h.got), len(want))
	}
	seen := map[topology.NodeID]bool{}
	for _, d := range h.got {
		seen[d.node] = true
	}
	for _, n := range want {
		if !seen[n] {
			t.Errorf("member %v missed", n)
		}
	}
}

func TestMulticastPointerFormPrecise(t *testing.T) {
	h := newHarness(t, Config{Nodes: 128, Multicast: true})
	m := multicastTo(0, []topology.NodeID{7, 63, 100})
	h.net.Send(m)
	h.eng.Run()
	if len(h.got) != 3 {
		t.Fatalf("%d deliveries, want 3 (pointer form is precise)", len(h.got))
	}
}

func TestMulticastLatencyScalesWithStagesNotNodes(t *testing.T) {
	// Latency of invalidating all nodes must grow like the stage count,
	// not the node count (the paper's Figure 10 argument).
	lastArrival := func(nodes int) sim.Time {
		h := newHarness(t, Config{Nodes: nodes, Multicast: true})
		all := make([]topology.NodeID, nodes)
		for i := range all {
			all[i] = topology.NodeID(i)
		}
		h.net.Send(multicastTo(0, all))
		h.eng.Run()
		var last sim.Time
		for _, d := range h.got {
			if d.at > last {
				last = d.at
			}
		}
		if len(h.got) != nodes {
			t.Fatalf("nodes=%d: %d deliveries", nodes, len(h.got))
		}
		return last
	}
	l16 := lastArrival(16)
	l1024 := lastArrival(1024)
	if l1024 > 8*l16 {
		t.Errorf("multicast latency 16 nodes=%v, 1024 nodes=%v: not stage-scalable", l16, l1024)
	}
}

func TestSinglecastExpansionWhenMulticastOff(t *testing.T) {
	h := newHarness(t, Config{Nodes: 64, Multicast: false})
	all := make([]topology.NodeID, 64)
	for i := range all {
		all[i] = topology.NodeID(i)
	}
	h.net.Send(multicastTo(0, all))
	h.eng.Run()
	if len(h.got) != 64 {
		t.Fatalf("%d deliveries, want 64", len(h.got))
	}
	st := h.net.Stats()
	if st.Multicasts != 0 {
		t.Errorf("multicast counter = %d with multicast disabled", st.Multicasts)
	}
	// Injection serialization must spread arrivals linearly.
	var first, last sim.Time
	first = ^sim.Time(0)
	for _, d := range h.got {
		if d.at < first {
			first = d.at
		}
		if d.at > last {
			last = d.at
		}
	}
	minSpread := sim.Time(60 * uint64(timing.Default().SerializeCtl))
	if last-first < minSpread {
		t.Errorf("singlecast spread %v, want >= %v", last-first, minSpread)
	}
}

func gatherReplies(t *testing.T, nodes int, members []topology.NodeID) (*harness, []delivery) {
	t.Helper()
	h := newHarness(t, Config{Nodes: nodes, Multicast: true})
	var e directory.Entry
	for _, n := range members {
		e.MapAdd(n)
	}
	spec := e.Dest()
	home := topology.NodeID(0)
	g := h.net.AllocGather(spec, home)
	decoded := spec.Members(nil, nodes)
	for _, s := range decoded {
		reply := &msg.Message{
			Kind:   msg.InvAck,
			Src:    s,
			Dest:   directory.Single(home),
			Addr:   topology.SharedAddr(home, 0),
			Master: home,
			Gather: g,
		}
		h.net.Send(reply)
	}
	h.eng.Run()
	var atHome []delivery
	for _, d := range h.got {
		if d.node == home {
			atHome = append(atHome, d)
		}
	}
	return h, atHome
}

func TestGatherCombinesToOneReply(t *testing.T) {
	members := []topology.NodeID{1, 2, 3, 5, 8, 13, 21, 34, 55, 89}
	h, atHome := gatherReplies(t, 128, members)
	var e directory.Entry
	for _, n := range members {
		e.MapAdd(n)
	}
	decoded := e.Dest().Members(nil, 128)
	if len(atHome) != 1 {
		t.Fatalf("home received %d messages, want 1 gathered reply", len(atHome))
	}
	if atHome[0].m.Gather.Merged != len(decoded) {
		t.Errorf("Merged = %d, want %d", atHome[0].m.Gather.Merged, len(decoded))
	}
	st := h.net.Stats()
	if st.GatherMerges == 0 {
		t.Error("no in-network merges recorded")
	}
}

func TestGatherSingleMember(t *testing.T) {
	_, atHome := gatherReplies(t, 128, []topology.NodeID{77})
	if len(atHome) != 1 || atHome[0].m.Gather.Merged != 1 {
		t.Fatalf("single-member gather: %d msgs", len(atHome))
	}
}

func TestGatherAllNodes(t *testing.T) {
	nodes := 256
	all := make([]topology.NodeID, nodes)
	for i := range all {
		all[i] = topology.NodeID(i)
	}
	h, atHome := gatherReplies(t, nodes, all)
	if len(atHome) != 1 {
		t.Fatalf("home received %d messages, want 1", len(atHome))
	}
	if atHome[0].m.Gather.Merged != nodes {
		t.Errorf("Merged = %d, want %d", atHome[0].m.Gather.Merged, nodes)
	}
	st := h.net.Stats()
	if st.PeakGathers != 1 {
		t.Errorf("PeakGathers = %d, want 1", st.PeakGathers)
	}
}

func TestGatherHomeAmongMembers(t *testing.T) {
	// The home itself can appear in an imprecise destination set; its
	// own acknowledgement must gather like any other.
	_, atHome := gatherReplies(t, 64, []topology.NodeID{0, 1, 2})
	if len(atHome) != 1 || atHome[0].m.Gather.Merged != 3 {
		t.Fatalf("gather with home member: %+v", atHome)
	}
}

func TestConcurrentGathersDoNotMix(t *testing.T) {
	h := newHarness(t, Config{Nodes: 64, Multicast: true})
	mkSpec := func(ns ...topology.NodeID) directory.Dest {
		var e directory.Entry
		for _, n := range ns {
			e.MapAdd(n)
		}
		return e.Dest()
	}
	specA := mkSpec(10, 11, 12)
	specB := mkSpec(10, 11, 12) // same members, different gather
	gA := h.net.AllocGather(specA, 1)
	gB := h.net.AllocGather(specB, 2)
	for _, s := range []topology.NodeID{10, 11, 12} {
		h.net.Send(&msg.Message{Kind: msg.InvAck, Src: s, Dest: directory.Single(1), Gather: gA})
		h.net.Send(&msg.Message{Kind: msg.InvAck, Src: s, Dest: directory.Single(2), Gather: gB})
	}
	h.eng.Run()
	count := map[topology.NodeID]int{}
	for _, d := range h.got {
		count[d.node]++
		if d.m.Gather.Merged != 3 {
			t.Errorf("node %v received Merged=%d, want 3", d.node, d.m.Gather.Merged)
		}
	}
	if count[1] != 1 || count[2] != 1 {
		t.Fatalf("deliveries = %v, want one each at nodes 1 and 2", count)
	}
}

func TestGatherLatencyScalesWithStages(t *testing.T) {
	arrival := func(nodes int) sim.Time {
		all := make([]topology.NodeID, nodes)
		for i := range all {
			all[i] = topology.NodeID(i)
		}
		_, atHome := gatherReplies(t, nodes, all)
		return atHome[0].at
	}
	l16 := arrival(16)
	l1024 := arrival(1024)
	if l1024 > 10*l16 {
		t.Errorf("gather latency 16=%v 1024=%v: not scalable", l16, l1024)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []delivery {
		h := newHarness(t, Config{Nodes: 128, Multicast: true})
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 200; i++ {
			src := topology.NodeID(rng.Intn(128))
			dst := topology.NodeID(rng.Intn(128))
			if src == dst {
				dst = (dst + 1) % 128
			}
			h.net.Send(singlecast(src, dst, rng.Intn(2) == 0))
		}
		h.eng.Run()
		return h.got
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].node != b[i].node || a[i].at != b[i].at {
			t.Fatalf("delivery %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestPanicsOnBadConfig(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	eng := sim.NewEngine()
	mustPanic("bad node count", func() { New(eng, Config{Nodes: 100}) })
	mustPanic("too few stages", func() { New(eng, Config{Nodes: 1024, Stages: 2}) })
	mustPanic("too many stages", func() { New(eng, Config{Nodes: 16, Stages: 7}) })
	mustPanic("negative stages", func() { New(eng, Config{Nodes: 16, Stages: -1}) })
	mustPanic("no handler", func() {
		n := New(eng, Config{Nodes: 16, Multicast: true})
		n.Send(singlecast(0, 1, false))
		eng.Run()
	})
	mustPanic("empty dest", func() {
		n := New(eng, Config{Nodes: 16, Multicast: true})
		n.Attach(0, func(*msg.Message) {})
		n.Send(&msg.Message{Kind: msg.ReadShared, Src: 0})
	})
}

func TestStatsCounters(t *testing.T) {
	h := newHarness(t, Config{Nodes: 16, Multicast: true})
	h.net.Send(singlecast(0, 1, true))
	h.net.Send(multicastTo(0, []topology.NodeID{2, 3, 4, 5, 6}))
	h.eng.Run()
	st := h.net.Stats()
	if st.Messages != 2 {
		t.Errorf("Messages = %d, want 2", st.Messages)
	}
	if st.DataMessages != 1 {
		t.Errorf("DataMessages = %d, want 1", st.DataMessages)
	}
	if st.Multicasts != 1 {
		t.Errorf("Multicasts = %d, want 1", st.Multicasts)
	}
	if st.Deliveries < 6 {
		t.Errorf("Deliveries = %d, want >= 6", st.Deliveries)
	}
	if st.Hops == 0 {
		t.Error("no hops recorded")
	}
}

func BenchmarkUnicast(b *testing.B) {
	eng := sim.NewEngine()
	net := New(eng, Config{Nodes: 128, Multicast: true})
	for i := 0; i < 128; i++ {
		net.Attach(topology.NodeID(i), func(*msg.Message) {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Send(singlecast(topology.NodeID(i%128), topology.NodeID((i+13)%128), false))
		eng.Run()
	}
}

func BenchmarkMulticast1024(b *testing.B) {
	all := make([]topology.NodeID, 1024)
	for i := range all {
		all[i] = topology.NodeID(i)
	}
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		net := New(eng, Config{Nodes: 1024, Multicast: true})
		for j := 0; j < 1024; j++ {
			net.Attach(topology.NodeID(j), func(*msg.Message) {})
		}
		net.Send(multicastTo(0, all))
		eng.Run()
	}
}
