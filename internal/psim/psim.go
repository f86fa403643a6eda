// Package psim runs one machine-scale simulation across multiple
// engines: a conservative parallel discrete-event simulation (PDES)
// layer over the sequential kernel in internal/sim.
//
// Nodes (with their caches and controllers) are partitioned into K
// shards, each owning a ranked sim.Engine. Execution alternates
// two-phase windows:
//
//   - Phase A (parallel): every shard fires its node-local events up to
//     a common deadline W+L-1, where W is the minimum queue-head time
//     across shards and L is the lookahead — the minimum cross-shard
//     propagation latency from internal/timing (one control-message
//     network traversal, or the MPI software latency, whichever is
//     smaller). Calls into shared state (network sends, gather-group
//     stats, MPI collectives) are not executed; they are appended to a
//     per-shard outcall log, each entry stamped with the firing event's
//     rank and a reserved push slot.
//   - Phase B (serial): the coordinator k-way-merges the logs in
//     (time, rank, slot) order — exactly the order a sequential engine
//     would have made those calls — and replays each against the real
//     network and MPI world. Every event a replayed call schedules is
//     routed back to the owning shard's engine with a rank composed
//     from the logging context, and must land strictly after the
//     window deadline; the lookahead guarantees it, and the router
//     enforces it with a hard panic.
//
// Because every cross-engine event carries the rank the sequential
// engine would have assigned (see internal/sim/rank.go for the
// equivalence argument), the merged schedule — and therefore
// machine.Digest — is byte-identical to the sequential kernel at every
// K. The worker count affects wall-clock only.
//
// Unsupported under K > 1 (the machine layer gates them): fault
// injection, protocol tracers, value tracking, and mpi Recv — Recv has
// zero lookahead (a buffered arrival resumes the receiver "now"), so
// it cannot be deferred to the replay phase without admitting an event
// inside the current window. The repo's coherence workloads never use
// it; message-passing program variants run at K=1.
package psim

import (
	"fmt"
	"sync"

	"cenju4/internal/directory"
	"cenju4/internal/mpi"
	"cenju4/internal/msg"
	"cenju4/internal/network"
	"cenju4/internal/sim"
	"cenju4/internal/timing"
	"cenju4/internal/topology"
)

// Config assembles a Coordinator.
type Config struct {
	// Shards is K, the number of shard engines. Must divide Nodes.
	Shards int
	// Workers bounds the goroutines running phase A (clamped to
	// [1, Shards]). One worker runs shard windows inline on the calling
	// goroutine — the full PDES machinery on a single core.
	Workers int
	// Nodes is the machine size.
	Nodes int
	// Params and MPI derive the lookahead.
	Params timing.Params
	MPI    timing.MPIParams
	// Stages is the network stage count (for the traversal bound).
	Stages int
	// Net and World are the shared interconnect and message-passing
	// state, both built on CoordEng. They are touched only in phase B.
	Net      *network.Network
	World    *mpi.World
	CoordEng *sim.Engine
}

// Lookahead computes the conservative window width: no event fired at
// time t can schedule a cross-shard effect earlier than t+Lookahead.
// Network messages pay at least one fixed entry/exit cost plus one
// control hop per stage (timing.Params.Traversal); MPI operations pay
// at least the software latency.
func (c Config) Lookahead() sim.Time {
	l := c.Params.Traversal(c.Stages, false)
	if c.MPI.Latency < l {
		l = c.MPI.Latency
	}
	return l
}

// outcall kinds: the shared-state calls phase A defers.
const (
	ocNetSend = iota
	ocGatherStats
	ocBarrier
	ocAllReduce
	ocMPISend
)

// outcall is one deferred shared-state call. at/rank/slot are the merge
// key: the virtual time of the call, the rank of the event whose
// handler made it, and the push slot reserved for it in that handler —
// together the exact position the call held in the sequential order.
type outcall struct {
	at   sim.Time
	rank *sim.Rank
	slot uint64
	kind int

	m     *msg.Message    // ocNetSend
	node  topology.NodeID // ocBarrier/ocAllReduce: the node; ocMPISend: src
	dst   topology.NodeID // ocMPISend
	bytes uint64          // ocAllReduce/ocMPISend
	done  func()          // ocBarrier/ocAllReduce completion
}

// shard is one partition: an engine, the pools its nodes own, and the
// outcall log it fills during phase A.
type shard struct {
	idx  int
	eng  *sim.Engine
	pool msg.Pool

	log []outcall

	// Phase-disjoint freelists: delFree is filled by this shard's
	// delivery events (phase A) and drained by the coordinator when
	// injecting deliveries INTO this shard (phase B); groupFree holds
	// retired gather groups the same way.
	delFree   []*delivery
	groupFree []*msg.Gather
	gatherCtr uint64
}

// delivery carries one routed cross-engine handler invocation.
type delivery struct {
	c    *Coordinator
	s    *shard // destination shard (recycles the record)
	m    *msg.Message
	node topology.NodeID
}

// Coordinator owns the window loop and the serial replay phase.
type Coordinator struct {
	cfg       Config
	lookahead sim.Time
	shards    []*shard
	perShard  int // nodes per shard
	handlers  []network.Handler

	deadline sim.Time // current window's inclusive deadline

	// Replay context: the outcall being replayed; sub counts the pushes
	// it has performed so far (sub-push j gets ComposedRank(..., j)).
	replaying bool
	curParent *sim.Rank
	curAt     sim.Time
	curSlot   uint64
	curSub    uint64

	// Observability for the lookahead differential test.
	windows  uint64
	minSlack sim.Time // min (injected event time − deadline) seen; ≥1 by construction
	anySlack bool

	sinceCompact uint64
	engines      []*sim.Engine // shard engines, for CanonicalizeRanks

	// Worker pool (see workers.go): nil work means inline phase A.
	work chan int
	wg   sync.WaitGroup
}

// compactEvery bounds rank-chain memory: after this many fired events
// the queued ranks are flattened at a window barrier.
const compactEvery = 256 << 10

// New builds a coordinator. The caller (machine.New) constructs nodes
// against ShardEngine/ShardPool/Fabric/Sync and attaches handlers, then
// drives Run.
func New(cfg Config) *Coordinator {
	if cfg.Shards < 1 || cfg.Nodes%cfg.Shards != 0 {
		panic(fmt.Sprintf("psim: %d shards do not partition %d nodes", cfg.Shards, cfg.Nodes))
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Workers > cfg.Shards {
		cfg.Workers = cfg.Shards
	}
	c := &Coordinator{
		cfg:       cfg,
		lookahead: cfg.Lookahead(),
		perShard:  cfg.Nodes / cfg.Shards,
		handlers:  make([]network.Handler, cfg.Nodes),
	}
	if c.lookahead < 1 {
		panic(fmt.Sprintf("psim: lookahead %v < 1ns — timing parameters leave no conservative window", c.lookahead))
	}
	c.shards = make([]*shard, cfg.Shards)
	c.engines = make([]*sim.Engine, cfg.Shards)
	for i := range c.shards {
		eng := sim.NewEngine()
		eng.EnableRankedMode()
		c.shards[i] = &shard{idx: i, eng: eng}
		c.engines[i] = eng
	}
	cfg.Net.SetDeliveryRouter(c)
	cfg.World.SetScheduler(c.scheduleMPI)
	return c
}

// Lookahead returns the window width in use.
func (c *Coordinator) Lookahead() sim.Time { return c.lookahead }

// Windows returns how many two-phase windows have run.
func (c *Coordinator) Windows() uint64 { return c.windows }

// MinSlack returns the smallest margin by which a replay-scheduled
// event cleared its window's deadline (0 if none was scheduled yet).
// The conservative invariant is MinSlack >= 1 — enforced by panic, and
// asserted by the lookahead differential test.
func (c *Coordinator) MinSlack() sim.Time {
	if !c.anySlack {
		return 0
	}
	return c.minSlack
}

// Fired sums events fired across all shard engines. The coordinator
// engine fires none: replay calls run inline, so the total equals the
// sequential engine's count.
func (c *Coordinator) Fired() uint64 {
	var n uint64
	for _, s := range c.shards {
		n += s.eng.Fired()
	}
	return n
}

func (c *Coordinator) shardOf(node topology.NodeID) *shard {
	return c.shards[int(node)/c.perShard]
}

// ShardEngine returns the engine owning node's shard.
func (c *Coordinator) ShardEngine(node topology.NodeID) *sim.Engine {
	return c.shardOf(node).eng
}

// ShardPool returns the message pool node's controller allocates from.
func (c *Coordinator) ShardPool(node topology.NodeID) *msg.Pool {
	return &c.shardOf(node).pool
}

// Attach registers node's delivery handler (the controller's Deliver).
func (c *Coordinator) Attach(node topology.NodeID, h network.Handler) {
	c.handlers[node] = h
}

// Fabric returns the core.Fabric facade for node.
func (c *Coordinator) Fabric(node topology.NodeID) *ShardFabric {
	return &ShardFabric{c: c, s: c.shardOf(node)}
}

// Sync returns the cpu.Sync facade for node.
func (c *Coordinator) Sync(node topology.NodeID) *ShardSync {
	return &ShardSync{c: c, s: c.shardOf(node)}
}

// logCall appends a deferred shared-state call to the shard's log,
// reserving a push slot in the firing event so replay-time pushes keep
// their sequential position. Logs are appended in firing order, so each
// is already sorted by the merge key.
func (s *shard) logCall(oc outcall) {
	rank, at, slot := s.eng.ReserveRankSlot()
	oc.at, oc.rank, oc.slot = at, rank, slot
	s.log = append(s.log, oc)
}

// ShardFabric implements core.Fabric for one shard by deferring all
// network entry points to the replay phase.
type ShardFabric struct {
	c *Coordinator
	s *shard
}

// Send defers the network injection. The message is a self-contained
// snapshot (directory.Dest is a value type), so it is safe to carry
// across the phase boundary.
func (f *ShardFabric) Send(m *msg.Message) {
	f.s.logCall(outcall{kind: ocNetSend, m: m})
}

// AllocGather allocates the gather group shard-side — from the shard's
// freelist, in a shard-disjoint ID space — and defers only the
// network's statistics update. The group record itself is touched by
// the home node's controller and the combining walk, which replay
// serializes.
func (f *ShardFabric) AllocGather(spec directory.Dest, home topology.NodeID) *msg.Gather {
	s := f.s
	s.gatherCtr++
	id := uint64(s.idx+1)<<48 | s.gatherCtr
	s.logCall(outcall{kind: ocGatherStats})
	if k := len(s.groupFree); k > 0 {
		g := s.groupFree[k-1]
		s.groupFree[k-1] = nil
		s.groupFree = s.groupFree[:k-1]
		*g = msg.Gather{ID: id, Spec: spec, Home: home}
		return g
	}
	//cenju4:alloc-ok pool miss grows the steady-state working set once, then recycles
	return &msg.Gather{ID: id, Spec: spec, Home: home}
}

// MulticastEnabled reads immutable network configuration (safe from
// phase A).
func (f *ShardFabric) MulticastEnabled() bool { return f.c.cfg.Net.MulticastEnabled() }

// Nodes reads immutable network configuration (safe from phase A).
func (f *ShardFabric) Nodes() int { return f.c.cfg.Net.Nodes() }

// ShardSync implements cpu.Sync for one shard by deferring the MPI
// world calls to the replay phase.
type ShardSync struct {
	c *Coordinator
	s *shard
}

// Barrier defers the collective join.
func (y *ShardSync) Barrier(node topology.NodeID, done func()) {
	y.s.logCall(outcall{kind: ocBarrier, node: node, done: done})
}

// AllReduce defers the collective join.
func (y *ShardSync) AllReduce(node topology.NodeID, n uint64, done func()) {
	y.s.logCall(outcall{kind: ocAllReduce, node: node, bytes: n, done: done})
}

// Send defers the message injection.
func (y *ShardSync) Send(src, dst topology.NodeID, n uint64) {
	y.s.logCall(outcall{kind: ocMPISend, node: src, dst: dst, bytes: n})
}

// Recv is unsupported under intra-run parallelism: a buffered arrival
// resumes the receiver at max(arrival, now) — zero lookahead — so the
// completion cannot be deferred past the window deadline. The repo's
// coherence workloads never issue Recv; run message-passing program
// variants with -parallel-intra 1.
func (y *ShardSync) Recv(dst, src topology.NodeID, done func()) {
	panic("psim: mpi Recv has zero lookahead and is unsupported under intra-run parallelism (use -parallel-intra 1)")
}

// RouteDelivery implements network.DeliveryRouter: a delivery whose
// wire time was computed during replay is handed to the destination
// node's shard engine under a rank composed from the replayed outcall.
// The conservative invariant — no replay-scheduled event may land in
// the window just executed — is enforced here.
func (c *Coordinator) RouteDelivery(m *msg.Message, node topology.NodeID, t sim.Time) {
	c.notePush(t, "network delivery")
	rank := sim.ComposedRank(c.curParent, c.curAt, c.curSlot, c.curSub)
	c.curSub++
	s := c.shardOf(node)
	var d *delivery
	if k := len(s.delFree); k > 0 {
		d = s.delFree[k-1]
		s.delFree[k-1] = nil
		s.delFree = s.delFree[:k-1]
	} else {
		//cenju4:alloc-ok pool miss grows the steady-state working set once, then recycles
		d = &delivery{}
	}
	d.c, d.s, d.m, d.node = c, s, m, node
	s.eng.InjectCallAt(t, rank, runShardDelivery, d)
}

// runShardDelivery fires on the destination shard's engine (phase A of
// a later window): it invokes the node's handler and releases the
// message — and, for a combined gathered reply, the group record — to
// the shard's pools.
func runShardDelivery(x any) {
	d := x.(*delivery)
	c, s, m, node := d.c, d.s, d.m, d.node
	d.m = nil
	s.delFree = append(s.delFree, d)
	var g *msg.Gather
	if m.Gather != nil && (m.Kind == msg.InvAck || m.Kind == msg.UpdateAck) {
		g = m.Gather
	}
	c.handlers[node](m)
	s.pool.Put(m)
	if g != nil {
		s.groupFree = append(s.groupFree, g)
	}
}

// scheduleMPI is the mpi.Scheduler hook: collective releases and
// message completions computed during replay are routed to the engine
// owning the released node's shard.
func (c *Coordinator) scheduleMPI(node topology.NodeID, at sim.Time, done func()) {
	c.notePush(at, "mpi completion")
	rank := sim.ComposedRank(c.curParent, c.curAt, c.curSlot, c.curSub)
	c.curSub++
	c.shardOf(node).eng.InjectAt(at, rank, done)
}

// notePush asserts the conservative invariant for one replay-phase
// push and records its slack for the differential test.
func (c *Coordinator) notePush(t sim.Time, what string) {
	if !c.replaying {
		panic(fmt.Sprintf("psim: %s scheduled outside the replay phase", what))
	}
	if t <= c.deadline {
		panic(fmt.Sprintf(
			"psim: lookahead violation — %s at %v inside window deadline %v (lookahead %v)",
			what, t, c.deadline, c.lookahead))
	}
	slack := t - c.deadline
	if !c.anySlack || slack < c.minSlack {
		c.minSlack = slack
		c.anySlack = true
	}
}

// ocBefore orders two outcall log heads by the sequential merge key
// (time, handler rank, slot).
func ocBefore(a, b *outcall) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.rank == b.rank {
		return a.slot < b.slot
	}
	return sim.RankLess(a.rank, b.rank)
}

// replay is phase B: merge the shard logs and execute each deferred
// call against the shared network/MPI state, with the coordinator
// engine's clock advanced to the call's original time so every latency
// computation sees the same "now" the sequential kernel would have.
func (c *Coordinator) replay() {
	heads := make([]int, len(c.shards))
	c.replaying = true
	for {
		best := -1
		for i, s := range c.shards {
			if heads[i] >= len(s.log) {
				continue
			}
			if best == -1 || ocBefore(&s.log[heads[i]], &c.shards[best].log[heads[best]]) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		oc := &c.shards[best].log[heads[best]]
		heads[best]++
		c.cfg.CoordEng.SyncTo(oc.at)
		c.curParent, c.curAt, c.curSlot, c.curSub = oc.rank, oc.at, oc.slot, 0
		switch oc.kind {
		case ocNetSend:
			c.cfg.Net.Send(oc.m)
		case ocGatherStats:
			c.cfg.Net.NoteGatherAlloc()
		case ocBarrier:
			c.cfg.World.Barrier(oc.node, oc.done)
		case ocAllReduce:
			c.cfg.World.AllReduce(oc.node, oc.bytes, oc.done)
		case ocMPISend:
			c.cfg.World.Send(oc.node, oc.dst, oc.bytes)
		}
	}
	c.replaying = false
	for _, s := range c.shards {
		// Truncate in place; entries are overwritten next window and the
		// messages they referenced are pool-owned either way.
		s.log = s.log[:0]
	}
}

// Run drives two-phase windows until global quiescence. poll runs
// between windows and aborts the run by returning an error (context
// cancellation, event budgets). quiesce runs at every global drain —
// the machine's quiescent callbacks.
// Scheduling new work from a quiescent callback is unsupported under
// intra-run parallelism (their push order across shards cannot be
// reconstructed) and panics.
func (c *Coordinator) Run(poll func() error, quiesce func()) error {
	stop, panics := c.startWorkers()
	defer stop()
	for {
		if err := poll(); err != nil {
			return err
		}
		w, any := c.minHead()
		if !any {
			// Global drain: align every clock at the last activity, give
			// the quiescent callbacks their point, and finish if they
			// scheduled nothing (they must not).
			t := c.cfg.CoordEng.Now()
			for _, s := range c.shards {
				if lf := s.eng.LastFired(); lf > t {
					t = lf
				}
			}
			c.cfg.CoordEng.SyncTo(t)
			for _, s := range c.shards {
				s.eng.SyncTo(t)
				s.eng.BeginDriverSection(t)
			}
			quiesce()
			if _, refilled := c.minHead(); refilled {
				panic("psim: quiescent callback scheduled events — round-injecting drivers are unsupported under intra-run parallelism")
			}
			return nil
		}
		deadline := w + c.lookahead - 1
		if deadline < w {
			deadline = ^sim.Time(0) // clamp at the end of time
		}
		c.deadline = deadline
		c.runWindow(deadline, panics)
		c.replay()
		c.windows++
		c.maybeCompact()
	}
}

// minHead returns the earliest pending event time across shards.
func (c *Coordinator) minHead() (sim.Time, bool) {
	var w sim.Time
	any := false
	for _, s := range c.shards {
		if t, ok := s.eng.PeekTime(); ok && (!any || t < w) {
			w, any = t, true
		}
	}
	return w, any
}

// maybeCompact flattens queued rank chains once enough events have
// fired since the last pass; without it, rank ancestry would retain
// O(total events) memory.
func (c *Coordinator) maybeCompact() {
	fired := c.Fired()
	if fired-c.sinceCompact < compactEvery {
		return
	}
	c.sinceCompact = fired
	sim.CanonicalizeRanks(c.engines)
}

// runWindow executes phase A: every shard fires its due events, across
// the worker pool (or inline when it is nil). A panicking shard is
// re-raised on the coordinator goroutine, lowest shard index first, so
// model bugs surface exactly as they do sequentially.
func (c *Coordinator) runWindow(deadline sim.Time, panics []any) {
	if c.work == nil {
		for _, s := range c.shards {
			s.eng.RunDue(deadline)
		}
		return
	}
	c.wg.Add(len(c.shards))
	for i := range c.shards {
		c.work <- i
	}
	c.wg.Wait()
	for i, p := range panics {
		if p != nil {
			panics[i] = nil
			panic(p)
		}
	}
}
