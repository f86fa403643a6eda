// Package trace collects and filters coherence-protocol event streams
// (see core.Tracer). It backs the protocol conformance tests — which
// assert the exact message sequences of the paper's appendix — and is a
// debugging aid for anyone extending the protocol.
package trace

import (
	"fmt"
	"strings"

	"cenju4/internal/core"
	"cenju4/internal/msg"
	"cenju4/internal/topology"
)

// Collector accumulates protocol events up to a bound.
type Collector struct {
	max    int
	events []core.TraceEvent
	drops  int
}

// NewCollector returns a collector retaining at most max events
// (0 = 64k).
func NewCollector(max int) *Collector {
	if max <= 0 {
		max = 65536
	}
	return &Collector{max: max}
}

// Record is the core.Tracer hook.
func (c *Collector) Record(ev core.TraceEvent) {
	if len(c.events) >= c.max {
		c.drops++
		return
	}
	c.events = append(c.events, ev)
}

// Tracer returns the hook to install.
func (c *Collector) Tracer() core.Tracer { return c.Record }

// Cap returns the number of events the collector retains.
func (c *Collector) Cap() int { return c.max }

// Len returns the number of retained events.
func (c *Collector) Len() int { return len(c.events) }

// Dropped returns the number of events beyond the retention bound.
func (c *Collector) Dropped() int { return c.drops }

// Reset discards all events.
func (c *Collector) Reset() {
	c.events = c.events[:0]
	c.drops = 0
}

// Events returns the retained events in order.
func (c *Collector) Events() []core.TraceEvent { return c.events }

// Filter returns the events matching pred, in order.
func (c *Collector) Filter(pred func(core.TraceEvent) bool) []core.TraceEvent {
	var out []core.TraceEvent
	for _, ev := range c.events {
		if pred(ev) {
			out = append(out, ev)
		}
	}
	return out
}

// Deliveries returns the receive-side events for one block, in order —
// the canonical view of a transaction's message sequence.
func (c *Collector) Deliveries(addr topology.Addr) []core.TraceEvent {
	block := addr.Block()
	return c.Filter(func(ev core.TraceEvent) bool {
		return ev.Kind == core.TraceRecv && ev.Addr.Block() == block
	})
}

// Kinds projects events to their message kinds.
func Kinds(evs []core.TraceEvent) []msg.Kind {
	out := make([]msg.Kind, len(evs))
	for i, ev := range evs {
		out[i] = ev.Msg
	}
	return out
}

// String renders the retained events one per line. A truncated
// collection says so explicitly: silent drops once skewed every
// measurement read off a trace, so any rendering of a lossy collection
// must carry the loss.
func (c *Collector) String() string {
	var b strings.Builder
	for _, ev := range c.events {
		b.WriteString(ev.String())
		b.WriteString("\n")
	}
	if c.drops > 0 {
		fmt.Fprintf(&b, "!! trace truncated: %d events dropped beyond the %d-event bound\n", c.drops, c.max)
	}
	return b.String()
}
