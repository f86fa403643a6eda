package main

import (
	"strings"
	"testing"

	"cenju4/internal/core"
	"cenju4/internal/fuzz"
)

// defaults returns the flag values main binds by default.
func defaults() flags {
	return flags{seed: 1, ops: 400, nodes: 8, rounds: 2, mode: "all", stages: 4,
		expect: "auto", budget: fuzz.DefaultChaosBudget, parallel: 2}
}

func TestChaosOptionsDefaults(t *testing.T) {
	o, err := chaosOptions(defaults())
	if err != nil {
		t.Fatalf("chaosOptions: %v", err)
	}
	want := []fuzz.Cell{
		{Mode: core.ModeQueuing, Multicast: true, Stages: 4},
		{Mode: core.ModeNack, Multicast: true, Stages: 4},
	}
	if len(o.Fuzz.Cells) != len(want) || o.Fuzz.Cells[0] != want[0] || o.Fuzz.Cells[1] != want[1] {
		t.Fatalf("cells = %v, want %v", o.Fuzz.Cells, want)
	}
	if len(o.Fuzz.Patterns) != 2 || o.Plans != nil {
		t.Fatalf("default run should sweep hotspot+migratory over the preset grid, got %v and %d plans", o.Fuzz.Patterns, len(o.Plans))
	}
}

func TestChaosOptionsRejectsBadValues(t *testing.T) {
	cases := []struct {
		name    string
		set     func(*flags)
		wantErr string
	}{
		{"nodes not a power of two", func(f *flags) { f.nodes = 12 }, "-nodes"},
		{"nodes above the maximum", func(f *flags) { f.nodes = 2048 }, "-nodes"},
		{"negative stages", func(f *flags) { f.stages = -1 }, "-stages"},
		{"zero stages", func(f *flags) { f.stages = 0 }, "-stages"},
		{"stages above the largest machine's", func(f *flags) { f.stages = 7 }, "-stages"},
		{"fourteen stages", func(f *flags) { f.nodes, f.stages = 16, 14 }, "-stages"},
		{"too few stages for the nodes", func(f *flags) { f.nodes, f.stages = 8, 1 }, "-stages"},
		{"bad mode", func(f *flags) { f.mode = "sideways" }, "-mode"},
		{"bad pattern", func(f *flags) { f.pattern = "bogus" }, "-pattern"},
		{"bad plan", func(f *flags) { f.plan = "drop=2" }, "-plan"},
		{"bad expect", func(f *flags) { f.plan, f.expect = "drop-forwards", "maybe" }, "-expect"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := defaults()
			c.set(&f)
			_, err := chaosOptions(f)
			if err == nil {
				t.Fatal("expected an error")
			}
			if !strings.HasPrefix(err.Error(), c.wantErr+":") {
				t.Fatalf("error %q does not name the offending flag %q", err, c.wantErr)
			}
		})
	}
}

func TestChaosOptionsAcceptsEdgeStages(t *testing.T) {
	for _, c := range []struct{ nodes, stages int }{{4, 1}, {16, 2}, {16, 6}, {1024, 5}, {1024, 6}} {
		f := defaults()
		f.nodes, f.stages = c.nodes, c.stages
		if _, err := chaosOptions(f); err != nil {
			t.Errorf("nodes %d, stages %d: %v", c.nodes, c.stages, err)
		}
	}
}
