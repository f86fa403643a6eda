package experiments

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"cenju4"
	"cenju4/internal/faults"
	"cenju4/internal/machine"
	"cenju4/internal/npb"
	"cenju4/internal/run"
	"cenju4/internal/serve"
)

// TestOneRunPath pins the single run contract: for one spec, the
// cenju4 facade, the serve payload, run.Execute and the experiment
// sweeps all report the same run. Surfaces that cannot express a spec
// (the facade and the sweeps have no protocol or multicast switch) are
// skipped for it.
func TestOneRunPath(t *testing.T) {
	base := run.Spec{App: "cg", Variant: "dsm2", Nodes: 8, Scale: 0.02, Iterations: 1}
	forms := []struct {
		name   string
		mutate func(*run.Spec)
	}{
		{"dsm2", func(*run.Spec) {}},
		{"seq", func(s *run.Spec) { s.Variant = "seq" }},
		{"mpi", func(s *run.Spec) { s.Variant = "mpi" }},
		{"nack", func(s *run.Spec) { s.Protocol = "nack" }},
		{"no-multicast", func(s *run.Spec) { s.NoMulticast = true }},
		{"update-protocol", func(s *run.Spec) { s.UpdateProtocol = true }},
		{"no-mapping", func(s *run.Spec) { s.NoMapping = true }},
		{"light-loss", func(s *run.Spec) { s.Fault = "light-loss" }},
	}
	for _, f := range forms {
		t.Run(f.name, func(t *testing.T) {
			spec := base
			f.mutate(&spec)
			spec = spec.Normalize()
			want, err := run.Execute(context.Background(), spec, run.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sum := want.Summary

			e, _, err := serve.Execute(context.Background(), spec.Digest(), spec, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			var doc serve.Payload
			if err := json.Unmarshal(e.Body, &doc); err != nil {
				t.Fatal(err)
			}
			if doc.Result != sum {
				t.Errorf("serve payload summary\n got  %+v\n want %+v", doc.Result, sum)
			}

			if spec.Protocol != "queuing" || spec.NoMulticast {
				return
			}
			mapped := !spec.NoMapping
			got, err := cenju4.RunNPB(spec.App, spec.Variant, cenju4.WorkloadOptions{
				Nodes:          spec.Nodes,
				DataMapping:    &mapped,
				Iterations:     spec.Iterations,
				Scale:          spec.Scale,
				UpdateProtocol: spec.UpdateProtocol,
				Fault:          spec.Fault,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				field     string
				got, want any
			}{
				{"Time", got.Time, time.Duration(sum.TimeNs)},
				{"Instructions", got.Instructions, sum.Instructions},
				{"MemAccesses", got.MemAccesses, sum.MemAccesses},
				{"MissRatio", got.MissRatio, sum.MissRatio},
				{"PrivateMissShare", got.PrivateMissShare, sum.PrivateMissShare},
				{"LocalMissShare", got.LocalMissShare, sum.LocalMissShare},
				{"RemoteMissShare", got.RemoteMissShare, sum.RemoteMissShare},
				{"SyncFraction", got.SyncFraction, sum.SyncFraction},
				{"RewriteRatio", got.RewriteRatio, sum.RewriteRatio},
			} {
				if c.got != c.want {
					t.Errorf("facade %s = %v, run.Execute %v", c.field, c.got, c.want)
				}
			}
			if len(got.Latency) != len(want.Latency) {
				t.Errorf("facade reports %d latency kinds, run.Execute %d", len(got.Latency), len(want.Latency))
			}

			app, _ := npb.ParseApp(spec.App)
			v, _ := npb.ParseVariant(spec.Variant)
			fault, err := faults.ParseSpec(spec.Fault)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Scale: spec.Scale, Iterations: spec.Iterations, Parallel: 1, Fault: fault}
			r := runOne(cfg, appJob{app, v, spec.Nodes, mapped, spec.UpdateProtocol})
			if d := machine.Digest(r.result); d != sum.ResultDigest {
				t.Errorf("experiments digest %s, run.Execute %s", d, sum.ResultDigest)
			}
		})
	}
}
