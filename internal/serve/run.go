package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"cenju4/internal/metrics"
	"cenju4/internal/run"
	"cenju4/internal/trace"
)

// Payload is the JSON document served for a finished job. Marshalling
// is deterministic (fixed field order, canonical metrics JSON), so for
// a given spec the payload bytes are identical across runs, workers
// and processes — the property the cache and the soak test rely on.
type Payload struct {
	Digest  string          `json:"digest"`
	Spec    Spec            `json:"spec"`
	Result  run.Summary     `json:"result"`
	Metrics json.RawMessage `json:"metrics"`
}

// Execute runs one validated, normalized spec through run.Execute and
// renders its cache entry. It honours ctx (wall-clock timeout,
// shutdown) and maxEvents (per-job event budget); errors are
// run.Execute's. intraWorkers caps the PDES shard threads of a spec
// with IntraParallel > 1 (0 = one per shard); the server derives it
// with runner.NestedBudget so pool workers times shard workers stays
// within the process budget.
func Execute(ctx context.Context, dig string, spec Spec, maxEvents uint64, intraWorkers int) (*Entry, *metrics.Registry, error) {
	reg := metrics.New()
	reg.Gauge("run/seed").Peak(spec.Seed)
	res, err := run.Execute(ctx, spec, run.Options{MaxEvents: maxEvents, IntraWorkers: intraWorkers, Metrics: reg})
	if err != nil {
		return nil, nil, err
	}
	var regJSON bytes.Buffer
	if err := reg.WriteJSON(&regJSON); err != nil {
		return nil, nil, err
	}
	body, err := json.MarshalIndent(Payload{
		Digest:  dig,
		Spec:    spec,
		Result:  res.Summary,
		Metrics: json.RawMessage(bytes.TrimSpace(regJSON.Bytes())),
	}, "", "  ")
	if err != nil {
		return nil, nil, err
	}
	body = append(body, '\n')

	e := &Entry{Digest: dig, Body: body}
	if res.Trace != nil {
		var tr bytes.Buffer
		label := fmt.Sprintf("%s/%s nodes=%d seed=%d", spec.App, spec.Variant, spec.Nodes, spec.Seed)
		if _, err := trace.WriteChrome(&tr, res.Trace.Stream(label)); err != nil {
			return nil, nil, err
		}
		e.Trace = tr.Bytes()
	}
	return e, reg, nil
}
