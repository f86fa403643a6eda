package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"cenju4/internal/metrics"
)

// reference.json holds the digests recorded at the reference seed:
// the paper-quick render hash, machine.Digest of every share-1024 and
// contend-1024 pattern run, and the result digest of serve-mix's base
// spec. A run at that seed must reproduce them.
//
//go:embed reference.json
var referenceJSON []byte

// loadReference returns the digests recorded for seed, or none.
func loadReference(seed int64) (map[string]string, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(referenceJSON, &all); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return all[strconv.FormatInt(seed, 10)], nil
}

// checkReference compares a digest with the one recorded under key,
// when the seed has recorded digests.
func checkReference(e *env, key, got string) {
	if want, ok := e.ref[key]; ok {
		e.chk.check(got == want, "%s: digest %s, reference %s", key, got, want)
	}
}

// registryCounters flattens a metrics registry to name -> value:
// counters by value and gauges by high-water mark, through the
// registry's canonical JSON (the same document GET /v1/metrics serves).
func registryCounters(reg *metrics.Registry) (map[string]float64, error) {
	var b strings.Builder
	if err := reg.WriteJSON(&b); err != nil {
		return nil, err
	}
	return parseRegistryJSON([]byte(b.String()))
}

func parseRegistryJSON(doc []byte) (map[string]float64, error) {
	var r struct {
		Counters map[string]float64 `json:"counters"`
		Gauges   map[string]struct {
			HighWater float64 `json:"highwater"`
		} `json:"gauges"`
	}
	if err := json.Unmarshal(doc, &r); err != nil {
		return nil, fmt.Errorf("metrics registry: %w", err)
	}
	out := r.Counters
	if out == nil {
		out = map[string]float64{}
	}
	for name, g := range r.Gauges {
		out[name] = g.HighWater
	}
	return out, nil
}

// counterLayers maps one pass's simulator counters to per-layer
// metrics.
func counterLayers(c map[string]float64, m map[string]float64) {
	for metric, counter := range map[string]string{
		"net.messages":               "net/messages",
		"net.hops":                   "net/hops",
		"net.multicasts":             "net/multicasts",
		"net.replications":           "net/replications",
		"net.gather_merges":          "net/gather-merges",
		"net.contended_hops":         "net/contended-hops",
		"core.home_requests":         "core/home-requests",
		"core.invalidations":         "core/invalidations",
		"core.inv_targets":           "core/inv-targets",
		"core.queued_requests":       "core/queued-requests",
		"core.slave_requests":        "core/slave-requests",
		"core.fifo_home_requests_hw": "core/fifo/home-requests",
	} {
		m[metric] = c[counter]
	}
	m["net.hops_per_message"] = ratio(c["net/hops"], c["net/messages"])
	m["net.merges_per_gather"] = ratio(c["net/gather-merges"], c["net/gathers"])
	m["core.targets_per_invalidation"] = ratio(c["core/inv-targets"], c["core/invalidations"])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
