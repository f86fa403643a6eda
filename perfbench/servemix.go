package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"cenju4/internal/npb"
	"cenju4/internal/runner"
	"cenju4/internal/serve"
)

// The serve-mix traffic is cenju4-load's default request mix, the
// defaults of serve.LoadOptions: loadSharedSpecs popular specs, each
// the base spec cg/dsm2 on 8 nodes (1 iteration, scale 0.02) with seed
// fields 1 to loadSharedSpecs. Each request draws one of them and, with
// probability 1 - loadDupRatio, swaps its seed field for one unique to
// the client and the request: a miss that runs the simulation again.
// The seed field labels a run but does not change it. A pass is one
// default load run, loadRequestsPerClient requests from each client,
// and each client draws from runner.DeriveSeed(seed, client) as
// RunLoad does, the benchmark's seed standing for cenju4-load's -seed.
// The popular specs are warmed into the cache during set-up, so every
// repeat is a hit.
const (
	loadRequestsPerClient = 64
	loadDupRatio          = 0.9
	loadSharedSpecs       = 4
)

var loadBaseSpec = serve.Spec{App: "cg", Variant: "dsm2", Nodes: 8, Iterations: 1, Scale: 0.02}

// serveConfig mirrors cenju4-serve's defaults.
func serveConfig(workers int) serve.Config {
	return serve.Config{
		Workers:    workers,
		QueueDepth: 256,
		CacheBytes: 256 << 20,
		JobTimeout: 2 * time.Minute,
		Limits:     serve.Limits{MaxEvents: 500_000_000},
	}
}

// reply is one request's outcome as its client saw it.
type reply struct {
	status int
	cache  string
	body   []byte
	lat    time.Duration
	err    error
}

// request is one request of a pass: shared spec i, sent as is (a hit)
// or with a unique seed field (a miss).
type request struct {
	shared int
	miss   []byte // the miss's request body, nil for a hit
}

type serveMix struct {
	e *env

	rngs    []*rand.Rand // per client, its request mix
	sent    []int        // per client, requests drawn so far
	hitReqs [][]byte     // request bodies of the shared specs
	first   [][]byte     // each shared spec's first (miss) reply body
	missDig string       // the first miss's result_digest

	srv    *serve.Server
	hs     *httptest.Server
	client *http.Client

	reqs    [][]request // this pass: per client, per request
	replies [][]reply   // this pass: per client, per request

	hitLat, missLat []float64          // untraced passes, seconds
	start           map[string]float64 // /v1/metrics when the traced passes began
	tracedPasses    int
	counters        map[string]float64 // per traced pass
}

func newServeMix(e *env) workload { return &serveMix{e: e} }

// sharedSpec is popular spec i, as RunLoad builds it.
func sharedSpec(i int) serve.Spec {
	spec := loadBaseSpec
	spec.Seed = int64(i + 1)
	return spec
}

// missSpec is shared spec i as client c sends it for its n-th request
// when the draw makes it unique, with RunLoad's seed field.
func missSpec(i, c, n int) serve.Spec {
	spec := sharedSpec(i)
	spec.Seed = int64(1000 + c*1_000_000 + n)
	return spec
}

func (s *serveMix) setup() error {
	s.rngs = make([]*rand.Rand, s.e.nproc)
	s.sent = make([]int, s.e.nproc)
	for c := range s.rngs {
		s.rngs[c] = rand.New(rand.NewSource(int64(runner.DeriveSeed(uint64(s.e.seed), c))))
	}
	s.hitReqs = nil
	for i := 0; i < loadSharedSpecs; i++ {
		body, err := json.Marshal(sharedSpec(i))
		if err != nil {
			return err
		}
		s.hitReqs = append(s.hitReqs, body)
	}

	s.srv = serve.New(serveConfig(s.e.nproc))
	s.hs = httptest.NewServer(s.srv.Handler())
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: s.e.nproc, DisableCompression: true}}
	s.first = make([][]byte, len(s.hitReqs))
	for i, body := range s.hitReqs {
		var r reply
		s.e.tr.do("http.warm", s.e.root, func() { r = s.post(body) })
		s.e.chk.check(r.err == nil && r.status == http.StatusOK && r.cache == serve.CacheMiss,
			"serve-mix warm-up %d: status %d, cache %q, %v", i, r.status, r.cache, r.err)
		s.first[i] = r.body
		_, dig, err := summary(r.body)
		if err != nil {
			return fmt.Errorf("warm-up %d: %w", i, err)
		}
		checkReference(s.e, "serve-mix/cg-dsm2-8", dig)
	}
	return nil
}

func (s *serveMix) post(body []byte) reply {
	t0 := time.Now()
	resp, err := s.client.Post(s.hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{err: err, lat: time.Since(t0)}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{status: resp.StatusCode, cache: resp.Header.Get(serve.HeaderCache), body: b, err: err, lat: time.Since(t0)}
}

// summary extracts a reply's simulated events and result digest.
func summary(body []byte) (events uint64, digest string, err error) {
	var p struct {
		Result struct {
			Events       uint64 `json:"events"`
			ResultDigest string `json:"result_digest"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &p); err != nil {
		return 0, "", fmt.Errorf("reply: %w", err)
	}
	return p.Result.Events, p.Result.ResultDigest, nil
}

// prepare draws the pass's requests, continuing each client's stream.
func (s *serveMix) prepare(int) error {
	if s.e.tr != nil && s.start == nil {
		var err error
		if s.start, err = s.serverMetrics(); err != nil {
			return err
		}
	}
	s.reqs = make([][]request, s.e.nproc)
	s.replies = make([][]reply, s.e.nproc)
	for c, rng := range s.rngs {
		s.reqs[c] = make([]request, loadRequestsPerClient)
		s.replies[c] = make([]reply, loadRequestsPerClient)
		for k := range s.reqs[c] {
			req := &s.reqs[c][k]
			req.shared = rng.Intn(loadSharedSpecs)
			if rng.Float64() >= loadDupRatio {
				var err error
				if req.miss, err = json.Marshal(missSpec(req.shared, c, s.sent[c])); err != nil {
					return err
				}
			}
			s.sent[c]++
		}
	}
	return nil
}

func (s *serveMix) pass(int) error {
	var wg sync.WaitGroup
	for c := range s.reqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k, req := range s.reqs[c] {
				body := req.miss
				if body == nil {
					body = s.hitReqs[req.shared]
				}
				t0 := time.Now()
				r := s.post(body)
				s.replies[c][k] = r
				s.e.tr.add("http."+r.cache, s.e.root, t0, t0.Add(r.lat))
			}
		}(c)
	}
	wg.Wait()
	return nil
}

func (s *serveMix) settle(pass int) uint64 {
	var events uint64
	for c, replies := range s.replies {
		for k, r := range replies {
			req := s.reqs[c][k]
			ok := r.err == nil && r.status == http.StatusOK
			if req.miss == nil {
				same := bytes.Equal(r.body, s.first[req.shared])
				s.e.chk.check(ok && r.cache == serve.CacheHit && same,
					"serve-mix pass %d client %d request %d: shared spec %d: status %d, cache %q, body equal to first miss %t, %v",
					pass, c, k, req.shared, r.status, r.cache, same, r.err)
				if s.e.tr == nil {
					s.hitLat = append(s.hitLat, r.lat.Seconds())
				}
				continue
			}
			ev, dig, err := summary(r.body)
			if s.missDig == "" {
				s.missDig = dig
			}
			s.e.chk.check(ok && r.cache == serve.CacheMiss && err == nil && dig == s.missDig,
				"serve-mix pass %d client %d request %d: unique spec: status %d, cache %q, result_digest %s (first miss %s), %v %v",
				pass, c, k, r.status, r.cache, dig, s.missDig, r.err, err)
			events += ev
			if s.e.tr == nil {
				s.missLat = append(s.missLat, r.lat.Seconds())
			}
		}
	}
	if s.e.tr != nil {
		s.tracedPasses++
	}
	return events
}

// serverMetrics reads GET /v1/metrics.
func (s *serveMix) serverMetrics() (map[string]float64, error) {
	resp, err := s.client.Get(s.hs.URL + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	doc, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: status %d", resp.StatusCode)
	}
	return parseRegistryJSON(doc)
}

// execute runs a normalized spec directly, outside the server, and
// returns its result digest.
func (s *serveMix) execute(spec serve.Spec) (string, error) {
	var e *serve.Entry
	var err error
	s.e.tr.do("serve.Execute", s.e.root, func() {
		e, _, err = serve.Execute(context.Background(), spec.Digest(), spec, serveConfig(1).Limits.MaxEvents, 1)
	})
	if err != nil {
		return "", err
	}
	_, dig, err := summary(e.Body)
	return dig, err
}

func (s *serveMix) finish() error {
	// Every served result must match a direct serve.Execute of its
	// spec. The seed field does not change the simulation, so hits and
	// misses share one result digest.
	var specs []serve.Spec
	for i := 0; i < loadSharedSpecs; i++ {
		specs = append(specs, sharedSpec(i).Normalize(), missSpec(i, 0, i).Normalize())
	}
	for i, spec := range specs {
		want, err := s.execute(spec)
		if i%2 == 0 {
			_, got, perr := summary(s.first[i/2])
			s.e.chk.check(err == nil && perr == nil && got == want, "serve-mix shared spec %d: served result_digest %s, direct Execute %s (%v %v)", i/2, got, want, err, perr)
		} else {
			s.e.chk.check(err == nil && s.missDig == want, "serve-mix unique specs: served result_digest %s, direct Execute %s (%v)", s.missDig, want, err)
		}
	}
	if s.e.tr == nil {
		return nil
	}
	end, err := s.serverMetrics()
	if err != nil {
		return err
	}
	s.counters = map[string]float64{}
	for name, v := range end {
		if name == "core/fifo/home-requests" { // a high-water mark, not a sum
			s.counters[name] = v
			continue
		}
		s.counters[name] = (v - s.start[name]) / float64(s.tracedPasses)
	}
	// Direct probes of the spec layer and of program generation on the
	// specs the clients send.
	const reps = 200
	for _, probe := range []struct {
		name string
		fn   func(serve.Spec) error
	}{
		{"serve.Spec.Normalize", func(sp serve.Spec) error { specSink = sp.Normalize(); return nil }},
		{"serve.Spec.Validate", serve.Spec.Validate},
		{"serve.Spec.Digest", func(sp serve.Spec) error { digestSink = sp.Digest(); return nil }},
	} {
		id := s.e.tr.start(probe.name, s.e.root)
		for r := 0; r < reps; r++ {
			for _, sp := range specs {
				if err := probe.fn(sp); err != nil {
					return err
				}
			}
		}
		s.e.tr.end(id, reps*len(specs))
	}
	// A pass builds the base spec's programs once per miss; the probe
	// builds them as often as the untraced passes missed on average.
	builds := 1
	if n := len(s.hitLat) + len(s.missLat); n > 0 {
		builds = int(math.Round(float64(len(s.missLat)*s.e.nproc*loadRequestsPerClient) / float64(n)))
	}
	app, _ := npb.ParseApp(loadBaseSpec.App)
	v, _ := npb.ParseVariant(loadBaseSpec.Variant)
	for i := 0; i < builds; i++ {
		s.e.tr.do("npb.Build", s.e.root, func() {
			_, err = npb.Build(npb.Options{App: app, Variant: v, Nodes: loadBaseSpec.Nodes, DataMapping: !loadBaseSpec.NoMapping,
				Iterations: loadBaseSpec.Iterations, Scale: loadBaseSpec.Scale})
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// The probes store their results here so the compiler keeps the calls.
var (
	specSink   serve.Spec
	digestSink string
)

func (s *serveMix) layers(m map[string]float64) error {
	// Request latencies of the untraced passes; a percentile the samples
	// cannot support reads 0.
	for _, l := range []struct {
		name    string
		samples []float64
		p       float64
		scale   float64
	}{
		{"serve.hit_p50_us", s.hitLat, 50, 1e6},
		{"serve.hit_p99_us", s.hitLat, 99, 1e6},
		{"serve.miss_p50_ms", s.missLat, 50, 1e3},
		{"serve.miss_p90_ms", s.missLat, 90, 1e3},
	} {
		v, err := percentile(l.samples, l.p)
		if err != nil {
			fmt.Printf("serve-mix: %s: %v\n", l.name, err)
		}
		m[l.name] = v * l.scale
	}
	m["serve.hit_samples"] = float64(len(s.hitLat))
	m["serve.miss_samples"] = float64(len(s.missLat))
	m["serve.throughput_rps"] = float64(s.e.nproc*loadRequestsPerClient) / m["wall_s"]
	// Every miss runs the base spec's simulation, as does each direct
	// Execute probe, so the difference of the means is what a miss
	// spends outside the simulation: queueing, HTTP and sharing the
	// cores.
	if exec := m["serve.execute_ms"]; exec > 0 && len(s.missLat) > 0 {
		var sum float64
		for _, l := range s.missLat {
			sum += l
		}
		m["serve.queue_wait_ms"] = 1e3*sum/float64(len(s.missLat)) - exec
	}
	c := s.counters
	m["serve.hit_ratio"] = ratio(c["serve/cache/hits"], c["serve/cache/hits"]+c["serve/cache/misses"])
	m["serve.coalesced"] = c["serve/pool/coalesced"]
	m["serve.rejected"] = c["serve/pool/rejected"]
	m["serve.batches"] = c["serve/pool/batches"]
	counterLayers(c, m)
	return nil
}

func (s *serveMix) close() {
	if s.hs == nil {
		return
	}
	s.client.CloseIdleConnections()
	s.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.srv.Close(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: serve-mix: closing the server: %v\n", err)
	}
	s.hs = nil
}
