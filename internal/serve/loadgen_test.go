package serve

import (
	"context"
	"testing"
	"time"
)

// TestRunLoadHitRate: at a 0.9 duplicate ratio against a stub-backed
// server, the aggregate hit rate clears the soak threshold and every
// reverified body matches.
func TestRunLoadHitRate(t *testing.T) {
	st := &stubExec{}
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 256, Exec: st.exec})
	rep, err := RunLoad(context.Background(), LoadOptions{
		BaseURL:  ts.URL,
		Clients:  16,
		Requests: 800,
		DupRatio: 0.9,
		Seed:     42,
		Client:   ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests < 800 {
		t.Fatalf("requests = %d, want >= 800 (POSTs plus reverify GETs)", rep.Requests)
	}
	if rep.Errors != 0 || rep.Mismatch != 0 {
		t.Fatalf("errors %d mismatches %d, want 0/0\n%s", rep.Errors, rep.Mismatch, rep)
	}
	if hr := rep.HitRate(); hr < 0.90 {
		t.Fatalf("hit rate %.3f below 0.90\n%s", hr, rep)
	}
	if rep.Reverify == 0 {
		t.Fatal("no digest was reverified")
	}
	if rep.LatencyMax == 0 || rep.Throughput == 0 {
		t.Fatalf("report missing latency/throughput: %+v", rep)
	}
}

// TestRunLoadUniqueSpecs: at DupRatio ~0 almost every request is a
// distinct digest, so misses dominate and the digest count is large.
func TestRunLoadUniqueSpecs(t *testing.T) {
	st := &stubExec{}
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 256, Exec: st.exec})
	rep, err := RunLoad(context.Background(), LoadOptions{
		BaseURL:  ts.URL,
		Clients:  4,
		Requests: 100,
		DupRatio: 0.0001, // withDefaults treats 0 as "default", so ~0
		Seed:     7,
		Client:   ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors: %d\n%s", rep.Errors, rep)
	}
	if rep.Misses < 90 {
		t.Fatalf("misses = %d at ~0 dup ratio, want ~100\n%s", rep.Misses, rep)
	}
	if rep.Digests < 90 {
		t.Fatalf("digests = %d, want ~100", rep.Digests)
	}
}

// TestRunLoadDuration: duration-bounded runs stop on their own.
func TestRunLoadDuration(t *testing.T) {
	st := &stubExec{}
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 256, Exec: st.exec})
	start := time.Now()
	rep, err := RunLoad(context.Background(), LoadOptions{
		BaseURL:  ts.URL,
		Clients:  2,
		Duration: 150 * time.Millisecond,
		Seed:     3,
		Client:   ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("duration-bounded run did not stop")
	}
	if rep.Requests == 0 {
		t.Fatal("no requests issued in the window")
	}
}

// TestRunLoadRejectionTally: against a tiny pool with a blocked
// executor, shed responses land in Rejected, not Errors.
func TestRunLoadRejectionTally(t *testing.T) {
	st := &stubExec{delay: 20 * time.Millisecond}
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Exec: st.exec})
	rep, err := RunLoad(context.Background(), LoadOptions{
		BaseURL:  ts.URL,
		Clients:  8,
		Requests: 64,
		DupRatio: 0.0001, // all-unique so nothing coalesces
		Seed:     9,
		Client:   ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors: %d\n%s", rep.Errors, rep)
	}
	if rep.Rejected == 0 {
		t.Fatalf("no request was shed by a 1-deep queue\n%s", rep)
	}
	if rep.Requests < 64 {
		t.Fatalf("requests = %d, want >= 64", rep.Requests)
	}
}
