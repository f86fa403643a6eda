package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cenju4/internal/metrics"
)

// stubExec returns an Exec that renders a tiny entry after an optional
// gate, counting invocations.
type stubExec struct {
	runs  atomic.Int64
	gate  chan struct{} // if non-nil, exec blocks until closed
	delay time.Duration
}

func (s *stubExec) exec(ctx context.Context, dig string, spec Spec) (*Entry, *metrics.Registry, error) {
	s.runs.Add(1)
	if s.gate != nil {
		select {
		case <-s.gate:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	if s.delay > 0 {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	return &Entry{Digest: dig, Body: []byte("body:" + dig + "\n")}, nil, nil
}

func TestPoolRunsJob(t *testing.T) {
	st := &stubExec{}
	p := NewPool(PoolConfig{Workers: 2, QueueDepth: 8, Exec: st.exec})
	defer p.Close(context.Background())
	j, coalesced, err := p.Submit("d1", Spec{})
	if err != nil || coalesced {
		t.Fatalf("Submit = (%v, %v)", coalesced, err)
	}
	e, err := j.Wait(context.Background())
	if err != nil || string(e.Body) != "body:d1\n" {
		t.Fatalf("Wait = (%q, %v)", e.Body, err)
	}
	if st.runs.Load() != 1 {
		t.Fatalf("exec ran %d times, want 1", st.runs.Load())
	}
}

// TestPoolCoalesces: concurrent submissions of one digest share a
// single execution, and every waiter gets the same entry.
func TestPoolCoalesces(t *testing.T) {
	st := &stubExec{gate: make(chan struct{})}
	p := NewPool(PoolConfig{Workers: 2, QueueDepth: 8, Exec: st.exec})
	defer p.Close(context.Background())

	first, coalesced, err := p.Submit("dup", Spec{})
	if err != nil || coalesced {
		t.Fatalf("first Submit = (%v, %v)", coalesced, err)
	}
	// Wait until the job is actually executing so later submissions
	// must coalesce rather than racing the queue.
	for st.runs.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	var wg sync.WaitGroup
	entries := make([]*Entry, 10)
	for i := range entries {
		j, coalesced, err := p.Submit("dup", Spec{})
		if err != nil || !coalesced {
			t.Fatalf("duplicate Submit %d = (%v, %v), want coalesced", i, coalesced, err)
		}
		if j != first {
			t.Fatalf("duplicate Submit %d returned a different job", i)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			entries[i], _ = j.Wait(context.Background())
		}(i)
	}
	close(st.gate)
	wg.Wait()
	ref, err := first.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range entries {
		if e != ref {
			t.Fatalf("waiter %d got a different entry", i)
		}
	}
	if st.runs.Load() != 1 {
		t.Fatalf("exec ran %d times for one digest, want 1", st.runs.Load())
	}
	if p.Stats().Coalesced != 10 {
		t.Fatalf("coalesced = %d, want 10", p.Stats().Coalesced)
	}
}

// TestPoolQueueFull: admissions beyond QueueDepth are rejected
// distinctly and immediately, not queued.
func TestPoolQueueFull(t *testing.T) {
	st := &stubExec{gate: make(chan struct{})}
	p := NewPool(PoolConfig{Workers: 1, QueueDepth: 2, Exec: st.exec})
	defer func() { close(st.gate); p.Close(context.Background()) }()

	// One job occupies the worker (blocked on the gate); two more
	// fill the queue; the next must bounce.
	var admitted int
	var rejected int
	for i := 0; i < 8; i++ {
		_, _, err := p.Submit(fmt.Sprintf("d%d", i), Spec{})
		switch {
		case err == nil:
			admitted++
		case errors.Is(err, ErrQueueFull):
			rejected++
		default:
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	if rejected == 0 {
		t.Fatalf("no submission was rejected (admitted %d)", admitted)
	}
	if got := p.Stats().Rejected; got != uint64(rejected) {
		t.Fatalf("Rejected counter = %d, want %d", got, rejected)
	}
}

// TestPoolGracefulClose: Close drains queued jobs; waiters get real
// results, and later submissions are refused.
func TestPoolGracefulClose(t *testing.T) {
	st := &stubExec{}
	p := NewPool(PoolConfig{Workers: 2, QueueDepth: 16, Exec: st.exec})
	var jobs []*Job
	for i := 0; i < 8; i++ {
		j, _, err := p.Submit(fmt.Sprintf("d%d", i), Spec{})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	if err := p.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, j := range jobs {
		if e, err := j.Wait(context.Background()); err != nil || e == nil {
			t.Fatalf("job %d not drained: %v", i, err)
		}
	}
	if _, _, err := p.Submit("late", Spec{}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-Close Submit = %v, want ErrShuttingDown", err)
	}
	if st.runs.Load() != 8 {
		t.Fatalf("exec ran %d times, want 8", st.runs.Load())
	}
}

// TestPoolForcedClose: when the drain deadline expires, in-flight jobs
// are cancelled, queued jobs fail with ErrShuttingDown without
// running, and every waiter is released with an error instead of
// hanging.
func TestPoolForcedClose(t *testing.T) {
	st := &stubExec{gate: make(chan struct{})} // never closed: jobs hang
	p := NewPool(PoolConfig{Workers: 1, QueueDepth: 8, Exec: st.exec})
	j, _, err := p.Submit("stuck", Spec{})
	if err != nil {
		t.Fatal(err)
	}
	queued, _, err := p.Submit("queued", Spec{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := p.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced Close = %v, want DeadlineExceeded", err)
	}
	if _, err := j.Wait(context.Background()); err == nil {
		t.Fatal("force-cancelled job completed without error")
	}
	if _, err := queued.Wait(context.Background()); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("queued job err = %v, want ErrShuttingDown", err)
	}
	if st.runs.Load() != 1 {
		t.Fatalf("exec ran %d times, want 1 (the queued job must not run)", st.runs.Load())
	}
}

// waitWithin waits for j, failing the test if it does not finish
// within d.
func waitWithin(t *testing.T, j *Job, d time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	if _, err := j.Wait(ctx); err != nil {
		t.Fatalf("job %s: %v", j.Digest, err)
	}
}

// TestPoolNoHeadOfLine: a blocked job holds only its own worker. A job
// submitted with it, and one submitted later, both run on the idle
// worker and finish while the blocked job is still running.
func TestPoolNoHeadOfLine(t *testing.T) {
	gate := make(chan struct{})
	exec := func(ctx context.Context, dig string, spec Spec) (*Entry, *metrics.Registry, error) {
		if dig == "slow" {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			}
		}
		return &Entry{Digest: dig}, nil, nil
	}
	p := NewPool(PoolConfig{Workers: 2, QueueDepth: 8, Exec: exec})
	defer p.Close(context.Background())
	defer close(gate)

	slow, _, err := p.Submit("slow", Spec{})
	if err != nil {
		t.Fatal(err)
	}
	fast, _, err := p.Submit("fast", Spec{})
	if err != nil {
		t.Fatal(err)
	}
	waitWithin(t, fast, 500*time.Millisecond)
	later, _, err := p.Submit("later", Spec{})
	if err != nil {
		t.Fatal(err)
	}
	waitWithin(t, later, 500*time.Millisecond)
	if slow.Err() != nil || !p.Running("slow") {
		t.Fatalf("slow job finished early (err %v)", slow.Err())
	}
}

// TestPoolExecPanic: a panicking Exec fails only its own job, with an
// error naming the digest; the worker survives to run later jobs, and
// the HTTP layer answers the panicking spec with a 500.
func TestPoolExecPanic(t *testing.T) {
	st := &stubExec{}
	exec := func(ctx context.Context, dig string, spec Spec) (*Entry, *metrics.Registry, error) {
		if dig == "boom" || spec.Seed == 7 {
			panic("exec exploded")
		}
		return st.exec(ctx, dig, spec)
	}
	p := NewPool(PoolConfig{Workers: 1, QueueDepth: 8, Exec: exec})
	defer p.Close(context.Background())
	j, _, err := p.Submit("boom", Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "serve: job boom") || !strings.Contains(err.Error(), "exec exploded") {
		t.Fatalf("panicking job err = %v, want one naming the digest and the panic", err)
	}
	ok, _, err := p.Submit("ok", Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if e, err := ok.Wait(context.Background()); err != nil || string(e.Body) != "body:ok\n" {
		t.Fatalf("job after a panic = (%v, %v)", e, err)
	}
	if s := p.Stats(); s.Failed != 1 || s.Completed != 1 {
		t.Fatalf("stats failed=%d completed=%d, want 1/1", s.Failed, s.Completed)
	}

	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Exec: exec})
	resp := postSpec(t, ts, `{"app":"cg","variant":"dsm2","seed":7}`)
	if body := readAll(t, resp); resp.StatusCode != http.StatusInternalServerError ||
		!strings.Contains(string(body), "exec exploded") {
		t.Fatalf("panicking spec: status %d body %s, want 500", resp.StatusCode, body)
	}
	resp = postSpec(t, ts, `{"app":"cg","variant":"dsm2","seed":8}`)
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("spec after a panic: status %d body %s, want 200", resp.StatusCode, body)
	}
}

// TestPoolJobTimeout: a job exceeding JobTimeout fails with
// DeadlineExceeded while other jobs are unaffected.
func TestPoolJobTimeout(t *testing.T) {
	slow := &stubExec{gate: make(chan struct{})} // blocks forever
	p := NewPool(PoolConfig{Workers: 2, QueueDepth: 8, JobTimeout: 30 * time.Millisecond, Exec: slow.exec})
	defer p.Close(context.Background())
	j, _, err := p.Submit("slow", Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slow job err = %v, want DeadlineExceeded", err)
	}
	if p.Stats().Failed != 1 {
		t.Fatalf("failed = %d, want 1", p.Stats().Failed)
	}
}
