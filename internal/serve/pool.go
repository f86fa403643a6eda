package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cenju4/internal/metrics"
)

// Admission and lifecycle errors. The HTTP layer maps ErrQueueFull to
// a 429 (the load-shedding contract: a full service rejects fast with
// a distinct status instead of queuing unboundedly) and ErrShuttingDown
// to a 503.
var (
	ErrQueueFull    = errors.New("serve: job queue full")
	ErrShuttingDown = errors.New("serve: shutting down")
)

// Exec runs one job and renders its cacheable entry. The context
// carries the job's wall-clock deadline and the pool's shutdown
// signal; implementations must abort promptly when it is cancelled
// (Execute threads it into the simulation loop via machine.RunContext).
// The returned registry holds the run's simulation metrics (may be
// nil).
type Exec func(ctx context.Context, digest string, spec Spec) (*Entry, *metrics.Registry, error)

// PoolConfig configures a Pool.
type PoolConfig struct {
	// Workers is the number of jobs that run at once (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds the jobs admitted but not yet started; Submit
	// returns ErrQueueFull beyond it (default 64).
	QueueDepth int
	// JobTimeout is each job's wall-clock budget (0 = none).
	JobTimeout time.Duration
	// Exec executes one job (required).
	Exec Exec
	// Done, if non-nil, observes every finished job before its waiters
	// are released. It is called on the worker that ran the job, so
	// calls for different jobs run concurrently and must synchronize —
	// the server's populates the cache and merges simulation metrics,
	// each under its own lock.
	Done func(j *Job)
}

// Job is one admitted execution. Waiters block on Wait; the worker
// that takes the job fills entry/err and closes done exactly once.
type Job struct {
	Digest string
	Spec   Spec

	done  chan struct{}
	entry *Entry
	reg   *metrics.Registry
	err   error
}

// Wait blocks until the job finishes or ctx is cancelled. On success
// the returned entry is the same immutable value every coalesced
// waiter receives.
func (j *Job) Wait(ctx context.Context) (*Entry, error) {
	select {
	case <-j.done:
		return j.entry, j.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Err returns the job's terminal error (nil before completion or on
// success).
func (j *Job) Err() error {
	select {
	case <-j.done:
		return j.err
	default:
		return nil
	}
}

// PoolStats is a snapshot of the pool counters.
type PoolStats struct {
	Submitted uint64 // jobs admitted to the queue
	Coalesced uint64 // submissions attached to an in-flight duplicate
	Rejected  uint64 // submissions refused with ErrQueueFull
	Completed uint64 // jobs finished successfully
	Failed    uint64 // jobs finished with an error
	Inflight  int    // jobs admitted but not yet finished
}

// Pool executes jobs on Workers long-lived goroutines, each taking
// one admitted job at a time from the queue; duplicate digests
// submitted while a job is queued or running coalesce onto the same
// Job rather than running twice.
type Pool struct {
	cfg    PoolConfig
	ctx    context.Context // cancelled to force-abort in-flight work
	cancel context.CancelFunc

	mu       sync.Mutex
	closed   bool
	inflight map[string]*Job
	queue    chan *Job
	drained  chan struct{} // closed when every worker has exited

	// Counters are shared by concurrent submitters and workers, so
	// every access is an atomic.Uint64 Add/Load, never a bare x++.
	submitted, coalesced, rejected atomic.Uint64
	completed, failed              atomic.Uint64
}

// NewPool starts a pool's workers.
func NewPool(cfg PoolConfig) *Pool {
	if cfg.Exec == nil {
		panic("serve: PoolConfig.Exec is required")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{
		cfg:      cfg,
		ctx:      ctx,
		cancel:   cancel,
		inflight: make(map[string]*Job),
		queue:    make(chan *Job, cfg.QueueDepth),
		drained:  make(chan struct{}),
	}
	var wg sync.WaitGroup
	wg.Add(cfg.Workers)
	for range cfg.Workers {
		go func() {
			defer wg.Done()
			for j := range p.queue {
				p.run(j)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(p.drained)
	}()
	return p
}

// Submit admits a job for the spec (already normalized and validated).
// It returns the job to wait on and whether this submission coalesced
// onto an already in-flight duplicate. It fails fast with ErrQueueFull
// when the admission queue is full and ErrShuttingDown after Close.
func (p *Pool) Submit(digest string, spec Spec) (j *Job, coalesced bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, false, ErrShuttingDown
	}
	if j := p.inflight[digest]; j != nil {
		p.coalesced.Add(1)
		return j, true, nil
	}
	j = &Job{Digest: digest, Spec: spec, done: make(chan struct{})}
	select {
	case p.queue <- j:
		p.inflight[digest] = j
		p.submitted.Add(1)
		return j, false, nil
	default:
		p.rejected.Add(1)
		return nil, false, ErrQueueFull
	}
}

// Running reports whether digest is admitted but not yet finished.
func (p *Pool) Running(digest string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inflight[digest] != nil
}

// Close shuts the pool down gracefully: no new submissions are
// admitted, queued and running jobs drain, and waiters are released.
// If ctx expires before the drain completes, in-flight work is
// force-cancelled (jobs finish with a cancellation error) and Close
// returns ctx.Err(). Close is idempotent.
func (p *Pool) Close(ctx context.Context) error {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	p.mu.Unlock()
	select {
	case <-p.drained:
		return nil
	case <-ctx.Done():
		p.cancel()
		<-p.drained
		return ctx.Err()
	}
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	inflight := len(p.inflight)
	p.mu.Unlock()
	return PoolStats{
		Submitted: p.submitted.Load(),
		Coalesced: p.coalesced.Load(),
		Rejected:  p.rejected.Load(),
		Completed: p.completed.Load(),
		Failed:    p.failed.Load(),
		Inflight:  inflight,
	}
}

// run executes one job and releases its waiters. A job taken after a
// forced Close fails with ErrShuttingDown without running, and a
// panicking Exec fails only its own job.
func (p *Pool) run(j *Job) {
	if p.ctx.Err() != nil {
		j.err = ErrShuttingDown
	} else {
		j.entry, j.reg, j.err = p.exec(j)
	}
	if j.err != nil {
		p.failed.Add(1)
	} else {
		p.completed.Add(1)
	}
	if p.cfg.Done != nil {
		p.cfg.Done(j)
	}
	p.mu.Lock()
	delete(p.inflight, j.Digest)
	p.mu.Unlock()
	close(j.done)
}

// exec calls Exec under the job's timeout, turning a panic into the
// job's error.
func (p *Pool) exec(j *Job) (entry *Entry, reg *metrics.Registry, err error) {
	ctx := p.ctx
	if p.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.cfg.JobTimeout)
		defer cancel()
	}
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("serve: job %s panicked: %v", j.Digest, v)
		}
	}()
	return p.cfg.Exec(ctx, j.Digest, j.Spec)
}
