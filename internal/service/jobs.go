package service

import (
	"container/heap"
	"context"
	"errors"
	"sync"
	"time"

	"pulsarqr/internal/matrix"
	"pulsarqr/internal/obs"
	"pulsarqr/internal/plan"
	"pulsarqr/internal/qr"
	"pulsarqr/internal/trace"
)

// Job lifecycle states. A job is terminal in done, failed, canceled or
// expired; its done channel closes exactly once on the transition.
type State string

const (
	StatePending  State = "pending"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
	StateExpired  State = "expired"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled || s == StateExpired
}

// Result is what a completed factorization leaves behind. The factor matrix
// R is retained (until evicted) so clients can fetch it; Q lives only as
// the implicit reflectors inside the run and is not kept.
type Result struct {
	Elapsed  time.Duration
	Gflops   float64
	Residual float64
	OK       bool // residual passed the service's acceptance threshold
	Stats    qr.RunStats
	// upper is the n×n R's upper triangle packed row by row (row i holds
	// columns i..n-1), nil on non-root ranks. Terminal results stay
	// resident until evicted, so they keep half the bytes of dense rows.
	upper []float64
	n     int
}

// setR keeps the upper triangle of the n×n factor r on the result (see
// Result.R).
func (res *Result) setR(r *matrix.Mat) {
	n := r.Rows
	res.n = n
	res.upper = make([]float64, 0, n*(n+1)/2)
	for i := 0; i < n; i++ {
		for c := i; c < n; c++ {
			res.upper = append(res.upper, r.At(i, c))
		}
	}
}

// R returns the factor as row-major rows, zero below the diagonal, or nil
// when the result carries none.
func (res *Result) R() [][]float64 {
	if res.upper == nil {
		return nil
	}
	n := res.n
	dense := make([]float64, n*n)
	rows := make([][]float64, n)
	off := 0
	for i := range rows {
		rows[i] = dense[i*n : (i+1)*n]
		off += copy(rows[i][i:], res.upper[off:])
	}
	return rows
}

// Job is one admitted factorization request.
type Job struct {
	ID   uint32
	Spec JobSpec

	ctx    context.Context
	cancel context.CancelCauseFunc

	enqueued time.Time
	deadline time.Time // zero: none
	seq      int64     // admission order, FIFO tiebreak within a priority

	// life tracks the job's phase transitions and per-phase dwell times.
	// Always on: marking is lock-plus-arithmetic, and the spans come back
	// on every GET /v1/jobs/{id}.
	life obs.Lifecycle

	mu      sync.Mutex
	state   State
	errMsg  string
	result  *Result
	attempt int            // completed dispatch attempts beyond the first
	trace   []trace.Shard  // per-rank shards, set before finish when Spec.Trace
	flight  []obs.Event    // flight-recorder tail, attached on non-done terminals
	planned *plan.Decision // autotuner's choice, set before the run starts

	done       chan struct{}
	onTerminal func() // runs once on the terminal transition, before done closes
}

// State returns the job's current state and error message (empty unless
// failed).
func (j *Job) State() (State, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.errMsg
}

// Result returns the job's result, nil until it completed successfully.
func (j *Job) Result() *Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// TraceShards returns the job's gathered per-rank trace shards, nil unless
// the job requested tracing and completed.
func (j *Job) TraceShards() []trace.Shard {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace
}

func (j *Job) setTrace(shards []trace.Shard) {
	j.mu.Lock()
	j.trace = shards
	j.mu.Unlock()
}

// Spans returns the job's lifecycle span accounting so far.
func (j *Job) Spans() obs.Spans { return j.life.Snapshot() }

// Flight returns the flight-recorder tail attached when the job ended in
// trouble (failed, canceled, expired); nil for healthy or live jobs.
func (j *Job) Flight() []obs.Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.flight
}

func (j *Job) setFlight(tail []obs.Event) {
	j.mu.Lock()
	j.flight = tail
	j.mu.Unlock()
}

// Plan returns the autotuner's decision for this job, nil when the job ran
// (or will run) with its literal spec.
func (j *Job) Plan() *plan.Decision {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.planned
}

func (j *Job) setPlan(d *plan.Decision) {
	j.mu.Lock()
	j.planned = d
	j.mu.Unlock()
}

// Attempts returns how many times the job has been requeued after a fleet
// failure (0 on the first attempt).
func (j *Job) Attempts() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempt
}

// requeue returns the job to the pending state for another attempt,
// reporting false if it already reached a terminal state (a cancel racing
// the retry wins).
func (j *Job) requeue() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = StatePending
	j.attempt++
	j.life.Mark(obs.PhaseQueued) // retry wait accrues to queue time
	return true
}

// Done closes when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel requests cancellation: queued jobs are dropped at dispatch,
// running jobs abort.
func (j *Job) Cancel() { j.cancel(context.Canceled) }

// finish moves the job to a terminal state exactly once.
func (j *Job) finish(s State, errMsg string, r *Result) bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.state = s
	j.errMsg = errMsg
	j.result = r
	j.mu.Unlock()
	j.life.Mark(obs.PhaseTerminal)
	if j.onTerminal != nil {
		j.onTerminal()
	}
	close(j.done)
	j.cancel(nil) // release the context's resources
	return true
}

// Admission errors.
var (
	ErrQueueFull = errors.New("service: admission queue full")
	ErrClosed    = errors.New("service: manager closed")
	ErrNotFound  = errors.New("service: no such job")
)

// Manager is the admission queue and dispatcher: a bounded priority queue
// in front of a fixed number of dispatcher goroutines. Backpressure is
// explicit — when the queue is at capacity Submit returns ErrQueueFull and
// nothing is buffered.
type Manager struct {
	run     func(*Job) // executes one job to a terminal state
	metrics *Metrics
	obs     *obs.Observer // event sink; nil is valid and free

	mu      sync.Mutex
	cond    *sync.Cond
	queue   jobQueue
	cap     int
	nextSeq int64
	closed  bool

	wg sync.WaitGroup
}

// NewManager starts workers dispatcher goroutines in front of a queue
// bounded at capacity. run is called once per dispatched job and must drive
// it to a terminal state.
func NewManager(capacity, workers int, metrics *Metrics, run func(*Job)) *Manager {
	if capacity <= 0 {
		capacity = 1
	}
	if workers <= 0 {
		workers = 1
	}
	m := &Manager{run: run, metrics: metrics, cap: capacity}
	m.cond = sync.NewCond(&m.mu)
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.dispatch()
	}
	return m
}

// Depth returns the number of queued (not yet dispatched) jobs.
func (m *Manager) Depth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queue.Len()
}

// Submit admits a job or rejects it with ErrQueueFull. The job must carry
// its context and deadline already; Submit assigns the FIFO sequence.
func (m *Manager) Submit(j *Job) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	if m.queue.Len() >= m.cap {
		m.mu.Unlock()
		m.metrics.RejectedFull.Add(1)
		return ErrQueueFull
	}
	j.seq = m.nextSeq
	m.nextSeq++
	heap.Push(&m.queue, j)
	// The queued mark must land before the push is signaled: a dispatcher
	// could pop the job immediately, and a late mark would drag the phase
	// backwards. Submitted and Queued both accrue to queue wait anyway.
	j.life.Mark(obs.PhaseQueued)
	m.mu.Unlock()
	m.metrics.Accepted.Add(1)
	m.obs.Emit(obs.Event{Kind: obs.EvQueued, Class: "job", Job: j.ID,
		Tenant: j.Spec.Tenant, Attempt: j.Attempts()})
	m.cond.Signal()
	return nil
}

// Close stops admitting, drains the dispatchers, and cancels queued jobs.
// Running jobs are not interrupted here — the server cancels their contexts
// during shutdown.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	var rest []*Job
	for m.queue.Len() > 0 {
		rest = append(rest, heap.Pop(&m.queue).(*Job))
	}
	m.mu.Unlock()
	m.cond.Broadcast()
	for _, j := range rest {
		if j.finish(StateCanceled, "service shutting down", nil) {
			m.metrics.Canceled.Add(1)
		}
	}
	m.wg.Wait()
}

// dispatch pops jobs in priority order and runs them, enforcing deadlines
// and cancellation at the dispatch point: an expired or canceled job is
// dropped before any resources are committed to it.
func (m *Manager) dispatch() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for m.queue.Len() == 0 && !m.closed {
			m.cond.Wait()
		}
		if m.queue.Len() == 0 && m.closed {
			m.mu.Unlock()
			return
		}
		j := heap.Pop(&m.queue).(*Job)
		m.mu.Unlock()

		if !j.deadline.IsZero() && time.Now().After(j.deadline) {
			if j.finish(StateExpired, "deadline passed before dispatch", nil) {
				m.metrics.Expired.Add(1)
			}
			continue
		}
		if j.ctx.Err() != nil {
			if j.finish(StateCanceled, "", nil) {
				m.metrics.Canceled.Add(1)
			}
			continue
		}
		j.mu.Lock()
		j.state = StateRunning
		j.mu.Unlock()
		j.life.Mark(obs.PhaseDispatched)
		m.obs.Emit(obs.Event{Kind: obs.EvDispatched, Class: "job", Job: j.ID,
			Tenant: j.Spec.Tenant, Attempt: j.Attempts()})
		m.metrics.Running.Add(1)
		m.run(j)
		m.metrics.Running.Add(-1)
	}
}

// jobQueue is a max-heap by priority, FIFO within equal priorities.
type jobQueue []*Job

func (q jobQueue) Len() int { return len(q) }
func (q jobQueue) Less(a, b int) bool {
	if q[a].Spec.Priority != q[b].Spec.Priority {
		return q[a].Spec.Priority > q[b].Spec.Priority
	}
	return q[a].seq < q[b].seq
}
func (q jobQueue) Swap(a, b int) { q[a], q[b] = q[b], q[a] }
func (q *jobQueue) Push(x any)   { *q = append(*q, x.(*Job)) }
func (q *jobQueue) Pop() any {
	old := *q
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return j
}
