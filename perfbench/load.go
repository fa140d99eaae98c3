package main

import (
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"pulsarqr/internal/batch"
	"pulsarqr/internal/kernels"
	"pulsarqr/internal/service"
	"pulsarqr/internal/session"
)

// tally counts every request of a run, of every type: jobs, batch streams,
// appended blocks and session round trips.
type tally struct {
	attempted, refused, failed, wrong atomic.Int64

	mu       sync.Mutex
	firstBad string
}

// miss records a request that did not deliver a correct result: refused
// (HTTP 429), wrong (a result that differs from the oracle) or failed (any
// other error).
func (t *tally) miss(kind string, code int, err error) {
	switch {
	case code == http.StatusTooManyRequests:
		t.refused.Add(1)
	case errors.Is(err, errWrong):
		t.wrong.Add(1)
	default:
		t.failed.Add(1)
	}
	t.mu.Lock()
	if t.firstBad == "" {
		t.firstBad = fmt.Sprintf("%s: %v", kind, err)
	}
	t.mu.Unlock()
}

func (t *tally) missed() int64 { return t.refused.Load() + t.failed.Load() + t.wrong.Load() }

// jobSample is one completed job as the client saw it.
type jobSample struct {
	id      uint32
	lat     time.Duration // due time → R in hand
	view    service.JobView
	submit  [2]time.Time // client span of POST /v1/factorize (wait)
	fetchR  [2]time.Time // client span of GET /v1/jobs/{id}?include=r
	traced  *jobTrace    // set on traced jobs
	missing bool         // refused or failed: counts as missing every limit
}

// phase is what one measured phase of a workload produced. Clients A and B
// record into it concurrently under mu.
type phase struct {
	mu    sync.Mutex
	wall  time.Duration
	jobs  []jobSample
	flops float64
	late  []float64 // open-loop generator lateness, ms

	batchMats int
	batchWall time.Duration
	appendLat []float64 // ms per committed append
}

// runner drives one workload against one stack.
type runner struct {
	w     workload
	st    *stack
	or    *oracle
	t     *tally
	trace bool // submit jobs with "trace": true and fetch their traces

	jobs  atomic.Int64 // jobs started, picks each job's input seed
	sides atomic.Int64 // batch+append rounds started, picks their inputs
}

// job submits one factorization and fetches its R; latency runs from due.
func (r *runner) job(cli *service.Client, due time.Time) jobSample {
	k := int(r.jobs.Add(1) - 1)
	spec := r.w.job
	spec.Seed = r.or.jobSeeds[k%len(r.or.jobSeeds)]
	spec.Trace = r.trace
	r.t.attempted.Add(1)
	var s jobSample
	s.submit[0] = time.Now()
	v, code, err := cli.Submit(spec, true)
	s.submit[1] = time.Now()
	if err != nil {
		r.t.miss("job", code, err)
		return jobSample{missing: true}
	}
	if v.Status != string(service.StateDone) || !v.OK {
		r.t.miss("job", 0, fmt.Errorf("job %d ended %s ok=%v: %s", v.ID, v.Status, v.OK, v.Error))
		return jobSample{missing: true}
	}
	s.fetchR[0] = time.Now()
	full, err := cli.Job(v.ID, true)
	s.fetchR[1] = time.Now()
	s.lat = s.fetchR[1].Sub(due)
	if err != nil {
		r.t.miss("job", 0, err)
		return jobSample{missing: true}
	}
	if err := checkRows(full.R, r.or.jobR[spec.Seed]); err != nil {
		r.t.miss("job", 0, fmt.Errorf("job %d (seed %d): %w", v.ID, spec.Seed, err))
		return jobSample{missing: true}
	}
	full.R = nil
	s.id, s.view = v.ID, full
	if r.trace {
		jt, err := fetchTrace(cli, v.ID)
		if err != nil {
			r.t.miss("job", 0, err)
			return jobSample{missing: true}
		}
		s.traced = jt
	}
	return s
}

// side runs one round of client B: a batch stream, then a burst of appends
// to a fresh durable session whose R is checked after every append and once
// more through GET /v1/sessions/{id}/r.
func (r *runner) side(p *phase) {
	i := int(r.sides.Add(1) - 1)
	cli := r.st.cliB

	mats := r.or.batchSlice(i)
	r.t.attempted.Add(1)
	received := 0
	t0 := time.Now()
	tr, err := cli.Batch(mats, func(res batch.Result) error {
		received++
		if res.Index < 0 || res.Index >= len(mats) {
			return fmt.Errorf("batch result index %d out of range", res.Index)
		}
		return checkMat(res.R, r.or.batchWant(i, res.Index))
	})
	bwall := time.Since(t0)
	if err == nil {
		err = checkBatchTrailer(tr, received, len(mats))
	}
	if err != nil {
		r.t.miss("batch", 0, err)
	} else {
		p.mu.Lock()
		p.batchMats += len(mats)
		p.batchWall += bwall
		p.mu.Unlock()
	}

	pat := i % sessPatterns
	blocks, want := r.or.sessBlocks[pat], r.or.sessR[pat]
	r.t.attempted.Add(1) // the session round trip: open, final R, close
	info, err := cli.OpenSession(service.SessionSpec{Tenant: "perfbench", N: sessN})
	if err != nil {
		r.t.miss("session", 0, err)
		return
	}
	defer func() {
		if err := cli.CloseSession(info.ID); err != nil {
			r.t.miss("session", 0, err)
		}
	}()
	// Each append is its own SessionAppend call, so its latency is the
	// whole request: wire, leaf reduce, commit, checkpoint and reply.
	r.t.attempted.Add(int64(len(blocks)))
	lat := make([]float64, 0, len(blocks))
	for k := range blocks {
		got := 0
		t0 := time.Now()
		atr, err := cli.SessionAppend(info.ID, sessN, blocks[k:k+1], nil, func(u session.Update) error {
			got++
			if u.Blocks != int64(k+1) {
				return fmt.Errorf("append %d reports %d committed blocks", k+1, u.Blocks)
			}
			return checkMat(u.R, want[k])
		})
		d := time.Since(t0)
		if err == nil {
			err = checkAppendTrailer(atr, got, 1)
		}
		if err != nil {
			// The rest of a broken burst misses too.
			for range blocks[k:] {
				r.t.miss("append", 0, err)
			}
			return
		}
		lat = append(lat, msOf(d))
	}
	p.mu.Lock()
	p.appendLat = append(p.appendLat, lat...)
	p.mu.Unlock()
	final, err := cli.SessionR(info.ID, sessN)
	if err == nil && final.Blocks != int64(len(blocks)) {
		err = fmt.Errorf("session R covers %d blocks, want %d", final.Blocks, len(blocks))
	}
	if err == nil {
		err = checkMat(final.R, want[len(want)-1])
	}
	if err != nil {
		r.t.miss("session", 0, err)
	}
}

// run measures one phase of the workload for d: the job loop of client A
// (closed-loop, or open-loop at w.openRate) and client B's batch and append
// rounds, beside the jobs at w.sideRate or back to back after them.
func (r *runner) run(d time.Duration) *phase {
	p := &phase{}
	start := time.Now()
	deadline := start.Add(d)
	jobsEnd := deadline
	var wg sync.WaitGroup
	if r.w.sideRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			every(start, deadline, r.w.sideRate, func(time.Time) { r.side(p) })
		}()
	} else {
		jobsEnd = start.Add(time.Duration(float64(d) * (1 - sideShare)))
	}
	record := func(s jobSample) {
		p.mu.Lock()
		p.jobs = append(p.jobs, s)
		if !s.missing {
			p.flops += kernels.FlopsQR(r.w.job.M, r.w.job.N)
		}
		p.mu.Unlock()
	}
	if r.w.openRate > 0 {
		sem := make(chan struct{}, 256) // in-flight cap: the generator runs late rather than unbounded
		var jobs sync.WaitGroup
		every(start, jobsEnd, r.w.openRate, func(due time.Time) {
			sem <- struct{}{}
			p.late = append(p.late, msOf(time.Since(due)))
			jobs.Add(1)
			go func() {
				defer jobs.Done()
				defer func() { <-sem }()
				record(r.job(r.st.cliA, due))
			}()
		})
		jobs.Wait()
	} else {
		for time.Now().Before(jobsEnd) {
			record(r.job(r.st.cliA, time.Now()))
		}
	}
	p.wall = time.Since(start)
	if r.w.sideRate > 0 {
		wg.Wait()
	} else {
		for time.Now().Before(deadline) {
			r.side(p)
		}
	}
	// A job that missed counts as missing every latency limit: it takes
	// the whole phase as its latency.
	for i := range p.jobs {
		if p.jobs[i].missing {
			p.jobs[i].lat = p.wall
		}
	}
	return p
}

// rssProbe serves n jobs one at a time, each from a quiesced heap (a full
// GC with memory returned to the OS), and returns the median of the peak
// resident set, in MiB, that serving each took. Measured this way the peak
// reads the same run after run; over a busy phase it lands wherever a GC
// cycle happened to fall.
func (r *runner) rssProbe(n int) (float64, error) {
	var peaks []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return 0, fmt.Errorf("reset peak RSS: %w", err)
		}
		r.job(r.st.cliA, time.Now())
		peaks = append(peaks, peakRSSMiB())
	}
	return median(peaks), nil
}

// every calls fn at start, start+1/rate, ... for each due time before end,
// sleeping until each is due; a call that overruns makes the next ones late.
func every(start, end time.Time, rate float64, fn func(due time.Time)) {
	interval := time.Duration(float64(time.Second) / rate)
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(end) {
			return
		}
		time.Sleep(time.Until(due))
		fn(due)
	}
}

// completed returns the phase's jobs that delivered a correct R.
func (p *phase) completed() []jobSample {
	var out []jobSample
	for _, s := range p.jobs {
		if !s.missing {
			out = append(out, s)
		}
	}
	return out
}

func (p *phase) jobsPerSec() float64 { return float64(len(p.completed())) / p.wall.Seconds() }

func (p *phase) jobLatMS() []float64 {
	out := make([]float64, len(p.jobs))
	for i, s := range p.jobs {
		out[i] = float64(s.lat) / float64(time.Millisecond)
	}
	return out
}
