package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"time"

	"pulsarqr/internal/batch"
	"pulsarqr/internal/blas"
	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/obs"
	"pulsarqr/internal/pulsar"
	"pulsarqr/internal/qr"
	"pulsarqr/internal/service"
	"pulsarqr/internal/session"
	"pulsarqr/internal/transport"
	"pulsarqr/internal/tuple"
)

// probeRounds and probeBudget bound each timed probe: the median of up to
// probeRounds rounds, stopping early once probeBudget is spent.
const (
	probeRounds = 15
	probeBudget = 150 * time.Millisecond
)

// rate times fn (one call per round, after one warm-up call) and returns
// the median of work ÷ seconds over the rounds.
func rate(work float64, fn func()) float64 {
	fn()
	var rates []float64
	start := time.Now()
	for len(rates) < probeRounds && (len(rates) < 3 || time.Since(start) < probeBudget) {
		t0 := time.Now()
		fn()
		rates = append(rates, work/time.Since(t0).Seconds())
	}
	return median(rates)
}

// kernelProbes measures the six tile kernels and GemmNN at the workload's
// nb and ib, one workspace held across calls as a runtime worker does.
// In-place factorizations restart from a pristine copy every call, so the
// inputs never drift toward denormals; the copies are timed with the
// kernel and cost well under a percent of it.
func kernelProbes(nb, ib int) map[string]float64 {
	const reps = 8 // kernel calls per timed round
	rng := rand.New(rand.NewSource(1))
	ws := kernels.NewWorkspace()
	a0 := matrix.NewRand(nb, nb, rng)
	r0 := matrix.NewRand(nb, nb, rng).UpperTriangle()
	u0 := a0.UpperTriangle()
	a, r, t := a0.Clone(), r0.Clone(), matrix.New(ib, nb)
	c1, c2 := matrix.NewRand(nb, nb, rng), matrix.NewRand(nb, nb, rng)
	gf := func(flops float64, fn func()) float64 {
		return rate(flops*reps/1e9, func() {
			for i := 0; i < reps; i++ {
				fn()
			}
		})
	}
	out := map[string]float64{}
	out["kernels.dgeqrt_gflops"] = gf(kernels.FlopsGeqrt(nb, nb), func() {
		a.CopyFrom(a0)
		kernels.DgeqrtWS(ws, ib, a, t)
	})
	out["kernels.dtsqrt_gflops"] = gf(kernels.FlopsTsqrt(nb, nb), func() {
		r.CopyFrom(r0)
		a.CopyFrom(a0)
		kernels.DtsqrtWS(ws, ib, r, a, t)
	})
	out["kernels.dttqrt_gflops"] = gf(kernels.FlopsTtqrt(nb), func() {
		r.CopyFrom(r0)
		a.CopyFrom(u0)
		kernels.DttqrtWS(ws, ib, r, a, t)
	})

	// The update kernels apply reflectors produced by their factorization
	// partner; an orthogonal update keeps c1 and c2 at unit scale, so they
	// need no restoring.
	v, tv := a0.Clone(), matrix.New(ib, nb)
	kernels.DgeqrtWS(ws, ib, v, tv)
	out["kernels.dormqr_gflops"] = gf(kernels.FlopsOrmqr(nb, nb, nb), func() {
		kernels.DormqrWS(ws, true, ib, v, tv, c1)
	})
	rs, v2, t2 := r0.Clone(), a0.Clone(), matrix.New(ib, nb)
	kernels.DtsqrtWS(ws, ib, rs, v2, t2)
	out["kernels.dtsmqr_gflops"] = gf(kernels.FlopsTsmqr(nb, nb, nb), func() {
		kernels.DtsmqrWS(ws, true, ib, v2, t2, c1, c2)
	})
	rt, v3, t3 := r0.Clone(), u0.Clone(), matrix.New(ib, nb)
	kernels.DttqrtWS(ws, ib, rt, v3, t3)
	out["kernels.dttmqr_gflops"] = gf(kernels.FlopsTtmqr(nb, nb), func() {
		kernels.DttmqrWS(ws, true, ib, v3, t3, c1, c2)
	})
	ga, gb, gc := matrix.NewRand(nb, nb, rng), matrix.NewRand(nb, nb, rng), matrix.New(nb, nb)
	out["blas.gemm_gflops"] = gf(2*float64(nb)*float64(nb)*float64(nb), func() {
		blas.Dgemm(false, false, nb, nb, nb, 1, ga.Data, ga.LD, gb.Data, gb.LD, 0, gc.Data, gc.LD)
	})
	return out
}

// fireProbe measures the runtime's per-firing cost with empty VDP bodies:
// a 64-VDP chain passing 32 packets, built and run with pulsar.New+Run on
// threads workers. It returns ns and heap allocations per firing, each the
// median over the rounds.
func fireProbe(threads int) (ns, allocs float64, err error) {
	const chain, packets = 64, 32
	runChain := func() (int64, error) {
		s := pulsar.New(pulsar.Config{Nodes: 1, ThreadsPerNode: threads})
		for c := 0; c < chain; c++ {
			s.NewVDP(tuple.New(c), packets, func(v *pulsar.VDP) { v.Push(0, v.Pop(0)) }, "", 1, 1)
		}
		for c := 0; c+1 < chain; c++ {
			s.Connect(tuple.New(c), 0, tuple.New(c+1), 0, 8, false)
		}
		s.Input(tuple.New(0), 0, 8)
		s.Output(tuple.New(chain-1), 0, 8)
		for p := 0; p < packets; p++ {
			s.Inject(tuple.New(0), 0, pulsar.NewPacket(p))
		}
		if err := s.Run(); err != nil {
			return 0, fmt.Errorf("empty chain run: %w", err)
		}
		return s.Fired(), nil
	}
	if _, err := runChain(); err != nil {
		return 0, 0, err
	}
	var nsv, av []float64
	var ms runtime.MemStats
	start := time.Now()
	for len(nsv) < probeRounds && (len(nsv) < 3 || time.Since(start) < probeBudget) {
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		t0 := time.Now()
		fired, err := runChain()
		d := time.Since(t0)
		if err != nil {
			return 0, 0, err
		}
		runtime.ReadMemStats(&ms)
		nsv = append(nsv, float64(d.Nanoseconds())/float64(fired))
		av = append(av, float64(ms.Mallocs-m0)/float64(fired))
	}
	return median(nsv), median(av), nil
}

// systolicProbe times qr.FactorizeVSA against the sequential qr.Factorize
// on the tall-skinny job shape, and returns the ratio of their times (best
// of two each).
func systolicProbe(spec service.JobSpec, threads int) (float64, error) {
	opts, err := spec.Options()
	if err != nil {
		return 0, err
	}
	best := func(fn func(*matrix.Tiled) error) (time.Duration, error) {
		var b time.Duration
		for i := 0; i < 2; i++ {
			a, _, err := spec.BuildInputs()
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			if err := fn(a); err != nil {
				return 0, err
			}
			if d := time.Since(t0); b == 0 || d < b {
				b = d
			}
		}
		return b, nil
	}
	vsa, err := best(func(a *matrix.Tiled) error {
		_, err := qr.FactorizeVSA(a, nil, opts, qr.RunConfig{Threads: threads})
		return err
	})
	if err != nil {
		return 0, err
	}
	seq, err := best(func(a *matrix.Tiled) error {
		_, err := qr.Factorize(a, nil, opts)
		return err
	})
	if err != nil {
		return 0, err
	}
	return vsa.Seconds() / seq.Seconds(), nil
}

// pingPong measures α and β of one endpoint pair with 0-byte and
// tileBytes round trips from rank a to rank b, feeding one-way times into
// the α–β estimator the service serves at /v1/machine-model. It returns α in
// µs and β in ns per KiB.
func pingPong(a, b transport.Endpoint, tileBytes int) (alphaUS, betaNsKiB float64, err error) {
	const trips = 200
	const tag = 7
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2*(trips+10); i++ {
			r := b.Irecv(a.Rank(), tag)
			r.Wait()
			if r.Canceled() {
				return
			}
			b.Isend(r.Data(), a.Rank(), tag)
		}
	}()
	est := obs.NewABEstimator(time.Hour)
	for _, size := range []int{0, tileBytes} {
		payload := make([]byte, size)
		for i := 0; i < trips+10; i++ {
			t0 := time.Now()
			a.Isend(payload, b.Rank(), tag)
			r := a.Irecv(b.Rank(), tag)
			r.Wait()
			if r.Canceled() || r.GetCount() != size {
				return 0, 0, fmt.Errorf("ping-pong of %d bytes came back with %d", size, r.GetCount())
			}
			if i >= 10 { // the first round trips warm buffers and connections
				est.Add(b.Rank(), int64(size), time.Since(t0)/2)
			}
		}
	}
	<-done
	lm, ok := est.Link(b.Rank())
	if !ok {
		return 0, 0, fmt.Errorf("no α–β fit")
	}
	return lm.Alpha * 1e6, lm.Beta * 1e9 * 1024, nil
}

// transportProbes runs pingPong on fresh Local, TCP-loopback and Mux (over
// TCP loopback) endpoint pairs with tile-sized (nb²·8 B) payloads.
func transportProbes(nb int) (map[string]float64, error) {
	tile := nb * nb * 8
	out := map[string]float64{}
	put := func(name string, a, b transport.Endpoint) error {
		al, be, err := pingPong(a, b, tile)
		if err != nil {
			return fmt.Errorf("%s ping-pong: %w", name, err)
		}
		out["transport."+name+".alpha_us"] = al
		out["transport."+name+".beta_ns_per_kib"] = be
		return nil
	}
	loc := transport.NewLocal(2)
	err := put("local", loc.Endpoint(0), loc.Endpoint(1))
	loc.Endpoint(0).Close()
	loc.Endpoint(1).Close()
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"tcp", "mux"} {
		eps, err := tcpMesh(2)
		if err != nil {
			return nil, err
		}
		a, b := eps[0], eps[1]
		var muxes []*transport.Mux
		if name == "mux" {
			m0, m1 := transport.NewMux(eps[0]), transport.NewMux(eps[1])
			muxes = []*transport.Mux{m0, m1}
			ja, err0 := m0.Open(1)
			jb, err1 := m1.Open(1)
			if err0 != nil || err1 != nil {
				return nil, fmt.Errorf("mux open: %v %v", err0, err1)
			}
			a, b = ja, jb
		}
		err = put(name, a, b)
		for _, m := range muxes {
			m.Close()
		}
		for _, ep := range eps {
			ep.Close()
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// batchProbe runs batch.Scheduler straight onto a warm pool, the no-wire
// ceiling of POST /v1/batch, and returns matrices per second.
func batchProbe(o *oracle, threads int) (float64, error) {
	pool := pulsar.NewPool(threads, func(int) any { return kernels.NewWorkspace() })
	defer pool.Close()
	sched := batch.NewScheduler(batch.SchedConfig{Pool: pool})
	const count = 1024
	var serr error
	r := rate(count, func() {
		idx := 0
		done, err := sched.Stream(context.Background(),
			func() (*matrix.Mat, error) {
				if idx >= count {
					return nil, io.EOF
				}
				idx++
				return o.batchIn[idx%batchPool].Clone(), nil
			},
			func(int, *matrix.Mat) error { return nil })
		if err == nil && done != count {
			err = fmt.Errorf("scheduler emitted %d of %d", done, count)
		}
		if err != nil {
			serr = err
		}
	})
	return r, serr
}

// sessionProbes measures the engine work behind one served append
// (qr.Streamer LeafReduce+Commit+Current on one block, in µs) and the
// durable write of the resulting checkpoint (ms), each a median.
func sessionProbes(o *oracle, dir string) (appendUS, ckptMS float64, err error) {
	ws := kernels.NewWorkspace()
	var times []float64
	var str *qr.Streamer
	var cur *qr.StreamNode
	for round := 0; round < 4; round++ {
		for p, blocks := range o.sessBlocks {
			if str, err = qr.NewStreamer(sessN, 0, qr.Options{}); err != nil {
				return 0, 0, err
			}
			for k, b := range blocks {
				in := b.Clone()
				t0 := time.Now()
				nd, err := str.LeafReduce(ws, in, nil)
				if err != nil {
					return 0, 0, err
				}
				str.Commit(ws, nd)
				cur = str.Current(ws, cur)
				times = append(times, us(time.Since(t0)))
				if err := checkMat(cur.R, o.sessR[p][k]); err != nil {
					return 0, 0, fmt.Errorf("streamer replay: %w", err)
				}
			}
		}
	}
	var ck []float64
	for i := 0; i < 16; i++ {
		cp := &session.Checkpoint{ID: "probe", N: sessN, Opts: str.Opts(),
			Blocks: str.Blocks(), Rows: str.Rows(), Spine: str.Spine()}
		t0 := time.Now()
		if _, err := session.WriteCheckpointFile(dir, cp); err != nil {
			return 0, 0, err
		}
		ck = append(ck, msOf(time.Since(t0)))
	}
	if err := os.Remove(session.CheckpointPath(dir, "probe")); err != nil {
		return 0, 0, err
	}
	return median(times), median(ck), nil
}

// probes runs every direct probe of the traced run.
func probes(w workload, o *oracle, dir string) (map[string]float64, error) {
	out := kernelProbes(w.job.NB, w.job.IB)
	var err error
	if out["runtime.fire_ns"], out["runtime.fire_allocs"], err = fireProbe(w.threads); err != nil {
		return nil, err
	}
	tall, err := findWorkload("tall-skinny")
	if err != nil {
		return nil, err
	}
	if out["runtime.systolic_over_sequential"], err = systolicProbe(tall.job, tall.threads); err != nil {
		return nil, err
	}
	tp, err := transportProbes(w.job.NB)
	if err != nil {
		return nil, err
	}
	for k, v := range tp {
		out[k] = v
	}
	if out["batch.direct_matrices_per_s"], err = batchProbe(o, w.threads); err != nil {
		return nil, err
	}
	if out["session.engine_append_us"], out["session.checkpoint_ms"], err = sessionProbes(o, dir); err != nil {
		return nil, err
	}
	return out, nil
}
