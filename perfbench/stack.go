package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"pulsarqr/internal/obs"
	"pulsarqr/internal/service"
	"pulsarqr/internal/transport"
)

// workload is one traffic mix against the service.
type workload struct {
	name     string
	ranks    int             // 1: standalone server; 2: server plus one TCP agent
	threads  int             // pool workers per rank
	job      service.JobSpec // shape and algorithm configuration; Seed set per job
	jobSeeds int             // size of the input pool jobs cycle through
	warmJobs int             // jobs run in set-up before measuring
	openRate float64         // > 0: client A submits open-loop at this many jobs/s
	sideRate float64         // > 0: client B starts this many rounds/s beside the jobs, for the whole phase
}

// sideShare is the share of the measured time that client B's batch and
// append rounds get after the job phase, back to back, on workloads that do
// not run them beside the jobs.
const sideShare = 0.2

func workloads() []workload {
	nproc := runtime.NumCPU()
	return []workload{
		// The paper's target shape: panel kernels, the runtime and the
		// service's input build and verify do the work; transport does none.
		{
			name:    "tall-skinny",
			ranks:   1,
			threads: nproc,
			job: service.JobSpec{M: 32768, N: 128, NB: 128, IB: 32, H: 4,
				Tree: "hierarchical"},
			jobSeeds: 3,
			warmJobs: 1,
		},
		// Two ranks over real TCP loopback: the only workload where
		// transport, mux sessions, barriers and the R gather are on the
		// critical path.
		{
			name:    "fleet-tcp",
			ranks:   2,
			threads: 1,
			job: service.JobSpec{M: 2048, N: 256, NB: 64, IB: 16, H: 2,
				Tree: "hierarchical"},
			jobSeeds: 8,
			warmJobs: 4,
		},
		// Tiny kernels: HTTP/JSON, admission, per-job array build, batch
		// scheduling and session checkpoints dominate, all on one pool.
		{
			name:    "small-mix",
			ranks:   1,
			threads: nproc,
			job: service.JobSpec{M: 256, N: 64, NB: 32, IB: 16, H: 4,
				Tree: "hierarchical"},
			jobSeeds: 16,
			warmJobs: 32,
			// A light load, about a sixth of a 2-vCPU host: an open loop
			// nearer saturation turns shifts in host speed into far larger
			// shifts in queueing delay.
			openRate: 50,
			sideRate: 2.5,
		},
	}
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want tall-skinny, fleet-tcp or small-mix)", name)
}

// stack is one running service: the server behind a loopback HTTP listener,
// two clients with their own connections, and for a fleet the TCP mesh and
// the in-process agent of rank 1.
type stack struct {
	srv        *service.Server
	hs         *http.Server
	serveDone  chan struct{}
	base       string
	cliA, cliB *service.Client
	eps        []transport.Endpoint
	agentStop  context.CancelFunc
	agentDone  chan error
	ckptDir    string
}

func newClient(base string) *service.Client {
	return &service.Client{Base: base, HTTP: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 64,
		DisableCompression:  true,
	}}}
}

// boot starts the service for w with its checkpoints under tmpDir.
func boot(w workload, tmpDir string) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	if st.ckptDir, err = os.MkdirTemp(tmpDir, "ckpt-"); err != nil {
		return st, err
	}
	cfg := service.Config{
		Threads:       w.threads,
		QueueCap:      256,
		ResultCap:     1024,
		CheckpointDir: st.ckptDir,
		Obs:           obs.New(obs.Options{}),
	}
	if w.ranks > 1 {
		if st.eps, err = tcpMesh(w.ranks); err != nil {
			return st, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		st.agentStop = cancel
		ag, err := service.NewAgent(st.eps[1], w.threads, nil)
		if err != nil {
			return st, err
		}
		st.agentDone = make(chan error, 1)
		go func() { st.agentDone <- ag.Run(ctx) }()
		cfg.Ep = st.eps[0]
	}
	if st.srv, err = service.NewServer(cfg); err != nil {
		return st, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, err
	}
	st.hs = &http.Server{Handler: st.srv.Handler()}
	st.serveDone = make(chan struct{})
	go func() {
		defer close(st.serveDone)
		st.hs.Serve(ln)
	}()
	st.base = "http://" + ln.Addr().String()
	st.cliA, st.cliB = newClient(st.base), newClient(st.base)
	return st, st.cliA.Health()
}

// tcpMesh dials an n-rank TCP communicator over loopback in this process.
func tcpMesh(n int) ([]transport.Endpoint, error) {
	lns := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], peers[i] = ln, ln.Addr().String()
	}
	eps := make([]transport.Endpoint, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range eps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eps[i], errs[i] = transport.DialTCP(transport.TCPConfig{
				Rank: i, Peers: peers, Listener: lns[i], RendezvousTimeout: 10 * time.Second})
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		for _, ep := range eps {
			if ep != nil {
				ep.Close()
			}
		}
		return nil, err
	}
	return eps, nil
}

// close stops everything boot started and waits for it to end.
func (st *stack) close() error {
	var errs []error
	if st.hs != nil {
		errs = append(errs, st.hs.Close())
		<-st.serveDone
	}
	for _, c := range []*service.Client{st.cliA, st.cliB} {
		if c != nil {
			c.HTTP.CloseIdleConnections()
		}
	}
	if st.srv != nil {
		st.srv.Close() // tells the agent to shut down
	}
	if st.agentStop != nil {
		if st.agentDone != nil {
			select {
			case <-st.agentDone:
			case <-time.After(10 * time.Second):
				st.agentStop()
				<-st.agentDone
			}
		}
		st.agentStop()
	}
	for _, ep := range st.eps {
		if ep != nil {
			ep.Close()
		}
	}
	if st.ckptDir != "" {
		errs = append(errs, os.RemoveAll(st.ckptDir))
	}
	return errors.Join(errs...)
}
