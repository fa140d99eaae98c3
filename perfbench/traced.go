package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"pulsarqr/internal/kernels"
	"pulsarqr/internal/service"
	"pulsarqr/internal/trace"
)

// jobTrace is what GET /v1/jobs/{id}/trace says about one job, summed over
// every rank's shard.
type jobTrace struct {
	busy  map[string]time.Duration // VDP firing time by class
	comm  time.Duration            // proxy send and receive time
	drops int64                    // events the recorders lost
	fetch [2]time.Time             // client span of the trace request
}

// fetchTrace reads and summarizes a traced job's shards.
func fetchTrace(cli *service.Client, id uint32) (*jobTrace, error) {
	jt := &jobTrace{busy: map[string]time.Duration{}}
	jt.fetch[0] = time.Now()
	resp, err := cli.HTTP.Get(fmt.Sprintf("%s/v1/jobs/%d/trace", cli.Base, id))
	if err != nil {
		return nil, fmt.Errorf("trace of job %d: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return nil, fmt.Errorf("trace of job %d: http %d", id, resp.StatusCode)
	}
	shards, err := trace.ReadShards(resp.Body)
	jt.fetch[1] = time.Now()
	if err != nil {
		return nil, fmt.Errorf("trace of job %d: %w", id, err)
	}
	for _, sh := range shards {
		jt.drops += sh.Drops
		for _, e := range sh.Events {
			switch e.Kind {
			case trace.KindFire:
				jt.busy[e.Class] += e.End - e.Start
			case trace.KindSend, trace.KindRecv:
				jt.comm += e.End - e.Start
			}
		}
	}
	return jt, nil
}

// promValue sums every sample of a Prometheus series (all label sets) in an
// exposition text; 0 when the series is absent.
func promValue(text, name string) float64 {
	sum := 0.0
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue
		}
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			sum += v
		}
	}
	return sum
}

// scrape is the /metrics counters the traced run differences.
type scrape struct{ workerWait, barrierWait float64 }

func scrapeMetrics(cli *service.Client) (scrape, error) {
	text, err := cli.Metrics()
	if err != nil {
		return scrape{}, err
	}
	return scrape{
		workerWait:  promValue(text, "qrserve_worker_wait_seconds_sum"),
		barrierWait: promValue(text, "qrserve_mux_barrier_wait_seconds_total"),
	}, nil
}

// spanRec is one line of the span JSONL: a client call made by the
// benchmark, or a span the server reported for the same job.
type spanRec struct {
	Job     uint32  `json:"job"`
	Span    string  `json:"span"`
	Parent  string  `json:"parent,omitempty"`
	Layer   string  `json:"layer"`
	StartUS float64 `json:"start_us,omitempty"` // client spans: since the traced phase began
	DurUS   float64 `json:"dur_us"`
}

func us(d time.Duration) float64   { return float64(d) / float64(time.Microsecond) }
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// spanCheck verifies the traced job's accounting: the server's lifecycle
// spans add up to its total, the factorization fits inside the run span,
// and the server's total fits inside the client's view of the request.
func spanCheck(s jobSample) error {
	sp := s.view.Spans
	if sp == nil {
		return fmt.Errorf("job %d: view has no spans", s.id)
	}
	sum := sp.QueueWaitMS + sp.DispatchMS + sp.RunMS + sp.GatherMS
	if math.Abs(sum-sp.TotalMS) > 0.01*sp.TotalMS {
		return fmt.Errorf("job %d: queue_wait+dispatch+run+gather = %.3f ms, total %.3f ms", s.id, sum, sp.TotalMS)
	}
	if verify := sp.RunMS - s.view.ElapsedMS; verify < -0.01*sp.RunMS {
		return fmt.Errorf("job %d: factor %.3f ms exceeds run %.3f ms", s.id, s.view.ElapsedMS, sp.RunMS)
	}
	if client := msOf(s.submit[1].Sub(s.submit[0])); client < sp.TotalMS*0.99 {
		return fmt.Errorf("job %d: server total %.3f ms exceeds client span %.3f ms", s.id, sp.TotalMS, client)
	}
	return nil
}

// layerValues derives the per-layer metrics that come from the traced
// phase's jobs, as medians over jobs.
func layerValues(w workload, p *phase, before, after scrape) map[string]float64 {
	var factor, gf, firings, overhead, msgs, bytes, comm, qw, disp, verify, gather, httpMS []float64
	busy := map[string][]float64{}
	classes := []string{"panel", "update", "binary", "binary-update"}
	workers := float64(w.threads * w.ranks)
	jobs := p.completed()
	for _, s := range jobs {
		v, sp := s.view, s.view.Spans
		factor = append(factor, v.ElapsedMS)
		gf = append(gf, kernels.FlopsQR(w.job.M, w.job.N)/(v.ElapsedMS/1e3)/1e9)
		firings = append(firings, float64(v.Firings))
		msgs = append(msgs, float64(v.Messages))
		bytes = append(bytes, float64(v.Bytes))
		qw = append(qw, sp.QueueWaitMS)
		disp = append(disp, sp.DispatchMS)
		verify = append(verify, sp.RunMS-v.ElapsedMS)
		gather = append(gather, sp.GatherMS)
		httpMS = append(httpMS, msOf(s.submit[1].Sub(s.submit[0]))-sp.TotalMS+msOf(s.fetchR[1].Sub(s.fetchR[0])))
		var total time.Duration
		for _, c := range classes {
			busy[c] = append(busy[c], msOf(s.traced.busy[c]))
			total += s.traced.busy[c]
		}
		overhead = append(overhead, v.ElapsedMS*workers-msOf(total))
		comm = append(comm, msOf(s.traced.comm))
	}
	n := float64(len(jobs))
	out := map[string]float64{
		"runtime.factor_ms":         orZero(median(factor)),
		"runtime.factor_gflops":     orZero(median(gf)),
		"runtime.firings_per_job":   orZero(median(firings)),
		"runtime.overhead_ms":       orZero(median(overhead)),
		"runtime.worker_wait_ms":    orZero((after.workerWait - before.workerWait) * 1e3 / n),
		"transport.msgs_per_job":    orZero(median(msgs)),
		"transport.bytes_per_job":   orZero(median(bytes)),
		"transport.comm_ms":         orZero(median(comm)),
		"transport.barrier_wait_ms": orZero((after.barrierWait - before.barrierWait) * 1e3 / n),
		"service.queue_wait_ms":     orZero(median(qw)),
		"service.dispatch_ms":       orZero(median(disp)),
		"service.verify_ms":         orZero(median(verify)),
		"service.gather_ms":         orZero(median(gather)),
		"service.http_ms":           orZero(median(httpMS)),
	}
	for _, c := range classes {
		out["kernels.busy_ms."+c] = orZero(median(busy[c]))
	}
	return out
}

// writeSpans writes the traced phase's spans as JSONL: per job, the
// benchmark's own client calls and the server's reported lifecycle spans
// and per-class kernel busy time, all keyed by the job id.
func writeSpans(path string, p *phase, t0 time.Time) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range p.completed() {
		client := func(name, parent string, span [2]time.Time) spanRec {
			return spanRec{Job: s.id, Span: name, Parent: parent, Layer: "client",
				StartUS: us(span[0].Sub(t0)), DurUS: us(span[1].Sub(span[0]))}
		}
		sp := s.view.Spans
		recs := []spanRec{
			client("submit_wait", "", s.submit),
			{Job: s.id, Span: "queue_wait", Parent: "submit_wait", Layer: "service", DurUS: sp.QueueWaitMS * 1e3},
			{Job: s.id, Span: "dispatch", Parent: "submit_wait", Layer: "service", DurUS: sp.DispatchMS * 1e3},
			{Job: s.id, Span: "run", Parent: "submit_wait", Layer: "service", DurUS: sp.RunMS * 1e3},
			{Job: s.id, Span: "factor", Parent: "run", Layer: "runtime", DurUS: s.view.ElapsedMS * 1e3},
			{Job: s.id, Span: "verify", Parent: "run", Layer: "service", DurUS: (sp.RunMS - s.view.ElapsedMS) * 1e3},
			{Job: s.id, Span: "gather", Parent: "submit_wait", Layer: "service", DurUS: sp.GatherMS * 1e3},
			client("fetch_r", "", s.fetchR),
			client("fetch_trace", "", s.traced.fetch),
		}
		for class, d := range s.traced.busy {
			recs = append(recs, spanRec{Job: s.id, Span: "busy." + class, Parent: "factor", Layer: "kernels", DurUS: us(d)})
		}
		if s.traced.comm > 0 {
			recs = append(recs, spanRec{Job: s.id, Span: "comm", Parent: "factor", Layer: "transport", DurUS: us(s.traced.comm)})
		}
		for _, r := range recs {
			if err := enc.Encode(r); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
