// Command perfbench is the repository's end-to-end benchmark. It boots the
// real factorization service in this process — service.NewServer behind a
// loopback http.Server, driven through service.Client, and for the fleet
// workload a second rank joined over TCP loopback as a service.Agent — runs
// one named workload against it for a fixed time, checks every result
// against a sequential oracle, and prints its metrics. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones a user sees; with
// -trace 1 the run measures half untraced and half with "trace": true, adds
// direct probes of each layer, prints the per-layer metrics with the
// end-to-end metric each should move, and writes the traced jobs' spans as
// JSONL. Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload small-mix --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// setups is how many times a run boots its stack; setup_s is the median.
// rssJobs is how many quiesced jobs the peak_rss_mb probe serves.
const (
	setups  = 3
	rssJobs = 3
)

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string // JSONL path of the traced run's spans
	quiet    bool   // suppress the human-readable lines (tests)
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: tall-skinny, fleet-tcp or small-mix")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs derive from")
	flag.Float64Var(&o.seconds, "seconds", 25, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run printing per-layer metrics")
	flag.StringVar(&o.spans, "spans", "", "span JSONL of the traced run (default .bench_build/trace/<workload>-seed<n>.jsonl)")
	flag.Parse()
	o.trace = traceFlag == 1
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run: set-up (timed, several times), the
// measured phase or phases, and the result.
func run(o options) (*result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	say := func(format string, args ...any) {
		if !o.quiet {
			fmt.Printf(format+"\n", args...)
		}
	}
	host, _ := json.Marshal(hostFingerprint())
	say("host %s", host)

	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	st, or, setupS, err := setUp(w, o.seed, tmp)
	if err != nil {
		return nil, err
	}
	defer st.close()

	t := &tally{}
	measure := time.Duration(o.seconds * float64(time.Second))
	var values map[string]float64
	var defs []metricDef
	if !o.trace {
		r := &runner{w: w, st: st, or: or, t: t}
		p := r.run(measure)
		values = endToEndValues(p, t, setupS)
		describe(say, w, "measured", p)
		if values["peak_rss_mb"], err = r.rssProbe(rssJobs); err != nil {
			return nil, err
		}
		defs = endToEnd
	} else {
		values, err = tracedRun(o, w, st, or, t, tmp, setupS, say)
		if err != nil {
			return nil, err
		}
		for _, l := range perLayer {
			defs = append(defs, l.metricDef)
		}
	}

	res := &result{
		Correct:   t.failed.Load() == 0 && t.wrong.Load() == 0,
		Attempted: t.attempted.Load(),
		Failed:    t.missed(),
		Metrics:   map[string]metricOut{},
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricOut{Value: orZero(v), Unit: d.Unit}
	}
	if !o.trace {
		for _, d := range defs {
			say("%-22s %14.6g %s", d.Name, res.Metrics[d.Name].Value, d.Unit)
		}
	}
	say("requests: %d attempted, %d refused, %d failed, %d wrong", t.attempted.Load(),
		t.refused.Load(), t.failed.Load(), t.wrong.Load())
	if t.firstBad != "" {
		say("first miss: %s", t.firstBad)
	}
	return res, nil
}

// setUp builds the oracle and boots and warms the stack setups times,
// keeping the last, and returns the median set-up time in seconds.
func setUp(w workload, seed int64, tmp string) (*stack, *oracle, float64, error) {
	var st *stack
	var or *oracle
	var times []float64
	for i := 0; i < setups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, nil, 0, err
			}
		}
		t0 := time.Now()
		var err error
		if or, err = newOracle(w, seed); err != nil {
			return nil, nil, 0, err
		}
		if st, err = boot(w, tmp); err != nil {
			return nil, nil, 0, err
		}
		warm := &runner{w: w, st: st, or: or, t: &tally{}}
		for k := 0; k < w.warmJobs; k++ {
			warm.job(st.cliA, time.Now())
		}
		warm.side(&phase{})
		if warm.t.missed() > 0 {
			st.close()
			return nil, nil, 0, fmt.Errorf("warm-up failed: %s", warm.t.firstBad)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return st, or, median(times), nil
}

// endToEndValues computes the end-to-end metrics of a measured phase.
func endToEndValues(p *phase, t *tally, setupS float64) map[string]float64 {
	lat := p.jobLatMS()
	sec := p.wall.Seconds()
	ok := 1.0
	if a := t.attempted.Load(); a > 0 {
		ok = 1 - float64(t.missed())/float64(a)
	}
	return map[string]float64{
		"gflops":               p.flops / sec / 1e9,
		"jobs_per_s":           p.jobsPerSec(),
		"job_p50_ms":           quantile(lat, 0.5),
		"job_p90_ms":           quantile(lat, 0.9),
		"batch_matrices_per_s": float64(p.batchMats) / p.batchWall.Seconds(),
		"append_p50_ms":        quantile(append([]float64(nil), p.appendLat...), 0.5),
		"append_p90_ms":        quantile(append([]float64(nil), p.appendLat...), 0.9),
		"ok_frac":              ok,
		"setup_s":              setupS,
	}
}

// describe prints the phase's sample counts, which every percentile needs
// beside it.
func describe(say func(string, ...any), w workload, label string, p *phase) {
	loop := "closed loop, 1 client"
	if w.openRate > 0 {
		loop = fmt.Sprintf("open loop at %.0f jobs/s; generator lateness p50 %.3f ms, p90 %.3f ms",
			w.openRate, orZero(quantile(p.late, 0.5)), orZero(quantile(p.late, 0.9)))
	}
	say("%s %s: %d jobs of %dx%d in %.2f s (%s); %d batch matrices, %d appends",
		label, w.name, len(p.jobs), w.job.M, w.job.N, p.wall.Seconds(), loop, p.batchMats, len(p.appendLat))
}

// tracedRun measures half the time untraced and half traced, runs the
// direct probes, and returns every per-layer metric.
func tracedRun(o options, w workload, st *stack, or *oracle, t *tally, tmp string, setupS float64, say func(string, ...any)) (map[string]float64, error) {
	values, err := probes(w, or, tmp)
	if err != nil {
		return nil, err
	}
	half := time.Duration(o.seconds * float64(time.Second) / 2)
	pu := (&runner{w: w, st: st, or: or, t: t}).run(half)
	describe(say, w, "untraced", pu)
	e2e := endToEndValues(pu, t, setupS)

	before, err := scrapeMetrics(st.cliA)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	pt := (&runner{w: w, st: st, or: or, t: t, trace: true}).run(half)
	after, err := scrapeMetrics(st.cliA)
	if err != nil {
		return nil, err
	}
	describe(say, w, "traced", pt)
	for _, s := range pt.completed() {
		if err := spanCheck(s); err != nil {
			t.miss("job", 0, fmt.Errorf("%w: span accounting: %v", errWrong, err))
		}
		if s.traced.drops > 0 {
			t.miss("job", 0, fmt.Errorf("job %d: trace dropped %d events", s.id, s.traced.drops))
		}
	}
	for k, v := range layerValues(w, pt, before, after) {
		values[k] = v
	}
	values["kernels.e2e_over_dtsmqr"] = e2e["gflops"] / values["kernels.dtsmqr_gflops"]
	values["batch.wire_frac"] = 1 - e2e["batch_matrices_per_s"]/values["batch.direct_matrices_per_s"]
	values["session.wire_frac"] = 1 - values["session.engine_append_us"]/(e2e["append_p50_ms"]*1e3)
	values["loadgen.late_p90_ms"] = orZero(quantile(pu.late, 0.9))
	values["service.shed"] = float64(t.refused.Load())
	// The open loop fixes jobs/s at the offered rate, so there the speed
	// that tracing costs is read from the median latency instead.
	if w.openRate > 0 {
		values["trace_overhead_frac"] = 1 - e2e["job_p50_ms"]/quantile(pt.jobLatMS(), 0.5)
	} else {
		values["trace_overhead_frac"] = 1 - pt.jobsPerSec()/e2e["jobs_per_s"]
	}
	if err := writeSpans(o.spans, pt, t0); err != nil {
		return nil, err
	}

	say("untraced end-to-end: gflops %.4g Gflop/s, jobs_per_s %.4g, job_p50_ms %.4g, batch_matrices_per_s %.4g, append_p50_ms %.4g",
		e2e["gflops"], e2e["jobs_per_s"], e2e["job_p50_ms"], e2e["batch_matrices_per_s"], e2e["append_p50_ms"])
	say("spans of %d traced jobs written to %s", len(pt.completed()), o.spans)
	for _, l := range perLayer {
		say("%-36s %14.6g %-8s moves %-20s works on %s", l.Name, orZero(values[l.Name]), l.Unit, l.Moves, l.Where)
	}
	return values, nil
}
