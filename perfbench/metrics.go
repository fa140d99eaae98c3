package main

import (
	"math"
	"sort"
)

// metricDef is one metric of the benchmark as BENCHMARK.json declares it.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd are the metrics a user of the service sees; the untraced run
// prints every one of them on every workload.
var endToEnd = []metricDef{
	{"gflops", "Gflop/s", "higher"},
	{"jobs_per_s", "1/s", "higher"},
	{"job_p50_ms", "ms", "lower"},
	{"job_p90_ms", "ms", "lower"},
	{"batch_matrices_per_s", "1/s", "higher"},
	{"append_p50_ms", "ms", "lower"},
	{"append_p90_ms", "ms", "lower"},
	{"ok_frac", "ratio", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// layerDef is a per-layer metric of the traced run: which end-to-end metric
// it should move, and on which workloads its layer does the work.
type layerDef struct {
	metricDef
	Moves string // end-to-end metric it should move; "-" for informational
	Where string // workloads where the layer works / where it should not move
}

var perLayer = []layerDef{
	{metricDef{"kernels.dgeqrt_gflops", "Gflop/s", "higher"}, "job_p50_ms, gflops", "tall-skinny / not small-mix"},
	{metricDef{"kernels.dtsqrt_gflops", "Gflop/s", "higher"}, "job_p50_ms, gflops", "tall-skinny / not small-mix"},
	{metricDef{"kernels.dttqrt_gflops", "Gflop/s", "higher"}, "job_p50_ms, gflops", "tall-skinny / not small-mix"},
	{metricDef{"kernels.dormqr_gflops", "Gflop/s", "higher"}, "gflops", "fleet-tcp, tall-skinny / not small-mix"},
	{metricDef{"kernels.dtsmqr_gflops", "Gflop/s", "higher"}, "gflops", "fleet-tcp, tall-skinny / not small-mix"},
	{metricDef{"kernels.dttmqr_gflops", "Gflop/s", "higher"}, "gflops", "fleet-tcp, tall-skinny / not small-mix"},
	{metricDef{"blas.gemm_gflops", "Gflop/s", "higher"}, "gflops", "fleet-tcp, tall-skinny / not small-mix"},
	{metricDef{"kernels.busy_ms.panel", "ms", "lower"}, "job_p50_ms", "tall-skinny"},
	{metricDef{"kernels.busy_ms.update", "ms", "lower"}, "job_p50_ms", "tall-skinny"},
	{metricDef{"kernels.busy_ms.binary", "ms", "lower"}, "job_p50_ms", "tall-skinny"},
	{metricDef{"kernels.busy_ms.binary-update", "ms", "lower"}, "job_p50_ms", "tall-skinny"},
	{metricDef{"kernels.e2e_over_dtsmqr", "ratio", "higher"}, "-", "tall-skinny, fleet-tcp"},
	{metricDef{"runtime.factor_ms", "ms", "lower"}, "job_p50_ms", "all"},
	{metricDef{"runtime.factor_gflops", "Gflop/s", "higher"}, "job_p50_ms", "all"},
	{metricDef{"runtime.firings_per_job", "count", "lower"}, "job_p50_ms", "all"},
	{metricDef{"runtime.overhead_ms", "ms", "lower"}, "job_p50_ms", "small-mix, fleet-tcp / little on tall-skinny"},
	{metricDef{"runtime.worker_wait_ms", "ms", "lower"}, "job_p50_ms", "small-mix, fleet-tcp / little on tall-skinny"},
	{metricDef{"runtime.fire_ns", "ns", "lower"}, "job_p50_ms", "small-mix, tall-skinny"},
	{metricDef{"runtime.fire_allocs", "allocs", "lower"}, "job_p50_ms", "small-mix, tall-skinny"},
	{metricDef{"runtime.systolic_over_sequential", "ratio", "lower"}, "job_p50_ms", "small-mix, tall-skinny"},
	{metricDef{"transport.msgs_per_job", "count", "lower"}, "job_p50_ms", "fleet-tcp / exactly 0 on single-rank workloads"},
	{metricDef{"transport.bytes_per_job", "B", "lower"}, "job_p50_ms", "fleet-tcp / exactly 0 on single-rank workloads"},
	{metricDef{"transport.comm_ms", "ms", "lower"}, "job_p50_ms", "fleet-tcp / exactly 0 on single-rank workloads"},
	{metricDef{"transport.barrier_wait_ms", "ms", "lower"}, "job_p50_ms", "fleet-tcp / exactly 0 on single-rank workloads"},
	{metricDef{"transport.local.alpha_us", "us", "lower"}, "job_p50_ms", "fleet-tcp"},
	{metricDef{"transport.local.beta_ns_per_kib", "ns/KiB", "lower"}, "job_p50_ms", "fleet-tcp"},
	{metricDef{"transport.tcp.alpha_us", "us", "lower"}, "job_p50_ms", "fleet-tcp"},
	{metricDef{"transport.tcp.beta_ns_per_kib", "ns/KiB", "lower"}, "job_p50_ms", "fleet-tcp"},
	{metricDef{"transport.mux.alpha_us", "us", "lower"}, "job_p50_ms", "fleet-tcp"},
	{metricDef{"transport.mux.beta_ns_per_kib", "ns/KiB", "lower"}, "job_p50_ms", "fleet-tcp"},
	{metricDef{"service.queue_wait_ms", "ms", "lower"}, "job_p50_ms", "small-mix"},
	{metricDef{"service.dispatch_ms", "ms", "lower"}, "job_p50_ms", "tall-skinny, fleet-tcp"},
	{metricDef{"service.verify_ms", "ms", "lower"}, "job_p50_ms", "tall-skinny, fleet-tcp"},
	{metricDef{"service.gather_ms", "ms", "lower"}, "job_p50_ms", "fleet-tcp"},
	{metricDef{"service.http_ms", "ms", "lower"}, "job_p50_ms", "small-mix"},
	{metricDef{"service.shed", "count", "lower"}, "job_p50_ms", "small-mix"},
	{metricDef{"batch.direct_matrices_per_s", "1/s", "higher"}, "batch_matrices_per_s", "small-mix"},
	{metricDef{"batch.wire_frac", "ratio", "lower"}, "batch_matrices_per_s", "small-mix"},
	{metricDef{"session.engine_append_us", "us", "lower"}, "append_p50_ms", "small-mix"},
	{metricDef{"session.checkpoint_ms", "ms", "lower"}, "append_p50_ms", "small-mix"},
	{metricDef{"session.wire_frac", "ratio", "lower"}, "append_p50_ms", "small-mix"},
	{metricDef{"loadgen.late_p90_ms", "ms", "lower"}, "job_p90_ms", "small-mix / exactly 0 on closed loops"},
	{metricDef{"trace_overhead_frac", "ratio", "lower"}, "-", "all"},
}

// quantile returns the q-quantile of xs (0 ≤ q ≤ 1) by the nearest-rank
// rule: the smallest sample with at least q of the samples at or below it.
// xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// orZero maps the NaN of an empty sample to 0, for per-layer metrics whose
// layer did no work in a workload (transport on a single rank).
func orZero(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
