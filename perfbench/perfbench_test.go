package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"pulsarqr/internal/batch"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/obs"
	"pulsarqr/internal/service"
	"pulsarqr/internal/session"
)

func smallOracle(t *testing.T, seed int64) *oracle {
	t.Helper()
	w, err := findWorkload("small-mix")
	if err != nil {
		t.Fatal(err)
	}
	o, err := newOracle(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func rowsOf(m *matrix.Mat) [][]float64 {
	rows := make([][]float64, m.Rows)
	for i := range rows {
		for j := 0; j < m.Cols; j++ {
			rows[i] = append(rows[i], m.At(i, j))
		}
	}
	return rows
}

// TestCheckerRejectsOneULP: a single entry of R one ulp off is a wrong
// result, for job views and for batch and session results alike.
func TestCheckerRejectsOneULP(t *testing.T) {
	o := smallOracle(t, 1)
	want := o.jobR[o.jobSeeds[0]]
	rows := rowsOf(want)
	if err := checkRows(rows, want); err != nil {
		t.Fatalf("exact R rejected: %v", err)
	}
	rows[3][5] = math.Nextafter(rows[3][5], math.Inf(1))
	if err := checkRows(rows, want); !errors.Is(err, errWrong) {
		t.Fatalf("R one ulp off: got %v, want a wrong-result error", err)
	}

	got := o.batchR[0].Clone()
	if err := checkMat(got, o.batchR[0]); err != nil {
		t.Fatalf("exact batch R rejected: %v", err)
	}
	got.Set(0, 0, math.Nextafter(got.At(0, 0), 0))
	if err := checkMat(got, o.batchR[0]); !errors.Is(err, errWrong) {
		t.Fatalf("batch R one ulp off: got %v, want a wrong-result error", err)
	}
}

// TestCheckerRejectsShortStreams: a batch or append stream that returns
// fewer results than it was sent, by trailer or by frames received, fails.
func TestCheckerRejectsShortStreams(t *testing.T) {
	if err := checkBatchTrailer(batch.Trailer{Done: 256}, 256, 256); err != nil {
		t.Fatalf("complete batch rejected: %v", err)
	}
	for _, c := range []struct {
		tr       batch.Trailer
		received int
	}{
		{batch.Trailer{Done: 255}, 255},
		{batch.Trailer{Done: 256}, 255},
		{batch.Trailer{Done: 255, Shed: 1}, 255},
	} {
		if err := checkBatchTrailer(c.tr, c.received, 256); !errors.Is(err, errWrong) {
			t.Errorf("short batch %+v received %d: got %v, want a wrong-result error", c.tr, c.received, err)
		}
	}
	if err := checkAppendTrailer(session.Trailer{Done: 0}, 0, 1); !errors.Is(err, errWrong) {
		t.Errorf("empty append reply: got %v, want a wrong-result error", err)
	}
}

// TestSeedChangesInputs: another seed gives other inputs, the same seed the
// same ones.
func TestSeedChangesInputs(t *testing.T) {
	a, b, a2 := smallOracle(t, 1), smallOracle(t, 2), smallOracle(t, 1)
	if a.jobSeeds[0] == b.jobSeeds[0] || checkMat(a.batchIn[0], b.batchIn[0]) == nil ||
		checkMat(a.sessBlocks[0][0], b.sessBlocks[0][0]) == nil {
		t.Fatal("seeds 1 and 2 produced the same inputs")
	}
	if a.jobSeeds[0] != a2.jobSeeds[0] || checkMat(a.batchIn[7], a2.batchIn[7]) != nil ||
		checkMat(a.sessR[1][3], a2.sessR[1][3]) != nil {
		t.Fatal("seed 1 produced different inputs on two calls")
	}
}

// TestSpanCheck: the traced run's accounting check accepts spans that
// telescope and rejects ones that do not add up.
func TestSpanCheck(t *testing.T) {
	now := time.Now()
	good := jobSample{id: 1, view: service.JobView{ElapsedMS: 8, Spans: &obs.SpanReport{
		QueueWaitMS: 1, DispatchMS: 2, RunMS: 10, GatherMS: 0, TotalMS: 13}},
		submit: [2]time.Time{now, now.Add(15 * time.Millisecond)}}
	if err := spanCheck(good); err != nil {
		t.Fatalf("consistent spans rejected: %v", err)
	}
	bad := good
	sp := *good.view.Spans
	sp.TotalMS = 14
	bad.view.Spans = &sp
	if spanCheck(bad) == nil {
		t.Error("spans summing to 13 ms of a 14 ms total accepted")
	}
	slow := good
	slow.view.ElapsedMS = 11
	if spanCheck(slow) == nil {
		t.Error("factorization longer than its run span accepted")
	}
}

type benchFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestDefinitionsMatchBenchmarkJSON: the metrics the program prints are
// exactly the ones BENCHMARK.json declares, with the same units.
func TestDefinitionsMatchBenchmarkJSON(t *testing.T) {
	bf := readBenchmarkJSON(t)
	var layers []metricDef
	for _, l := range perLayer {
		layers = append(layers, l.metricDef)
	}
	for _, c := range []struct {
		name      string
		file, src []metricDef
	}{{"end_to_end", bf.EndToEnd, endToEnd}, {"per_layer", bf.PerLayer, layers}} {
		if len(c.file) != len(c.src) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", c.name, len(c.file), len(c.src))
		}
		for i := range c.file {
			if c.file[i] != c.src[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", c.name, i, c.file[i], c.src[i])
			}
		}
	}
}

func names(m map[string]metricOut) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func defNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

func runQuiet(t *testing.T, workload string, seed int64, seconds float64, trace bool) *result {
	t.Helper()
	res, err := run(options{workload: workload, seed: seed, seconds: seconds, trace: trace, quiet: true,
		spans: filepath.Join(t.TempDir(), "spans.jsonl")})
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s seed %d: correct=%v attempted=%d failed=%d", workload, seed, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// TestSeedKeepsMetricSet: runs with different seeds print the same metric
// set, the end-to-end metrics of BENCHMARK.json.
func TestSeedKeepsMetricSet(t *testing.T) {
	want := defNames(readBenchmarkJSON(t).EndToEnd)
	for _, seed := range []int64{1, 2} {
		got := names(runQuiet(t, "small-mix", seed, 0.5, false).Metrics)
		if len(got) != len(want) {
			t.Fatalf("seed %d printed %v, want %v", seed, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d printed %v, want %v", seed, got, want)
			}
		}
	}
}

// TestTracedSingleRankHasNoTransport: the traced run of each single-rank
// workload prints every per-layer metric, passes its span accounting checks
// (a failed check would make the run incorrect), and reports exactly zero
// transport messages per job.
func TestTracedSingleRankHasNoTransport(t *testing.T) {
	workloads := []string{"small-mix"}
	if !testing.Short() {
		workloads = append(workloads, "tall-skinny")
	}
	want := defNames(readBenchmarkJSON(t).PerLayer)
	for _, w := range workloads {
		res := runQuiet(t, w, 3, 1, true)
		if got := names(res.Metrics); len(got) != len(want) {
			t.Fatalf("%s traced run printed %d metrics, want %d", w, len(got), len(want))
		}
		for _, m := range []string{"transport.msgs_per_job", "transport.bytes_per_job"} {
			if v := res.Metrics[m].Value; v != 0 {
				t.Errorf("%s: %s = %v, want exactly 0", w, m, v)
			}
		}
	}
}
