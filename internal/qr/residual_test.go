package qr

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"pulsarqr/internal/matrix"
	"pulsarqr/internal/pulsar"
)

// naiveResidual is the textbook ‖AᵀA − RᵀR‖_F/‖AᵀA‖_F through explicit
// transposes and the scalar matrix.Mul loop: the oracle GramResidual is
// checked against.
func naiveResidual(a, r *matrix.Mat) float64 {
	ata := a.Transpose().Mul(a)
	rtr := r.Transpose().Mul(r)
	return ata.Sub(rtr).FrobNorm() / ata.FrobNorm()
}

// residualCase factors a seeded random m×n matrix and returns it with its R.
func residualCase(t testing.TB, m, n int, seed int64) (a, r *matrix.Mat) {
	a = matrix.NewRand(m, n, rand.New(rand.NewSource(seed)))
	o := Options{NB: 64, IB: 16, Tree: HierarchicalTree, H: 4}
	f, err := Factorize(matrix.FromDense(a, o.NB), nil, o)
	if err != nil {
		t.Fatal(err)
	}
	return a, f.R()
}

var residualShapes = []struct {
	m, n  int
	large bool // skipped under -short
}{
	{300, 20, false},   // below one block
	{5000, 8, false},   // several blocks, m not a multiple of the block
	{3001, 1, false},   // n = 1
	{64, 64, false},    // m = n
	{256, 64, false},   // small-mix workload
	{2048, 256, true},  // fleet-tcp workload
	{32768, 128, true}, // tall-skinny workload
}

func TestGramResidualMatchesNaive(t *testing.T) {
	for i, s := range residualShapes {
		if s.large && testing.Short() {
			continue
		}
		a, r := residualCase(t, s.m, s.n, int64(i+1))
		// The exact R scores ~1e-16; a perturbed R scores ~2e-6, so the
		// comparison also covers a residual far from zero.
		bad := r.Clone()
		for k := range bad.Data {
			bad.Data[k] *= 1 + 1e-6
		}
		for _, rr := range []*matrix.Mat{r, bad} {
			got, want := GramResidual(a, rr, nil), naiveResidual(a, rr)
			if math.Abs(got-want) > 1e-13 || math.IsNaN(got) {
				t.Errorf("%dx%d: GramResidual %g, naive %g", s.m, s.n, got, want)
			}
		}
	}
}

func TestGramResidualBitwiseAcrossPools(t *testing.T) {
	for i, s := range residualShapes {
		if s.large && testing.Short() {
			continue
		}
		a, r := residualCase(t, s.m, s.n, int64(i+1))
		inline := GramResidual(a, r, nil)
		for _, threads := range []int{1, 2, 4} {
			p := pulsar.NewPool(threads, nil)
			got := GramResidual(a, r, p)
			p.Close()
			if math.Float64bits(got) != math.Float64bits(inline) {
				t.Errorf("%dx%d on %d workers: %v, inline %v", s.m, s.n, threads, got, inline)
			}
		}
	}
}

func TestGramResidualOnClosedPool(t *testing.T) {
	a, r := residualCase(t, 5000, 8, 2)
	p := pulsar.NewPool(2, nil)
	p.Close()
	if got, want := GramResidual(a, r, p), GramResidual(a, r, nil); got != want {
		t.Fatalf("closed pool: %v, inline %v", got, want)
	}
}

func TestGramBlockRowsBoundsPartials(t *testing.T) {
	for _, m := range []int{1, 7, 511, 512, 1024, 2048, 5000, 32768, 1 << 20} {
		for _, n := range []int{1, 8, 64, 128, 256, 1024} {
			if n > m {
				continue
			}
			rows := gramBlockRows(m, n)
			blocks := (m + rows - 1) / rows
			if rows < 1 || blocks < 1 || blocks > gramMaxBlocks || (blocks-1)*rows >= m {
				t.Errorf("%dx%d: rows %d, blocks %d", m, n, rows, blocks)
			}
			if extra := (blocks - 1) * n * n; 4*extra > m*n {
				t.Errorf("%dx%d: %d blocks keep %d partial entries, over a quarter of A", m, n, blocks, extra)
			}
		}
	}
	if rows := gramBlockRows(1024, 1024); rows != 1024 {
		t.Errorf("square matrix split into %d-row blocks", rows)
	}
}

func TestGramResidualZeroAndNonFinite(t *testing.T) {
	zero := matrix.New(256, 64)
	o := Options{NB: 64, IB: 16}
	f, err := Factorize(matrix.FromDense(zero, o.NB), nil, o)
	if err != nil {
		t.Fatal(err)
	}
	if res := f.Residual(zero); res != 0 {
		t.Errorf("all-zero matrix: residual %v, want 0", res)
	}
	if f.R().MaxAbs() != 0 {
		t.Errorf("all-zero matrix: R not zero")
	}
	if res := GramResidual(zero, matrix.Identity(64), nil); !math.IsInf(res, 1) {
		t.Errorf("all-zero matrix with a nonzero R: residual %v, want +Inf", res)
	}

	// Non-finite input must never pass a tolerance check, zero or not.
	a, r := residualCase(t, 5000, 8, 3)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, base := range []*matrix.Mat{a, zero} {
			bad := base.Clone()
			bad.Set(bad.Rows/2, bad.Cols-1, v)
			rr := r
			if base == zero {
				rr = matrix.New(zero.Cols, zero.Cols)
			}
			if res := GramResidual(bad, rr, nil); !(math.IsNaN(res) || math.IsInf(res, 1)) {
				t.Errorf("%v in A (%dx%d): residual %v passes", v, bad.Rows, bad.Cols, res)
			}
		}
		badR := r.Clone()
		badR.Set(0, r.Cols-1, v)
		if res := GramResidual(a, badR, nil); !(math.IsNaN(res) || math.IsInf(res, 1)) {
			t.Errorf("%v in R: residual %v passes", v, res)
		}
	}
}

func BenchmarkResidual(b *testing.B) {
	for _, s := range [][2]int{{32768, 128}, {2048, 256}} {
		a, r := residualCase(b, s[0], s[1], 1)
		pool := pulsar.NewPool(runtime.GOMAXPROCS(0), nil)
		for _, c := range []struct {
			name string
			pool *pulsar.Pool
		}{{"inline", nil}, {"pool", pool}} {
			b.Run(fmt.Sprintf("%dx%d/%s", s[0], s[1], c.name), func(b *testing.B) {
				var res float64
				for i := 0; i < b.N; i++ {
					res = GramResidual(a, r, c.pool)
				}
				if !(res <= 1e-13) {
					b.Fatalf("residual %v", res)
				}
				flops := 2 * float64(s[0]) * float64(s[1]) * float64(s[1])
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
			})
		}
		pool.Close()
	}
}
