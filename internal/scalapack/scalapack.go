// Package scalapack implements the established baseline the paper compares
// against (§VI-A): a block — not tile — Householder QR in the style of
// LAPACK's dgeqrf / ScaLAPACK's pdgeqrf. The panel is factored
// column-by-column (sequential and latency-bound, the very property that
// caps its strong scaling on tall-skinny matrices), and the trailing
// update, which carries almost all the flops, is applied fork-join in
// parallel over column strips.
package scalapack

import (
	"fmt"
	"sync"

	"pulsarqr/internal/blas"
	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/qr"
)

// Factorization holds a block QR: A = Q·R with the reflectors packed below
// the diagonal of A and the T factors per panel.
type Factorization struct {
	M, N, NB int
	A        *matrix.Mat // packed R + reflectors
	Ts       []*matrix.Mat
}

// Factorize computes the block QR of a in place with panel width nb, using
// `workers` goroutines for the trailing update. The panel factorization is
// intentionally sequential, mirroring the baseline's bottleneck.
func Factorize(a *matrix.Mat, nb, workers int) (*Factorization, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, fmt.Errorf("scalapack: matrix is %dx%d; require m >= n", m, n)
	}
	if nb <= 0 {
		return nil, fmt.Errorf("scalapack: panel width %d", nb)
	}
	if workers < 1 {
		workers = 1
	}
	f := &Factorization{M: m, N: n, NB: nb, A: a}
	tau := make([]float64, nb)
	for j := 0; j < n; j += nb {
		sb := min(nb, n-j)
		panel := a.View(j, j, m-j, sb)
		kb := min(m-j, sb)
		kernels.Dgeqr2(panel, tau[:kb])
		t := matrix.New(kb, kb)
		kernels.Dlarft(panel, tau[:kb], t)
		f.Ts = append(f.Ts, t)
		if j+sb < n {
			applyParallel(true, panel, t, a.View(j, j+sb, m-j, n-j-sb), workers)
		}
	}
	return f, nil
}

// applyParallel applies the block reflector to c, fork-join over column
// strips — the classical bulk-synchronous update of the block algorithm.
func applyParallel(trans bool, v, t, c *matrix.Mat, workers int) {
	n := c.Cols
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	strip := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * strip
		if lo >= n {
			break
		}
		hi := min(lo+strip, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			kernels.Dlarfb(trans, v, t, c.View(0, lo, c.Rows, hi-lo))
		}(lo, hi)
	}
	wg.Wait()
}

// R returns the n×n upper-triangular factor.
func (f *Factorization) R() *matrix.Mat {
	r := matrix.New(f.N, f.N)
	for j := 0; j < f.N; j++ {
		for i := 0; i <= j; i++ {
			r.Set(i, j, f.A.At(i, j))
		}
	}
	return r
}

// ApplyQT overwrites b (m×nrhs) with Qᵀ·b.
func (f *Factorization) ApplyQT(b *matrix.Mat, workers int) { f.apply(b, true, workers) }

// ApplyQ overwrites b with Q·b.
func (f *Factorization) ApplyQ(b *matrix.Mat, workers int) { f.apply(b, false, workers) }

func (f *Factorization) apply(b *matrix.Mat, trans bool, workers int) {
	if b.Rows != f.M {
		panic(fmt.Sprintf("scalapack: rhs has %d rows, want %d", b.Rows, f.M))
	}
	np := len(f.Ts)
	for idx := 0; idx < np; idx++ {
		pi := idx
		if !trans {
			pi = np - 1 - idx
		}
		j := pi * f.NB
		sb := min(f.NB, f.N-j)
		panel := f.A.View(j, j, f.M-j, sb)
		applyParallel(trans, panel, f.Ts[pi], b.View(j, 0, f.M-j, b.Cols), workers)
	}
}

// Solve returns the least-squares solution of min‖A·x − b‖₂.
func (f *Factorization) Solve(b *matrix.Mat, workers int) *matrix.Mat {
	c := b.Clone()
	f.ApplyQT(c, workers)
	x := c.View(0, 0, f.N, b.Cols).Clone()
	r := f.R()
	blas.Dtrsm(true, true, false, false, f.N, b.Cols, 1, r.Data, r.LD, x.Data, x.LD)
	return x
}

// Residual returns ‖AᵀA − RᵀR‖_F/‖AᵀA‖_F against the original matrix.
// It is the tile QR's qr.GramResidual, run inline.
func (f *Factorization) Residual(orig *matrix.Mat) float64 {
	return qr.GramResidual(orig, f.R(), nil)
}
