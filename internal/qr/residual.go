package qr

import (
	"math"
	"sync"

	"pulsarqr/internal/blas"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/pulsar"
)

// Gram row blocking. The Gram product AᵀA = Σ_b A_bᵀ·A_b is split into row
// blocks A_b so a pool can compute the partials concurrently. The block
// height depends only on (m, n): never on the worker count, so the partials
// — each one blocked Dgemm with a fixed shape — and their sum in block order
// are bitwise the same whether the blocks run inline or on any pool.
const (
	gramMinRows   = 512 // shortest block worth a task of its own
	gramMaxBlocks = 16  // task count cap for very tall matrices
)

// gramBlockRows returns the row-block height for an m×n Gram product. A
// matrix splits only when m ≫ n: the extra n×n partials of a split are kept
// within a quarter of A's own bytes (blocks ≤ m/4n), so square jobs never
// grow their peak memory.
func gramBlockRows(m, n int) int {
	blocks := min(m/(4*max(n, 1)), m/gramMinRows, gramMaxBlocks)
	if blocks <= 1 {
		return max(m, 1)
	}
	return (m + blocks - 1) / blocks
}

// GramResidual returns the relative Gram residual ‖AᵀA − RᵀR‖_F/‖AᵀA‖_F of
// an R factor of a, a factorization-quality check that does not need Q.
// Only the upper triangle of r is read. An all-zero a with an all-zero R
// scores 0; an all-zero a with any other R scores +Inf. A NaN or Inf in a or
// in r's upper triangle yields NaN or Inf, never a passing value.
//
// AᵀA is summed from row blocks (see gramBlockRows). With a nil pool the
// blocks run inline; otherwise a matrix of two or more blocks hands them to
// pool via Exec and waits, while a single-block matrix still runs inline so
// a small job never queues behind other work on the pool. The result is
// bitwise identical either way.
func GramResidual(a, r *matrix.Mat, pool *pulsar.Pool) float64 {
	m, n := a.Rows, a.Cols
	rows := gramBlockRows(m, n)
	blocks := (m + rows - 1) / rows
	// Block 0 lands in g itself; every later block gets its own partial.
	g := matrix.New(n, n)
	parts := make([]float64, max(blocks-1, 0)*n*n)
	block := func(b int) {
		i0 := b * rows
		dst := g.Data
		if b > 0 {
			dst = parts[(b-1)*n*n : b*n*n]
		}
		blas.Dgemm(true, false, n, n, min(rows, m-i0), 1, a.Data[i0:], a.LD,
			a.Data[i0:], a.LD, 0, dst, n)
	}
	if pool == nil || blocks < 2 {
		for b := 0; b < blocks; b++ {
			block(b)
		}
	} else {
		var wg sync.WaitGroup
		wg.Add(blocks)
		for b := 0; b < blocks; b++ {
			task := func(any) { defer wg.Done(); block(b) }
			if !pool.Exec(task) {
				task(nil) // pool closed: finish the block here
			}
		}
		wg.Wait()
	}
	for b := 1; b < blocks; b++ {
		p := parts[(b-1)*n*n : b*n*n]
		for i := range p {
			g.Data[i] += p[i]
		}
	}

	// RᵀR on the triangular product, then AᵀA − RᵀR in place.
	rtr := r.UpperTriangle()
	blas.Dtrmm(true, true, true, false, n, n, 1, r.Data, r.LD, rtr.Data, rtr.LD)
	gNorm := g.FrobNorm()
	for i := range g.Data {
		g.Data[i] -= rtr.Data[i]
	}
	diff := g.FrobNorm()
	if gNorm == 0 {
		if diff == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return diff / gNorm
}
