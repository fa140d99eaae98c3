package qr_test

import (
	"math"
	"math/rand"
	"testing"

	"pulsarqr/internal/matrix"
	"pulsarqr/internal/qr"
	"pulsarqr/internal/scalapack"
)

// TestCrossValidateAgainstBlockQR compares the tree-based tile QR against
// the completely independent LAPACK-style block algorithm: |R| must agree
// entrywise (R is unique up to row signs for a full-rank matrix). It lives
// in the external test package because scalapack imports qr.
func TestCrossValidateAgainstBlockQR(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	m, n := 57, 18
	d := matrix.NewRand(m, n, rng)
	o := qr.Options{NB: 8, IB: 4, Tree: qr.HierarchicalTree, H: 3}
	tile, err := qr.Factorize(matrix.FromDense(d, o.NB), nil, o)
	if err != nil {
		t.Fatal(err)
	}
	block, err := scalapack.Factorize(d.Clone(), 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	rt, rb := tile.R(), block.R()
	for j := 0; j < n; j++ {
		for i := 0; i <= j; i++ {
			if diff := math.Abs(math.Abs(rt.At(i, j)) - math.Abs(rb.At(i, j))); diff > 1e-11 {
				t.Fatalf("|R(%d,%d)| differs between tile and block QR by %v", i, j, diff)
			}
		}
	}
}
