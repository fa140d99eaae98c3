package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"pulsarqr/internal/batch"
	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/qr"
	"pulsarqr/internal/session"
)

// Side traffic shared by every workload: batch streams of small square
// matrices and bursts of appends to a durable streaming session.
const (
	batchDim     = 32  // batch matrices are batchDim×batchDim
	batchPool    = 512 // distinct batch inputs, cycled through
	batchPerCall = 256 // matrices per POST /v1/batch
	sessN        = 64  // session column count; blocks are sessN×sessN
	sessPatterns = 4   // distinct append bursts, cycled through
	sessBurst    = 16  // appends per burst (one session per burst)
)

// oracle holds the workload's inputs and their expected results, computed
// in set-up with the sequential reference engines: jobs cycle through
// jobSeeds, batches through batchIn, append bursts through sessBlocks.
type oracle struct {
	jobSeeds []int64
	jobR     map[int64]*matrix.Mat

	batchIn []*matrix.Mat
	batchR  []*matrix.Mat

	sessBlocks [][]*matrix.Mat
	sessR      [][]*matrix.Mat // sessR[p][k]: session R after k+1 blocks of pattern p
}

// newOracle derives every input from seed and computes its reference result:
// qr.Factorize for jobs, batch.Factor for batch matrices, and a local
// qr.Streamer replay for session bursts.
func newOracle(w workload, seed int64) (*oracle, error) {
	rng := rand.New(rand.NewSource(seed))
	o := &oracle{jobR: map[int64]*matrix.Mat{}}
	for i := 0; i < w.jobSeeds; i++ {
		s := rng.Int63()
		spec := w.job
		spec.Seed = s
		a, _, err := spec.BuildInputs()
		if err != nil {
			return nil, err
		}
		opts, err := spec.Options()
		if err != nil {
			return nil, err
		}
		f, err := qr.Factorize(a, nil, opts)
		if err != nil {
			return nil, fmt.Errorf("oracle for seed %d: %w", s, err)
		}
		o.jobSeeds = append(o.jobSeeds, s)
		o.jobR[s] = f.R()
	}
	for i := 0; i < batchPool; i++ {
		in := matrix.NewRand(batchDim, batchDim, rng)
		r := in.Clone()
		if err := batch.Factor(r); err != nil {
			return nil, err
		}
		o.batchIn = append(o.batchIn, in)
		o.batchR = append(o.batchR, r)
	}
	ws := kernels.NewWorkspace()
	for p := 0; p < sessPatterns; p++ {
		str, err := qr.NewStreamer(sessN, 0, qr.Options{})
		if err != nil {
			return nil, err
		}
		var blocks, rs []*matrix.Mat
		for k := 0; k < sessBurst; k++ {
			b := matrix.NewRand(sessN, sessN, rng)
			nd, err := str.LeafReduce(ws, b.Clone(), nil)
			if err != nil {
				return nil, err
			}
			str.Commit(ws, nd)
			blocks = append(blocks, b)
			rs = append(rs, str.Current(ws, nil).R)
		}
		o.sessBlocks = append(o.sessBlocks, blocks)
		o.sessR = append(o.sessR, rs)
	}
	return o, nil
}

// batchSlice returns the inputs of the i-th batch call.
func (o *oracle) batchSlice(i int) []*matrix.Mat {
	mats := make([]*matrix.Mat, batchPerCall)
	for k := range mats {
		mats[k] = o.batchIn[(i*batchPerCall+k)%batchPool]
	}
	return mats
}

// batchWant is the expected R of element k of the i-th batch call.
func (o *oracle) batchWant(i, k int) *matrix.Mat {
	return o.batchR[(i*batchPerCall+k)%batchPool]
}

// errWrong marks a result that differs from the oracle, as opposed to a
// request that failed outright.
var errWrong = errors.New("wrong result")

// checkRows requires the row-major R a job view carries to equal want
// bit for bit.
func checkRows(got [][]float64, want *matrix.Mat) error {
	if len(got) != want.Rows {
		return fmt.Errorf("%w: R has %d rows, want %d", errWrong, len(got), want.Rows)
	}
	for i, row := range got {
		if len(row) != want.Cols {
			return fmt.Errorf("%w: R row %d has %d entries, want %d", errWrong, i, len(row), want.Cols)
		}
		for j, v := range row {
			if math.Float64bits(v) != math.Float64bits(want.At(i, j)) {
				return fmt.Errorf("%w: R[%d][%d] = %v, want %v", errWrong, i, j, v, want.At(i, j))
			}
		}
	}
	return nil
}

// checkMat requires got to equal want bit for bit.
func checkMat(got, want *matrix.Mat) error {
	if got == nil || got.Rows != want.Rows || got.Cols != want.Cols {
		return fmt.Errorf("%w: R shape mismatch, want %dx%d", errWrong, want.Rows, want.Cols)
	}
	for j := 0; j < want.Cols; j++ {
		for i := 0; i < want.Rows; i++ {
			if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
				return fmt.Errorf("%w: R[%d][%d] = %v, want %v", errWrong, i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
	return nil
}

// checkBatchTrailer requires a batch stream to have returned every matrix:
// the trailer's count (whose checksum the client reader already verified
// against the received bytes) and the results actually received.
func checkBatchTrailer(tr batch.Trailer, received, sent int) error {
	if tr.Done != sent || tr.Shed != 0 || received != sent {
		return fmt.Errorf("%w: batch returned done=%d shed=%d received=%d of %d", errWrong, tr.Done, tr.Shed, received, sent)
	}
	return nil
}

// checkAppendTrailer is checkBatchTrailer for an append stream.
func checkAppendTrailer(tr session.Trailer, received, sent int) error {
	if tr.Done != sent || tr.Shed != 0 || received != sent {
		return fmt.Errorf("%w: append stream committed done=%d shed=%d received=%d of %d", errWrong, tr.Done, tr.Shed, received, sent)
	}
	return nil
}
