// Command qrnode is one rank of a distributed tree-based QR factorization:
// N qrnode processes — one per rank — join a TCP mesh, build the identical
// 3D virtual systolic array, and each executes its own share of the VDPs.
// Rank 0 gathers the result, reports metrics, and can verify the factored
// tiles elementwise against the sequential reference (-check).
//
// Every rank derives the same input matrix from -seed, so no matrix data
// needs to be distributed out of band.
//
// Example (two ranks on one machine; or use `qrfactor -launch 2`):
//
//	qrnode -rank 0 -peers 127.0.0.1:9001,127.0.0.1:9002 -m 4096 -n 512 &
//	qrnode -rank 1 -peers 127.0.0.1:9001,127.0.0.1:9002 -m 4096 -n 512
//
// The -rank and -peers flags fall back to the QRNODE_RANK, QRNODE_PEERS
// (and QRNODE_NODES, for a consistency check) environment variables, the
// rendezvous convention process launchers usually want.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pulsarqr"
	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/qr"
	"pulsarqr/internal/trace"
	"pulsarqr/internal/transport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("qrnode: ")
	var (
		rank    = flag.Int("rank", -1, "this process's rank (env QRNODE_RANK)")
		peers   = flag.String("peers", "", "comma-separated host:port of every rank, own rank included (env QRNODE_PEERS)")
		nodes   = flag.Int("nodes", 0, "expected world size; 0 = len(peers) (env QRNODE_NODES)")
		m       = flag.Int("m", 4096, "rows")
		n       = flag.Int("n", 256, "columns")
		nb      = flag.Int("nb", 64, "tile size")
		ib      = flag.Int("ib", 16, "inner block size")
		tree    = flag.String("tree", "hierarchical", "reduction tree: hierarchical|flat|binary")
		h       = flag.Int("h", 4, "tiles per flat-tree domain (hierarchical)")
		threads = flag.Int("threads", 4, "worker threads on this rank")
		lazy    = flag.Bool("lazy", true, "lazy VDP scheduling (false = aggressive)")
		seed    = flag.Int64("seed", 42, "matrix seed (identical on every rank)")
		rhs     = flag.Int("rhs", 0, "ride-along right-hand-side columns")
		check   = flag.Bool("check", false, "rank 0: verify elementwise against the sequential reference")
		rdv     = flag.Duration("rendezvous", 30*time.Second, "mesh setup timeout")
		recon   = flag.Duration("reconnect", 0, "survive transient link drops: redial dead connections for up to this long (0 = fail fast; must match on every rank)")
		hbeat   = flag.Duration("heartbeat", 0, "probe idle links at this interval and declare silent peers dead (0 = off; requires -reconnect)")
		trFile  = flag.String("trace", "", "record an execution trace; rank 0 gathers every rank's shard into this JSONL file")
	)
	flag.Parse()

	if *rank < 0 {
		if v := os.Getenv("QRNODE_RANK"); v != "" {
			r, err := strconv.Atoi(v)
			if err != nil {
				log.Fatalf("QRNODE_RANK: %v", err)
			}
			*rank = r
		}
	}
	if *peers == "" {
		*peers = os.Getenv("QRNODE_PEERS")
	}
	if *nodes == 0 {
		if v := os.Getenv("QRNODE_NODES"); v != "" {
			nn, err := strconv.Atoi(v)
			if err != nil {
				log.Fatalf("QRNODE_NODES: %v", err)
			}
			*nodes = nn
		}
	}
	if *peers == "" {
		log.Fatal("no peer list: pass -peers or set QRNODE_PEERS")
	}
	peerList := strings.Split(*peers, ",")
	if *nodes != 0 && *nodes != len(peerList) {
		log.Fatalf("-nodes %d but %d peer addresses", *nodes, len(peerList))
	}
	if *rank < 0 || *rank >= len(peerList) {
		log.Fatalf("rank %d outside peer list of %d", *rank, len(peerList))
	}
	log.SetPrefix(fmt.Sprintf("qrnode %d: ", *rank))

	opts := qr.Options{NB: *nb, IB: *ib, H: *h}
	switch *tree {
	case "hierarchical":
		opts.Tree = qr.HierarchicalTree
	case "flat":
		opts.Tree = qr.FlatTree
	case "binary":
		opts.Tree = qr.BinaryTree
	default:
		log.Fatalf("unknown tree %q", *tree)
	}
	rc := qr.RunConfig{Threads: *threads}
	if !*lazy {
		rc.Scheduling = pulsarqr.Aggressive
	}
	var rec *trace.Recorder
	if *trFile != "" {
		rec = trace.NewRecorder()
		rc.FireHook = rec.Hook()
		rc.WaitHook = rec.WaitHook()
		rc.CommHook = rec.CommHook()
	}

	ep, err := transport.DialTCP(transport.TCPConfig{
		Rank:              *rank,
		Peers:             peerList,
		RendezvousTimeout: *rdv,
		Reconnect:         *recon,
		HeartbeatInterval: *hbeat,
		Logf:              log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ep.Close()
	log.Printf("mesh of %d ranks up", ep.Size())

	a := pulsarqr.RandomMatrix(*m, *n, *seed)
	ta := matrix.FromDense(a, *nb)
	var b *pulsarqr.Matrix
	var tb *matrix.Tiled
	if *rhs > 0 {
		b = pulsarqr.RandomMatrix(*m, *rhs, *seed+1)
		tb = matrix.FromDense(b, *nb)
	}

	// SIGINT/SIGTERM cancel the run: in-flight kernels drain, the runtime
	// aborts, and the process exits instead of lingering in the mesh. The
	// launcher signals the whole group, so every rank unwinds together.
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()

	start := time.Now()
	f, err := qr.FactorizeVSADistCtx(ctx, ta, tb, opts, rc, ep)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			log.Print(err)
			os.Exit(130)
		}
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	if rec != nil {
		if err := gatherTrace(ctx, ep, rec, *trFile); err != nil {
			log.Fatalf("trace: %v", err)
		}
	}
	msgs, bytes := ep.Stats()
	if *rank != 0 {
		log.Printf("done in %v (sent %d messages, %d payload bytes)", elapsed, msgs, bytes)
		return
	}

	gf := kernels.FlopsQR(*m, *n) / 1e9 / elapsed.Seconds()
	fmt.Printf("factored %dx%d over %d ranks: %v, %.3f Gflop/s\n",
		*m, *n, ep.Size(), elapsed, gf)
	fmt.Printf("network   %d messages, %d payload bytes sent by rank 0 (run: %d msgs, %d bytes)\n",
		msgs, bytes, f.Stats.Messages, f.Stats.Bytes)
	res := f.Residual(a)
	fmt.Printf("residual  ‖AᵀA − RᵀR‖/‖AᵀA‖ = %.3e\n", res)
	if res > 1e-12 {
		log.Fatal("residual above tolerance")
	}
	if *check {
		seq, err := qr.Factorize(matrix.FromDense(a, *nb), cloneTiled(b, *nb), opts)
		if err != nil {
			log.Fatalf("sequential reference: %v", err)
		}
		if d := matrix.MaxAbsDiff(seq.A.ToDense(), f.A.ToDense()); d != 0 {
			log.Fatalf("check failed: factored tiles differ by %v", d)
		}
		if tb != nil {
			if d := matrix.MaxAbsDiff(seq.QTB.ToDense(), f.QTB.ToDense()); d != 0 {
				log.Fatalf("check failed: QᵀB differs by %v", d)
			}
		}
		fmt.Println("check     distributed result elementwise equal to sequential")
	}
}

// gatherTrace collects every rank's trace shard at rank 0 and writes them as
// JSONL, ready for qrtrace -merge.
func gatherTrace(ctx context.Context, ep transport.Endpoint, rec *trace.Recorder, path string) error {
	gctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	shards, err := trace.GatherShards(gctx, ep, rec.Shard(ep.Rank()))
	if err != nil {
		return err
	}
	if ep.Rank() != 0 {
		return nil
	}
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteShards(fh, shards...); err != nil {
		fh.Close()
		return err
	}
	if err := fh.Close(); err != nil {
		return err
	}
	var events int
	var drops int64
	for _, sh := range shards {
		events += len(sh.Events)
		drops += sh.Drops
	}
	log.Printf("trace: %d shards, %d events written to %s (dropped %d)", len(shards), events, path, drops)
	return nil
}

func cloneTiled(b *pulsarqr.Matrix, nb int) *matrix.Tiled {
	if b == nil {
		return nil
	}
	return matrix.FromDense(b, nb)
}
