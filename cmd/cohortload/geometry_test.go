package main

import (
	"math/rand"
	"testing"
	"time"
)

// TestWorkerSHA256Geometry drives one worker against an in-process daemon on
// sha256, which maps 8 input words to 4 output words. Arrivals must retire
// by their output, and blocks must be counted in output blocks: every
// received word belongs to exactly one completed block, and each block
// contributes one latency sample. Counting by -block or by input words
// undercounts blocks and leaves each record waiting on a later arrival's
// output.
func TestWorkerSHA256Geometry(t *testing.T) {
	cfg := runConfig{
		accel: "sha256", block: 64, tenants: 1, batch: 64, coalesce: 4,
		duration: 200 * time.Millisecond, engines: 1, quantum: 64,
		queueCap: 16384, seed: 1,
	}
	addr, stop, err := spawnDaemon(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	w := &worker{
		cfg: cfg, addr: addr, tenant: "sha",
		rng:  rand.New(rand.NewSource(cfg.seed)),
		rate: 2000,
	}
	if err := w.run(); err != nil {
		t.Fatal(err)
	}
	const outW = 4
	if w.words == 0 || w.words%(uint64(cfg.batch)/8*outW) != 0 {
		t.Fatalf("received %d words, want a positive multiple of one arrival's %d output words",
			w.words, cfg.batch/8*outW)
	}
	if want := w.words / outW; w.blocks != want {
		t.Fatalf("blocks = %d, want %d (%d output words / %d per block)", w.blocks, want, w.words, outW)
	}
	if got := uint64(len(w.lat.vals)); got != w.blocks {
		t.Fatalf("%d latency samples for %d blocks", got, w.blocks)
	}
}
