// The -ab harness: a static-knob sweep over the SAME Poisson trace (same
// per-tenant seeds, same mix, same send window), so the only degree of
// freedom between runs is the spawned daemon's scheduling quantum. The
// workload is deliberately skewed — the mix no single quantum serves
// perfectly:
//
//   - latency tenants (even indexes): small blocks (16 words) over a paced
//     Poisson arrival process, opened with an echo CSR that overrides the
//     daemon's block geometry per session;
//   - throughput tenants (odd indexes): the daemon's -block geometry at
//     saturation (unthrottled open loop).
//
// Every arm runs the identical stack with the same -switch-cost; with a
// non-zero -switch-cost a small quantum pays the modeled CSR swap on every
// session switch. The sweep prints one benchstat line per arm and names the
// arm with the best goodput — the static default to ship.
package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Latency-tenant geometry: one small block per paced arrival.
const (
	abLatBlock  = 16    // words per latency-tenant block (echo CSR override)
	abLatRateHz = 200.0 // paced arrivals/sec per latency tenant
)

// abMode is one parsed -ab entry.
type abMode struct {
	label   string
	quantum int // daemon quantum (0: the -quantum flag)
}

// parseABModes parses the -ab list: "static", "static:q=N".
func parseABModes(spec string) ([]abMode, error) {
	var modes []abMode
	for _, raw := range strings.Split(spec, ",") {
		m := strings.TrimSpace(raw)
		if m == "" {
			continue
		}
		switch {
		case m == "static":
			modes = append(modes, abMode{label: m})
		case strings.HasPrefix(m, "static:q="):
			q, err := strconv.Atoi(m[len("static:q="):])
			if err != nil || q < 1 {
				return nil, fmt.Errorf("-ab mode %q: bad quantum", m)
			}
			modes = append(modes, abMode{label: m, quantum: q})
		default:
			return nil, fmt.Errorf("-ab mode %q: want static or static:q=N", m)
		}
	}
	if len(modes) < 2 {
		return nil, fmt.Errorf("-ab %q: need at least two modes", spec)
	}
	return modes, nil
}

// abRunResult is one arm's row: the aggregate plus per-class latency
// quantiles (the latency tenants are the ones an over-batched quantum
// hurts).
type abRunResult struct {
	Mode             string  `json:"mode"`
	Quantum          int     `json:"quantum"`
	Blocks           uint64  `json:"blocks"`
	Words            uint64  `json:"words"`
	ElapsedS         float64 `json:"elapsed_s"`
	GoodputWordsPerS float64 `json:"goodput_words_per_s"`
	GoodputMiBPerS   float64 `json:"goodput_mib_per_s"`
	LatBlockP50us    float64 `json:"lat_block_p50_us"`
	LatBlockP99us    float64 `json:"lat_block_p99_us"`
	ThrBlockP99us    float64 `json:"thr_block_p99_us"`
}

// abReport is the -ab-report document.
type abReport struct {
	Benchmark     string        `json:"benchmark"`
	GeneratedUnix int64         `json:"generated_unix"`
	Config        reportConfig  `json:"config"`
	Mix           abMix         `json:"mix"`
	Runs          []abRunResult `json:"runs"`
	// Best is the mode with the highest goodput.
	Best string `json:"best"`
}

// abMix documents the skewed tenant mix the runs shared.
type abMix struct {
	LatencyTenants    int     `json:"latency_tenants"`
	LatencyBlockWords int     `json:"latency_block_words"`
	LatencyRateHz     float64 `json:"latency_rate_hz"`
	ThroughputTenants int     `json:"throughput_tenants"`
	ThroughputBlock   int     `json:"throughput_block_words"`
	SwitchCostUs      float64 `json:"switch_cost_us"`
}

// runAB is the -ab entry point: run every arm over the same trace, name the
// best, and write the report.
func runAB(cfg runConfig, spec, outPath string) error {
	modes, err := parseABModes(spec)
	if err != nil {
		return err
	}
	report := abReport{
		Benchmark:     "cohortload/ab",
		GeneratedUnix: time.Now().Unix(),
		Config: reportConfig{
			Accel: cfg.accel, Block: cfg.block, Batch: cfg.batch, Coalesce: cfg.coalesce,
			Tenants: cfg.tenants, RateHz: cfg.rate, DurationS: cfg.duration.Seconds(),
			Engines: cfg.engines, Quantum: cfg.quantum, QueueCap: cfg.queueCap,
		},
		Mix: abMix{
			LatencyTenants:    (cfg.tenants + 1) / 2,
			LatencyBlockWords: abLatBlock,
			LatencyRateHz:     abLatRateHz,
			ThroughputTenants: cfg.tenants / 2,
			ThroughputBlock:   cfg.block,
			SwitchCostUs:      round2(float64(cfg.switchCost) / 1e3),
		},
	}
	var best abRunResult
	for _, m := range modes {
		r, err := abRun(cfg, m)
		if err != nil {
			return fmt.Errorf("ab %s: %w", m.label, err)
		}
		report.Runs = append(report.Runs, r)
		if r.GoodputWordsPerS > best.GoodputWordsPerS {
			best = r
		}
	}
	report.Best = best.Mode
	fmt.Printf("\nbest static: %s (q=%d) at %.1f MiB/s, latency-tenant p99 %.1f us\n",
		best.Mode, best.Quantum, best.GoodputMiBPerS, best.LatBlockP99us)
	if outPath != "" {
		writeJSON(outPath, report)
		fmt.Printf("report: %s\n", outPath)
	}
	return nil
}

// abRun drives the skewed mix against one freshly spawned daemon pinned at
// the arm's quantum. Seeds are per tenant index, so every arm replays the
// identical arrival trace.
func abRun(cfg runConfig, m abMode) (abRunResult, error) {
	if m.quantum > 0 {
		cfg.quantum = m.quantum
	}
	addr, stop, err := spawnDaemon(cfg, false)
	if err != nil {
		return abRunResult{}, err
	}
	defer stop()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		latLat   []int64 // latency-tenant block samples (ns)
		thrLat   []int64 // throughput-tenant block samples (ns)
		words    uint64
		blocks   uint64
	)
	start := time.Now()
	for i := 0; i < cfg.tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &worker{
				cfg: cfg, addr: addr,
				rng: rand.New(rand.NewSource(cfg.seed + int64(i))),
			}
			if i%2 == 0 {
				// Latency tenant: small paced blocks, geometry via echo CSR.
				w.tenant = fmt.Sprintf("lat-%d", i)
				w.cfg.block, w.cfg.batch = abLatBlock, abLatBlock
				w.csr = echoCSR(abLatBlock)
				w.rate = abLatRateHz
			} else {
				// Throughput tenant: daemon -block geometry at saturation.
				w.tenant = fmt.Sprintf("thr-%d", i)
				w.rate = 0
			}
			err := w.run()
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("tenant %s: %w", w.tenant, err)
			}
			if i%2 == 0 {
				latLat = append(latLat, w.lat.vals...)
			} else {
				thrLat = append(thrLat, w.lat.vals...)
			}
			words += w.words
			blocks += w.blocks
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return abRunResult{}, firstErr
	}
	elapsed := time.Since(start)

	res := abRunResult{
		Mode: m.label, Quantum: cfg.quantum, Blocks: blocks, Words: words,
		ElapsedS:         round4(elapsed.Seconds()),
		GoodputWordsPerS: round2(float64(words) / elapsed.Seconds()),
		GoodputMiBPerS:   round2(float64(words) * 8 / (1 << 20) / elapsed.Seconds()),
		LatBlockP50us:    quantUS(latLat, 0.50),
		LatBlockP99us:    quantUS(latLat, 0.99),
		ThrBlockP99us:    quantUS(thrLat, 0.99),
	}
	fmt.Printf("BenchmarkServeAB/mode=%s/tenants=%d/block=%d/switch-cost=%v \t%8d\t%12.1f ns/op\t%10.2f MB/s\t%10.1f lat-p99-us\n",
		m.label, cfg.tenants, cfg.block, cfg.switchCost, blocks,
		float64(elapsed.Nanoseconds())/float64(max(blocks, 1)),
		float64(words)*8/1e6/elapsed.Seconds(), res.LatBlockP99us)
	return res, nil
}
