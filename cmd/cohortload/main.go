// Command cohortload is an open-loop load generator for a cohortd daemon: it
// drives configurable tenant mixes of concurrent sessions with Poisson
// arrivals and reports per-block and per-session latency quantiles
// (p50/p99/p999) plus goodput, in both benchstat-compatible text and a JSON
// report (BENCH_serve.json).
//
// Open loop means arrivals are scheduled by the clock, not by completions: a
// batch's latency is measured from its *scheduled* arrival time, so server
// queueing delay — including the sender's own inability to keep up — counts
// against the server instead of silently throttling the workload (the
// coordinated-omission trap of closed-loop generators). -rate 0 disables
// pacing and measures saturation goodput instead.
//
// Each arrival is one -batch-word request. The batched client packs every
// arrival due at wake-up into one zero-copy Data frame (up to -coalesce
// arrivals, via SendN); the legacy client — like the pre-change stack — must
// send one copy-framed write per arrival.
//
// With -spawn (the default when -addr is empty) the daemon runs in-process
// on a loopback listener; -compare then runs the same workload twice — once
// over the pre-coalescing legacy wire path (legacy codec, per-block
// scheduler handoff, polling pumps), once over the batched zero-copy path —
// and reports the goodput speedup.
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"cohort"
	"cohort/client"
	"cohort/internal/sched"
	"cohort/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cohortload: ")
	var cfg runConfig
	flag.StringVar(&cfg.addr, "addr", "", "drive external daemons: one address (a cohortd, or a cohortgw front door) or a comma-separated shard list to spread sessions round-robin (empty: spawn one in-process)")
	flag.StringVar(&cfg.accel, "accel", "echo", "accelerator to open sessions on (spawned daemons add \"echo\" with -block geometry)")
	flag.IntVar(&cfg.block, "block", 64, "echo accelerator block size in words (spawned daemons only)")
	flag.IntVar(&cfg.tenants, "tenants", 4, "concurrent tenant sessions")
	flag.IntVar(&cfg.batch, "batch", 64, "words per arrival (one open-loop request)")
	flag.IntVar(&cfg.coalesce, "coalesce", 64, "batched client: max due arrivals packed per Data frame via SendN (the legacy client sends one frame per arrival)")
	flag.Float64Var(&cfg.rate, "rate", 0, "aggregate Poisson arrival rate in batches/sec across all tenants (0: unthrottled saturation)")
	flag.DurationVar(&cfg.duration, "duration", 3*time.Second, "send window per run")
	flag.IntVar(&cfg.engines, "engines", 2, "spawned daemon: engine pool size")
	flag.IntVar(&cfg.quantum, "quantum", 64, "spawned daemon: blocks per scheduling decision")
	flag.DurationVar(&cfg.switchCost, "switch-cost", 0, "spawned daemon: modeled CSR-swap cost per session switch")
	flag.IntVar(&cfg.queueCap, "queue-cap", 16384, "spawned daemon: per-direction session queue capacity in words")
	flag.Int64Var(&cfg.seed, "seed", 1, "arrival-process RNG seed")
	legacy := flag.Bool("legacy", false, "use the pre-coalescing legacy codec (single run)")
	compare := flag.Bool("compare", false, "run legacy then batched against spawned daemons and report the speedup")
	ab := flag.String("ab", "", "static-quantum sweep over the same Poisson trace and a skewed tenant mix, e.g. \"static:q=8,static:q=64,static:q=256\" (modes: static, static:q=N); prints every arm and names the best; spawned daemons only")
	abOut := flag.String("ab-report", "", "sweep report path (empty: skip)")
	out := flag.String("o", "BENCH_serve.json", "JSON report path (empty: skip)")
	latOut := flag.String("latency-report", "BENCH_latency.json", "decomposed server-stage latency report path (empty: skip; batched runs only)")
	sloP99 := flag.Duration("slo-p99", 0, "SLO verdict mode: fail (exit 1) if the final run's end-to-end block p99 exceeds this (0: off)")
	flag.Parse()

	if cfg.coalesce < 1 {
		log.Fatal("-coalesce must be >= 1")
	}
	if *compare && cfg.addr != "" {
		log.Fatal("-compare needs spawned daemons; drop -addr")
	}
	if *ab != "" {
		if cfg.addr != "" {
			log.Fatal("-ab needs spawned daemons; drop -addr")
		}
		fmt.Printf("goos: %s\ngoarch: %s\npkg: cohort/cmd/cohortload\n", runtime.GOOS, runtime.GOARCH)
		if err := runAB(cfg, *ab, *abOut); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Printf("goos: %s\ngoarch: %s\npkg: cohort/cmd/cohortload\n", runtime.GOOS, runtime.GOARCH)
	var runs []runResult
	if *compare {
		for _, mode := range []bool{true, false} {
			r, err := oneRun(cfg, mode)
			if err != nil {
				log.Fatal(err)
			}
			runs = append(runs, r)
		}
	} else {
		r, err := oneRun(cfg, *legacy)
		if err != nil {
			log.Fatal(err)
		}
		runs = append(runs, r)
	}

	report := benchReport{
		Benchmark:     "cohortload",
		GeneratedUnix: time.Now().Unix(),
		Config: reportConfig{
			Accel: cfg.accel, Block: cfg.block, Batch: cfg.batch, Coalesce: cfg.coalesce,
			Tenants: cfg.tenants, RateHz: cfg.rate, DurationS: cfg.duration.Seconds(),
			Engines: cfg.engines, Quantum: cfg.quantum, QueueCap: cfg.queueCap,
		},
		Runs: runs,
	}
	if len(runs) == 2 && runs[0].Mode == "legacy" {
		report.SpeedupGoodput = round2(runs[1].GoodputWordsPerS / runs[0].GoodputWordsPerS)
		fmt.Printf("\nspeedup: %.2fx goodput (batched %.1f MiB/s over legacy %.1f MiB/s)\n",
			report.SpeedupGoodput, runs[1].GoodputMiBPerS, runs[0].GoodputMiBPerS)
	}
	if *sloP99 > 0 {
		// Verdict mode: judge the final run (the batched one under -compare)
		// against the block-p99 objective, record the outcome in the report,
		// and exit non-zero on breach so CI can gate on it.
		final := runs[len(runs)-1]
		report.SLO = &sloVerdict{
			TargetP99Us:   round2(float64(*sloP99) / 1e3),
			ObservedP99Us: final.BlockP99us,
			Mode:          final.Mode,
			Pass:          final.BlockP99us <= float64(*sloP99)/1e3,
		}
	}
	if *out != "" {
		writeJSON(*out, report)
		fmt.Printf("report: %s\n", *out)
	}
	if *latOut != "" {
		// Standalone decomposed-latency artifact: the last run with a server
		// stage breakdown (the batched run in -compare), paired with its
		// end-to-end quantiles so a checker can assert stage-sum ≤ e2e.
		for i := len(runs) - 1; i >= 0; i-- {
			if runs[i].ServerStages == nil {
				continue
			}
			writeJSON(*latOut, latencyReport{
				Benchmark:     "cohortload/latency",
				GeneratedUnix: time.Now().Unix(),
				Mode:          runs[i].Mode,
				BlockP50Us:    runs[i].BlockP50us,
				BlockP99Us:    runs[i].BlockP99us,
				Stages:        runs[i].ServerStages,
			})
			fmt.Printf("latency report: %s\n", *latOut)
			break
		}
	}
	if report.SLO != nil {
		v := report.SLO
		if v.Pass {
			fmt.Printf("slo verdict: PASS (%s block p99 %.1fµs <= target %.1fµs)\n",
				v.Mode, v.ObservedP99Us, v.TargetP99Us)
		} else {
			fmt.Printf("slo verdict: FAIL (%s block p99 %.1fµs > target %.1fµs)\n",
				v.Mode, v.ObservedP99Us, v.TargetP99Us)
			os.Exit(1)
		}
	}
}

// latencyReport is the BENCH_latency.json document: one run's server-side
// stage decomposition next to the end-to-end quantiles it must fit inside.
type latencyReport struct {
	Benchmark     string        `json:"benchmark"`
	GeneratedUnix int64         `json:"generated_unix"`
	Mode          string        `json:"mode"`
	BlockP50Us    float64       `json:"block_p50_us"`
	BlockP99Us    float64       `json:"block_p99_us"`
	Stages        *serverStages `json:"stages"`
}

func writeJSON(path string, v any) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}

type runConfig struct {
	addr       string
	accel      string
	block      int
	tenants    int
	batch      int
	coalesce   int
	rate       float64
	duration   time.Duration
	engines    int
	quantum    int
	switchCost time.Duration
	queueCap   int
	seed       int64
}

type reportConfig struct {
	Accel     string  `json:"accel"`
	Block     int     `json:"block_words"`
	Batch     int     `json:"batch_words"`
	Coalesce  int     `json:"coalesce_arrivals"`
	Tenants   int     `json:"tenants"`
	RateHz    float64 `json:"rate_hz"`
	DurationS float64 `json:"duration_s"`
	Engines   int     `json:"engines"`
	Quantum   int     `json:"quantum"`
	QueueCap  int     `json:"queue_cap_words"`
}

type runResult struct {
	Mode             string  `json:"mode"` // "legacy" or "batched"
	Blocks           uint64  `json:"blocks"`
	Words            uint64  `json:"words"`
	ElapsedS         float64 `json:"elapsed_s"`
	GoodputWordsPerS float64 `json:"goodput_words_per_s"`
	GoodputMiBPerS   float64 `json:"goodput_mib_per_s"`
	BlockP50us       float64 `json:"block_p50_us"`
	BlockP99us       float64 `json:"block_p99_us"`
	BlockP999us      float64 `json:"block_p999_us"`
	SessionP50ms     float64 `json:"session_p50_ms"`
	SessionP99ms     float64 `json:"session_p99_ms"`
	// ServerStages decomposes where the server-resident time went (batched
	// runs only: the clients opt into wire telemetry and the daemon's sampled
	// stage attribution fills it). Comparing ServerMeanUs against the
	// end-to-end block quantiles splits latency into server-resident vs
	// network + client-side cost.
	ServerStages *serverStages `json:"server_stages,omitempty"`
	// Shards attributes the run per target address when -addr named more
	// than one daemon — the fleet view: aggregate goodput above, who served
	// what below.
	Shards []shardGoodput `json:"shards,omitempty"`
}

// shardGoodput is one target daemon's slice of a multi-address run.
type shardGoodput struct {
	Addr           string  `json:"addr"`
	Sessions       int     `json:"sessions"`
	Blocks         uint64  `json:"blocks"`
	Words          uint64  `json:"words"`
	GoodputMiBPerS float64 `json:"goodput_mib_per_s"`
}

// stageAgg is one stage aggregated across every tenant session of a run:
// samples-weighted mean, worst per-session p99.
type stageAgg struct {
	Samples uint64  `json:"samples"`
	MeanUs  float64 `json:"mean_us"`
	P99Us   float64 `json:"p99_us"`
}

// serverStages is a run's server-side latency decomposition, aggregated from
// the per-session Telemetry documents the daemon sent back.
type serverStages struct {
	Sessions     int      `json:"sessions"` // sessions that reported timing
	Queue        stageAgg `json:"queue"`
	Sched        stageAgg `json:"sched"`
	Compute      stageAgg `json:"compute"`
	Wire         stageAgg `json:"wire"`
	ServerMeanUs float64  `json:"server_mean_us"` // sum of the four stage means
}

// aggregateStages folds per-session telemetry into one run-level breakdown.
func aggregateStages(ts []*wire.TelemetryReply) *serverStages {
	if len(ts) == 0 {
		return nil
	}
	agg := &serverStages{Sessions: len(ts)}
	acc := func(dst *stageAgg, st wire.StageTiming) {
		dst.Samples += st.Samples
		dst.MeanUs += st.MeanNs * float64(st.Samples) // ns-sum until fin
		if p := st.P99Ns / 1e3; p > dst.P99Us {
			dst.P99Us = round2(p)
		}
	}
	for _, t := range ts {
		acc(&agg.Queue, t.Queue)
		acc(&agg.Sched, t.Sched)
		acc(&agg.Compute, t.Compute)
		acc(&agg.Wire, t.Wire)
	}
	fin := func(dst *stageAgg) {
		if dst.Samples > 0 {
			dst.MeanUs = round2(dst.MeanUs / float64(dst.Samples) / 1e3)
		}
	}
	fin(&agg.Queue)
	fin(&agg.Sched)
	fin(&agg.Compute)
	fin(&agg.Wire)
	agg.ServerMeanUs = round2(agg.Queue.MeanUs + agg.Sched.MeanUs + agg.Compute.MeanUs + agg.Wire.MeanUs)
	return agg
}

type benchReport struct {
	Benchmark      string       `json:"benchmark"`
	GeneratedUnix  int64        `json:"generated_unix"`
	Config         reportConfig `json:"config"`
	Runs           []runResult  `json:"runs"`
	SpeedupGoodput float64      `json:"speedup_goodput,omitempty"`
	SLO            *sloVerdict  `json:"slo,omitempty"`
}

// sloVerdict records the -slo-p99 judgment on the final run: the open-loop
// end-to-end block p99 (which charges queueing from the *scheduled* arrival
// time, so a saturated server fails honestly) against the target. A FAIL also
// exits the process with status 1.
type sloVerdict struct {
	Mode          string  `json:"mode"`
	TargetP99Us   float64 `json:"target_p99_us"`
	ObservedP99Us float64 `json:"observed_p99_us"`
	Pass          bool    `json:"pass"`
}

// echoAccel is the load-generator geometry knob: a block pass-through of
// -block words, so wire/scheduler cost dominates and compute does not.
type echoAccel struct{ out []cohort.Word }

func newEcho(block int) *echoAccel { return &echoAccel{out: make([]cohort.Word, block)} }

func (e *echoAccel) Name() string  { return "echo" }
func (e *echoAccel) InWords() int  { return len(e.out) }
func (e *echoAccel) OutWords() int { return len(e.out) }

// Configure accepts an optional 8-byte little-endian block size, so one
// daemon can serve tenants with different echo geometries (the A/B harness
// mixes small latency-sensitive blocks with large throughput blocks through
// client.Options.CSR). An empty CSR keeps the daemon's -block default.
func (e *echoAccel) Configure(csr []byte) error {
	if len(csr) == 0 {
		return nil
	}
	if len(csr) != 8 {
		return fmt.Errorf("echo csr: want 8 bytes, got %d", len(csr))
	}
	n := int(binary.LittleEndian.Uint64(csr))
	if n < 1 || n > wire.MaxFrameWords {
		return fmt.Errorf("echo csr: block size %d out of range [1, %d]", n, wire.MaxFrameWords)
	}
	e.out = make([]cohort.Word, n)
	return nil
}

// echoCSR encodes a block size for Configure.
func echoCSR(block int) []byte {
	csr := make([]byte, 8)
	binary.LittleEndian.PutUint64(csr, uint64(block))
	return csr
}

func (e *echoAccel) Process(in []cohort.Word) ([]cohort.Word, error) {
	copy(e.out, in)
	return e.out, nil
}

// spawnDaemon brings up an in-process scheduler + wire server on a loopback
// listener, with the default catalog plus the echo geometry.
func spawnDaemon(cfg runConfig, legacy bool) (addr string, stop func(), err error) {
	s := sched.New(sched.Config{
		Engines: cfg.engines, Quantum: cfg.quantum, QueueCap: cfg.queueCap,
		SwitchCost:  cfg.switchCost,
		MaxSessions: 2*cfg.tenants + 8,
	})
	cat := sched.DefaultCatalog()
	blk := cfg.block
	cat["echo"] = func() (cohort.Accelerator, error) { return newEcho(blk), nil }
	sv := sched.NewServer(s, cat)
	sv.LegacyWire = legacy
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return "", nil, err
	}
	go sv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	return ln.Addr().String(), func() { sv.Close(); s.Close() }, nil
}

// batchRec tracks in-flight arrivals: when they were *scheduled* to arrive
// (the open-loop latency origin) and how many result words retire them —
// the arrivals' output, which differs from their input for any geometry
// other than 1:1 (SHA-256 maps 8 input words to 4 output words).
type batchRec struct {
	due   time.Time
	words int
}

// oneRun drives the full tenant mix for one send window and aggregates the
// samples. legacy selects both the daemon's legacy wire path (spawned only)
// and the client's legacy codec, so the pair measured is the honest
// pre-change stack.
func oneRun(cfg runConfig, legacy bool) (runResult, error) {
	// -addr may name several daemons (a shard fleet driven directly): workers
	// spread round-robin so every shard sees load and the report attributes
	// goodput per shard. One address — a single daemon or a gateway — is the
	// degenerate case of the same path.
	addrs := splitAddrs(cfg.addr)
	if len(addrs) == 0 {
		a, stop, err := spawnDaemon(cfg, legacy)
		if err != nil {
			return runResult{}, err
		}
		defer stop()
		addrs = []string{a}
	}

	mode := "batched"
	if legacy {
		mode = "legacy"
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		blockLat []int64 // ns, decimated
		sessLat  []int64 // ns
		words    uint64
		blocks   uint64
		timings  []*wire.TelemetryReply
	)
	tallies := make(map[string]*shardGoodput, len(addrs))
	for _, a := range addrs {
		tallies[a] = &shardGoodput{Addr: a}
	}
	start := time.Now()
	perSess := cfg.rate / float64(cfg.tenants)
	for i := 0; i < cfg.tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &worker{
				cfg: cfg, addr: addrs[i%len(addrs)], legacy: legacy,
				tenant: fmt.Sprintf("load-%d", i),
				rng:    rand.New(rand.NewSource(cfg.seed + int64(i))),
				rate:   perSess,
			}
			err := w.run()
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("tenant %s: %w", w.tenant, err)
			}
			blockLat = append(blockLat, w.lat.vals...)
			sessLat = append(sessLat, int64(w.sessDur))
			words += w.words
			blocks += w.blocks
			t := tallies[w.addr]
			t.Sessions++
			t.Blocks += w.blocks
			t.Words += w.words
			if w.timing != nil {
				timings = append(timings, w.timing)
			}
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return runResult{}, firstErr
	}
	elapsed := time.Since(start)

	res := runResult{
		Mode: mode, Blocks: blocks, Words: words,
		ElapsedS:         round4(elapsed.Seconds()),
		GoodputWordsPerS: round2(float64(words) / elapsed.Seconds()),
		GoodputMiBPerS:   round2(float64(words) * 8 / (1 << 20) / elapsed.Seconds()),
		BlockP50us:       quantUS(blockLat, 0.50),
		BlockP99us:       quantUS(blockLat, 0.99),
		BlockP999us:      quantUS(blockLat, 0.999),
		SessionP50ms:     round4(quantUS(sessLat, 0.50) / 1e3),
		SessionP99ms:     round4(quantUS(sessLat, 0.99) / 1e3),
		ServerStages:     aggregateStages(timings),
	}
	if len(addrs) > 1 {
		// Fleet attribution: per-shard goodput next to the aggregate, in the
		// order the shards were named.
		for _, a := range addrs {
			t := tallies[a]
			t.GoodputMiBPerS = round2(float64(t.Words) * 8 / (1 << 20) / elapsed.Seconds())
			res.Shards = append(res.Shards, *t)
		}
	}
	// benchstat-compatible: one line per run, ns/op is per block served.
	coalesce := cfg.coalesce
	if legacy {
		coalesce = 1
	}
	nsPerBlock := float64(elapsed.Nanoseconds()) / float64(max(blocks, 1))
	fmt.Printf("BenchmarkServe/mode=%s/block=%d/batch=%d/coalesce=%d/tenants=%d \t%8d\t%12.1f ns/op\t%10.2f MB/s\t%10.1f p99-us\n",
		mode, cfg.block, cfg.batch, coalesce, cfg.tenants, blocks, nsPerBlock,
		float64(words)*8/1e6/elapsed.Seconds(), res.BlockP99us)
	if sg := res.ServerStages; sg != nil {
		// Decomposed e2e latency: the server-resident stage means (sampled
		// per quantum) versus the client's open-loop block quantiles. The
		// remainder is network transit + client-side time + unsampled skew.
		fmt.Printf("  server stages (%d sessions reporting):\n", sg.Sessions)
		for _, row := range []struct {
			name string
			a    stageAgg
		}{{"queue", sg.Queue}, {"sched", sg.Sched}, {"compute", sg.Compute}, {"wire", sg.Wire}} {
			fmt.Printf("    %-8s mean %9.2f us   p99 %9.2f us   (n=%d)\n",
				row.name, row.a.MeanUs, row.a.P99Us, row.a.Samples)
		}
		fmt.Printf("    %-8s mean %9.2f us   vs e2e block p50 %.2f us / p99 %.2f us\n",
			"server", sg.ServerMeanUs, res.BlockP50us, res.BlockP99us)
	}
	for _, t := range res.Shards {
		fmt.Printf("  shard %-24s sessions %3d  blocks %10d  %8.2f MiB/s\n",
			t.Addr, t.Sessions, t.Blocks, t.GoodputMiBPerS)
	}
	return res, nil
}

// splitAddrs parses the -addr list, dropping empty entries.
func splitAddrs(spec string) []string {
	var out []string
	for _, a := range strings.Split(spec, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

type worker struct {
	cfg     config // alias below keeps the struct readable
	addr    string
	legacy  bool
	tenant  string
	csr     []byte // optional accelerator CSR (echo: block-size override)
	rng     *rand.Rand
	rate    float64 // arrivals/sec for this session; 0 = unthrottled
	lat     sampler
	sessDur time.Duration
	words   uint64
	blocks  uint64
	timing  *wire.TelemetryReply // final server-side stage breakdown (batched runs)
}

type config = runConfig

// run opens one session, paces batches through it for the send window, then
// drains to Done. The receive side runs concurrently so backpressure is the
// server's, not the harness's.
func (w *worker) run() error {
	// Batched runs opt into server-side timing; the legacy run must stay the
	// faithful pre-change stack, which had no telemetry.
	c, err := client.Connect(w.addr, client.Options{
		Tenant: w.tenant, Accel: w.cfg.accel, CSR: w.csr, LegacyCodec: w.legacy,
		ServerTiming: !w.legacy,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	if w.cfg.batch%c.InWords() != 0 {
		return fmt.Errorf("-batch %d must be a multiple of the %s accelerator's input block (%d words)",
			w.cfg.batch, w.cfg.accel, c.InWords())
	}
	// Output words one arrival produces: whole input blocks in, one output
	// block out per input block.
	outPer := w.cfg.batch / c.InWords() * c.OutWords()
	t0 := time.Now()

	// Pending batches flow sender→receiver in send order; the channel is the
	// in-flight window bookkeeping, not a throttle (capacity well beyond what
	// queue + socket backpressure admits).
	pending := make(chan batchRec, 1<<16)
	recvErr := make(chan error, 1)
	go func() { recvErr <- w.receive(c, pending) }()

	in := make([]cohort.Word, w.cfg.batch)
	for i := range in {
		in[i] = cohort.Word(i)*2654435761 + 99
	}
	deadline := t0.Add(w.cfg.duration)
	next := t0
	dues := make([]time.Time, 0, w.cfg.coalesce)
	segs := make([][]cohort.Word, 0, w.cfg.coalesce)
	var sendErr error
	for time.Now().Before(deadline) {
		// Collect the arrivals due this pass. Paced mode sleeps to the next
		// Poisson arrival, then also picks up any backlog already due — the
		// schedule never slips, so a late sender measures as server latency.
		// Saturation mode (-rate 0) treats a full coalesce window as due.
		dues = dues[:0]
		if w.rate > 0 {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			now := time.Now()
			for !next.After(now) && len(dues) < w.cfg.coalesce {
				dues = append(dues, next)
				next = next.Add(time.Duration(w.rng.ExpFloat64() / w.rate * float64(time.Second)))
			}
		} else {
			now := time.Now()
			for len(dues) < w.cfg.coalesce {
				dues = append(dues, now)
			}
		}
		if w.rate > 0 {
			for _, due := range dues {
				pending <- batchRec{due: due, words: outPer}
			}
		} else {
			// Saturation arrivals in one pass share a due stamp: one record
			// covers them all (the receiver tracks words, not frames).
			pending <- batchRec{due: dues[0], words: outPer * len(dues)}
		}
		if w.legacy {
			// The pre-change client has no frame coalescing: one copy-framed
			// send — one frame, one write — per arrival.
			for range dues {
				if err := c.Send(in); err != nil {
					sendErr = err
					break
				}
			}
		} else {
			// The batched client packs every due arrival into one zero-copy
			// Data frame (SendN gathers the segments with a single writev).
			segs = segs[:0]
			for range dues {
				segs = append(segs, in)
			}
			sendErr = c.SendN(segs...)
		}
		if sendErr != nil {
			break
		}
	}
	if err := c.CloseSend(); err != nil && sendErr == nil {
		sendErr = err
	}
	close(pending)
	if err := <-recvErr; err != nil {
		return err
	}
	w.sessDur = time.Since(t0)
	if sendErr != nil {
		return sendErr
	}
	if res := c.Result(); res == nil || res.Err != "" {
		return fmt.Errorf("session did not finish cleanly: %+v", res)
	}
	w.timing = c.LastServerTiming()
	return nil
}

// receive drains results, retiring pending batches in order and recording
// one latency sample per completed output block (stamped when its last word
// lands). At end of stream every sent arrival must have been retired: a
// leftover means the harness's geometry bookkeeping is wrong.
func (w *worker) receive(c *client.Conn, pending <-chan batchRec) error {
	buf := make([]cohort.Word, 1<<16)
	outW := c.OutWords()
	var cur batchRec
	rem, into := 0, 0 // words left in cur; words already landed in cur
	for {
		n, err := c.RecvInto(buf)
		if err == io.EOF {
			for r := range pending {
				rem += r.words
			}
			if rem > 0 {
				return fmt.Errorf("stream ended %d result words short of the sent arrivals", rem)
			}
			return nil
		}
		if err != nil {
			return err
		}
		now := time.Now()
		w.words += uint64(n)
		for n > 0 {
			if rem == 0 {
				var ok bool
				if cur, ok = <-pending; !ok {
					return fmt.Errorf("%d result words beyond the sent arrivals", n)
				}
				rem, into = cur.words, 0
			}
			take := min(n, rem)
			done := (into+take)/outW - into/outW
			lat := now.Sub(cur.due).Nanoseconds()
			for i := 0; i < done; i++ {
				w.lat.add(lat)
			}
			w.blocks += uint64(done)
			into += take
			rem -= take
			n -= take
		}
	}
}

// sampler keeps a memory-bounded, time-uniform subset of latency samples:
// when full it drops every other retained sample and doubles its stride.
type sampler struct {
	vals   []int64
	stride int
	skip   int
}

const samplerCap = 1 << 20

func (sp *sampler) add(v int64) {
	if sp.stride == 0 {
		sp.stride = 1
	}
	if sp.skip > 0 {
		sp.skip--
		return
	}
	sp.skip = sp.stride - 1
	if len(sp.vals) == samplerCap {
		keep := sp.vals[:0]
		for i := 0; i < len(sp.vals); i += 2 {
			keep = append(keep, sp.vals[i])
		}
		sp.vals = keep
		sp.stride *= 2
		sp.skip = sp.stride - 1
	}
	sp.vals = append(sp.vals, v)
}

// quantUS returns the q-quantile of ns samples in microseconds, linearly
// interpolated between the neighboring order statistics. Interpolation is
// what makes small sample sets honest: the old truncating index collapsed
// every quantile onto the same sample below ~1/(1-q) samples — with two
// tenants, session p50 and p99 both returned ns[0] and the report showed
// them identical (BENCH_serve.json once shipped 3011.7449 for both).
func quantUS(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	pos := q * float64(len(ns)-1)
	lo := int(pos)
	v := float64(ns[lo])
	if frac := pos - float64(lo); frac > 0 && lo+1 < len(ns) {
		v += frac * float64(ns[lo+1]-ns[lo])
	}
	return round2(v / 1e3)
}

func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }
func round4(v float64) float64 { return float64(int64(v*1e4+0.5)) / 1e4 }
