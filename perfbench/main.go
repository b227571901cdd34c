// Command perfbench is the repository's benchmark: it launches the shipped
// cohortd, cohortgw and cohortbench binaries at their default flags, drives
// one named workload from this single process, checks every output against
// the Go standard library (or, for the simulator, a committed golden copy),
// and prints the end-to-end metrics — or, with -trace 1, the per-layer
// metrics of a traced run — as the last line of standard output.
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	bash perfbench/run.sh --workload sha_paced --seed 1 --seconds 15 --trace 0
//
// README.md beside this file defines every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// endToEnd and perLayer name every metric the benchmark reports, with its
// unit: the untraced run prints the first set, the traced run the second.
// BENCHMARK.json lists the same names (TestBenchmarkJSONMatches).
var endToEnd = map[string]string{
	"setup_s":       "s",
	"goodput_mib_s": "MiB/s",
	"lat_p50_us":    "us",
	"lat_p99_us":    "us",
	"rss_mib":       "MiB",
}

var perLayer = map[string]string{
	"gen.lag_p50_us":                "us",
	"gen.lag_p99_us":                "us",
	"client.open_ms":                "ms",
	"client.send_p50_us":            "us",
	"client.words_per_send":         "count",
	"client.recv_wait_p50_us":       "us",
	"client.words_per_recv":         "count",
	"sched.queue_mean_us":           "us",
	"sched.queue_p99_us":            "us",
	"sched.dispatch_mean_us":        "us",
	"sched.dispatch_p99_us":         "us",
	"sched.compute_mean_us":         "us",
	"sched.compute_p99_us":          "us",
	"sched.wire_mean_us":            "us",
	"sched.wire_p99_us":             "us",
	"sched.rung_ns_per_block":       "ns",
	"sched.blocks_per_quantum":      "count",
	"sched.switches_per_kblock":     "count",
	"fifo.rung_gib_s":               "GiB/s",
	"wire.rung_ns_per_frame":        "ns",
	"wire.rung_gib_s":               "GiB/s",
	"wire.allocs_per_frame":         "count",
	"accel.null.ns_per_block":       "ns",
	"accel.sha256.ns_per_block":     "ns",
	"accel.aes128.ns_per_block":     "ns",
	"accel.null.allocs_per_block":   "count",
	"accel.sha256.allocs_per_block": "count",
	"accel.aes128.allocs_per_block": "count",
	"tcp.ceiling_mib_s":             "MiB/s",
	"stack.tcp_efficiency":          "ratio",
	"cluster.open_ms":               "ms",
	"cluster.hop_p50_us":            "us",
	"cluster.hop_goodput_ratio":     "ratio",
	"residual_p50_us":               "us",
	"sim.ns_per_cycle.cohort":       "ns",
	"sim.ns_per_cycle.mmio":         "ns",
	"sim.ns_per_cycle.dma":          "ns",
	"sim.cycles":                    "count",
	"sim.instructions":              "count",
	"noc.flits":                     "count",
	"coherence.getm":                "count",
	"coherence.inv_sent":            "count",
	"trace.overhead_lat_p50_us":     "us",
	"trace.overhead_goodput_pct":    "%",
}

var workloads = map[string]func(*env) (*outcome, error){
	"null_stream": nullStream,
	"sha_paced":   shaPaced,
	"mixed_gw":    mixedGW,
	"sim_eval":    simEval,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: null_stream, sha_paced, mixed_gw or sim_eval")
		seed     = flag.Int64("seed", 1, "seed for arrivals, inputs and keys")
		seconds  = flag.Int("seconds", 15, "measured seconds")
		traced   = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		bin      = flag.String("bin", ".bench_build/bin", "directory holding the built cohortd, cohortgw and cohortbench")
		out      = flag.String("out", ".bench_build/out", "directory for traces and simulator output")
		golden   = flag.String("golden", "perfbench/golden", "directory holding cohortbench's golden output")
	)
	flag.Parse()
	// One load-generating process on at most two CPUs.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	// The generator's heap is small; collecting it less often keeps GC
	// work off the pacer's heels.
	debug.SetGCPercent(400)
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad -seconds\n", *workload)
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	e := &env{
		bin: *bin, out: *out, golden: *golden, seed: *seed, dur: time.Duration(*seconds) * time.Second,
		say: func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
	}
	e.say("perfbench %s seed=%d seconds=%d trace=%d", *workload, *seed, *seconds, *traced)
	var (
		o   *outcome
		err error
	)
	if *traced == 1 {
		o, err = tracedRun(e, *workload, fn)
	} else {
		o, err = fn(e)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	units := endToEnd
	vals := o.e2e
	if *traced == 1 {
		units, vals = perLayer, o.layer
	}
	res := resultOut{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricOut{}}
	var missing []string
	for name, unit := range units {
		v, ok := vals[name]
		if !ok {
			missing = append(missing, name)
		}
		res.Metrics[name] = metricOut{Value: v, Unit: unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		fmt.Fprintln(os.Stderr, "perfbench: metrics not measured:", missing)
		os.Exit(1)
	}
	if o.attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no request was attempted")
		os.Exit(1)
	}
	if o.failed > 0 {
		e.say("fail_ratio=%g (%d of %d requests failed, were refused or returned wrong output)",
			float64(o.failed)/float64(o.attempted), o.failed, o.attempted)
	} else {
		e.say("fail_ratio=0 (0 of %d requests)", o.attempted)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// tracedRun measures the workload untraced, then traced, reports the
// difference as the tracing overhead, and adds the in-process layer rungs.
// The spans land in a Chrome trace file under the output directory.
func tracedRun(e *env, name string, fn func(*env) (*outcome, error)) (*outcome, error) {
	plain, err := fn(e)
	if err != nil {
		return nil, err
	}
	e.tr = &tracer{}
	o, err := fn(e)
	if err != nil {
		return nil, err
	}
	o.attempted += plain.attempted
	o.failed += plain.failed
	if o.layer == nil {
		o.layer = map[string]float64{}
	}
	o.layer["trace.overhead_lat_p50_us"] = o.e2e["lat_p50_us"] - plain.e2e["lat_p50_us"]
	o.layer["trace.overhead_goodput_pct"] = 100 * (o.e2e["goodput_mib_s"]/plain.e2e["goodput_mib_s"] - 1)
	e.say("tracing overhead: lat_p50 %+.1fus, goodput %+.2f%%", o.layer["trace.overhead_lat_p50_us"], o.layer["trace.overhead_goodput_pct"])
	if err := ladder(e, name, o.layer); err != nil {
		return nil, err
	}
	path := filepath.Join(e.out, fmt.Sprintf("trace-%s-seed%d.json", name, e.seed))
	n, err := e.tr.write(path)
	if err != nil {
		return nil, err
	}
	e.say("trace: %d spans (%d dropped past the in-memory cap) written to %s", n, e.tr.dropped, path)
	return o, nil
}
