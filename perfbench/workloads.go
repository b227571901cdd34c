package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"cohort"
	"cohort/client"
)

// The workloads' fixed shapes. BENCHMARK.json's "why" lines and README.md
// quote them; change them only in a change that redefines the benchmark.
const (
	setupRounds = 9 // stacks set up per run; setup_s is their median

	nullFrameBlocks = 4096 // null_stream: blocks per request frame (16 KiB)
	nullWindow      = 4    // null_stream: frames in flight per session

	hogFrameBlocks = 256  // mixed_gw hog: SHA-256 blocks per request (16 KiB)
	hogWindow      = 4    // mixed_gw hog: requests in flight
	tenantHz       = 1000 // mixed_gw latency tenant: Poisson AES-128 requests/s

	sloP99US = 2000.0 // sha_paced: p99 limit a rung must meet, µs
)

// shaLadder is sha_paced's offered rates (requests/s over both sessions),
// light load to past the knee; shaRef indexes the reference rung, which
// runs for half the measured time.
var (
	shaLadder = []float64{2000, 4000, 8000, 16000, 32000, 64000}
	shaRef    = 2
)

// env is what every workload runs with.
type env struct {
	bin, out, golden string
	seed             int64
	dur              time.Duration
	tr               *tracer // nil in the untraced run
	say              func(format string, args ...any)
}

// outcome is a workload's measured result.
type outcome struct {
	attempted, failed int64
	e2e               map[string]float64
	layer             map[string]float64 // traced run only
}

// launchMeasured sets the stack up setupRounds times, keeps the last one
// for the workload, and returns it with the median set-up time in seconds
// and every successful Connect's duration.
func launchMeasured(e *env, viaGateway bool, opts []client.Options) (*stack, float64, []float64, error) {
	var setups, opens []float64
	for i := 0; ; i++ {
		st, err := launch(e.bin, viaGateway, opts, e.tr)
		if err != nil {
			return nil, 0, nil, err
		}
		setups = append(setups, float64(st.setupNs)/1e9)
		for _, ns := range st.openNs {
			opens = append(opens, float64(ns)/1e6)
		}
		if i == setupRounds-1 {
			return st, median(setups), opens, nil
		}
		st.close()
	}
}

// runLanes starts a receiver per lane and each sender, waits for the
// senders, then gives the receivers ten seconds to reach Done before
// cutting their connections.
func runLanes(lanes []*lane, senders ...func()) {
	var recv, send sync.WaitGroup
	for _, l := range lanes {
		recv.Add(1)
		go func(l *lane) {
			defer recv.Done()
			defer close(l.done)
			l.receive()
		}(l)
	}
	for _, s := range senders {
		send.Add(1)
		go func(s func()) {
			defer send.Done()
			s()
		}(s)
	}
	send.Wait()
	finished := make(chan struct{})
	go func() {
		recv.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		for _, l := range lanes {
			l.conn.Close()
		}
		<-finished
	}
}

// tally adds every lane's request counts and first error to o.
func tally(o *outcome, lanes []*lane) error {
	for _, l := range lanes {
		o.attempted += l.attempted()
		o.failed += l.lost()
		if err := l.err(); err != nil {
			return err
		}
	}
	return nil
}

// merged pools one per-phase sample set across lanes.
func merged(lanes []*lane, pick func(*lane) *samples) *samples {
	var m samples
	for _, l := range lanes {
		m.v = append(m.v, pick(l).v...)
		m.t = append(m.t, pick(l).t...)
	}
	return &m
}

// clientLayers fills the generator, client and server-stage metrics from
// the lanes that carry the workload's latency-measured requests (at phase).
func clientLayers(m map[string]float64, lanes []*lane, phase int, opens []float64) {
	lag := merged(lanes, func(l *lane) *samples { return &l.lagUS[phase] })
	m["gen.lag_p50_us"] = lag.quantile(0.5)
	m["gen.lag_p99_us"] = lag.quantile(0.99)
	m["client.open_ms"] = median(opens)
	m["client.send_p50_us"] = merged(lanes, func(l *lane) *samples { return &l.sendUS }).quantile(0.5)
	m["client.recv_wait_p50_us"] = merged(lanes, func(l *lane) *samples { return &l.recvUS }).quantile(0.5)
	var sw, sn, rw, rn int64
	for _, l := range lanes {
		sw, sn, rw, rn = sw+l.sendWords, sn+l.sends, rw+l.recvWords, rn+l.recvs
	}
	m["client.words_per_send"] = float64(sw) / float64(max(sn, 1))
	m["client.words_per_recv"] = float64(rw) / float64(max(rn, 1))
	// Server stages: the daemon's own sampled attribution, read from the
	// Telemetry reply every session opened with ServerTiming carries.
	type acc struct{ n, sum, p99 float64 }
	var st [4]acc
	for _, l := range lanes {
		t := l.conn.LastServerTiming()
		if t == nil {
			continue
		}
		for i, s := range [4]struct {
			Samples       uint64
			MeanNs, P99Ns float64
		}{
			{t.Queue.Samples, t.Queue.MeanNs, t.Queue.P99Ns},
			{t.Sched.Samples, t.Sched.MeanNs, t.Sched.P99Ns},
			{t.Compute.Samples, t.Compute.MeanNs, t.Compute.P99Ns},
			{t.Wire.Samples, t.Wire.MeanNs, t.Wire.P99Ns},
		} {
			st[i].n += float64(s.Samples)
			st[i].sum += float64(s.Samples) * s.MeanNs
			st[i].p99 = max(st[i].p99, s.P99Ns)
		}
	}
	for i, name := range []string{"queue", "dispatch", "compute", "wire"} {
		m["sched."+name+"_mean_us"] = st[i].sum / max(st[i].n, 1) / 1e3
		m["sched."+name+"_p99_us"] = st[i].p99 / 1e3
	}
}

// attribute splits a latency p50 into generator lag, client send, the four
// server stages and the residual nothing above explains, and prints it.
func attribute(e *env, m map[string]float64, what string, latP50 float64) {
	stages := m["sched.queue_mean_us"] + m["sched.dispatch_mean_us"] + m["sched.compute_mean_us"] + m["sched.wire_mean_us"]
	m["residual_p50_us"] = latP50 - (m["gen.lag_p50_us"] + m["client.send_p50_us"] + stages)
	e.say("attribution %s: lat_p50=%.1fus = gen.lag %.1f + client.send %.1f + queue %.1f + dispatch %.1f + compute %.1f + wire %.1f + residual %.1f",
		what, latP50, m["gen.lag_p50_us"], m["client.send_p50_us"], m["sched.queue_mean_us"],
		m["sched.dispatch_mean_us"], m["sched.compute_mean_us"], m["sched.wire_mean_us"], m["residual_p50_us"])
}

// latFigures sets lat_p50_us and lat_p99_us to the median over windows of
// width ns (sized to hold about 2000 requests) of each window's p50 and p99,
// and prints them beside the whole run's quantiles.
func latFigures(e *env, m map[string]float64, what string, lat *samples, width int64) {
	var n50, n99 int
	m["lat_p50_us"], n50 = lat.windowed(0.5, width)
	m["lat_p99_us"], n99 = lat.windowed(0.99, width)
	p50s := samples{v: lat.perWindow(0.5, width)}
	p99s := samples{v: lat.perWindow(0.99, width)}
	e.say("%s: whole run %s; median over %.2fs windows: p50=%.1fus (%d windows, quartiles %.1f-%.1f) p99=%.1fus (%d windows, quartiles %.1f-%.1f)",
		what, lat.describe("us"), float64(width)/1e9, m["lat_p50_us"], n50, p50s.quantile(0.25), p50s.quantile(0.75),
		m["lat_p99_us"], n99, p99s.quantile(0.25), p99s.quantile(0.75))
}

func mib(bytes int64, d time.Duration) float64 { return float64(bytes) / (1 << 20) / d.Seconds() }

// mibPerSecond turns verified bytes stamped with their retire times into
// MiB/s for each whole second of [start, end).
func mibPerSecond(ok *samples, start, end int64) []float64 {
	rates := ok.windowRates(start, end, int64(time.Second))
	for i := range rates {
		rates[i] /= 1 << 20
	}
	return rates
}

func nullOpts(timing bool) []client.Options {
	return []client.Options{
		{Tenant: "stream-a", Accel: "null", ServerTiming: timing},
		{Tenant: "stream-b", Accel: "null", ServerTiming: timing},
	}
}

// nullStream: two null sessions direct to cohortd, each streaming large
// frames as fast as its window of outstanding frames allows.
func nullStream(e *env) (*outcome, error) {
	st, setupS, opens, err := launchMeasured(e, false, nullOpts(e.tr != nil))
	if err != nil {
		return nil, err
	}
	lanes, rates := driveNull(e, st, rand.New(rand.NewSource(e.seed)), e.dur)
	rss := st.close()

	o := &outcome{e2e: map[string]float64{}}
	if err := tally(o, lanes); err != nil {
		return o, err
	}
	lat := merged(lanes, func(l *lane) *samples { return &l.latUS[0] })
	o.e2e["setup_s"] = setupS
	o.e2e["goodput_mib_s"] = median(rates)
	latFigures(e, o.e2e, "null_stream frame latency", lat, int64(time.Second))
	o.e2e["rss_mib"] = rss
	e.say("null_stream: goodput median %.1f MiB/s over 1s windows %.1f", o.e2e["goodput_mib_s"], rates)
	if e.tr != nil {
		o.layer = map[string]float64{}
		clientLayers(o.layer, lanes, 0, opens)
		attribute(e, o.layer, "null_stream frames", o.e2e["lat_p50_us"])
	}
	return o, nil
}

// driveNull streams closed-loop null frames on every session of st for d
// and returns the lanes with the verified input MiB/s of each whole second.
func driveNull(e *env, st *stack, rng *rand.Rand, d time.Duration) ([]*lane, []float64) {
	var ids atomic.Uint64
	lanes := make([]*lane, len(st.conns))
	for i, c := range st.conns {
		g := geometryOf(c)
		lanes[i] = newLane(i, c, nullRef, makePool(rng, 16, nullFrameBlocks*g.in), 1, &ids, e.tr).withWindow(nullWindow)
	}
	start := now()
	end := start + int64(d)
	var senders []func()
	for _, l := range lanes {
		l.goodUntil = end
		senders = append(senders, func() { l.closedLoop(end) })
	}
	runLanes(lanes, senders...)
	return lanes, mibPerSecond(merged(lanes, func(l *lane) *samples { return &l.okAt }), start, end)
}

// shaPaced: open-loop Poisson single-block SHA-256 requests over two
// sessions direct to cohortd, one rung of shaLadder after another.
func shaPaced(e *env) (*outcome, error) {
	opts := []client.Options{
		{Tenant: "paced-a", Accel: "sha256", ServerTiming: e.tr != nil},
		{Tenant: "paced-b", Accel: "sha256", ServerTiming: e.tr != nil},
	}
	st, setupS, opens, err := launchMeasured(e, false, opts)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	var ids atomic.Uint64
	lanes := make([]*lane, len(st.conns))
	for i, c := range st.conns {
		g := geometryOf(c)
		lanes[i] = newLane(i, c, sha256Ref, makePool(rng, 4096, g.in), len(shaLadder), &ids, e.tr)
	}
	// Rung durations: the reference rung gets half the time, the others
	// share the rest.
	durs := make([]int64, len(shaLadder))
	for i := range durs {
		durs[i] = int64(e.dur) / 2 / int64(len(shaLadder)-1)
		if i == shaRef {
			durs[i] = int64(e.dur) / 2
		}
	}
	lastDue := make([]int64, len(shaLadder))
	sender := func() {
		defer func() {
			for _, l := range lanes {
				l.finish()
			}
		}()
		for r, hz := range shaLadder {
			start := now() + int64(time.Millisecond)
			due := poisson(rng, hz, start, start+durs[r])
			for _, d := range due {
				waitUntil(d)
				if err := lanes[rng.Intn(len(lanes))].send(r, d); err != nil {
					lanes[0].sendErr = err
					return
				}
			}
			// The rung ends when its last request has retired, or a second
			// after its last arrival, which fails its backlog check.
			lastDue[r] = start
			if len(due) > 0 {
				lastDue[r] = due[len(due)-1]
			}
			for now()-lastDue[r] < int64(time.Second) && (lanes[0].inFly.Load() > 0 || lanes[1].inFly.Load() > 0) {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}
	runLanes(lanes, sender)
	rss := st.close()

	o := &outcome{e2e: map[string]float64{}}
	if err := tally(o, lanes); err != nil {
		return o, err
	}
	var total int64
	rate := 0.0
	for r, hz := range shaLadder {
		lat := merged(lanes, func(l *lane) *samples { return &l.latUS[r] })
		lag := merged(lanes, func(l *lane) *samples { return &l.lagUS[r] })
		// Backlog: how long after the rung's last arrival its last result
		// came back.
		drain := int64(0)
		for _, l := range lanes {
			drain = max(drain, l.drained[r]-lastDue[r])
		}
		total += durs[r]
		// A rung meets the limit when its p99 does and its backlog drained
		// within the limit too; a lost request anywhere fails every rung.
		ok := lat.n() > 0 && lat.quantile(0.99) <= sloP99US && float64(drain)/1e3 <= sloP99US && o.failed == 0
		if ok {
			rate = hz
		}
		ref := ""
		if r == shaRef {
			ref = " (reference)"
			latFigures(e, o.e2e, "sha_paced reference rung latency", lat, int64(2000/hz*1e9))
		}
		e.say("rung %6.0f Hz%s: lat %s; gen.lag p50=%.1fus p99=%.1fus; backlog drained in %.0fus; meets p99<=%.0fus: %v",
			hz, ref, lat.describe("us"), lag.quantile(0.5), lag.quantile(0.99), float64(drain)/1e3, sloP99US, ok)
	}
	o.e2e["setup_s"] = setupS
	var good int64
	for _, l := range lanes {
		for _, b := range l.okAt.v {
			good += int64(b)
		}
	}
	o.e2e["goodput_mib_s"] = mib(good, time.Duration(total))
	o.e2e["rss_mib"] = rss
	e.say("rate_at_slo_hz=%.0f Hz (highest rung with p99 <= %.0f us and no growing backlog)", rate, sloP99US)
	if e.tr != nil {
		o.layer = map[string]float64{}
		clientLayers(o.layer, lanes, shaRef, opens)
		attribute(e, o.layer, "sha_paced reference rung", o.e2e["lat_p50_us"])
	}
	return o, nil
}

// mixedGW: through cohortgw to one cohortd, a saturating SHA-256 hog and a
// Poisson-paced single-block AES-128 latency tenant keyed through its CSR.
func mixedGW(e *env) (*outcome, error) {
	rng := rand.New(rand.NewSource(e.seed))
	key := make([]byte, 16)
	rng.Read(key)
	aesRef, err := aes128Ref(key)
	if err != nil {
		return nil, err
	}
	opts := []client.Options{
		{Tenant: "hog", Accel: "sha256", ServerTiming: e.tr != nil},
		{Tenant: "tenant", Accel: "aes128", CSR: key, ServerTiming: e.tr != nil},
	}
	st, setupS, opens, err := launchMeasured(e, true, opts)
	if err != nil {
		return nil, err
	}
	o, err := runMixed(e, st, rng, aesRef, e.dur, "mixed_gw")
	rss := st.close()
	if err != nil {
		return o.outcome, err
	}
	o.e2e["setup_s"] = setupS
	o.e2e["rss_mib"] = rss
	if e.tr != nil {
		clientLayers(o.layer, o.lanes[1:], 0, opens)
		attribute(e, o.layer, "mixed_gw latency tenant", o.e2e["lat_p50_us"])
	}
	return o.outcome, nil
}

// mixedRun is runMixed's result: the outcome plus the lanes behind it.
type mixedRun struct {
	*outcome
	lanes []*lane
}

// runMixed drives the hog (conns[0]) and the paced tenant (conns[1]) of an
// open stack for d, filling goodput and the tenant's latency.
func runMixed(e *env, st *stack, rng *rand.Rand, tenantRef func(in, out []cohort.Word) []cohort.Word, d time.Duration, label string) (*mixedRun, error) {
	var ids atomic.Uint64
	hogG, tenG := geometryOf(st.conns[0]), geometryOf(st.conns[1])
	hog := newLane(0, st.conns[0], sha256Ref, makePool(rng, 16, hogFrameBlocks*hogG.in), 1, &ids, e.tr).withWindow(hogWindow)
	ten := newLane(1, st.conns[1], tenantRef, makePool(rng, 4096, tenG.in), 1, &ids, e.tr)
	start := now()
	end := start + int64(d)
	hog.goodUntil = end
	due := poisson(rng, tenantHz, start+int64(time.Millisecond), end)
	lanes := []*lane{hog, ten}
	runLanes(lanes,
		func() { hog.closedLoop(end) },
		func() {
			defer ten.finish()
			for _, t := range due {
				waitUntil(t)
				if err := ten.send(0, t); err != nil {
					ten.sendErr = err
					return
				}
			}
		})
	o := &outcome{e2e: map[string]float64{}}
	if e.tr != nil {
		o.layer = map[string]float64{}
	}
	run := &mixedRun{outcome: o, lanes: lanes}
	if err := tally(o, lanes); err != nil {
		return run, err
	}
	lat := &ten.latUS[0]
	rates := mibPerSecond(&hog.okAt, start, end)
	o.e2e["goodput_mib_s"] = median(rates)
	latFigures(e, o.e2e, label+" tenant latency", lat, int64(2000/tenantHz*1e9))
	e.say("%s: hog goodput median %.1f MiB/s over 1s windows %.1f; tenant %.0f Hz gen.lag p50=%.1fus p99=%.1fus",
		label, o.e2e["goodput_mib_s"], rates, float64(tenantHz), ten.lagUS[0].quantile(0.5), ten.lagUS[0].quantile(0.99))
	return run, nil
}
