package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"time"

	"cohort"
	"cohort/client"
	"cohort/internal/bench"
	"cohort/internal/sched"
	"cohort/internal/wire"
)

// ladder runs the traced run's layer rungs — each a layer driven alone,
// from its public functions — and files their metrics into m.
func ladder(e *env, workload string, m map[string]float64) error {
	for _, r := range []struct {
		name string
		fn   func() error
	}{
		{"rung.sched", func() error { return schedRung(m) }},
		{"rung.fifo", func() error { return fifoRung(m) }},
		{"rung.wire", func() error { return wireRung(m) }},
		{"rung.accel", func() error { return accelRung(m) }},
		{"rung.tcp", func() error { return tcpRung(m) }},
		{"rung.sim", func() error { return simRung(m) }},
		{"rung.session", func() error { return sessionRung(e, m) }},
		{"rung.hop", func() error { return hopRung(e, workload, m) }},
	} {
		var err error
		e.tr.timed(r.name, func() { err = r.fn() })
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
	}
	e.say("rungs: sched %.1f ns/block (%.1f blocks/quantum, %.2f switches/kblock); fifo %.2f GiB/s; wire %.0f ns/frame %.2f GiB/s %.2f allocs/frame",
		m["sched.rung_ns_per_block"], m["sched.blocks_per_quantum"], m["sched.switches_per_kblock"], m["fifo.rung_gib_s"],
		m["wire.rung_ns_per_frame"], m["wire.rung_gib_s"], m["wire.allocs_per_frame"])
	e.say("rungs: accel null/sha256/aes128 %.1f/%.1f/%.1f ns/block; tcp ceiling %.1f MiB/s, session efficiency %.3f; hop +%.1fus p50, goodput ratio %.3f",
		m["accel.null.ns_per_block"], m["accel.sha256.ns_per_block"], m["accel.aes128.ns_per_block"],
		m["tcp.ceiling_mib_s"], m["stack.tcp_efficiency"], m["cluster.hop_p50_us"], m["cluster.hop_goodput_ratio"])
	e.say("rungs: sim ns/cycle cohort/mmio/dma %.1f/%.1f/%.1f; cycles %.0f instructions %.0f flits %.0f getm %.0f inv_sent %.0f",
		m["sim.ns_per_cycle.cohort"], m["sim.ns_per_cycle.mmio"], m["sim.ns_per_cycle.dma"],
		m["sim.cycles"], m["sim.instructions"], m["noc.flits"], m["coherence.getm"], m["coherence.inv_sent"])
	return nil
}

// perOp runs op rounds×n times and returns the median over rounds of the
// ns per call, and the heap allocations per call over all of them.
func perOp(rounds, n int, op func()) (ns, allocs float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	times := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		t := now()
		for i := 0; i < n; i++ {
			op()
		}
		times = append(times, float64(now()-t)/float64(n))
	}
	runtime.ReadMemStats(&ms)
	return median(times), float64(ms.Mallocs-m0) / float64(rounds*n)
}

// schedRung: an in-process scheduler at cohortd's defaults (2 engines,
// quantum 32, 4096-word queues) drains two null sessions registered with
// caller-supplied, pre-filled and closed input Fifos — no socket, no codec.
func schedRung(m map[string]float64) error {
	const words = 1 << 16 // per session; null blocks are one word
	var perBlock []float64
	var decisions, swaps, blocks uint64
	for rep := 0; rep < 5; rep++ {
		s := sched.New(sched.Config{Engines: 2, Quantum: 32, QueueCap: 4096, MaxSessions: 64})
		var ss []*sched.Session
		fill := make([]cohort.Word, words)
		t := now()
		for i := 0; i < 2; i++ {
			in, err := cohort.NewFifo[cohort.Word](words)
			if err != nil {
				return err
			}
			out, err := cohort.NewFifo[cohort.Word](words)
			if err != nil {
				return err
			}
			in.TryPushSlice(fill)
			in.Close()
			sess, err := s.Register(sched.SessionConfig{Tenant: fmt.Sprint("rung", i), Accel: cohort.NewNull(), In: in, Out: out})
			if err != nil {
				return err
			}
			ss = append(ss, sess)
		}
		for _, sess := range ss {
			<-sess.Done()
			if st := sess.Stats(); st.Blocks != words {
				return fmt.Errorf("session served %d of %d blocks", st.Blocks, words)
			}
		}
		dt := now() - t
		st := s.Stats()
		s.Close()
		perBlock = append(perBlock, float64(dt)/float64(2*words))
		decisions += st.Decisions
		swaps += st.Swaps
		blocks += 2 * words
	}
	m["sched.rung_ns_per_block"] = median(perBlock)
	m["sched.blocks_per_quantum"] = float64(blocks) / float64(max(decisions, 1))
	m["sched.switches_per_kblock"] = 1000 * float64(swaps) / float64(blocks)
	return nil
}

// fifoRung: TryPushSlice then TryPopInto of one null_stream frame through a
// 4096-word Fifo, cohortd's default queue.
func fifoRung(m map[string]float64) error {
	q, err := cohort.NewFifo[cohort.Word](4096)
	if err != nil {
		return err
	}
	frame := make([]cohort.Word, nullFrameBlocks)
	dst := make([]cohort.Word, nullFrameBlocks)
	var bad bool
	ns, _ := perOp(9, 2000, func() {
		if q.TryPushSlice(frame) != len(frame) || q.TryPopInto(dst) != len(dst) {
			bad = true
		}
	})
	if bad {
		return fmt.Errorf("fifo moved a partial frame")
	}
	m["fifo.rung_gib_s"] = float64(len(frame)*8) / ns * 1e9 / (1 << 30)
	return nil
}

// wireRung: Writer.WordsN encodes one null_stream frame into an in-memory
// buffer and Reader.NextData decodes it back.
func wireRung(m map[string]float64) error {
	var buf bytes.Buffer
	w, r := wire.NewWriter(&buf), wire.NewReader(&buf)
	frame := make([]cohort.Word, nullFrameBlocks)
	for i := range frame {
		frame[i] = cohort.Word(i)
	}
	var bad error
	ns, allocs := perOp(9, 2000, func() {
		if err := w.WordsN(frame); err != nil {
			bad = err
			return
		}
		if _, ws, _, err := r.NextData(); err != nil || len(ws) != len(frame) || ws[len(ws)-1] != frame[len(frame)-1] {
			bad = fmt.Errorf("decoded frame differs: %v", err)
		}
	})
	if bad != nil {
		return bad
	}
	m["wire.rung_ns_per_frame"] = ns
	m["wire.rung_gib_s"] = float64(len(frame)*8) / ns * 1e9 / (1 << 30)
	m["wire.allocs_per_frame"] = allocs
	return nil
}

// accelRung times Accelerator.Process on one block of each serving
// accelerator.
func accelRung(m map[string]float64) error {
	aes := cohort.NewAES128()
	if err := aes.Configure(make([]byte, 16)); err != nil {
		return err
	}
	for _, a := range []struct {
		name string
		acc  cohort.Accelerator
		n    int
	}{{"null", cohort.NewNull(), 20000}, {"sha256", cohort.NewSHA256(), 2000}, {"aes128", aes, 1000}} {
		in := make([]cohort.Word, a.acc.InWords())
		var bad error
		ns, allocs := perOp(9, a.n, func() {
			if _, err := a.acc.Process(in); err != nil {
				bad = err
			}
		})
		if bad != nil {
			return bad
		}
		m["accel."+a.name+".ns_per_block"] = ns
		m["accel."+a.name+".allocs_per_block"] = allocs
	}
	return nil
}

// tcpRung measures raw loopback TCP with no cohort code: a writer sends
// null_stream-sized frames, an echo server returns them through a
// user-space buffer, a reader counts them — the machine's ceiling for
// null_stream's shape of traffic.
func tcpRung(m map[string]float64) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer c.Close()
		buf := make([]byte, nullFrameBlocks*8)
		for {
			n, err := c.Read(buf)
			if n > 0 {
				if _, werr := c.Write(buf[:n]); werr != nil {
					echoed <- werr
					return
				}
			}
			if err != nil {
				c.(*net.TCPConn).CloseWrite()
				echoed <- nil
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	defer c.Close()
	const d = 1500 * time.Millisecond
	end := now() + int64(d)
	wrote := make(chan error, 1)
	go func() {
		frame := make([]byte, nullFrameBlocks*8)
		for now() < end {
			if _, err := c.Write(frame); err != nil {
				wrote <- err
				return
			}
		}
		wrote <- c.(*net.TCPConn).CloseWrite()
	}()
	t0 := now()
	n, err := io.Copy(io.Discard, c)
	dt := now() - t0
	if err != nil {
		return err
	}
	if err := <-wrote; err != nil {
		return err
	}
	if err := <-echoed; err != nil {
		return err
	}
	m["tcp.ceiling_mib_s"] = mib(n, time.Duration(dt))
	return nil
}

// simRung times bench.Run at one fixed point per communication mode and
// keeps the simulator's own counts, which must repeat exactly.
func simRung(m map[string]float64) error {
	names := map[bench.Mode]string{bench.Cohort: "cohort", bench.MMIO: "mmio", bench.DMA: "dma"}
	for _, mode := range []bench.Mode{bench.Cohort, bench.MMIO, bench.DMA} {
		var per []float64
		var res bench.Result
		for rep := 0; rep < 3; rep++ {
			t := now()
			r, err := bench.Run(bench.RunConfig{Workload: bench.SHA, Mode: mode, QueueSize: 1024, Batch: 8, Verify: true})
			if err != nil {
				return err
			}
			per = append(per, float64(now()-t)/float64(r.Cycles))
			res = r
		}
		m["sim.ns_per_cycle."+names[mode]] = median(per)
		m["sim.cycles"] += float64(res.Cycles)
		m["sim.instructions"] += float64(res.Instructions)
		m["noc.flits"] += float64(res.Metrics.Net.Flits)
		m["coherence.getm"] += float64(res.Metrics.Dir.GetM)
		m["coherence.inv_sent"] += float64(res.Metrics.Dir.InvSent)
	}
	return nil
}

// sessionRung streams null_stream's traffic through a fresh cohortd for two
// seconds; its goodput over the TCP ceiling is the stack's efficiency.
func sessionRung(e *env, m map[string]float64) error {
	st, err := launch(e.bin, false, nullOpts(false), e.tr)
	if err != nil {
		return err
	}
	lanes, rates := driveNull(e, st, rand.New(rand.NewSource(e.seed+1)), 2*time.Second)
	st.close()
	var o outcome
	if err := tally(&o, lanes); err != nil {
		return err
	}
	if o.failed > 0 {
		return fmt.Errorf("%d of %d requests failed", o.failed, o.attempted)
	}
	m["stack.tcp_efficiency"] = median(rates) / m["tcp.ceiling_mib_s"]
	return nil
}

// hopRung runs mixed_gw's two tenants for 1.5 s through cohortgw and again
// direct to a cohortd: the gateway hop's cost in tenant latency and hog
// goodput. sim_eval, which has no serving traffic of its own, takes its
// generator, client and server-stage metrics from the direct arm.
func hopRung(e *env, workload string, m map[string]float64) error {
	const d = 1500 * time.Millisecond
	var runs [2]*mixedRun
	var opens [2][]float64
	for i, via := range []bool{true, false} {
		rng := rand.New(rand.NewSource(e.seed + 2))
		key := make([]byte, 16)
		rng.Read(key)
		ref, err := aes128Ref(key)
		if err != nil {
			return err
		}
		opts := []client.Options{
			{Tenant: "hog", Accel: "sha256", ServerTiming: true},
			{Tenant: "tenant", Accel: "aes128", CSR: key, ServerTiming: true},
		}
		st, err := launch(e.bin, via, opts, e.tr)
		if err != nil {
			return err
		}
		run, err := runMixed(e, st, rng, ref, d, map[bool]string{true: "hop rung via cohortgw", false: "hop rung direct"}[via])
		st.close()
		if err != nil {
			return err
		}
		if run.failed > 0 {
			return fmt.Errorf("%d of %d requests failed", run.failed, run.attempted)
		}
		runs[i] = run
		for _, ns := range st.openNs {
			opens[i] = append(opens[i], float64(ns)/1e6)
		}
	}
	m["cluster.open_ms"] = median(opens[0])
	m["cluster.hop_p50_us"] = runs[0].e2e["lat_p50_us"] - runs[1].e2e["lat_p50_us"]
	m["cluster.hop_goodput_ratio"] = runs[0].e2e["goodput_mib_s"] / runs[1].e2e["goodput_mib_s"]
	if workload == "sim_eval" {
		clientLayers(m, runs[1].lanes[1:], 0, opens[1])
		attribute(e, m, "hop rung direct tenant", runs[1].e2e["lat_p50_us"])
	}
	return nil
}
