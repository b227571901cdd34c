package main

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// goldenStdout is cohortbench's standard output in the golden directory;
// every other file there is a CSV cohortbench -csv writes.
const goldenStdout = "stdout.txt"

// simEval runs the shipped cohortbench at its defaults (every table and
// figure, -verify on) until the measured time is used, at least once. Each
// evaluation must exit 0 — cohortbench fails on any point whose simulated
// output does not verify — and reproduce the golden tables byte for byte.
func simEval(e *env) (*outcome, error) {
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		// Set-up: exec to exit of the parameter table alone, the simulator
		// binary's start-up with no simulation.
		t := now()
		cmd := exec.Command(filepath.Join(e.bin, "cohortbench"), "-experiment", "table2")
		cmd.SysProcAttr = orphanKill()
		if out, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("cohortbench -experiment table2: %w\n%s", err, out)
		}
		setups = append(setups, float64(now()-t)/1e9)
	}
	o := &outcome{e2e: map[string]float64{}}
	var walls samples
	var simBytes int64
	rss := 0.0
	// Evaluate again while another evaluation as long as the last still
	// fits in the measured time.
	start, last := now(), int64(0)
	for i := 0; i == 0 || now()-start+last <= int64(e.dur); i++ {
		dir := filepath.Join(e.out, fmt.Sprintf("sim-%d", i))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		wall, peak, stdout, err := runCohortbench(e, dir)
		if err != nil {
			return nil, err
		}
		last = wall
		o.attempted++
		if bad := compareGolden(e.golden, dir, stdout); bad != "" {
			o.failed++
			e.say("sim_eval evaluation %d: output differs from the golden copy: %s", i, bad)
			continue
		}
		b, err := simulatedBytes(dir)
		if err != nil {
			return nil, err
		}
		simBytes += b
		walls.add(float64(wall) / 1e3)
		rss = max(rss, peak)
		e.say("sim_eval evaluation %d: sim_eval_s=%.3f, %d simulated input bytes, tables equal the golden copy", i, float64(wall)/1e9, b)
	}
	total := 0.0
	for _, w := range walls.v {
		total += w
	}
	o.e2e["setup_s"] = median(setups)
	o.e2e["goodput_mib_s"] = 0
	if total > 0 {
		o.e2e["goodput_mib_s"] = float64(simBytes) / (1 << 20) / (total / 1e6)
	}
	o.e2e["lat_p50_us"] = walls.quantile(0.5)
	o.e2e["lat_p99_us"] = walls.quantile(0.99)
	o.e2e["rss_mib"] = rss
	e.say("sim_eval: sim_eval_s median %.3f over %d evaluations; simulated input %.2f MiB/s of wall time",
		walls.quantile(0.5)/1e6, walls.n(), o.e2e["goodput_mib_s"])
	return o, nil
}

// runCohortbench runs one evaluation writing its CSVs into dir and returns
// its wall time in ns, peak RSS in MiB and standard output. In the traced
// run every "== … ==" section of the output becomes a span.
func runCohortbench(e *env, dir string) (int64, float64, []byte, error) {
	cmd := exec.Command(filepath.Join(e.bin, "cohortbench"), "-csv", dir)
	cmd.SysProcAttr = orphanKill()
	var errOut tailBuffer
	cmd.Stderr = &errOut
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return 0, 0, nil, err
	}
	t0 := now()
	if err := cmd.Start(); err != nil {
		return 0, 0, nil, fmt.Errorf("start cohortbench: %w", err)
	}
	var stdout bytes.Buffer
	sc := bufio.NewScanner(io.TeeReader(pipe, &stdout))
	section, sectionStart := "", t0
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "== ") {
			t := now()
			if section != "" {
				e.tr.record(span{name: section, start: sectionStart, end: t, id: e.tr.newID()})
			}
			section, sectionStart = strings.Trim(line, "= "), t
		}
	}
	if err := cmd.Wait(); err != nil {
		return 0, 0, nil, fmt.Errorf("cohortbench: %w\n%s", err, errOut.String())
	}
	t1 := now()
	if section != "" {
		e.tr.record(span{name: section, start: sectionStart, end: t1, id: e.tr.newID()})
	}
	e.tr.record(span{name: "cohortbench", start: t0, end: t1, id: e.tr.newID()})
	return t1 - t0, maxRSSMiB(cmd), stdout.Bytes(), nil
}

// compareGolden returns "" when stdout and every CSV in dir equal the
// golden copy exactly (same files, same bytes), else what differs.
func compareGolden(golden, dir string, stdout []byte) string {
	want, err := os.ReadFile(filepath.Join(golden, goldenStdout))
	if err != nil {
		return err.Error()
	}
	if !bytes.Equal(want, stdout) {
		return "standard output"
	}
	names := func(d string, skip string) []string {
		ents, _ := os.ReadDir(d)
		var out []string
		for _, e := range ents {
			if e.Name() != skip {
				out = append(out, e.Name())
			}
		}
		sort.Strings(out)
		return out
	}
	gotFiles, wantFiles := names(dir, ""), names(golden, goldenStdout)
	if strings.Join(gotFiles, ",") != strings.Join(wantFiles, ",") {
		return fmt.Sprintf("CSV files %v, golden has %v", gotFiles, wantFiles)
	}
	for _, f := range wantFiles {
		a, errA := os.ReadFile(filepath.Join(golden, f))
		b, errB := os.ReadFile(filepath.Join(dir, f))
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			return f
		}
	}
	return ""
}

// simulatedBytes sums the input every simulated point streamed: each row
// of the latency figures' CSVs is one point of queue_size 8-byte words (the
// IPC figures and Table 3 reuse those points).
func simulatedBytes(dir string) (int64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "latency_*.csv"))
	if err != nil || len(files) == 0 {
		return 0, fmt.Errorf("no latency CSVs in %s", dir)
	}
	var total int64
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return 0, err
		}
		rows, err := csv.NewReader(fh).ReadAll()
		fh.Close()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", f, err)
		}
		for _, row := range rows[1:] {
			q, err := strconv.Atoi(row[0])
			if err != nil {
				return 0, fmt.Errorf("%s: queue size %q: %w", f, row[0], err)
			}
			total += int64(q) * 8
		}
	}
	return total, nil
}
