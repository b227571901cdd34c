// Package telem is the serving stack's windowed telemetry and SLO plane,
// layered on the metrics Registry. Everything the Registry exports is
// cumulative-since-boot — the right shape for dashboards that rate() on
// their own, the wrong shape for the questions an operator actually asks:
// what is tenant alice's p99 *right now*, is the error rate *rising*, has
// the service burned its error budget fast enough to page?
//
// A background Sampler answers those: on a fixed tick it snapshots the
// Registry, folds every labeled source into per-tenant cumulative counters
// and stage histograms, and stores the result in a fixed-memory ring of
// frames spanning one long window. Windowed values are then just frame
// subtraction — the rate over the last 10s is (now − frame[10s ago]) ÷
// elapsed, and the windowed p99 is the quantile of the bucket-wise
// difference of two cumulative log2 histograms. Nothing in the data path
// changes: the hot path keeps its allocation-free atomic counters, and the
// sampler reads them a few times per second from one goroutine.
//
// On top of the windows sits a multi-window SLO engine (the SRE burn-rate
// idiom): each tenant's SLO — a target p99 for one serving stage, a maximum
// error rate, or both — is evaluated every tick against the short and the
// long window together. A breach needs both windows over target (a brief
// blip inside a healthy long window does not page); a breach clears as soon
// as the short window is back under (recovery is observed quickly). Every
// transition lands in the structured event Log and flips the sampler's
// Degraded verdict, which cohortd folds into /healthz.
package telem

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"cohort"
)

// Serving-stage names an SLO may target — the spellings of
// internal/sched's attribution stages.
var stages = [...]string{"queue", "sched", "compute", "wire"}

// SLO is one tenant objective. The JSON shape is what cohortd's -slo flag
// accepts (a JSON array literal or a file of one).
type SLO struct {
	// Tenant names the tenant the objective binds; "*" (or empty) applies
	// the objective to every tenant the sampler observes.
	Tenant string `json:"tenant"`
	// Stage is the serving stage whose latency the p99 target constrains:
	// queue, sched, compute or wire (default compute).
	Stage string `json:"stage,omitempty"`
	// P99Ms is the stage's target p99 in milliseconds; 0 means no latency
	// objective.
	P99Ms float64 `json:"p99_ms,omitempty"`
	// MaxErrorsPerSec caps the tenant's error rate — transient-fault
	// retries + terminal faults + kills per second; 0 means no error
	// objective.
	MaxErrorsPerSec float64 `json:"max_errors_per_s,omitempty"`
}

// ParseSLOs turns cohortd's -slo flag value into specs: empty means none, a
// value starting with '[' or '{' is parsed as JSON inline (an array of
// specs, or one spec object), anything else is read as a JSON file of the
// same.
func ParseSLOs(v string) ([]SLO, error) {
	v = strings.TrimSpace(v)
	if v == "" {
		return nil, nil
	}
	data := []byte(v)
	if v[0] != '[' && v[0] != '{' {
		b, err := os.ReadFile(v)
		if err != nil {
			return nil, fmt.Errorf("telem: read -slo file: %w", err)
		}
		data = b
	}
	var specs []SLO
	if err := json.Unmarshal(data, &specs); err != nil {
		var one SLO
		if err1 := json.Unmarshal(data, &one); err1 != nil {
			return nil, fmt.Errorf("telem: parse -slo: %w", err)
		}
		specs = []SLO{one}
	}
	for i := range specs {
		if specs[i].Tenant == "" {
			specs[i].Tenant = "*"
		}
		if specs[i].Stage == "" {
			specs[i].Stage = "compute"
		}
		ok := false
		for _, st := range stages {
			if specs[i].Stage == st {
				ok = true
			}
		}
		if !ok {
			return nil, fmt.Errorf("telem: slo %d: unknown stage %q", i, specs[i].Stage)
		}
		if specs[i].P99Ms < 0 || specs[i].MaxErrorsPerSec < 0 {
			return nil, fmt.Errorf("telem: slo %d: negative objective", i)
		}
		if specs[i].P99Ms == 0 && specs[i].MaxErrorsPerSec == 0 {
			return nil, fmt.Errorf("telem: slo %d: no objective (set p99_ms and/or max_errors_per_s)", i)
		}
	}
	return specs, nil
}

// Config tunes a Sampler.
type Config struct {
	// Registry is the sampled metrics registry (required).
	Registry *cohort.Registry
	// Tick is the sampling period (default 1s).
	Tick time.Duration
	// Short and Long are the two observation windows (defaults 10s and 5m).
	// Both round up to whole ticks; Long is floored at Short.
	Short, Long time.Duration
	// SLOs are the objectives the engine evaluates each tick.
	SLOs []SLO
	// Events, when non-nil, receives slo_breach/slo_recovery transitions.
	Events *Log
	// SkipSource filters snapshot sources by name; nil means DefaultSkip.
	SkipSource func(name string) bool
}

// DefaultSkip drops per-session sources — they churn with connections and
// their lifetime counters are already aggregated into the persistent
// "tenant/<name>" sources — and the sampler's own exports.
func DefaultSkip(name string) bool {
	return strings.HasPrefix(name, "session/") ||
		strings.HasPrefix(name, "rate/") || name == "telem"
}

// frame is one tick's cumulative view: per-tenant counters and histograms,
// keyed tenant+"\x00"+metric (tenant "" holds unlabeled, service-wide
// sources like sched and watchdog).
type frame struct {
	at       time.Time
	counters map[string]uint64
	histos   map[string]cohort.LatencyHistogram
}

// sloState is one (spec, tenant) pair's breach state machine.
type sloState struct {
	breach      bool
	since       time.Time
	transitions uint64
}

// Sampler runs the tick loop. Create with New, start with Start, stop with
// Stop; all snapshot accessors (Windows, Status, Degraded, Healthy) are safe
// for concurrent use and reflect the most recent completed tick.
type Sampler struct {
	cfg           Config
	nShort, nLong int
	stop, done    chan struct{}
	startOnce     sync.Once
	stopOnce      sync.Once
	sampleNs      cohort.LatencyRecorder // wall time per tick, self-observed
	mu            sync.Mutex
	frames        []frame // ring: frame of tick i at i % len
	ticks         uint64  // completed ticks
	tenants       map[string]bool
	states        map[string]*sloState
	breaches      uint64 // cumulative breach transitions
	rateView      map[string]WindowView
	winDoc        WindowsDoc
	sloDoc        SLODoc
	degraded      string
}

// New builds a sampler over cfg.Registry and registers its self-metrics
// ("telem" source) and, as tenants appear, per-tenant short-window rate
// sources ("rate/<tenant>", exported as cohort_rate_* gauge families).
// Call Start to begin ticking, or drive tick() directly in tests.
func New(cfg Config) *Sampler {
	if cfg.Registry == nil {
		panic("telem: Config.Registry is required")
	}
	if cfg.Tick <= 0 {
		cfg.Tick = time.Second
	}
	if cfg.Short <= 0 {
		cfg.Short = 10 * time.Second
	}
	if cfg.Long <= 0 {
		cfg.Long = 5 * time.Minute
	}
	if cfg.SkipSource == nil {
		cfg.SkipSource = DefaultSkip
	}
	for i := range cfg.SLOs {
		if cfg.SLOs[i].Tenant == "" {
			cfg.SLOs[i].Tenant = "*"
		}
		if cfg.SLOs[i].Stage == "" {
			cfg.SLOs[i].Stage = "compute"
		}
	}
	s := &Sampler{
		cfg:      cfg,
		nShort:   ticksIn(cfg.Short, cfg.Tick),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		tenants:  make(map[string]bool),
		states:   make(map[string]*sloState),
		rateView: make(map[string]WindowView),
	}
	s.nLong = ticksIn(cfg.Long, cfg.Tick)
	if s.nLong < s.nShort {
		s.nLong = s.nShort
	}
	s.frames = make([]frame, s.nLong+1)
	cfg.Registry.Register("telem", func() []cohort.Metric {
		s.mu.Lock()
		ticks, tenants, breaches := s.ticks, len(s.tenants), s.breaches
		s.mu.Unlock()
		h := s.sampleNs.Snapshot()
		return []cohort.Metric{
			{Name: "telem_ticks", Value: ticks},
			{Name: "telem_tenants", Value: uint64(tenants)},
			{Name: "slo_breaches", Value: breaches},
			{Name: "telem_sample_ns", Histo: &h},
		}
	})
	return s
}

// ticksIn rounds d up to whole ticks, floor 1.
func ticksIn(d, tick time.Duration) int {
	n := int((d + tick - 1) / tick)
	if n < 1 {
		n = 1
	}
	return n
}

// Start launches the tick loop. Idempotent.
func (s *Sampler) Start() {
	s.startOnce.Do(func() {
		go func() {
			defer close(s.done)
			tk := time.NewTicker(s.cfg.Tick)
			defer tk.Stop()
			for {
				select {
				case <-s.stop:
					return
				case now := <-tk.C:
					s.tick(now)
				}
			}
		}()
	})
}

// Stop halts the loop and unregisters the sampler's registry sources.
// Idempotent; safe without Start.
func (s *Sampler) Stop() {
	s.stopOnce.Do(func() {
		close(s.stop)
		s.startOnce.Do(func() { close(s.done) }) // never started: nothing to join
		<-s.done
		s.mu.Lock()
		tenants := make([]string, 0, len(s.tenants))
		for t := range s.tenants {
			tenants = append(tenants, t)
		}
		s.mu.Unlock()
		for _, t := range tenants {
			s.cfg.Registry.Unregister("rate/" + t)
		}
		s.cfg.Registry.Unregister("telem")
	})
}

// tick runs one sampling pass: snapshot, fold, store, derive, evaluate.
// Exported behavior is driven entirely through here, so tests call it with a
// synthetic clock instead of sleeping.
func (s *Sampler) tick(now time.Time) {
	t0 := time.Now()
	snaps, labels := s.cfg.Registry.SnapshotLabeled()
	fr := frame{
		at:       now,
		counters: make(map[string]uint64),
		histos:   make(map[string]cohort.LatencyHistogram),
	}
	seen := make(map[string]bool)
	for i, sn := range snaps {
		if s.cfg.SkipSource(sn.Name) {
			continue
		}
		tenant := ""
		for _, l := range labels[i] {
			if l.Key == "tenant" {
				tenant = l.Value
			}
		}
		if tenant != "" {
			seen[tenant] = true
		}
		for _, m := range sn.Metrics {
			key := tenant + "\x00" + m.Name
			if m.Histo != nil {
				h := fr.histos[key]
				for b, c := range m.Histo.Buckets {
					h.Buckets[b] += c
				}
				fr.histos[key] = h
			} else if !m.IsFloat {
				fr.counters[key] += m.Value
			}
		}
	}

	type transition struct {
		typ, tenant, detail string
	}
	var fired []transition

	s.mu.Lock()
	s.frames[s.ticks%uint64(len(s.frames))] = fr
	s.ticks++
	var newTenants []string
	for t := range seen {
		if !s.tenants[t] {
			s.tenants[t] = true
			newTenants = append(newTenants, t)
		}
	}
	short, long := s.baseFrameLocked(s.nShort), s.baseFrameLocked(s.nLong)

	// Windowed per-tenant views (the /stats/windows document and the
	// cohort_rate_* export).
	tenants := make([]string, 0, len(s.tenants))
	for t := range s.tenants {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	doc := WindowsDoc{
		At:      now,
		TickMs:  float64(s.cfg.Tick) / float64(time.Millisecond),
		ShortMs: float64(s.nShort) * float64(s.cfg.Tick) / float64(time.Millisecond),
		LongMs:  float64(s.nLong) * float64(s.cfg.Tick) / float64(time.Millisecond),
		Ticks:   s.ticks,
		Service: ServiceWindows{
			Short: serviceView(&fr, short),
			Long:  serviceView(&fr, long),
		},
		Tenants: make([]TenantWindows, 0, len(tenants)),
	}
	for _, t := range tenants {
		tw := TenantWindows{
			Tenant: t,
			Short:  tenantView(&fr, short, t),
			Long:   tenantView(&fr, long, t),
		}
		doc.Tenants = append(doc.Tenants, tw)
		s.rateView[t] = tw.Short
	}
	s.winDoc = doc

	// SLO evaluation: each (spec, tenant) pair gets a burn-rate verdict over
	// both windows.
	slo := SLODoc{
		At: now, TickMs: doc.TickMs, ShortMs: doc.ShortMs, LongMs: doc.LongMs,
	}
	var degraded []string
	for si, spec := range s.cfg.SLOs {
		var targets []string
		if spec.Tenant == "*" {
			targets = tenants
		} else {
			targets = []string{spec.Tenant}
		}
		for _, t := range targets {
			st := s.stateLocked(si, t, now)
			row := s.evalLocked(&fr, short, long, spec, t, st, now)
			if row.State == "breach" {
				degraded = append(degraded, fmt.Sprintf("tenant %s: %s", t, row.Reason))
			}
			if row.transitioned {
				s.breaches += b2u(row.State == "breach")
				typ := EventSLORecovery
				if row.State == "breach" {
					typ = EventSLOBreach
				}
				fired = append(fired, transition{typ: typ, tenant: t, detail: row.Reason})
			}
			slo.SLOs = append(slo.SLOs, row.SLOStatus)
		}
	}
	sort.Slice(slo.SLOs, func(i, j int) bool {
		a, b := slo.SLOs[i], slo.SLOs[j]
		if a.Tenant != b.Tenant {
			return a.Tenant < b.Tenant
		}
		return a.Stage < b.Stage
	})
	slo.Degraded = strings.Join(degraded, "; ")
	s.sloDoc = slo
	s.degraded = slo.Degraded
	s.mu.Unlock()

	// Registry and event-log work happens outside s.mu (both take their own
	// locks; the rate-source callbacks take s.mu when polled).
	for _, t := range newTenants {
		t := t
		s.cfg.Registry.RegisterLabeled("rate/"+t,
			[]cohort.Label{{Key: "tenant", Value: t}},
			func() []cohort.Metric { return s.rateMetrics(t) })
	}
	if s.cfg.Events != nil {
		for _, tr := range fired {
			s.cfg.Events.Append(Event{Time: now, Type: tr.typ, Tenant: tr.tenant, Detail: tr.detail})
		}
	}
	s.sampleNs.Observe(uint64(time.Since(t0)))
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// baseFrameLocked returns the frame n ticks before the latest one, clamped
// to the oldest frame the ring still holds (at startup a window covers only
// what has been observed). Caller holds s.mu and has stored >= 1 frame.
func (s *Sampler) baseFrameLocked(n int) *frame {
	idx := int64(s.ticks) - 1 - int64(n)
	earliest := int64(0)
	if int64(s.ticks) > int64(len(s.frames)) {
		earliest = int64(s.ticks) - int64(len(s.frames))
	}
	if idx < earliest {
		idx = earliest
	}
	return &s.frames[uint64(idx)%uint64(len(s.frames))]
}

// delta is the windowed increase of one cumulative counter, clamped at 0 so
// a restarted or vanished source cannot produce a negative rate.
func delta(cur, base *frame, key string) uint64 {
	c, b := cur.counters[key], base.counters[key]
	if c < b {
		return 0
	}
	return c - b
}

// histDelta is the windowed histogram: the bucket-wise difference of two
// cumulative log2 histograms, clamped at 0 per bucket.
func histDelta(cur, base *frame, key string) cohort.LatencyHistogram {
	var out cohort.LatencyHistogram
	c := cur.histos[key]
	b := base.histos[key]
	for i := range c.Buckets {
		if c.Buckets[i] > b.Buckets[i] {
			out.Buckets[i] = c.Buckets[i] - b.Buckets[i]
		}
	}
	return out
}

// StageWindow is one stage's windowed latency distribution summary.
type StageWindow struct {
	Samples uint64  `json:"samples"`
	P50Ns   float64 `json:"p50_ns"`
	P99Ns   float64 `json:"p99_ns"`
}

func stageWindow(cur, base *frame, tenant, stage string) StageWindow {
	h := histDelta(cur, base, tenant+"\x00stage_"+stage+"_ns")
	n := h.Samples()
	if n == 0 {
		return StageWindow{}
	}
	return StageWindow{Samples: n, P50Ns: h.Quantile(0.5), P99Ns: h.Quantile(0.99)}
}

// WindowStages is the four-stage windowed latency view of one tenant.
type WindowStages struct {
	Queue   StageWindow `json:"queue"`
	Sched   StageWindow `json:"sched"`
	Compute StageWindow `json:"compute"`
	Wire    StageWindow `json:"wire"`
}

// WindowView is one tenant's derived view over one window: rolling rates
// from the persistent tenant counters plus windowed stage quantiles.
// Seconds is the span the window actually covers (shorter than the nominal
// window until enough ticks have accumulated).
type WindowView struct {
	Seconds              float64      `json:"seconds"`
	BlocksPerSec         float64      `json:"blocks_per_s"`
	WordsInPerSec        float64      `json:"words_in_per_s"`
	WordsOutPerSec       float64      `json:"words_out_per_s"`
	RetriesPerSec        float64      `json:"retries_per_s"`
	TerminalFaultsPerSec float64      `json:"terminal_faults_per_s"`
	KillsPerSec          float64      `json:"kills_per_s"`
	RejectsPerSec        float64      `json:"rejects_per_s"`
	ErrorsPerSec         float64      `json:"errors_per_s"`
	Stages               WindowStages `json:"stages"`
}

func tenantView(cur, base *frame, tenant string) WindowView {
	v := WindowView{Seconds: cur.at.Sub(base.at).Seconds()}
	if v.Seconds > 0 {
		rate := func(metric string) float64 {
			return float64(delta(cur, base, tenant+"\x00"+metric)) / v.Seconds
		}
		v.BlocksPerSec = rate("blocks")
		v.WordsInPerSec = rate("words_in")
		v.WordsOutPerSec = rate("words_out")
		v.RetriesPerSec = rate("retries")
		v.TerminalFaultsPerSec = rate("terminal_faults")
		v.KillsPerSec = rate("kills")
		v.RejectsPerSec = rate("rejected")
		v.ErrorsPerSec = v.RetriesPerSec + v.TerminalFaultsPerSec + v.KillsPerSec
	}
	v.Stages = WindowStages{
		Queue:   stageWindow(cur, base, tenant, "queue"),
		Sched:   stageWindow(cur, base, tenant, "sched"),
		Compute: stageWindow(cur, base, tenant, "compute"),
		Wire:    stageWindow(cur, base, tenant, "wire"),
	}
	return v
}

// ServiceView is the scheduler-wide windowed rate view (from the unlabeled
// "sched" source).
type ServiceView struct {
	Seconds               float64 `json:"seconds"`
	DecisionsPerSec       float64 `json:"decisions_per_s"`
	AdmittedPerSec        float64 `json:"admitted_per_s"`
	RetiredPerSec         float64 `json:"retired_per_s"`
	RejectedPerSec        float64 `json:"rejected_per_s"`
	TransientFaultsPerSec float64 `json:"transient_faults_per_s"`
	TerminalFaultsPerSec  float64 `json:"terminal_faults_per_s"`
	KillsPerSec           float64 `json:"kills_per_s"`
}

func serviceView(cur, base *frame) ServiceView {
	v := ServiceView{Seconds: cur.at.Sub(base.at).Seconds()}
	if v.Seconds <= 0 {
		return v
	}
	rate := func(metric string) float64 {
		return float64(delta(cur, base, "\x00"+metric)) / v.Seconds
	}
	v.DecisionsPerSec = rate("decisions")
	v.AdmittedPerSec = rate("admitted")
	v.RetiredPerSec = rate("retired")
	v.RejectedPerSec = rate("rejected")
	v.TransientFaultsPerSec = rate("transient_faults")
	v.TerminalFaultsPerSec = rate("terminal_faults")
	v.KillsPerSec = rate("kills")
	return v
}

// ServiceWindows pairs the scheduler-wide view over both windows.
type ServiceWindows struct {
	Short ServiceView `json:"short"`
	Long  ServiceView `json:"long"`
}

// TenantWindows is one tenant's row in /stats/windows.
type TenantWindows struct {
	Tenant string     `json:"tenant"`
	Short  WindowView `json:"short"`
	Long   WindowView `json:"long"`
}

// WindowsDoc is the /stats/windows document: per-tenant rolling rates and
// windowed stage quantiles over the short and long windows, plus the
// service-wide view.
type WindowsDoc struct {
	At      time.Time       `json:"at"`
	TickMs  float64         `json:"tick_ms"`
	ShortMs float64         `json:"short_ms"`
	LongMs  float64         `json:"long_ms"`
	Ticks   uint64          `json:"ticks"`
	Service ServiceWindows  `json:"service"`
	Tenants []TenantWindows `json:"tenants"`
}

// Windows snapshots the most recent tick's windowed view.
func (s *Sampler) Windows() WindowsDoc {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.winDoc
}

// SLOStatus is one (objective, tenant) row in /stats/slo.
type SLOStatus struct {
	Tenant            string  `json:"tenant"`
	Stage             string  `json:"stage"`
	TargetP99Ms       float64 `json:"target_p99_ms,omitempty"`
	MaxErrorsPerSec   float64 `json:"max_errors_per_s,omitempty"`
	ShortP99Ms        float64 `json:"short_p99_ms"`
	LongP99Ms         float64 `json:"long_p99_ms"`
	ShortErrorsPerSec float64 `json:"short_errors_per_s"`
	LongErrorsPerSec  float64 `json:"long_errors_per_s"`
	// BurnShort/BurnLong are the error-budget burn rates (observed error
	// rate over allowed); >= 1 means the budget is burning.
	BurnShort float64 `json:"burn_short,omitempty"`
	BurnLong  float64 `json:"burn_long,omitempty"`
	State     string  `json:"state"` // "ok" or "breach"
	Reason    string  `json:"reason,omitempty"`
	// Since is when the current state was entered; Transitions counts state
	// flips over the sampler's life.
	Since       time.Time `json:"since"`
	Transitions uint64    `json:"transitions"`
}

// SLODoc is the /stats/slo document.
type SLODoc struct {
	At       time.Time   `json:"at"`
	TickMs   float64     `json:"tick_ms"`
	ShortMs  float64     `json:"short_ms"`
	LongMs   float64     `json:"long_ms"`
	Degraded string      `json:"degraded,omitempty"`
	SLOs     []SLOStatus `json:"slos"`
}

// Status snapshots the most recent tick's SLO evaluation.
func (s *Sampler) Status() SLODoc {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sloDoc
}

// Degraded returns the combined breach reason, or "" when every objective
// holds — the string cohortd folds into /healthz as a degraded row.
func (s *Sampler) Degraded() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// Healthy reports whether no objective is currently breached.
func (s *Sampler) Healthy() bool { return s.Degraded() == "" }

// stateLocked returns (creating on first use) the breach state machine for
// spec si applied to tenant t.
func (s *Sampler) stateLocked(si int, t string, now time.Time) *sloState {
	key := fmt.Sprintf("%d\x00%s", si, t)
	st, ok := s.states[key]
	if !ok {
		st = &sloState{since: now}
		s.states[key] = st
	}
	return st
}

// evalRow is evalLocked's result: the status row plus whether the state
// flipped this tick.
type evalRow struct {
	SLOStatus
	transitioned bool
}

// evalLocked applies one spec to one tenant over the current windows and
// advances its breach state machine. Multi-window semantics: a breach is
// entered only when the short AND the long window are both over target
// (latency) or both burning budget at >= 1x (errors); it exits as soon as
// the short window is clear. The long window keeps one noisy tick from
// paging; the short window keeps recovery detection fast.
func (s *Sampler) evalLocked(cur, short, long *frame, spec SLO, tenant string, st *sloState, now time.Time) evalRow {
	row := evalRow{SLOStatus: SLOStatus{
		Tenant: tenant, Stage: spec.Stage,
		TargetP99Ms: spec.P99Ms, MaxErrorsPerSec: spec.MaxErrorsPerSec,
	}}
	sv := tenantView(cur, short, tenant)
	lv := tenantView(cur, long, tenant)
	stagePick := func(v *WindowView) StageWindow {
		switch spec.Stage {
		case "queue":
			return v.Stages.Queue
		case "sched":
			return v.Stages.Sched
		case "wire":
			return v.Stages.Wire
		default:
			return v.Stages.Compute
		}
	}
	row.ShortP99Ms = stagePick(&sv).P99Ns / 1e6
	row.LongP99Ms = stagePick(&lv).P99Ns / 1e6
	row.ShortErrorsPerSec = sv.ErrorsPerSec
	row.LongErrorsPerSec = lv.ErrorsPerSec

	var latShort, latLong, errShort, errLong bool
	var reasons []string
	if spec.P99Ms > 0 {
		latShort = row.ShortP99Ms > spec.P99Ms
		latLong = row.LongP99Ms > spec.P99Ms
		if latShort {
			reasons = append(reasons, fmt.Sprintf("%s p99 %.3fms > target %.3fms",
				spec.Stage, row.ShortP99Ms, spec.P99Ms))
		}
	}
	if spec.MaxErrorsPerSec > 0 {
		row.BurnShort = row.ShortErrorsPerSec / spec.MaxErrorsPerSec
		row.BurnLong = row.LongErrorsPerSec / spec.MaxErrorsPerSec
		errShort = row.BurnShort >= 1
		errLong = row.BurnLong >= 1
		if errShort {
			reasons = append(reasons, fmt.Sprintf("error rate %.3f/s > budget %.3f/s (burn %.1fx)",
				row.ShortErrorsPerSec, spec.MaxErrorsPerSec, row.BurnShort))
		}
	}

	was := st.breach
	if !st.breach {
		if (latShort && latLong) || (errShort && errLong) {
			st.breach = true
		}
	} else if !latShort && !errShort {
		st.breach = false
	}
	if st.breach != was {
		st.since = now
		st.transitions++
		row.transitioned = true
	}
	row.Since, row.Transitions = st.since, st.transitions
	if st.breach {
		row.State = "breach"
		row.Reason = strings.Join(reasons, "; ")
		if row.Reason == "" {
			// Still in breach on the long window alone (short cleared last
			// tick is an exit, so this is the both-windows-hot case with a
			// momentarily quiet short window).
			row.Reason = "breach pending short-window recovery"
		}
	} else {
		row.State = "ok"
		if row.transitioned {
			row.Reason = "short window clear"
		}
	}
	return row
}

// rateMetrics renders one tenant's short-window rates for its "rate/<t>"
// registry source — the cohort_rate_* gauge families on /metrics.
func (s *Sampler) rateMetrics(tenant string) []cohort.Metric {
	s.mu.Lock()
	v := s.rateView[tenant]
	s.mu.Unlock()
	return []cohort.Metric{
		cohort.FloatMetric("rate_blocks_per_s", v.BlocksPerSec),
		cohort.FloatMetric("rate_words_in_per_s", v.WordsInPerSec),
		cohort.FloatMetric("rate_words_out_per_s", v.WordsOutPerSec),
		cohort.FloatMetric("rate_retries_per_s", v.RetriesPerSec),
		cohort.FloatMetric("rate_terminal_faults_per_s", v.TerminalFaultsPerSec),
		cohort.FloatMetric("rate_kills_per_s", v.KillsPerSec),
		cohort.FloatMetric("rate_errors_per_s", v.ErrorsPerSec),
	}
}
