package sched

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cohort"
)

// tallyAccel burns a little CPU per block (so a quantum has nonzero length)
// and counts its own completed blocks in an atomic. Every `every` own blocks
// it snapshots the *other* tenant's counter into snaps — taken inside the
// worker, at an exact point of this tenant's progress, so the measurement is
// immune to sampling skew. It produces no output words, which removes output
// backpressure (and drainer goroutines) from the fairness experiments: on a
// single-CPU machine any concurrent helper goroutine rate-limits the worker
// and the test would measure Go's goroutine scheduler, not ours.
//
// A non-nil gate holds the first block until the test closes it. Fairness
// tests close it after their last Register, so every tenant starts from the
// same point: on more than one CPU the worker would otherwise start draining
// the first-admitted tenant while the test is still admitting the rest.
type tallyAccel struct {
	mine  *atomic.Uint64
	other *atomic.Uint64
	every uint64
	snaps chan uint64
	gate  chan struct{}
	sink  cohort.Word
}

func (a *tallyAccel) Name() string           { return "tally" }
func (a *tallyAccel) InWords() int           { return 1 }
func (a *tallyAccel) OutWords() int          { return 0 }
func (a *tallyAccel) Configure([]byte) error { return nil }
func (a *tallyAccel) Process(in []cohort.Word) ([]cohort.Word, error) {
	if a.gate != nil {
		<-a.gate
		a.gate = nil
	}
	x := in[0] + 1
	for i := 0; i < 800; i++ {
		x = x*2654435761 + 1
	}
	a.sink = x
	n := a.mine.Add(1)
	if a.every > 0 && n%a.every == 0 {
		select {
		case a.snaps <- a.other.Load():
		default:
		}
	}
	return nil, nil
}

// newGate returns a tallyAccel gate and an idempotent func that opens it.
func newGate() (chan struct{}, func()) {
	gate := make(chan struct{})
	return gate, sync.OnceFunc(func() { close(gate) })
}

// backlog returns a fifo of capacity cap pre-filled with n words — a tenant
// whose entire workload is queued before the scheduler ever sees it.
func backlog(t *testing.T, cap, n int) *cohort.Fifo[cohort.Word] {
	t.Helper()
	q, err := cohort.NewFifo[cohort.Word](cap)
	if err != nil {
		t.Fatal(err)
	}
	if q.TryPushSlice(make([]cohort.Word, n)) != n {
		t.Fatalf("backlog: could not pre-fill %d words into cap-%d fifo", n, cap)
	}
	return q
}

// TestWeightedFairness is the acceptance-criteria run: two backlogged tenants
// with weights 2:1 sharing ONE engine worker complete blocks in a 2:1 ratio
// within ±10%. Both tenants' entire workloads are pre-filled into
// caller-supplied queues so the worker is the only busy goroutine, and the
// ratio is read by alice's accelerator at her 4000th block — by then bob must
// hold 2000 ± 10%.
func TestWeightedFairness(t *testing.T) {
	var aCnt, bCnt atomic.Uint64
	snaps := make(chan uint64, 1)
	gate, open := newGate()
	accA := &tallyAccel{mine: &aCnt, other: &bCnt, every: 4000, snaps: snaps, gate: gate}
	accB := &tallyAccel{mine: &bCnt, gate: gate}

	s := New(Config{Engines: 1, Quantum: 8, QueueCap: 64})
	defer s.Close()
	defer open() // before Close: a failed Register must not leave the worker parked
	b, err := s.Register(SessionConfig{Tenant: "bob", Accel: accB, Weight: 1,
		In: backlog(t, 8192, 8000)})
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Register(SessionConfig{Tenant: "alice", Accel: accA, Weight: 2,
		In: backlog(t, 8192, 4800)})
	if err != nil {
		t.Fatal(err)
	}
	open()

	var bobAt4000 uint64
	select {
	case bobAt4000 = <-snaps:
	case <-time.After(10 * time.Second):
		t.Fatalf("alice never reached 4000 blocks (alice=%d bob=%d)", aCnt.Load(), bCnt.Load())
	}
	ratio := 4000 / float64(bobAt4000)
	t.Logf("at alice=4000 blocks: bob=%d, ratio %.3f (weights 2:1)", bobAt4000, ratio)
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("block ratio alice:bob = 4000:%d = %.3f, want 2.0 ± 10%%", bobAt4000, ratio)
	}
	if sw := a.Stats().Switches + b.Stats().Switches; sw < 2 {
		t.Errorf("expected the single worker to swap between sessions, switches = %d", sw)
	}
}

// TestNoStarvation: a heavily weighted, deeply backlogged tenant cannot
// starve a lightweight one. The heavy tenant's accelerator snapshots the
// light tenant's block count every 1500 of its own blocks; each 1500-block
// round of heavy service must show fresh progress for the light tenant.
func TestNoStarvation(t *testing.T) {
	var heavyCnt, lightCnt atomic.Uint64
	snaps := make(chan uint64, 16)
	gate, open := newGate()
	accHeavy := &tallyAccel{mine: &heavyCnt, other: &lightCnt, every: 1500, snaps: snaps, gate: gate}
	accLight := &tallyAccel{mine: &lightCnt, gate: gate}

	s := New(Config{Engines: 1, Quantum: 16, QueueCap: 64})
	defer s.Close()
	defer open() // before Close: a failed Register must not leave the worker parked
	if _, err := s.Register(SessionConfig{Tenant: "light", Accel: accLight, Weight: 1,
		In: backlog(t, 4096, 4000)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register(SessionConfig{Tenant: "heavy", Accel: accHeavy, Weight: 10,
		In: backlog(t, 32768, 20000)}); err != nil {
		t.Fatal(err)
	}
	open()

	last := uint64(0)
	for round := 1; round <= 8; round++ {
		var cur uint64
		select {
		case cur = <-snaps:
		case <-time.After(10 * time.Second):
			t.Fatalf("heavy tenant stalled in round %d (heavy=%d light=%d)",
				round, heavyCnt.Load(), lightCnt.Load())
		}
		if cur <= last {
			t.Fatalf("light tenant starved: heavy round %d ended with light at %d blocks (was %d)",
				round, cur, last)
		}
		last = cur
	}
	t.Logf("after 8×1500 heavy blocks (weight 10): light tenant (weight 1) at %d blocks", last)
}

// TestSessionChurnNoLeaks cycles concurrent register/finish/kill and checks
// that goroutine count and metric registry population return to baseline —
// the session lifecycle leaks nothing.
func TestSessionChurnNoLeaks(t *testing.T) {
	reg := cohort.NewRegistry()
	baselineGoroutines := runtime.NumGoroutine()
	s := New(Config{Engines: 2, Quantum: 4, QueueCap: 64, Registry: reg})

	const cycles = 25
	const tenants = 4
	for c := 0; c < cycles; c++ {
		var wg sync.WaitGroup
		for i := 0; i < tenants; i++ {
			wg.Add(1)
			go func(c, i int) {
				defer wg.Done()
				ss, err := s.Register(SessionConfig{
					Tenant: fmt.Sprintf("t%d", i), Accel: cohort.NewNull(), Weight: 1 + i,
				})
				if err != nil {
					t.Error(err)
					return
				}
				if (c+i)%3 == 0 {
					// A third of the sessions die abruptly, mid-stream.
					ss.In().PushSlice(make([]cohort.Word, 7))
					ss.Kill()
					<-ss.Done()
					if !errors.Is(ss.Err(), ErrKilled) {
						t.Errorf("killed session Err = %v, want ErrKilled", ss.Err())
					}
					return
				}
				const words = 48
				ss.In().PushSlice(make([]cohort.Word, words))
				ss.CloseSend()
				<-ss.Done()
				if err := ss.Err(); err != nil {
					t.Errorf("clean session Err = %v", err)
				}
				// Results remain readable after retirement; the stream ends.
				got, buf := 0, make([]cohort.Word, 16)
				for {
					n := ss.Out().TryPopInto(buf)
					got += n
					if n == 0 {
						if ss.Out().Drained() {
							break
						}
						runtime.Gosched()
					}
				}
				if got != words {
					t.Errorf("session returned %d words, want %d", got, words)
				}
			}(c, i)
		}
		wg.Wait()
	}

	if n := len(s.Sessions()); n != 0 {
		t.Errorf("%d sessions still live after churn", n)
	}
	// Per-session sources die with their sessions; what remains is the
	// scheduler's own "sched" source plus the persistent per-tenant
	// aggregates — one "latency/<tenant>" stage set and one "tenant/<tenant>"
	// counter set per tenant (those outlive session churn by design and
	// unregister only at Close).
	if n := reg.Len(); n != 1+2*tenants {
		t.Errorf("registry holds %d sources after churn, want %d", n, 1+2*tenants)
	}
	s.Close()
	if n := reg.Len(); n != 0 {
		t.Errorf("registry holds %d sources after Close, want 0", n)
	}
	// Workers are joined by Close; give the runtime a moment to reap stacks.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baselineGoroutines+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baselineGoroutines, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAdmissionControl: MaxSessions rejects the overflow registration and
// admits again after a retirement.
func TestAdmissionControl(t *testing.T) {
	s := New(Config{Engines: 1, MaxSessions: 2, QueueCap: 64})
	defer s.Close()
	a, err := s.Register(SessionConfig{Tenant: "a", Accel: cohort.NewNull()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register(SessionConfig{Tenant: "b", Accel: cohort.NewNull()}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register(SessionConfig{Tenant: "c", Accel: cohort.NewNull()}); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("overflow Register err = %v, want ErrTooManySessions", err)
	}
	a.CloseSend()
	<-a.Done()
	if _, err := s.Register(SessionConfig{Tenant: "c", Accel: cohort.NewNull()}); err != nil {
		t.Fatalf("Register after retirement: %v", err)
	}
}

// TestQuotaExceeded: a session with a block quota is served exactly that many
// blocks, then retired with ErrQuotaExceeded and a closed output stream.
func TestQuotaExceeded(t *testing.T) {
	s := New(Config{Engines: 1, Quantum: 2, QueueCap: 256})
	defer s.Close()
	ss, err := s.Register(SessionConfig{Tenant: "capped", Accel: cohort.NewNull(), Quota: 3})
	if err != nil {
		t.Fatal(err)
	}
	ss.In().PushSlice(make([]cohort.Word, 10))
	select {
	case <-ss.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("quota-capped session never retired")
	}
	if !errors.Is(ss.Err(), ErrQuotaExceeded) {
		t.Fatalf("Err = %v, want ErrQuotaExceeded", ss.Err())
	}
	if st := ss.Stats(); st.Blocks != 3 {
		t.Fatalf("served %d blocks, want exactly the quota of 3", st.Blocks)
	}
	if !ss.Out().Closed() {
		t.Fatal("output stream not closed after quota retirement")
	}
}

// TestEndOfStreamDrain: CloseSend finishes complete blocks, drops the partial
// tail, closes the output and retires — the block math for a non-1:1
// accelerator (SHA-256, 8 words in, 4 out).
func TestEndOfStreamDrain(t *testing.T) {
	reg := cohort.NewRegistry()
	s := New(Config{Engines: 1, Quantum: 4, QueueCap: 256, Registry: reg})
	defer s.Close()
	ss, err := s.Register(SessionConfig{Tenant: "sha", Accel: cohort.NewSHA256(), Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	ss.In().PushSlice(make([]cohort.Word, 2*8+3)) // two blocks and a 3-word tail
	ss.CloseSend()
	select {
	case <-ss.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("session never retired after CloseSend")
	}
	if err := ss.Err(); err != nil {
		t.Fatalf("clean end of stream Err = %v", err)
	}
	st := ss.Stats()
	if st.Blocks != 2 || st.DroppedWords != 3 || st.WordsOut != 8 {
		t.Fatalf("stats = %+v, want 2 blocks, 3 dropped, 8 words out", st)
	}
	if !ss.Out().Drained() {
		got := make([]cohort.Word, 8)
		if n := ss.Out().TryPopInto(got); n != 8 {
			t.Fatalf("output holds %d words, want 8", n)
		}
	}
}

// TestSessionsSnapshot: the /sessions document reflects live sessions with
// tenant, weight and queue occupancy, sorted by id.
func TestSessionsSnapshot(t *testing.T) {
	s := New(Config{Engines: 1, QueueCap: 64})
	defer s.Close()
	a, _ := s.Register(SessionConfig{Tenant: "alice", Accel: cohort.NewNull(), Weight: 2})
	b, _ := s.Register(SessionConfig{Tenant: "bob", Accel: cohort.NewSHA256(), Weight: 1, Quota: 9})
	infos := s.Sessions()
	if len(infos) != 2 {
		t.Fatalf("Sessions() = %d rows, want 2", len(infos))
	}
	if infos[0].ID != a.ID() || infos[1].ID != b.ID() {
		t.Fatalf("rows out of id order: %+v", infos)
	}
	if infos[0].Tenant != "alice" || infos[0].Weight != 2 || infos[0].Accel != "axis-null" {
		t.Errorf("alice row = %+v", infos[0])
	}
	if infos[1].Quota != 9 || infos[1].Accel != "sha256" {
		t.Errorf("bob row = %+v", infos[1])
	}
}

// TestRegisterValidation: bad configurations are rejected before any
// resources are committed.
func TestRegisterValidation(t *testing.T) {
	s := New(Config{Engines: 1, QueueCap: 64})
	if _, err := s.Register(SessionConfig{Tenant: "x"}); err == nil {
		t.Error("nil accelerator accepted")
	}
	if _, err := s.Register(SessionConfig{Tenant: "x", Accel: cohort.NewNull(), Weight: -1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := s.Register(SessionConfig{Tenant: "x", Accel: cohort.NewSHA256(), QueueCap: 4}); err == nil {
		t.Error("queue capacity below block size accepted")
	}
	s.Close()
	if _, err := s.Register(SessionConfig{Tenant: "x", Accel: cohort.NewNull()}); !errors.Is(err, ErrClosed) {
		t.Errorf("Register after Close err = %v, want ErrClosed", err)
	}
}
