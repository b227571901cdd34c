package sched

// Fault containment tests: a faulting session must be exactly as disruptive
// as its own misbehavior — transient faults are retried on the tenant's own
// service time, terminal faults retire only the faulting session, and the
// other tenants' streams and fair shares are untouched.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cohort"
)

// echoAccel is a trivial 1:1 accelerator (the null engine, but local so tests
// can wrap it without importing the catalog).
type echoAccel struct{}

func (echoAccel) Name() string           { return "echo" }
func (echoAccel) InWords() int           { return 1 }
func (echoAccel) OutWords() int          { return 1 }
func (echoAccel) Configure([]byte) error { return nil }
func (echoAccel) Process(in []cohort.Word) ([]cohort.Word, error) {
	return []cohort.Word{in[0]}, nil
}

// drain collects every word from the session output until it closes.
func drain(t *testing.T, ss *Session) []cohort.Word {
	t.Helper()
	var out []cohort.Word
	buf := make([]cohort.Word, 256)
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := ss.Out().TryPopInto(buf)
		out = append(out, buf[:n]...)
		if n == 0 {
			if ss.Out().Drained() {
				return out
			}
			if time.Now().After(deadline) {
				t.Fatalf("session output never closed (%d words so far)", len(out))
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// TestTransientFaultRecovery: a session whose accelerator injects transient
// faults completes its stream bit-exactly under Config.Retries, with the
// retry work visible in session and scheduler counters — and the session's
// Done fires only after its full output is published and closed.
func TestTransientFaultRecovery(t *testing.T) {
	s := New(Config{Engines: 1, Quantum: 4, QueueCap: 64, Retries: 3})
	defer s.Close()
	acc := cohort.NewFaultAccel(echoAccel{}, cohort.FaultPlan{
		Transient: []cohort.TransientFault{{Block: 3, Count: 2}, {Block: 9, Count: 1}},
	})
	ss, err := s.Register(SessionConfig{Tenant: "flaky", Accel: acc})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := 0; i < 20; i++ {
			for !ss.In().TryPush(cohort.Word(i) * 5) {
				time.Sleep(10 * time.Microsecond)
			}
		}
		ss.CloseSend()
	}()
	out := drain(t, ss)
	<-ss.Done()
	if err := ss.Err(); err != nil {
		t.Fatalf("recovered session retired with error: %v", err)
	}
	if len(out) != 20 {
		t.Fatalf("recovered stream returned %d words, want 20", len(out))
	}
	for i, w := range out {
		if w != cohort.Word(i)*5 {
			t.Fatalf("word %d = %d, want %d", i, w, i*5)
		}
	}
	st := ss.Stats()
	if st.Retries != 3 || st.Recovered != 2 {
		t.Fatalf("session stats = %d retries / %d recovered, want 3/2", st.Retries, st.Recovered)
	}
	if sc := s.Stats(); sc.TransientFaults != 3 || sc.Recovered != 2 || sc.TerminalFaults != 0 {
		t.Fatalf("sched stats = %+v, want 3 transient / 2 recovered / 0 terminal", sc)
	}
}

// TestTerminalFaultContainment: one tenant's accelerator dies mid-stream;
// the blast radius is that session alone. The victim retires with the fault
// error and its pre-fault results intact; an innocent tenant sharing the
// single worker completes its whole stream bit-exactly.
func TestTerminalFaultContainment(t *testing.T) {
	s := New(Config{Engines: 1, Quantum: 4, QueueCap: 256, Retries: 2})
	defer s.Close()
	victim, err := s.Register(SessionConfig{
		Tenant: "victim",
		Accel:  cohort.NewFaultAccel(echoAccel{}, cohort.FaultPlan{TerminalAfter: 7}),
		In:     backlog(t, 256, 100),
	})
	if err != nil {
		t.Fatal(err)
	}
	bystander, err := s.Register(SessionConfig{
		Tenant: "bystander", Accel: echoAccel{},
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := 0; i < 200; i++ {
			for !bystander.In().TryPush(cohort.Word(i)) {
				time.Sleep(10 * time.Microsecond)
			}
		}
		bystander.CloseSend()
	}()

	vOut := drain(t, victim)
	<-victim.Done()
	if err := victim.Err(); err == nil || errors.Is(err, ErrKilled) || errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("victim Err = %v, want the accelerator fault", err)
	}
	if len(vOut) != 7 {
		t.Fatalf("victim delivered %d pre-fault words, want 7", len(vOut))
	}

	bOut := drain(t, bystander)
	<-bystander.Done()
	if err := bystander.Err(); err != nil {
		t.Fatalf("bystander caught the victim's fault: %v", err)
	}
	if len(bOut) != 200 {
		t.Fatalf("bystander stream returned %d words, want 200", len(bOut))
	}
	for i, w := range bOut {
		if w != cohort.Word(i) {
			t.Fatalf("bystander word %d = %d, want %d", i, w, i)
		}
	}
	sc := s.Stats()
	if sc.TerminalFaults != 1 || sc.Kills != 0 {
		t.Fatalf("sched stats = %+v, want exactly 1 terminal fault, 0 kills", sc)
	}
	if sc.Live != 0 {
		t.Fatalf("%d sessions still live", sc.Live)
	}
}

// TestFaultFairnessPreserved: while one tenant burns its service time on
// retry loops and finally faults out, a 2:1-weighted pair of innocent
// tenants keeps its 2:1 block ratio — the in-worker snapshot technique from
// TestWeightedFairness, with a chaos tenant added to the mix.
func TestFaultFairnessPreserved(t *testing.T) {
	var aCnt, bCnt atomic.Uint64
	snaps := make(chan uint64, 1)
	gate, open := newGate()
	accA := &tallyAccel{mine: &aCnt, other: &bCnt, every: 4000, snaps: snaps, gate: gate}
	accB := &tallyAccel{mine: &bCnt, gate: gate}

	s := New(Config{Engines: 1, Quantum: 8, QueueCap: 64, Retries: 1})
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
	// The chaos tenant: transient faults early, then a terminal fault.
	chaos, err := s.Register(SessionConfig{
		Tenant: "chaos",
		Accel: cohort.NewFaultAccel(echoAccel{}, cohort.FaultPlan{
			Transient:     []cohort.TransientFault{{Block: 2, Count: 1}, {Block: 5, Count: 1}},
			TerminalAfter: 40,
		}),
		Weight: 1,
		In:     backlog(t, 256, 200),
	})
	if err != nil {
		t.Fatal(err)
	}
	open()
	// Drain the chaos session without t (Fatalf is test-goroutine only).
	go func() {
		buf := make([]cohort.Word, 64)
		for {
			if chaos.Out().TryPopInto(buf) == 0 {
				if chaos.Out().Drained() {
					return
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	var bobAt4000 uint64
	select {
	case bobAt4000 = <-snaps:
	case <-time.After(10 * time.Second):
		t.Fatalf("alice never reached 4000 blocks (alice=%d bob=%d)", aCnt.Load(), bCnt.Load())
	}
	ratio := 4000 / float64(bobAt4000)
	t.Logf("at alice=4000 blocks: bob=%d, ratio %.3f (weights 2:1, chaos tenant faulting)", bobAt4000, ratio)
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("block ratio alice:bob = 4000:%d = %.3f, want 2.0 ± 10%% despite the chaos tenant", bobAt4000, ratio)
	}
	<-chaos.Done()
	if chaos.Err() == nil {
		t.Error("chaos session did not record its terminal fault")
	}
	_ = a
	_ = b
}

// TestCloseSendRacesKill: CloseSend (clean end of stream) racing Kill from
// another goroutine must always converge to a retired session — no deadlock,
// no panic, no leaked session — whichever lifecycle edge the worker sees
// first.
func TestCloseSendRacesKill(t *testing.T) {
	s := New(Config{Engines: 2, Quantum: 4, QueueCap: 64})
	defer s.Close()
	for round := 0; round < 50; round++ {
		ss, err := s.Register(SessionConfig{Tenant: "racy", Accel: echoAccel{}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			ss.In().TryPush(cohort.Word(i))
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); ss.CloseSend() }()
		go func() { defer wg.Done(); ss.Kill() }()
		wg.Wait()
		select {
		case <-ss.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: session never retired after CloseSend/Kill race", round)
		}
		if err := ss.Err(); err != nil && !errors.Is(err, ErrKilled) {
			t.Fatalf("round %d: unexpected session error %v", round, err)
		}
		if !ss.Out().Closed() {
			t.Fatalf("round %d: output not closed after retirement", round)
		}
	}
	if live := s.Stats().Live; live != 0 {
		t.Fatalf("%d sessions leaked across the race rounds", live)
	}
}

// TestEOSDuringSchedRetry: the tenant ends its stream while its last block
// sits in a retry pause. The retry must still run, the recovered block's
// output must be published, and the session must retire cleanly.
func TestEOSDuringSchedRetry(t *testing.T) {
	s := New(Config{Engines: 1, Quantum: 4, QueueCap: 64, Retries: 2, RetryBackoff: 20 * time.Millisecond})
	defer s.Close()
	ss, err := s.Register(SessionConfig{
		Tenant: "eos",
		Accel: cohort.NewFaultAccel(echoAccel{}, cohort.FaultPlan{
			Transient: []cohort.TransientFault{{Block: 0, Count: 1}},
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ss.In().TryPush(77)
	time.Sleep(5 * time.Millisecond) // let the worker take the block into the retry pause
	ss.CloseSend()
	out := drain(t, ss)
	<-ss.Done()
	if err := ss.Err(); err != nil {
		t.Fatalf("session retired with error after EOS during retry: %v", err)
	}
	if len(out) != 1 || out[0] != 77 {
		t.Fatalf("recovered block = %v, want [77]", out)
	}
	if st := ss.Stats(); st.Retries != 1 || st.Recovered != 1 {
		t.Fatalf("session stats = %d retries / %d recovered, want 1/1", st.Retries, st.Recovered)
	}
}

// TestKillDuringRetry: killing a session parked in a retry pause tears it
// down promptly with ErrKilled — the retry loop must not serve out its whole
// backoff schedule first.
func TestKillDuringRetry(t *testing.T) {
	s := New(Config{Engines: 1, Quantum: 4, QueueCap: 64, Retries: 8, RetryBackoff: 30 * time.Millisecond})
	defer s.Close()
	ss, err := s.Register(SessionConfig{
		Tenant: "doomed",
		Accel: cohort.NewFaultAccel(echoAccel{}, cohort.FaultPlan{
			Transient: []cohort.TransientFault{{Block: 0, Count: 100}},
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ss.In().TryPush(1)
	time.Sleep(5 * time.Millisecond)
	if !s.Kill(ss.ID()) {
		t.Fatal("Kill did not find the live session")
	}
	select {
	case <-ss.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("killed session never retired (stuck in retry backoff?)")
	}
	if !errors.Is(ss.Err(), ErrKilled) {
		t.Fatalf("session Err = %v, want ErrKilled", ss.Err())
	}
	if sc := s.Stats(); sc.Kills != 1 {
		t.Fatalf("sched stats = %+v, want 1 kill", sc)
	}
}
