package cohort

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// This file is the native runtime's fault model: the transient/terminal
// error taxonomy that WithRetry and the serving scheduler key their recovery
// policies on, and FaultAccel — a deterministic, schedule-driven fault
// injector that wraps any Accelerator. Real accelerators fail (a transient
// ECC hiccup, a wedged DMA, a corrupted burst); the paper's protection
// argument (§4.3) presumes the OS contains those faults per process. The
// injector makes every such failure reproducible on demand, so containment
// is a tested property rather than a hoped-for one.

// ErrProcessTimeout is the terminal error an engine parks with when a single
// accelerator Process call exceeds the WithProcessTimeout bound. It is
// terminal, not transient: the call may still be running (Go cannot cancel
// it), so the accelerator's internal state is unknown and re-dispatching
// into it would violate the single-caller contract.
var ErrProcessTimeout = errors.New("cohort: accelerator process timeout")

// transientError marks a wrapped error as transient. Detection goes through
// the Transient() bool marker interface (not a sentinel) so accelerator
// implementations outside this package can mark their own errors without
// importing anything.
type transientError struct{ err error }

func (e *transientError) Error() string   { return "transient: " + e.err.Error() }
func (e *transientError) Unwrap() error   { return e.err }
func (e *transientError) Transient() bool { return true }

// Transient marks err as a transient (retryable) accelerator fault: the
// block that failed may simply be processed again. An engine registered
// WithRetry re-runs the block instead of parking; the serving scheduler
// (internal/sched) likewise retries instead of retiring the session. A nil
// err stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err is marked transient — by Transient, or by
// any error in its chain implementing `Transient() bool`. Unmarked errors
// are terminal: the stream's block framing (or the accelerator's state) is
// gone, and the engine or session must stop.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// TransientFault schedules Count consecutive transient Process failures at
// the given (0-based, successfully-completed) block index. The block itself
// is unharmed: once the failures are consumed, the same input succeeds.
type TransientFault struct {
	Block int `json:"block"`
	Count int `json:"count"`
}

// DelayFault schedules one latency spike: Process sleeps Nanos before
// touching the block, once, the first time that block index is attempted.
type DelayFault struct {
	Block int   `json:"block"`
	Nanos int64 `json:"nanos"`
}

// FaultPlan is a deterministic fault schedule for one FaultAccel instance,
// keyed entirely by block index — two runs over the same input stream inject
// byte-identical faults, which is what lets the chaos harness verify
// end-to-end integrity even for corrupted streams. The zero plan injects
// nothing. Plans marshal to JSON, so a remote tenant can carry one in the
// CSR bytes of a session open (the chaos catalog's configuration path).
type FaultPlan struct {
	// Transient lists scheduled retryable failures (see TransientFault).
	Transient []TransientFault `json:"transient,omitempty"`
	// TerminalAfter, when > 0, fails Process terminally once that many
	// blocks have completed — the (TerminalAfter+1)-th block never succeeds,
	// no matter how often it is retried.
	TerminalAfter int `json:"terminal_after,omitempty"`
	// Corrupt lists block indices whose output words are XOR-scrambled with
	// a mask derived from Seed and the block index (silent data corruption;
	// deterministic, so an expected-output oracle can reproduce it).
	Corrupt []int `json:"corrupt,omitempty"`
	// Delay lists scheduled latency spikes (see DelayFault).
	Delay []DelayFault `json:"delay,omitempty"`
	// Seed drives the corruption masks.
	Seed int64 `json:"seed,omitempty"`
	// CSR, when non-empty, is forwarded to the wrapped accelerator's
	// Configure — the inner CSR image rides inside the plan.
	CSR []byte `json:"csr,omitempty"`
}

// FaultStats counts the faults a FaultAccel has injected so far.
type FaultStats struct {
	Transient uint64 // transient Process failures returned
	Terminal  uint64 // terminal Process failures returned
	Corrupted uint64 // blocks whose output was scrambled
	Delays    uint64 // latency spikes slept
}

// FaultAccel wraps an Accelerator and injects the faults of a FaultPlan:
// seeded, schedule-driven transient errors, terminal errors, latency spikes
// and output corruption. Everything is keyed by the count of successfully
// completed blocks, so the injection sequence is a pure function of the plan
// — independent of wall-clock time, scheduling, or retry timing.
//
// Configure replaces the plan: the CSR bytes are decoded as FaultPlan JSON
// (with the inner accelerator's own CSR nested in plan.CSR), which is how a
// serving catalog lets each remote tenant carry its own fault schedule.
// Like any Accelerator, a FaultAccel serves one engine or session at a time.
type FaultAccel struct {
	inner Accelerator

	transient map[int]int
	corrupt   map[int]bool
	delay     map[int]time.Duration
	terminal  int
	seed      int64
	block     int // successfully completed blocks

	stTransient atomic.Uint64
	stTerminal  atomic.Uint64
	stCorrupted atomic.Uint64
	stDelays    atomic.Uint64
}

// NewFaultAccel wraps inner with plan's fault schedule.
func NewFaultAccel(inner Accelerator, plan FaultPlan) *FaultAccel {
	f := &FaultAccel{inner: inner}
	f.setPlan(plan)
	return f
}

func (f *FaultAccel) setPlan(plan FaultPlan) {
	f.transient = make(map[int]int, len(plan.Transient))
	for _, t := range plan.Transient {
		if t.Count > 0 {
			f.transient[t.Block] = t.Count
		}
	}
	f.corrupt = make(map[int]bool, len(plan.Corrupt))
	for _, b := range plan.Corrupt {
		f.corrupt[b] = true
	}
	f.delay = make(map[int]time.Duration, len(plan.Delay))
	for _, d := range plan.Delay {
		if d.Nanos > 0 {
			f.delay[d.Block] = time.Duration(d.Nanos)
		}
	}
	f.terminal = plan.TerminalAfter
	f.seed = plan.Seed
	f.block = 0
}

// Name returns the wrapped accelerator's name with a "+faults" suffix.
func (f *FaultAccel) Name() string { return f.inner.Name() + "+faults" }

// InWords returns the wrapped accelerator's input block size.
func (f *FaultAccel) InWords() int { return f.inner.InWords() }

// OutWords returns the wrapped accelerator's output block size.
func (f *FaultAccel) OutWords() int { return f.inner.OutWords() }

// Configure decodes csr as FaultPlan JSON, installs the plan (resetting the
// block counter), and forwards plan.CSR — when present — to the wrapped
// accelerator. Empty csr clears the plan.
func (f *FaultAccel) Configure(csr []byte) error {
	var plan FaultPlan
	if len(csr) > 0 {
		if err := json.Unmarshal(csr, &plan); err != nil {
			return fmt.Errorf("cohort: fault plan: %w", err)
		}
	}
	f.setPlan(plan)
	if len(plan.CSR) > 0 {
		return f.inner.Configure(plan.CSR)
	}
	return nil
}

// Process injects this block's scheduled faults, then delegates to the
// wrapped accelerator. Transient failures leave the block counter in place,
// so a retried block replays its remaining schedule and then succeeds;
// corruption scrambles the inner result in place, which the Accelerator
// contract allows until the next Process call.
func (f *FaultAccel) Process(in []Word) ([]Word, error) {
	idx := f.block
	if d, ok := f.delay[idx]; ok {
		delete(f.delay, idx) // one spike per block, not per attempt
		f.stDelays.Add(1)
		time.Sleep(d)
	}
	if n := f.transient[idx]; n > 0 {
		f.transient[idx] = n - 1
		f.stTransient.Add(1)
		return nil, Transient(fmt.Errorf("injected transient fault at block %d (%d left)", idx, n-1))
	}
	if f.terminal > 0 && idx >= f.terminal {
		f.stTerminal.Add(1)
		return nil, fmt.Errorf("injected terminal fault after %d blocks", idx)
	}
	res, err := f.inner.Process(in)
	if err != nil {
		return nil, err
	}
	if f.corrupt[idx] {
		f.stCorrupted.Add(1)
		for i := range res {
			res[i] ^= faultMask(f.seed, idx, i)
		}
	}
	f.block++
	return res, nil
}

// Stats snapshots the injected-fault counters. Safe to read from any
// goroutine while the accelerator is being driven.
func (f *FaultAccel) Stats() FaultStats {
	return FaultStats{
		Transient: f.stTransient.Load(),
		Terminal:  f.stTerminal.Load(),
		Corrupted: f.stCorrupted.Load(),
		Delays:    f.stDelays.Load(),
	}
}

// faultMask derives the corruption mask for word i of block idx — splitmix64
// over the seed and coordinates, so the scramble is reproducible anywhere
// (the chaos harness runs the same function to build its expected output).
func faultMask(seed int64, idx, i int) Word {
	x := uint64(seed) ^ uint64(idx)<<32 ^ uint64(i)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return Word(x ^ (x >> 31))
}
