package cohort_test

import (
	"testing"
	"time"

	"cohort"
	"cohort/internal/sched"
)

// aliasSentinel is what aliasAcc writes over its result buffer on entry to
// every Process call.
const aliasSentinel cohort.Word = 0xdeadbeefdeadbeef

// aliasAcc (2 words in, 3 out) returns every result in the one buffer it
// owns and overwrites that buffer with aliasSentinel on entry to each
// Process, as the Accelerator contract permits. A caller that reads a result
// after its next Process call sees sentinels or a later block's words.
type aliasAcc struct{ out [3]cohort.Word }

func (a *aliasAcc) Name() string           { return "alias" }
func (a *aliasAcc) InWords() int           { return 2 }
func (a *aliasAcc) OutWords() int          { return 3 }
func (a *aliasAcc) Configure([]byte) error { return nil }
func (a *aliasAcc) Process(in []cohort.Word) ([]cohort.Word, error) {
	for i := range a.out {
		a.out[i] = aliasSentinel
	}
	aliasKernel(a.out[:], in)
	return a.out[:], nil
}

func aliasKernel(dst, in []cohort.Word) {
	for i := range dst {
		dst[i] = in[0]*0x9e3779b97f4a7c15 ^ in[1] + cohort.Word(i)
	}
}

// freshAcc is aliasAcc with a fresh result slice per block: the oracle.
type freshAcc struct{ aliasAcc }

func (freshAcc) Process(in []cohort.Word) ([]cohort.Word, error) {
	out := make([]cohort.Word, 3)
	aliasKernel(out, in)
	return out, nil
}

// TestCallersCopyAliasedResults drives aliasAcc, bare and under a FaultAccel
// corruption plan, through every in-repo caller of Process that serves
// streams — the Engine and the scheduler's batched and per-block
// (LegacyHandoff) quanta — and checks the output word for word against the
// fresh-slice oracle run directly. It pins that no caller keeps a result
// across Process calls.
func TestCallersCopyAliasedResults(t *testing.T) {
	const blocks = 100
	in := make([]cohort.Word, 2*blocks)
	for i := range in {
		in[i] = cohort.Word(i+1) * 2654435761
	}
	plan := cohort.FaultPlan{Corrupt: []int{0, 7, 8, 9, 63, 99}, Seed: 5}

	accels := []struct {
		name        string
		acc, oracle func() cohort.Accelerator
	}{
		{"bare",
			func() cohort.Accelerator { return &aliasAcc{} },
			func() cohort.Accelerator { return &freshAcc{} }},
		{"faults",
			func() cohort.Accelerator { return cohort.NewFaultAccel(&aliasAcc{}, plan) },
			func() cohort.Accelerator { return cohort.NewFaultAccel(&freshAcc{}, plan) }},
	}
	drivers := []struct {
		name string
		run  func(t *testing.T, acc cohort.Accelerator, in []cohort.Word) []cohort.Word
	}{
		{"engine", runEngine},
		{"sched", func(t *testing.T, acc cohort.Accelerator, in []cohort.Word) []cohort.Word {
			return runSched(t, acc, in, false)
		}},
		{"sched-legacy", func(t *testing.T, acc cohort.Accelerator, in []cohort.Word) []cohort.Word {
			return runSched(t, acc, in, true)
		}},
	}
	for _, a := range accels {
		oracle := a.oracle()
		var want []cohort.Word
		for b := 0; b < blocks; b++ {
			res, err := oracle.Process(in[2*b : 2*b+2])
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, res...)
		}
		for _, d := range drivers {
			t.Run(a.name+"/"+d.name, func(t *testing.T) {
				got := d.run(t, a.acc(), in)
				if len(got) != len(want) {
					t.Fatalf("got %d words, want %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("word %d (block %d) = %#x, want %#x", i, i/3, got[i], want[i])
					}
				}
			})
		}
	}
}

// queue returns a fifo holding exactly the words of in, or empty with room
// for n words when in is nil.
func queue(t *testing.T, in []cohort.Word, n int) *cohort.Fifo[cohort.Word] {
	t.Helper()
	q, err := cohort.NewFifo[cohort.Word](max(len(in), n))
	if err != nil {
		t.Fatal(err)
	}
	q.PushSlice(in)
	return q
}

func runEngine(t *testing.T, acc cohort.Accelerator, in []cohort.Word) []cohort.Word {
	got := make([]cohort.Word, len(in)/acc.InWords()*acc.OutWords())
	out := queue(t, nil, len(got))
	e, err := cohort.Register(acc, queue(t, in, 0), out)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Unregister()
	out.PopSlice(got)
	return got
}

func runSched(t *testing.T, acc cohort.Accelerator, in []cohort.Word, legacy bool) []cohort.Word {
	s := sched.New(sched.Config{Engines: 1, Quantum: 16})
	defer s.Close()
	got := make([]cohort.Word, len(in)/acc.InWords()*acc.OutWords()+1)
	ss, err := s.Register(sched.SessionConfig{
		Tenant: "alias", Accel: acc, In: queue(t, in, 0), Out: queue(t, nil, len(got)),
		LegacyHandoff: legacy,
	})
	if err != nil {
		t.Fatal(err)
	}
	ss.CloseSend()
	select {
	case <-ss.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("session never retired")
	}
	if err := ss.Err(); err != nil {
		t.Fatal(err)
	}
	return got[:ss.Out().TryPopInto(got)]
}
