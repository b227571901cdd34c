package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"

	"cohort"
)

// cohortloadRetired replays cmd/cohortload's retire rule: it treats every
// run of batch output words as one finished arrival of batch input words,
// which holds only when the accelerator emits as many words as it takes.
func cohortloadRetired(batch, resultWords int) int { return resultWords / batch }

// deliver feeds results to l in uneven chunks and returns the ids retired,
// in order.
func deliver(t *testing.T, l *ledger, results []cohort.Word) []uint64 {
	t.Helper()
	var ids []uint64
	for off := 0; off < len(results); {
		n := min(7, len(results)-off)
		if err := l.accept(results[off:off+n], func(r *request, ok bool) {
			if !ok {
				t.Errorf("request %d failed its check", r.id)
			}
			ids = append(ids, r.id)
		}); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	return ids
}

func TestRetireByGeometry(t *testing.T) {
	for _, tc := range []struct {
		name  string
		g     geometry
		rules bool // whether cohortload's rule happens to agree
	}{
		{"sha256 8->4", geometry{in: 8, out: 4}, false},
		{"aes128 2->2", geometry{in: 2, out: 2}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const reqs, blocksPer = 50, 3
			l := newLedger(tc.g, nil)
			for i := 0; i < reqs; i++ {
				if err := l.push(&request{id: uint64(i + 1), in: make([]cohort.Word, blocksPer*tc.g.in), blocks: blocksPer}, nil); err != nil {
					t.Fatal(err)
				}
			}
			results := make([]cohort.Word, reqs*blocksPer*tc.g.out)
			ids := deliver(t, l, results)
			if len(ids) != reqs || l.unanswered() != 0 {
				t.Fatalf("geometry rule retired %d of %d requests, %d left pending", len(ids), reqs, l.unanswered())
			}
			for i, id := range ids {
				if id != uint64(i+1) {
					t.Fatalf("retired out of order: %v", ids)
				}
			}
			old := cohortloadRetired(blocksPer*tc.g.in, len(results))
			if (old == reqs) != tc.rules {
				t.Fatalf("cohortload rule retired %d of %d requests; expected it to be right: %v", old, reqs, tc.rules)
			}
		})
	}
}

func TestLedgerRejectsStrayWords(t *testing.T) {
	l := newLedger(geometry{in: 8, out: 4}, nil)
	if err := l.accept(make([]cohort.Word, 4), func(*request, bool) {}); err == nil {
		t.Fatal("result words with nothing pending were accepted")
	}
}

// The standard-library references must agree with the repository's
// accelerators on correct output and catch a corrupted word.
func TestReferencesMatchAccelerators(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	key := make([]byte, 16)
	rng.Read(key)
	aesRef, err := aes128Ref(key)
	if err != nil {
		t.Fatal(err)
	}
	aes := cohort.NewAES128()
	if err := aes.Configure(key); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		acc  cohort.Accelerator
		ref  func(in, out []cohort.Word) []cohort.Word
	}{
		{"null", cohort.NewNull(), nullRef},
		{"sha256", cohort.NewSHA256(), sha256Ref},
		{"aes128", aes, aesRef},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := geometry{in: tc.acc.InWords(), out: tc.acc.OutWords()}
			in := randomWords(rng, 4*g.in)
			var out []cohort.Word
			for b := 0; b < 4; b++ {
				o, err := tc.acc.Process(in[b*g.in : (b+1)*g.in])
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, o...)
			}
			for _, corrupt := range []bool{false, true} {
				l := newLedger(g, tc.ref)
				if err := l.push(&request{id: 1, in: in, blocks: 4}, nil); err != nil {
					t.Fatal(err)
				}
				got := append([]cohort.Word(nil), out...)
				if corrupt {
					got[len(got)-1] ^= 1
				}
				var okSeen []bool
				if err := l.accept(got, func(_ *request, ok bool) { okSeen = append(okSeen, ok) }); err != nil {
					t.Fatal(err)
				}
				if len(okSeen) != 1 || okSeen[0] == corrupt {
					t.Fatalf("corrupt=%v: check results %v", corrupt, okSeen)
				}
			}
		})
	}
}

func TestQuantilesAreExact(t *testing.T) {
	var s samples
	for i := 1000; i >= 1; i-- {
		s.addAt(int64(i), float64(i))
	}
	if s.quantile(0.5) != 500 || s.quantile(0.99) != 990 || s.quantile(1) != 1000 {
		t.Fatalf("p50=%v p99=%v max=%v", s.quantile(0.5), s.quantile(0.99), s.quantile(1))
	}
	if q, v, ok := s.tail(); !ok || q != 0.99 || v != 990 {
		t.Fatalf("tail = p%v %v %v, want p99 with 10 samples beyond", q*100, v, ok)
	}
	// Two windows of 500: p50s are 250 and 750; the median of two is the
	// lower one.
	if v, n := s.windowed(0.5, 500); n != 2 || v != 250 {
		t.Fatalf("windowed p50 = %v over %d windows", v, n)
	}
}

// BENCHMARK.json, one directory up, must list exactly the metrics the
// benchmark prints, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		listed []struct{ Name, Unit string }
		want   map[string]string
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(set.listed) != len(set.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark prints %d", len(set.listed), len(set.want))
		}
		for _, m := range set.listed {
			if u, ok := set.want[m.Name]; !ok || u != m.Unit {
				t.Errorf("metric %s (%s): benchmark prints unit %q (present %v)", m.Name, m.Unit, u, ok)
			}
		}
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}
