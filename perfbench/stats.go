package main

import (
	"fmt"
	"sort"
)

// samples keeps every observation, so each quantile is an exact order
// statistic: no reservoir, no histogram buckets, no relative error.
// Observations added with addAt also keep their time, for windowed.
type samples struct {
	v      []float64 // in arrival order
	t      []int64   // run-clock time of each v, when added with addAt
	sorted []float64 // v sorted, built on demand
}

func (s *samples) add(x float64) {
	s.v = append(s.v, x)
	s.sorted = nil
}

func (s *samples) addAt(t int64, x float64) {
	s.add(x)
	s.t = append(s.t, t)
}

func (s *samples) n() int { return len(s.v) }

// quantile returns the nearest-rank q-quantile (0 when empty).
func (s *samples) quantile(q float64) float64 {
	if len(s.v) == 0 {
		return 0
	}
	if s.sorted == nil {
		s.sorted = append([]float64(nil), s.v...)
		sort.Float64s(s.sorted)
	}
	i := int(q*float64(len(s.v))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s.v) {
		i = len(s.v) - 1
	}
	return s.sorted[i]
}

// windowed splits the timed observations into consecutive windows of width
// ns and returns the median over windows of each window's q-quantile,
// counting only windows with at least ten observations beyond q; with no
// such window it falls back to the plain quantile. One stall on a shared
// machine then moves one window, not the run's figure.
func (s *samples) windowed(q float64, width int64) (float64, int) {
	per := s.perWindow(q, width)
	if len(per) == 0 {
		return s.quantile(q), 0
	}
	return median(per), len(per)
}

// perWindow returns the q-quantile of each window of width ns that has at
// least ten observations beyond q.
func (s *samples) perWindow(q float64, width int64) []float64 {
	if len(s.t) != len(s.v) || len(s.t) == 0 {
		return nil
	}
	t0 := s.t[0]
	for _, t := range s.t {
		t0 = min(t0, t)
	}
	byWin := map[int64]*samples{}
	for i, t := range s.t {
		k := (t - t0) / width
		if byWin[k] == nil {
			byWin[k] = &samples{}
		}
		byWin[k].add(s.v[i])
	}
	var per []float64
	for _, w := range byWin {
		if float64(w.n())*(1-q) >= 10 {
			per = append(per, w.quantile(q))
		}
	}
	return per
}

// windowRates adds the timed observations up per window of width ns over
// [from, to) and returns each window's sum divided by the window's length in
// seconds — a rate per window. Windows not wholly inside [from, to) are
// dropped.
func (s *samples) windowRates(from, to, width int64) []float64 {
	n := (to - from) / width
	if n < 1 {
		return nil
	}
	sums := make([]float64, n)
	for i, t := range s.t {
		if k := (t - from) / width; t >= from && k < n {
			sums[k] += s.v[i]
		}
	}
	for i := range sums {
		sums[i] /= float64(width) / 1e9
	}
	return sums
}

// tailLevels are the percentiles a summary may report as its tail, highest
// first.
var tailLevels = []float64{0.9999, 0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// tail returns the highest percentile in tailLevels that still has at least
// ten samples beyond it, with its value; ok is false below 20 samples.
func (s *samples) tail() (level, value float64, ok bool) {
	for _, q := range tailLevels {
		if float64(len(s.v))*(1-q) >= 10 {
			return q, s.quantile(q), true
		}
	}
	return 0, 0, false
}

// describe renders "p50=… p99=… (n=…, tail p…=…)" for a summary line; the
// values are in the unit the samples were recorded in.
func (s *samples) describe(unit string) string {
	out := fmt.Sprintf("p50=%.1f%s p99=%.1f%s (n=%d", s.quantile(0.5), unit, s.quantile(0.99), unit, s.n())
	if q, v, ok := s.tail(); ok {
		out += fmt.Sprintf(", tail p%g=%.1f%s with >=10 beyond", q*100, v, unit)
	} else {
		out += ", too few samples for a tail with 10 beyond"
	}
	return out + ")"
}

// median of a small set of repeated measurements.
func median(xs []float64) float64 {
	s := samples{v: xs}
	return s.quantile(0.5)
}
