package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of an ascending slice by linear
// interpolation between closest ranks (the same rule as Python's
// statistics.quantiles "inclusive" method), so a reported time keeps all
// its digits instead of snapping to one sample.
func quantile(sorted []float64, q float64) float64 {
	switch n := len(sorted); {
	case n == 0:
		return 0
	case n == 1:
		return sorted[0]
	default:
		pos := q * float64(n-1)
		lo := int(math.Floor(pos))
		if lo >= n-1 {
			return sorted[n-1]
		}
		frac := pos - float64(lo)
		return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
	}
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// tailSteps are the percentiles a timing may be reported at beside its
// median, lowest first.
var tailSteps = []struct {
	label string
	q     float64
}{{"p90", 0.90}, {"p99", 0.99}, {"p99.9", 0.999}, {"p99.99", 0.9999}}

// tailRule picks the highest percentile that still has at least ten
// samples beyond it; ok is false when even p90 does not (n < 100).
func tailRule(n int) (label string, q float64, ok bool) {
	for _, s := range tailSteps {
		if float64(n)*(1-s.q) >= 10-1e-9 {
			label, q, ok = s.label, s.q, true
		}
	}
	return label, q, ok
}

// timing is how every duration population is reported: median, the tail
// percentile tailRule allows, and the sample count.
type timing struct {
	N         int     `json:"n"`
	P50       float64 `json:"p50"`
	Tail      float64 `json:"tail,omitempty"`
	TailLabel string  `json:"tail_label,omitempty"`
}

func summarize(v []float64) timing {
	s := sortedCopy(v)
	t := timing{N: len(s), P50: quantile(s, 0.5)}
	if label, q, ok := tailRule(len(s)); ok {
		t.Tail, t.TailLabel = quantile(s, q), label
	}
	return t
}
