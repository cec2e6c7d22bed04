package main

import (
	"math"
	"sort"
	"time"
)

// tail is the percentile rule every latency in this benchmark follows:
// the median, plus the highest percentile with at least ten samples
// beyond it, plus the sample count the two rest on. Both percentiles
// are Harrell–Davis estimates (a weighted mean of the order statistics
// around the rank): a single order statistic, ten samples from the end
// or at the edge between two latency modes, jumps from run to run.
type tail struct {
	P50       float64 // ms
	Tail      float64 // ms
	TailPct   float64 // which percentile Tail is, e.g. 99
	TailOrder float64 // ms, the plain order statistic at that rank
	N         int
}

// tailPcts are the candidate tail percentiles, highest first.
var tailPcts = []float64{99.9, 99, 98, 97.5, 95, 90, 75}

// summarize applies the percentile rule to latencies. A percentile p
// qualifies when at least ten samples lie beyond its rank.
func summarize(lats []time.Duration) tail {
	n := len(lats)
	if n == 0 {
		return tail{}
	}
	ms := make([]float64, n)
	for i, d := range lats {
		ms[i] = float64(d) / 1e6
	}
	sort.Float64s(ms)
	t := tail{P50: hdQuantile(ms, 0.5), N: n}
	for _, p := range tailPcts {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if n-rank >= 10 {
			t.Tail, t.TailPct, t.TailOrder = hdQuantile(ms, p/100), p, ms[rank-1]
			return t
		}
	}
	// Fewer than eleven samples: no percentile has ten beyond it, so
	// report the median as the only supported statistic.
	t.Tail, t.TailPct, t.TailOrder = t.P50, 50, quantile(ms, 0.5)
	return t
}

// quantile interpolates the q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median of unsorted values (copied, not mutated).
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// medianDur is median for durations, in the unit given.
func medianDur(ds []time.Duration, unit time.Duration) float64 {
	vals := make([]float64, len(ds))
	for i, d := range ds {
		vals[i] = float64(d) / float64(unit)
	}
	return median(vals)
}

// deciles are the 10th to 90th percentiles of lats, in ms.
func deciles(lats []time.Duration) []float64 {
	ms := make([]float64, len(lats))
	for i, d := range lats {
		ms[i] = float64(d) / 1e6
	}
	sort.Float64s(ms)
	out := make([]float64, 9)
	for i := range out {
		out[i] = quantile(ms, float64(i+1)/10)
	}
	return out
}

// hdQuantile is the Harrell–Davis estimate of the p-quantile of sorted
// values: the mean of the order statistics weighted by the
// Beta(p(n+1), (1-p)(n+1)) mass over each one's share of [0, 1].
func hdQuantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n < 2 {
		return quantile(sorted, p)
	}
	a, b := p*float64(n+1), (1-p)*float64(n+1)
	var sum float64
	prev := 0.0
	for i, v := range sorted {
		cur := betaInc(a, b, float64(i+1)/float64(n))
		sum += (cur - prev) * v
		prev = cur
	}
	return sum
}

// betaInc is the regularized incomplete beta function I_x(a, b).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(a*math.Log(x) + b*math.Log1p(-x) + lab - la - lb)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction of the incomplete beta
// function by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 10000; m++ {
		aa := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-13 {
			break
		}
	}
	return h
}
