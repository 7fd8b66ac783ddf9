package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of sorted by linear interpolation
// between closest ranks. Exact values, not histogram buckets: a bucketed
// quantile reads the same on every run, which hides small changes.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// sample is one timed operation: when it was due (offset from the start of
// its phase) and how long it took from then.
type sample struct {
	at  time.Duration
	lat time.Duration
}

// windowOf is the unit over which the reported medians are taken: one
// second, or a tenth of a phase shorter than ten seconds.
func windowOf(phase time.Duration) time.Duration {
	if phase >= 10*time.Second {
		return time.Second
	}
	return phase / 10
}

// windowQuantiles cuts samples into the whole windows of their phase and
// returns the q-quantile of each window's latencies in milliseconds.
// Reporting the median of these, and not one quantile over the whole phase,
// keeps a single disturbed window (a collection, a neighbour on the host)
// from moving the reported number.
func windowQuantiles(samples []sample, phase time.Duration, q float64) []float64 {
	window := windowOf(phase)
	n := int(phase / window)
	buckets := make([][]float64, n)
	for _, s := range samples {
		i := int(s.at / window)
		if i >= 0 && i < n {
			buckets[i] = append(buckets[i], ms(s.lat))
		}
	}
	out := make([]float64, 0, n)
	for _, b := range buckets {
		if len(b) > 0 {
			sort.Float64s(b)
			out = append(out, quantile(b, q))
		}
	}
	return out
}

// windowRates returns, for each whole window of the phase, the sum of
// counts of the operations that ended in it (samples[i].at), per second.
func windowRates(samples []sample, counts []int, phase time.Duration) []float64 {
	window := windowOf(phase)
	n := int(phase / window)
	sums := make([]float64, n)
	for i, s := range samples {
		w := int(s.at / window)
		if w >= 0 && w < n {
			sums[w] += float64(counts[i])
		}
	}
	for i := range sums {
		sums[i] /= window.Seconds()
	}
	return sums
}

func latenciesMs(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.lat)
	}
	sort.Float64s(out)
	return out
}

func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
