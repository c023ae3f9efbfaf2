package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// median returns the median of xs (0 for no samples). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that still has at least
// minBeyond samples above it, and that percentile (the share of samples at
// or below the value, in percent). With 1000 samples that is p99. With
// fewer than 2*minBeyond+1 samples that percentile would not reach the
// median, so the median stands in and the percentile reads 50.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n < 2*minBeyond+1 {
		return median(xs), 50
	}
	s := sorted(xs)
	i := n - minBeyond - 1 // s[i] has exactly minBeyond samples after it
	return s[i], 100 * float64(i+1) / float64(n)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// centralMean is the mean of the middle half of xs (the interquartile
// mean): as robust to outliers as the median, but it moves smoothly when
// the samples are quantized, where the median jumps from one level to the
// next.
func centralMean(xs []float64) float64 {
	s := sorted(xs)
	q := len(s) / 4
	return mean(s[q : len(s)-q])
}

// mean returns the mean of xs (0 for no samples).
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// dueLatency is how long an open-loop request took, timed from when it was
// due rather than when it was sent, so time it spent waiting behind a
// stalled connection counts against it. late is how far the generator
// itself overslept: the send started after both the due time and the moment
// its connection became free (free is the zero time for an idle one).
func dueLatency(due, free, start, end time.Time) (latency, late time.Duration) {
	ready := due
	if free.After(ready) {
		ready = free
	}
	late = start.Sub(ready)
	if late < 0 {
		late = 0
	}
	return end.Sub(due), late
}

// interval is a half-open time span in nanoseconds.
type interval struct{ start, end int64 }

// covered returns how much of within the union of ivs covers.
func covered(within interval, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, within.start), min(iv.end, within.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.start <= cur.end:
			cur.end = max(cur.end, iv.end)
		default:
			total += cur.end - cur.start
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.end - cur.start
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.end - parent.start - covered(parent, children)
}

// maxMinOverMean is (max-min)/mean of xs: the imbalance of per-thread busy
// times. 0 for fewer than two samples or a zero mean.
func maxMinOverMean(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	lo, hi, sum := math.Inf(1), math.Inf(-1), 0.0
	for _, x := range xs {
		lo, hi, sum = math.Min(lo, x), math.Max(hi, x), sum+x
	}
	return ratio(hi-lo, sum/float64(len(xs)))
}
