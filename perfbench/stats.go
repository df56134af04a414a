package main

import (
	"math"
	"sort"
	"time"
)

// failedSample stands in for the latency of an op that failed: a failed op
// misses every latency limit, so it sorts above every real sample.
const failedSample = time.Duration(math.MaxInt64)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of samples,
// which it sorts in place: the smallest sample with at least q·n samples at
// or below it. It returns 0 for no samples.
func percentile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	k := int(math.Ceil(q * float64(len(samples))))
	if k < 1 {
		k = 1
	}
	return samples[k-1]
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), sorting xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio divides, returning 0 when the base is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
