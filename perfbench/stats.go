package main

import (
	"slices"
	"time"
)

// median is the 0.5 quantile; 0 for no samples.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile with linear interpolation between order
// statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// millis converts durations to milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds() * 1e3
	}
	return out
}
