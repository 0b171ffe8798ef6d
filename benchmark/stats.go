package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"byzcons"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs: the
// smallest sample with at least q·len(xs) samples at or below it. xs is
// sorted in place. An empty sample yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// tail is a sample's highest percentile with at least ten samples beyond
// it, of p99, p95 and p90; Percent is 0 when the sample has fewer than a
// hundred values.
type tail struct {
	Percent int     `json:"percent"`
	Ms      float64 `json:"ms"`
}

// tailOf returns the tail of the latencies xs, in ms, sorting xs in place.
func tailOf(xs []float64) tail {
	sort.Float64s(xs)
	n := len(xs)
	for _, p := range []int{99, 95, 90} {
		// The nearest rank of the p-th percentile, in integers so that no
		// rounding moves a sample across the ten-beyond line.
		rank := (p*n + 99) / 100
		if n-rank >= 10 {
			return tail{Percent: p, Ms: xs[rank-1]}
		}
	}
	return tail{}
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), sorting xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// poissonSchedule returns the due offsets of count arrivals of a Poisson
// process at rate per second, drawn from seed alone: exponential gaps, so
// the same seed always yields the same schedule.
func poissonSchedule(seed uint64, rate float64, count int) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0x9E3779B97F4A7C15))
	due := make([]time.Duration, count)
	var t float64
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// interval is one closed wall-clock window [start, end], in nanoseconds.
type interval struct{ start, end int64 }

// peakConcurrency sweeps the windows' endpoints and returns the most
// windows open at one instant. Windows that merely touch do not overlap.
func peakConcurrency(ws []interval) int {
	type edge struct {
		at    int64
		delta int
	}
	edges := make([]edge, 0, 2*len(ws))
	for _, w := range ws {
		if w.end > w.start {
			edges = append(edges, edge{w.start, +1}, edge{w.end, -1})
		}
	}
	// Ends sort before starts at the same instant.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta
	})
	var open, peak int
	for _, e := range edges {
		open += e.delta
		peak = max(peak, open)
	}
	return peak
}

// costRatios returns the measured bits of a set of batches over the paper's
// worst-case prediction (Eq. 1, PredictCcon at each batch's packed length
// with the implementation's generation size OptimalD) and over Eq. 3's
// leading term. packedBits and bits are per batch, in the same order.
func costRatios(n, t int, symBits uint, B int64, packedBits []int, bits []int64) (overCcon, overLeading float64) {
	var measured, ccon, leading float64
	for i, L := range packedBits {
		l := int64(L)
		measured += float64(bits[i])
		ccon += float64(byzcons.PredictCcon(n, t, l, byzcons.OptimalD(n, t, symBits, l, B), B))
		leading += float64(byzcons.PredictLeading(n, t, l))
	}
	if ccon > 0 {
		overCcon = measured / ccon
	}
	if leading > 0 {
		overLeading = measured / leading
	}
	return overCcon, overLeading
}
