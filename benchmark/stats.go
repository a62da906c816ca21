package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v; 0 for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

// minBeyond is how many samples must lie beyond a reported tail
// percentile; with fewer the value is one or two outliers, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// v, and refuses when fewer than minBeyond samples lie beyond it.
func percentile(v []float64, p float64) (float64, error) {
	n := len(v)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	return sorted(v)[rank-1], nil
}

// percentileOrZero is percentile for the per-layer list, where a tail
// the sample cannot support reads 0 ("not measured").
func percentileOrZero(v []float64, p float64) float64 {
	x, err := percentile(v, p)
	if err != nil {
		return 0
	}
	return x
}

// quartiles returns the first and third quartile of v as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method),
// which is what the driver applies to ten runs.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4) // after the clamp, as Python does
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range of v as a share of its median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / m)
}

// perCellMedian is the mean over cells of each cell's median: the
// typical latency of a request when every cell is weighted equally,
// whatever share of the window each happened to get. A plain median
// over a mix of 15 ms and 100 ms cells flips between neighbouring
// cells from run to run.
func perCellMedian(byCell map[int][]float64) float64 {
	meds := make([]float64, 0, len(byCell))
	for _, v := range byCell {
		meds = append(meds, median(v))
	}
	sort.Float64s(meds) // fixed summation order: map iteration is random
	return mean(meds)
}
