package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-th quantile of a sorted sample by nearest
// rank (the smallest observation with at least q of the sample at or
// below it) and the number of observations strictly beyond that rank.
// The beyond count is what makes a tail percentile trustworthy: a p90
// with fewer than ten samples past it is one slow request wide.
func percentile(sorted []float64, q float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(n)))
	rank = max(1, min(rank, n))
	return sorted[rank-1], n - rank
}

// quartiles returns the first quartile, median and third quartile of
// values with the interpolation Python's statistics.quantiles(values,
// n=4) uses by default (the "exclusive" method), so the spreads printed
// here equal the ones computed from the same values in Python.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median returns the middle value of values (the mean of the two middle
// values for an even count).
func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, med, q3 := quartiles(values)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cluster is one request class's latency distribution: the inner range
// [p10, p90] a percentile must fall into to sit on the class rather than
// between classes.
type cluster struct {
	Class         string
	Count         int
	Share         float64
	P10, P50, P90 float64
}

// clusters groups latencies by request class and summarizes each class,
// in descending share order.
func clusters(classes []string, lat []float64) []cluster {
	by := map[string][]float64{}
	for i, c := range classes {
		by[c] = append(by[c], lat[i])
	}
	out := make([]cluster, 0, len(by))
	for c, v := range by {
		sort.Float64s(v)
		p10, _ := percentile(v, 0.10)
		p50, _ := percentile(v, 0.50)
		p90, _ := percentile(v, 0.90)
		out = append(out, cluster{Class: c, Count: len(v), Share: float64(len(v)) / float64(len(lat)),
			P10: p10, P50: p50, P90: p90})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Class < out[j].Class
	})
	return out
}

// inGap reports whether a reported percentile value lies outside the
// inner range of every class that holds at least minShare of the
// requests: it then sits between two classes' latency clusters, where a
// small change in the mix moves it by the width of the gap.
func inGap(value float64, cs []cluster, minShare float64) bool {
	for _, c := range cs {
		if c.Share >= minShare && value >= c.P10 && value <= c.P90 {
			return false
		}
	}
	return true
}
