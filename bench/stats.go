package main

import (
	"math"
	"sort"
	"time"
)

// epoch anchors every timestamp the benchmark takes: now() is nanoseconds
// since process start on the monotonic clock, small enough that a float64
// steering parameter carries it exactly.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// series keeps raw duration samples (nanoseconds) from one goroutine in a
// buffer allocated before the measured window. Exact samples, not buckets:
// a bucketed median would read the same on every run. When the buffer
// fills it keeps every second sample and doubles its stride, so a long run
// stays uniformly sampled in time without allocating.
type series struct {
	v      []int64
	stride int
	skip   int
	n      int64 // samples offered, kept or not
	sum    int64
}

func newSeries(capacity int) *series {
	return &series{v: make([]int64, 0, capacity), stride: 1}
}

func (s *series) add(d int64) {
	s.n++
	s.sum += d
	if s.skip++; s.skip < s.stride {
		return
	}
	s.skip = 0
	if len(s.v) == cap(s.v) {
		half := s.v[:0]
		for i := 1; i < len(s.v); i += 2 {
			half = append(half, s.v[i])
		}
		s.v = half
		s.stride *= 2
		return
	}
	s.v = append(s.v, d)
}

func (s *series) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.n)
}

// summary is what a timing reports: the median, the highest percentile
// that still has at least ten samples beyond it, and the sample count.
type summary struct {
	N       int64   `json:"n"`
	P50     float64 `json:"p50"`
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"`
	Mean    float64 `json:"mean"`
}

// summarize merges per-goroutine series (read only after their writers
// stopped) and scales nanoseconds by 1/div.
func summarize(div float64, parts ...*series) summary {
	var all []int64
	var n, sum int64
	for _, p := range parts {
		if p == nil {
			continue
		}
		all = append(all, p.v...)
		n += p.n
		sum += p.sum
	}
	if len(all) == 0 {
		return summary{}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := tailPercentile(len(all))
	return summary{
		N:       n,
		P50:     quantile(all, 0.5) / div,
		Tail:    quantile(all, pct/100) / div,
		TailPct: pct,
		Mean:    float64(sum) / float64(n) / div,
	}
}

// tailPercentile returns the highest of p90, p99, p99.9, p99.99 with at
// least ten of n samples beyond it, or 50 when even p90 has fewer.
func tailPercentile(n int) float64 {
	best := 50.0
	// beyond is the share of samples above the percentile, in 1/10000.
	for _, p := range []struct {
		pct    float64
		beyond int
	}{{90, 1000}, {99, 100}, {99.9, 10}, {99.99, 1}} {
		if n*p.beyond >= 10*10000 {
			best = p.pct
		}
	}
	return best
}

// quantile interpolates linearly in a sorted slice.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return float64(sorted[lo]) + (pos-float64(lo))*float64(sorted[hi]-sorted[lo])
}

// spread is the statistic the driver uses to judge steadiness: the
// distance between the first and third quartile of vals (exclusive method,
// as Python's statistics.quantiles(vals, n=4)) as a share of the median.
func spread(vals []float64) (q1, med, q3, share float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(k float64) float64 {
		pos := k*float64(len(s)+1)/4 - 1
		if pos < 0 {
			pos = 0
		}
		if pos > float64(len(s)-1) {
			pos = float64(len(s) - 1)
		}
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
	}
	q1, med, q3 = at(1), at(2), at(3)
	if med != 0 {
		share = (q3 - q1) / math.Abs(med)
	}
	return
}
