package main

import (
	"encoding/binary"
	"hash"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of sorted by linear interpolation
// between closest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// median sorts a copy of vs and returns its middle value.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func maxOf(vs []float64) float64 {
	m := math.Inf(-1)
	for _, v := range vs {
		m = math.Max(m, v)
	}
	return m
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// quartiles matches Python's statistics.quantiles(values, n=4) (the
// "exclusive" method), which is how benchmark spreads are judged.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(j int) float64 {
		m := float64(n + 1)
		pos := float64(j) * m / 4
		k := int(math.Floor(pos))
		frac := pos - float64(k)
		switch {
		case k < 1:
			return s[0]
		case k >= n:
			return s[n-1]
		}
		return s[k-1] + (s[k]-s[k-1])*frac
	}
	return at(1), at(2), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// hashFloat folds a float's exact IEEE-754 bits into h, so digests catch
// any change in a result, not just a printed one.
func hashFloat(h hash.Hash64, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

func hashInt(h hash.Hash64, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

// histQuantile estimates the q-quantile of a fixed-bucket histogram
// snapshot (upper bounds plus one overflow count) by interpolating
// linearly inside the bucket that holds the rank. The lowest bucket is
// taken to start at zero; the overflow bucket reports its lower edge.
func histQuantile(bounds []float64, counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			if i >= len(bounds) {
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			return lo + (bounds[i]-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return bounds[len(bounds)-1]
}

// histMean is a histogram snapshot's sum over its count.
func histMean(sum float64, counts []int64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	return sum / float64(total)
}
