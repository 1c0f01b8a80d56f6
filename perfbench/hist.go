package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a log-linear latency histogram over nanosecond values: each
// power-of-two octave is split into 1<<subBits equal buckets, so a
// bucket is under 1% of its value wide. It keeps memory fixed however
// many samples a run takes (the broker workload takes millions), and
// quantiles interpolate linearly inside the bucket, so a reported
// percentile is not pinned to a bucket edge.
type hist struct {
	counts [64 << subBits]uint64
	n      uint64
}

const subBits = 7

func bucketOf(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	exp := bits.Len64(v) - 1 - subBits
	return (exp+1)<<subBits | int(v>>uint(exp))&(1<<subBits-1)
}

// bucketRange returns the [lo, hi) values bucket b holds.
func bucketRange(b int) (lo, hi float64) {
	if b < 1<<subBits {
		return float64(b), float64(b + 1)
	}
	exp := b>>subBits - 1
	mant := uint64(b&(1<<subBits-1) | 1<<subBits)
	lo = float64(mant << uint(exp))
	return lo, lo + float64(uint64(1)<<uint(exp))
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 < q < 1) in nanoseconds, or 0
// for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := bucketRange(b)
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, _ := bucketRange(len(h.counts) - 1)
	return lo
}

// median of a slice of floats (0 for none); the slice is sorted.
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

// quantileOf returns the q-quantile of raw samples (sorted in place),
// interpolating between neighbours; 0 for none.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(math.Floor(pos))
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (xs[i+1]-xs[i])*(pos-float64(i))
}
