// Package metrics provides the measurement primitives used across the StorM
// test bed: latency histograms with percentile queries, throughput meters,
// and per-host simulated CPU accounting (used for the Figure 10 breakdown).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Histogram records a set of duration samples and answers aggregate queries.
// The zero value is ready to use. All methods are safe for concurrent use.
//
// Samples are kept in arrival order (so windowed consumers can read
// increments with SamplesSince); percentile queries sort a reusable
// scratch copy instead of the sample log itself.
type Histogram struct {
	mu      sync.Mutex
	samples []time.Duration // arrival order, never reordered
	scratch []time.Duration // sorted copy, valid while sorted is true
	sum     time.Duration
	min     time.Duration
	max     time.Duration
	sorted  bool
}

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.samples = append(h.samples, d)
	h.sum += d
	h.sorted = false
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// Sum returns the total of all recorded samples.
func (h *Histogram) Sum() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the arithmetic mean of the samples, or zero when empty.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / time.Duration(len(h.samples))
}

// Min returns the smallest sample, or zero when empty.
func (h *Histogram) Min() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max returns the largest sample, or zero when empty.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Percentile returns the p-th percentile (0 < p <= 100) using
// nearest-rank interpolation. It returns zero when the histogram is empty.
func (h *Histogram) Percentile(p float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.percentileLocked(p)
}

// sortedLocked returns the samples in ascending order, (re)building the
// scratch copy only when new samples arrived since the last query.
func (h *Histogram) sortedLocked() []time.Duration {
	if !h.sorted {
		h.scratch = append(h.scratch[:0], h.samples...)
		sort.Slice(h.scratch, func(i, j int) bool { return h.scratch[i] < h.scratch[j] })
		h.sorted = true
	}
	return h.scratch
}

func (h *Histogram) percentileLocked(p float64) time.Duration {
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	s := h.sortedLocked()
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[hi]-s[lo]))
}

// SamplesSince returns a copy of the samples recorded after a previous
// call's cursor (0 reads from the beginning) plus the new cursor, letting
// windowed consumers (SLO trackers) drain a histogram incrementally
// without resetting it. A cursor from before a Reset yields the full log.
func (h *Histogram) SamplesSince(cursor int) ([]time.Duration, int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if cursor < 0 || cursor > len(h.samples) {
		cursor = 0
	}
	var out []time.Duration
	if cursor < len(h.samples) {
		out = append(out, h.samples[cursor:]...)
	}
	return out, len(h.samples)
}

// CumulativeBuckets returns, for each upper bound, how many samples are
// less than or equal to it — Prometheus cumulative `le` semantics. Bounds
// must be ascending. The total sample count is the implicit +Inf bucket.
func (h *Histogram) CumulativeBuckets(bounds []time.Duration) []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]int, len(bounds))
	if len(h.samples) == 0 {
		return out
	}
	s := h.sortedLocked()
	for i, b := range bounds {
		out[i] = sort.Search(len(s), func(j int) bool { return s[j] > b })
	}
	return out
}

// Stddev returns the sample standard deviation, or zero for fewer than two
// samples.
func (h *Histogram) Stddev() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.samples)
	if n < 2 {
		return 0
	}
	mean := float64(h.sum) / float64(n)
	var ss float64
	for _, s := range h.samples {
		d := float64(s) - mean
		ss += d * d
	}
	return time.Duration(math.Sqrt(ss / float64(n-1)))
}

// Reset discards all samples.
func (h *Histogram) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.samples = h.samples[:0]
	h.sum, h.min, h.max = 0, 0, 0
	h.sorted = false
}

// Snapshot returns a point-in-time summary of the histogram, computed
// under a single lock (one sort, one pass).
func (h *Histogram) Snapshot() Summary {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.samples)
	s := Summary{Count: n, Sum: h.sum, Min: h.min, Max: h.max}
	if n == 0 {
		return s
	}
	s.Mean = h.sum / time.Duration(n)
	s.P50 = h.percentileLocked(50)
	s.P95 = h.percentileLocked(95)
	s.P99 = h.percentileLocked(99)
	if n >= 2 {
		mean := float64(h.sum) / float64(n)
		var ss float64
		for _, sample := range h.samples {
			d := float64(sample) - mean
			ss += d * d
		}
		s.Stddev = time.Duration(math.Sqrt(ss / float64(n-1)))
	}
	return s
}

// Summary is a point-in-time aggregate of a Histogram.
type Summary struct {
	Count  int
	Sum    time.Duration
	Mean   time.Duration
	Min    time.Duration
	Max    time.Duration
	P50    time.Duration
	P95    time.Duration
	P99    time.Duration
	Stddev time.Duration
}

// String renders the summary in a single human-readable line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v min=%v max=%v",
		s.Count, s.Mean, s.P50, s.P95, s.P99, s.Min, s.Max)
}
