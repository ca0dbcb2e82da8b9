package obs

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// Property: bucketLow(bucketOf(v)) <= v and relative error bounded.
func TestBucketRoundTripProperty(t *testing.T) {
	check := func(v uint64) bool {
		low := bucketLow(bucketOf(v))
		if low > v {
			return false
		}
		if v > 16 && float64(v-low) > float64(v)*0.07 {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramSummarize(t *testing.T) {
	h := NewHistogram()
	for v := uint64(1); v <= 100; v++ {
		h.Record(v * 100)
	}
	s := h.Summarize()
	if s.Count != 100 || s.Min != 100 || s.Max != 10000 {
		t.Fatalf("summary = %+v", s)
	}
	if s.P50 > s.P90 || s.P90 > s.P99 || s.P99 > s.P999 || s.P999 > s.Max {
		t.Fatalf("summary quantiles not monotone: %+v", s)
	}
	if s.Mean != h.Mean() || s.Sum != h.Sum() {
		t.Fatalf("summary mean/sum mismatch: %+v", s)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for _, v := range []uint64{10, 20, 30} {
		h.Record(v)
	}
	if h.Count() != 3 || h.Sum() != 60 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	if h.Mean() != 20 {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.Min() != 10 || h.Max() != 30 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	// Values below 2^subBucketBits are stored exactly.
	h := NewHistogram()
	for v := uint64(0); v < 16; v++ {
		h.Record(v)
	}
	if got := h.Quantile(0.5); got != 8 {
		t.Fatalf("median = %d, want 8", got)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(1))
	var samples []uint64
	for i := 0; i < 100000; i++ {
		v := uint64(rng.ExpFloat64() * 10000)
		samples = append(samples, v)
		h.Record(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := samples[int(q*float64(len(samples)))]
		got := h.Quantile(q)
		// Log-bucketed with 16 sub-buckets: within ~7% relative error.
		lo, hi := float64(exact)*0.93, float64(exact)*1.07
		if float64(got) < lo || float64(got) > hi {
			t.Errorf("q=%v: got %d, exact %d (outside 7%%)", q, got, exact)
		}
	}
}

// Edge cases: empty histogram, q=0, q=1, single sample, out-of-range q.
func TestHistogramQuantileEdges(t *testing.T) {
	empty := NewHistogram()
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := empty.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %d, want 0", q, got)
		}
	}

	single := NewHistogram()
	single.Record(1000)
	for _, q := range []float64{-1, 0, 0.25, 0.5, 0.99, 1, 2} {
		if got := single.Quantile(q); got != 1000 {
			t.Fatalf("single-sample Quantile(%v) = %d, want 1000", q, got)
		}
	}

	h := NewHistogram()
	h.Record(100)
	h.Record(2000)
	h.Record(30000)
	if got := h.Quantile(0); got != 100 {
		t.Fatalf("q=0 should be exact min, got %d", got)
	}
	if got := h.Quantile(1); got != 30000 {
		t.Fatalf("q=1 should be exact max, got %d", got)
	}
	if got := h.Quantile(-3); got != 100 {
		t.Fatalf("negative q should clamp to min, got %d", got)
	}
	if got := h.Quantile(7); got != 30000 {
		t.Fatalf("q>1 should clamp to max, got %d", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Record(10)
	b.Record(1000)
	a.Merge(b)
	if a.Count() != 2 || a.Min() != 10 || a.Max() != 1000 {
		t.Fatalf("merged: count=%d min=%d max=%d", a.Count(), a.Min(), a.Max())
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(5)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 || h.Min() != 0 {
		t.Fatal("reset did not clear")
	}
}

// Property: quantiles are monotone in q and bounded by [Min, Max], for any
// sample multiset including empty, single-sample and duplicate-heavy ones.
func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	check := func(vals []uint32) bool {
		h := NewHistogram()
		for _, v := range vals {
			h.Record(uint64(v))
		}
		prev := uint64(0)
		for i := 0; i <= 100; i++ {
			q := float64(i) / 100
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			if v < h.Min() || v > h.Max() {
				return false
			}
			prev = v
		}
		return h.Quantile(0.0) == h.Min() && h.Quantile(1.0) == h.Max()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: merging two histograms then taking quantiles is consistent with
// recording all samples into one histogram — Merge must not change the
// distribution.
func TestHistogramMergeQuantileConsistency(t *testing.T) {
	check := func(xs, ys []uint32) bool {
		a, b, all := NewHistogram(), NewHistogram(), NewHistogram()
		for _, v := range xs {
			a.Record(uint64(v))
			all.Record(uint64(v))
		}
		for _, v := range ys {
			b.Record(uint64(v))
			all.Record(uint64(v))
		}
		a.Merge(b)
		if a.Count() != all.Count() || a.Sum() != all.Sum() ||
			a.Min() != all.Min() || a.Max() != all.Max() {
			return false
		}
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
			if a.Quantile(q) != all.Quantile(q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
