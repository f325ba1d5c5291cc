package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

func testHist() *Histogram {
	return newHistogram(desc{name: "test"}, 1, 1)
}

// TestBucketLayout pins the log-linear scheme: buckets tile int64
// without gaps or overlaps, the linear region is exact, and every
// log-linear bucket is narrow enough for the +25% quantile bound.
func TestBucketLayout(t *testing.T) {
	// Linear region: one value per bucket.
	for v := int64(0); v < linearMax; v++ {
		if got := bucketFor(v); got != int(v) {
			t.Errorf("bucketFor(%d) = %d, want %d", v, got, v)
		}
		if up := bucketUpper(int(v)); up != v {
			t.Errorf("bucketUpper(%d) = %d, want %d", v, up, v)
		}
	}
	// Buckets tile: lower(i) == upper(i-1)+1, lower <= upper.
	for i := 1; i < numBuckets; i++ {
		lo, up := bucketLower(i), bucketUpper(i)
		if lo != bucketUpper(i-1)+1 {
			t.Fatalf("bucket %d: lower %d != upper(prev)+1 %d", i, lo, bucketUpper(i-1)+1)
		}
		if up < lo {
			t.Fatalf("bucket %d: upper %d < lower %d", i, up, lo)
		}
		// Log-linear width bound: width <= lower/4 (sub-bucket of an
		// octave), which is what bounds quantile error at +25%.
		if i >= linearMax && up != math.MaxInt64 {
			if width := up - lo + 1; width > lo/4+1 {
				t.Errorf("bucket %d [%d,%d]: width %d exceeds lower/4", i, lo, up, width)
			}
		}
	}
	// bucketFor is consistent with the bounds, across magnitudes.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20000; trial++ {
		v := rng.Int63() >> uint(rng.Intn(63))
		b := bucketFor(v)
		if lo, up := bucketLower(b), bucketUpper(b); v < lo || v > up {
			t.Fatalf("bucketFor(%d) = %d, but bounds are [%d,%d]", v, b, lo, up)
		}
	}
	// Edges of the range.
	if b := bucketFor(math.MaxInt64); b != numBuckets-1 {
		t.Errorf("bucketFor(MaxInt64) = %d, want %d", b, numBuckets-1)
	}
	if bucketUpper(numBuckets-1) != math.MaxInt64 {
		t.Errorf("top bucket upper = %d, want MaxInt64", bucketUpper(numBuckets-1))
	}
	if b := bucketFor(-1); b != 0 {
		t.Errorf("bucketFor(-1) = %d, want clamp to 0", b)
	}
}

// bruteQuantile is the reference: the 1-based ceil(q*n)-th smallest.
func bruteQuantile(sorted []int64, q float64) int64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// TestQuantilesVsBruteForce checks the extracted quantiles against a
// sorted reference over several distributions: the histogram may
// overshoot by at most one bucket width (+25% relative, +1 absolute in
// the linear region) and never undershoot.
func TestQuantilesVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	distributions := map[string]func() int64{
		"uniform-small": func() int64 { return rng.Int63n(100) },
		"uniform-large": func() int64 { return rng.Int63n(1 << 40) },
		"log-uniform":   func() int64 { return int64(math.Exp(rng.Float64() * 30)) },
		"bimodal": func() int64 {
			if rng.Intn(10) == 0 {
				return 1_000_000 + rng.Int63n(1000)
			}
			return 100 + rng.Int63n(50)
		},
		"constant":      func() int64 { return 4242 },
		"linear-region": func() int64 { return rng.Int63n(linearMax) },
	}
	for name, draw := range distributions {
		h := testHist()
		vals := make([]int64, 5000)
		for i := range vals {
			vals[i] = draw()
			h.Observe(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		s := h.Summary()
		if s.Count != uint64(len(vals)) {
			t.Errorf("%s: count %d, want %d", name, s.Count, len(vals))
		}
		if s.Min != vals[0] || s.Max != vals[len(vals)-1] {
			t.Errorf("%s: min/max %d/%d, want %d/%d", name, s.Min, s.Max, vals[0], vals[len(vals)-1])
		}
		for _, qc := range []struct {
			q   float64
			got int64
		}{{0.50, s.P50}, {0.90, s.P90}, {0.99, s.P99}} {
			want := bruteQuantile(vals, qc.q)
			if qc.got < want {
				t.Errorf("%s p%d: %d undershoots true %d", name, int(qc.q*100), qc.got, want)
			}
			if limit := want + want/4 + 1; qc.got > limit {
				t.Errorf("%s p%d: %d exceeds +25%% bound %d (true %d)", name, int(qc.q*100), qc.got, limit, want)
			}
		}
	}
}

// TestHistogramNegativeClamp: a clock step must not corrupt the
// distribution — negatives land in bucket 0 and the summary stays
// internally consistent.
func TestHistogramNegativeClamp(t *testing.T) {
	h := testHist()
	h.Observe(-5)
	s := h.Summary()
	if s.Count != 1 || s.Min != -5 || s.Max != -5 || s.Sum != -5 {
		t.Errorf("summary after Observe(-5): %+v", s)
	}
	if s.P50 != -5 { // bucketUpper(0)=0 clamps to observed max
		t.Errorf("p50 = %d, want clamp to observed max -5", s.P50)
	}
}

// TestHistogramEmpty: the zero summary, and Summaries() omitting it.
func TestHistogramEmpty(t *testing.T) {
	h := testHist()
	if s := h.Summary(); s != (Summary{}) {
		t.Errorf("empty histogram summary: %+v", s)
	}
	if m := (Summary{}).Mean(); m != 0 {
		t.Errorf("empty Mean() = %v", m)
	}
}

// TestConcurrentRecording hammers one counter and one
// histogram from many goroutines; totals must be exact (run under
// -race this also proves the recording paths are data-race-free).
func TestConcurrentRecording(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter(Opts{Name: "c_total"})
	h := reg.NewLatencyHistogram(Opts{Name: "h", Key: "h"})
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(rng.Int63n(1 << 30))
			}
		}(int64(w))
	}
	// Concurrent readers exercise the snapshot paths under -race.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = c.Value()
			_ = h.Summary()
			_ = reg.Summaries()
			_ = reg.Stats()
		}
	}()
	wg.Wait()
	<-done
	if v := c.Value(); v != workers*per {
		t.Errorf("counter = %d, want %d", v, workers*per)
	}
	if s := h.Summary(); s.Count != workers*per {
		t.Errorf("histogram count = %d, want %d", s.Count, workers*per)
	}
}

// TestHistogramCellsAreOneHistogram: values observed concurrently into
// per-recorder cells read back exactly as the same values observed into
// one shared histogram — the same summary and the same Prometheus
// bucket lines — while a scraper reads the cells mid-recording (under
// -race, that read is clean), and observing into a cell allocates
// nothing.
func TestHistogramCellsAreOneHistogram(t *testing.T) {
	const workers, per = 4, 5000
	vals := make([][]int64, workers)
	rng := rand.New(rand.NewSource(46))
	for w := range vals {
		vals[w] = make([]int64, per)
		for i := range vals[w] {
			vals[w][i] = int64(math.Exp(rng.Float64()*25)) - 3 // a few negatives too
		}
	}
	sharedReg, cellsReg := NewRegistry(), NewRegistry()
	opts := Opts{Name: "papid_stage_seconds", Help: "h", Key: "stage",
		Labels: []Label{{Name: "stage", Value: "encode/json"}}}
	shared := sharedReg.NewLatencyHistogram(opts)
	cells := cellsReg.NewLatencyHistogramCells(opts, workers)

	var wg sync.WaitGroup
	for w := range vals {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for _, v := range vals[w] {
				cells.ObserveAt(w, v)
			}
		}()
		go func() {
			defer wg.Done()
			for _, v := range vals[w] {
				shared.Observe(v)
			}
		}()
	}
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := cellsReg.WritePrometheus(&sb); err != nil {
				t.Error(err)
			}
			if s := cells.Summary(); s.Count > workers*per {
				t.Errorf("mid-recording count %d above the %d values fed", s.Count, workers*per)
			}
		}
	}()
	wg.Wait()
	<-scraped

	if got, want := cells.Summary(), shared.Summary(); got != want {
		t.Errorf("cells summary %+v, shared %+v", got, want)
	}
	if got, want := cells.Count(), shared.Count(); got != want || got != workers*per {
		t.Errorf("cells count %d, shared %d, want %d", got, want, workers*per)
	}
	var a, b strings.Builder
	if err := sharedReg.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := cellsReg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("exposition differs:\nshared:\n%s\ncells:\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), `papid_stage_seconds_bucket{stage="encode/json",le=`) {
		t.Errorf("no bucket lines in:\n%s", a.String())
	}
	if n := testing.AllocsPerRun(1000, func() { cells.ObserveAt(workers-1, 12345) }); n != 0 {
		t.Errorf("ObserveAt allocates %.1f times, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { shared.Observe(12345) }); n != 0 {
		t.Errorf("Observe allocates %.1f times, want 0", n)
	}
}

// TestCounterAddAtOwnStripe: AddAt lands on the named stripe alone, and
// Value sums it with the random-stripe adds.
func TestCounterAddAtOwnStripe(t *testing.T) {
	c := NewRegistry().NewCounter(Opts{Name: "c_total"})
	c.AddAt(3, 5)
	c.AddAt(3+stripes, 2) // modulo the stripe count
	if got := c.Stripe(3); got != 7 {
		t.Errorf("stripe 3 = %d, want 7", got)
	}
	c.Add(10)
	if got := c.Value(); got != 17 {
		t.Errorf("Value = %d, want 17", got)
	}
}
