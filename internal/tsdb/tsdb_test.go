package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

type sample struct{ ts, v int64 }

// Append records one sample as a one-event row. papid only ever appends
// whole rows, so the method lives here: it keeps the tests, the `serial`
// benchmark rows and the equivalence reference readable.
func (s *Store) Append(session uint64, event string, ts, v int64) {
	s.AppendBatch(session, ts, []string{event}, []int64{v})
}

// bruteQuery is the reference implementation of Query's window
// semantics over an uncompressed sample log: every window on the
// absolute Step grid overlapping [from, to) aggregates all samples
// flooring into it.
func bruteQuery(samples []sample, from, to, step int64) []Bucket {
	effFrom := from - mod(from, step)
	var out []Bucket
	for _, s := range samples {
		w := s.ts - mod(s.ts, step)
		if w < effFrom || w >= to {
			continue
		}
		if n := len(out); n > 0 && out[n-1].Start == w {
			out[n-1].merge(s.v)
		} else {
			bk := Bucket{Start: w}
			bk.merge(s.v)
			out = append(out, bk)
		}
	}
	return out
}

func sameBuckets(t *testing.T, label string, got, want []Bucket) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d buckets, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g != w {
			t.Fatalf("%s: bucket %d = %+v, want %+v", label, i, g, w)
		}
	}
}

// genCounter builds a deterministic cumulative-counter stream: n ticks
// of period µs with jitter, near-constant increments with occasional
// bursts — the shape papid actually produces.
func genCounter(n int, period int64, seed int64) []sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]sample, n)
	ts, v := int64(0), int64(0)
	for i := range out {
		ts += period + rng.Int63n(7)
		inc := 10_000 + rng.Int63n(997)
		if rng.Intn(100) == 0 {
			inc *= 50 // burst
		}
		v += inc
		out[i] = sample{ts, v}
	}
	return out
}

// TestQueryAgainstBruteForce100k is the acceptance gate: a series fed
// 100k ticks answers QUERY with exactly the brute-force
// min/max/sum/count at every rollup level (raw, 10s, 60s) and at steps
// that aggregate rollup buckets further.
func TestQueryAgainstBruteForce100k(t *testing.T) {
	const nTicks = 100_000
	const period = 10_000 // 10ms ticks → ~1000s of data
	st := New(Config{
		MaxBytes: 64 << 20, // roomy: this test checks correctness, not eviction
		MaxAge:   -1,
	})
	samples := genCounter(nTicks, period, 42)
	for _, s := range samples {
		st.Append(7, "PAPI_TOT_CYC", s.ts, s.v)
	}
	if got := st.Stats().Samples; got != nTicks {
		t.Fatalf("store holds %d samples, want %d", got, nTicks)
	}

	from, to := samples[0].ts, samples[len(samples)-1].ts+1
	steps := []struct {
		name      string
		step      int64
		wantWidth int64
	}{
		{"raw-5ms", 5_000, 0},   // finer than any rollup → raw decode
		{"raw-35ms", 35_000, 0}, // no rollup divides it → raw decode
		{"rollup-10s", 10_000_000, 10_000_000},
		{"rollup-30s", 30_000_000, 10_000_000}, // 3 × 10s buckets per window
		{"rollup-60s", 60_000_000, 60_000_000},
		{"rollup-5m", 300_000_000, 60_000_000}, // 5 × 60s buckets per window
	}
	for _, tc := range steps {
		res := st.Query(7, Query{From: from, To: to, Step: tc.step})
		if len(res) != 1 || res[0].Event != "PAPI_TOT_CYC" {
			t.Fatalf("%s: got %d series", tc.name, len(res))
		}
		if res[0].Width != tc.wantWidth {
			t.Errorf("%s: answered from width %d, want %d", tc.name, res[0].Width, tc.wantWidth)
		}
		sameBuckets(t, tc.name, res[0].Buckets, bruteQuery(samples, from, to, tc.step))
	}

	// Sub-range query: a one-minute slice out of the middle.
	mid := samples[nTicks/2].ts
	res := st.Query(7, Query{From: mid, To: mid + 60_000_000, Step: 10_000_000})
	sameBuckets(t, "mid-slice", res[0].Buckets,
		bruteQuery(samples, mid, mid+60_000_000, 10_000_000))

	// Step 0 returns the raw samples themselves.
	lo, hi := samples[100].ts, samples[300].ts+1
	raw := st.Query(7, Query{From: lo, To: hi, Step: 0})
	if len(raw) != 1 || len(raw[0].Buckets) != 201 {
		t.Fatalf("raw query returned %d series / %d points, want 201 points",
			len(raw), len(raw[0].Buckets))
	}
	for i, bk := range raw[0].Buckets {
		s := samples[100+i]
		if bk.Start != s.ts || bk.Last != s.v || bk.Count != 1 {
			t.Fatalf("raw point %d = %+v, want ts=%d v=%d", i, bk, s.ts, s.v)
		}
	}
}

// TestEvictionBudget verifies the fixed memory budget: 100k ticks into
// a 48 KiB store must evict, stay under budget, keep the newest raw
// data intact, and keep rollups answering the full range.
// TestQueryValidRejectsBadWindows: an inverted range or negative step
// is refused outright — nil result, no scan — never an empty answer a
// caller could mistake for "no data in range". Step 0 stays valid: it
// is the documented raw-samples mode.
func TestQueryValidRejectsBadWindows(t *testing.T) {
	st := New(Config{})
	st.Append(1, "PAPI_TOT_CYC", 100, 42)

	cases := []struct {
		name  string
		q     Query
		valid bool
	}{
		{"inverted range", Query{From: 200, To: 100, Step: 10}, false},
		{"empty range", Query{From: 100, To: 100, Step: 10}, false},
		{"negative step", Query{From: 0, To: 200, Step: -1}, false},
		{"raw step zero", Query{From: 0, To: 200, Step: 0}, true},
		{"well-formed", Query{From: 0, To: 200, Step: 10}, true},
	}
	for _, tc := range cases {
		if got := tc.q.Valid(); got != tc.valid {
			t.Errorf("%s: Valid() = %v, want %v", tc.name, got, tc.valid)
		}
		res := st.Query(1, tc.q)
		if tc.valid && len(res) != 1 {
			t.Errorf("%s: Query returned %d series, want 1", tc.name, len(res))
		}
		if !tc.valid && res != nil {
			t.Errorf("%s: invalid query returned %v, want nil", tc.name, res)
		}
	}
}

func TestEvictionBudget(t *testing.T) {
	const nTicks = 100_000
	const budget = 48 << 10
	st := New(Config{MaxBytes: budget, MaxAge: -1})
	samples := genCounter(nTicks, 10_000, 99)
	for _, s := range samples {
		st.Append(1, "PAPI_FP_OPS", s.ts, s.v)
	}
	stats := st.Stats()
	if stats.Bytes > budget {
		t.Errorf("store holds %d bytes, budget %d", stats.Bytes, budget)
	}
	if stats.Evictions == 0 {
		t.Error("no evictions despite a budget 100x smaller than the data")
	}

	// Raw data must survive as a contiguous suffix of the stream.
	from, to := samples[0].ts, samples[len(samples)-1].ts+1
	raw := st.Query(1, Query{From: from, To: to, Step: 0})
	if len(raw) != 1 || len(raw[0].Buckets) == 0 {
		t.Fatal("no raw data retained")
	}
	got := raw[0].Buckets
	off := len(samples) - len(got)
	if off <= 0 {
		t.Fatalf("retained %d raw points out of %d without evicting", len(got), len(samples))
	}
	for i, bk := range got {
		s := samples[off+i]
		if bk.Start != s.ts || bk.Last != s.v {
			t.Fatalf("retained point %d = %+v, want ts=%d v=%d (suffix broken)",
				i, bk, s.ts, s.v)
		}
	}

	// Rollups are evicted only by age, so a 60s-step query still
	// answers the whole range exactly.
	res := st.Query(1, Query{From: from, To: to, Step: 60_000_000})
	sameBuckets(t, "rollup-after-evict", res[0].Buckets,
		bruteQuery(samples, from, to, 60_000_000))
}

// TestRetentionAge verifies age-based expiry on both append and Sweep.
func TestRetentionAge(t *testing.T) {
	st := New(Config{MaxBytes: 64 << 20, MaxAge: time.Second})
	// 3 seconds of 1ms ticks; retention 1s.
	samples := genCounter(3000, 1000, 5)
	for _, s := range samples {
		st.Append(2, "PAPI_TOT_INS", s.ts, s.v)
	}
	last := samples[len(samples)-1].ts
	cutoff := last - time.Second.Microseconds()
	raw := st.Query(2, Query{From: 0, To: last + 1, Step: 0})
	if len(raw) == 0 {
		t.Fatal("no raw data retained")
	}
	first := raw[0].Buckets[0].Start
	// Sealed blocks expire only when their whole range is past the
	// cutoff, so the oldest retained sample may precede the cutoff by
	// up to one block; it must never precede it by more.
	blockSpan := int64(512) * 1100 // BlockSamples × max tick period
	if first < cutoff-blockSpan {
		t.Errorf("oldest retained sample %d is more than a block before cutoff %d", first, cutoff)
	}
	if st.Stats().Evictions == 0 {
		t.Error("no age evictions after 3x the retention window")
	}

	// A Sweep far in the future drops everything, series included.
	st.Sweep(last + 10*time.Second.Microseconds())
	if stats := st.Stats(); stats.Series != 0 {
		t.Errorf("%d series survive a sweep past retention", stats.Series)
	}
	if res := st.Query(2, Query{From: 0, To: last + 1, Step: 0}); len(res) != 0 {
		t.Error("swept series still answers queries")
	}
}

// TestMultiSeries checks session/event addressing: AppendBatch fans one
// tick into per-event series, queries filter and sort, and sessions
// are isolated.
func TestMultiSeries(t *testing.T) {
	st := New(Config{MaxAge: -1})
	events := []string{"PAPI_TOT_CYC", "PAPI_FP_OPS"}
	for i := int64(1); i <= 100; i++ {
		st.AppendBatch(1, i*1000, events, []int64{i * 10, i * 3})
		st.AppendBatch(2, i*1000, events[:1], []int64{i * 7})
	}
	if got := st.Stats().Series; got != 3 {
		t.Fatalf("%d series, want 3", got)
	}
	// Unfiltered query returns both events sorted by name.
	res := st.Query(1, Query{From: 0, To: 200_000, Step: 0})
	if len(res) != 2 || res[0].Event != "PAPI_FP_OPS" || res[1].Event != "PAPI_TOT_CYC" {
		t.Fatalf("unfiltered query: %+v", res)
	}
	// Filtered query returns only the named event.
	res = st.Query(1, Query{Events: []string{"PAPI_TOT_CYC"}, From: 0, To: 200_000, Step: 0})
	if len(res) != 1 || res[0].Event != "PAPI_TOT_CYC" || res[0].Buckets[99].Last != 1000 {
		t.Fatalf("filtered query: %+v", res)
	}
	// Sessions don't bleed into each other.
	res = st.Query(2, Query{From: 0, To: 200_000, Step: 0})
	if len(res) != 1 || res[0].Buckets[0].Last != 7 {
		t.Fatalf("session-2 query: %+v", res)
	}
	if res := st.Query(3, Query{From: 0, To: 200_000, Step: 0}); len(res) != 0 {
		t.Errorf("unknown session answered %d series", len(res))
	}
}

// TestOutOfOrderClamp: a timestamp stepping backwards is clamped, not
// corrupted.
func TestOutOfOrderClamp(t *testing.T) {
	st := New(Config{MaxAge: -1})
	st.Append(1, "E", 1000, 1)
	st.Append(1, "E", 2000, 2)
	st.Append(1, "E", 500, 3) // clock stepped back
	res := st.Query(1, Query{From: 0, To: 10_000, Step: 0})
	bks := res[0].Buckets
	if len(bks) != 3 || bks[2].Start != 2000 || bks[2].Last != 3 {
		t.Fatalf("clamped append: %+v", bks)
	}
}

// TestConcurrentAppendQuery races appenders against queriers and
// sweeps; run under -race this is the store's data-race gate.
func TestConcurrentAppendQuery(t *testing.T) {
	st := New(Config{MaxBytes: 256 << 10, MaxAge: -1, BlockSamples: 64})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(0); i < 20_000; i++ {
			st.Append(uint64(i%4), "PAPI_TOT_CYC", i*1000, i*i)
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
			st.Query(uint64(time.Now().UnixNano()%4), Query{From: 0, To: 1 << 40, Step: 10_000_000})
			st.Stats()
		}
	}
}

// TestQuerySeesWholeRows: a row is appended, and a reply captured,
// under one hold of the session's shard lock, so whatever a Query
// returns while rows are landing — raw samples, windows folded from
// raw samples, windows folded from rollup buckets — every event of the
// session has the same number of samples in it and ends in the same
// bucket. Every event of a row carries the same value, so equal
// buckets mean the same rows. And every bucket holds exactly the rows
// appended (wholeRows): a torn read of the active block's bytes, which
// a Query shares with the writer, fails the test even when every event
// is torn alike.
func TestQuerySeesWholeRows(t *testing.T) {
	st := New(Config{MaxBytes: 1 << 30, MaxAge: -1, BlockSamples: 64,
		Rollups: []time.Duration{time.Millisecond}})
	row := make([]int64, len(benchEvents))
	st.AppendBatch(1, 0, benchEvents, row)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(1); i <= 20_000; i++ {
			for e := range row {
				row[e] = i * i
			}
			st.AppendBatch(1, i*100, benchEvents, row) // ten rows per millisecond
		}
	}()
	tally := func(sr Series) (samples uint64, last Bucket) {
		for _, bk := range sr.Buckets {
			samples += bk.Count
		}
		return samples, sr.Buckets[len(sr.Buckets)-1]
	}
	steps := []int64{0, 700, 1000} // raw, raw fold, rollup fold
	var from int64
	for n := 0; ; n++ {
		select {
		case <-done:
			return
		default:
		}
		q := Query{From: from, To: math.MaxInt64, Step: steps[n%len(steps)]}
		res := st.Query(1, q)
		if len(res) != len(benchEvents) {
			t.Fatalf("reply %d %+v: %d series, want %d", n, q, len(res), len(benchEvents))
		}
		samples, last := tally(res[0])
		for _, sr := range res[1:] {
			if s, l := tally(sr); s != samples || l != last {
				t.Fatalf("reply %d %+v holds part of a row: %s has %d samples ending %+v, %s has %d ending %+v",
					n, q, res[0].Event, samples, last, sr.Event, s, l)
			}
		}
		for _, sr := range res {
			if err := wholeRows(q, sr.Buckets); err != nil {
				t.Fatalf("reply %d %+v, %s: %v", n, q, sr.Event, err)
			}
		}
		from = max(0, last.Start-7_000) // keep the replies short and the querier fast
	}
}

// TestQueriesRefoldGrowingBlock races queriers that share fold memos
// against a writer appending to the block they fold: two queriers at
// each of two raw-fold steps, so memos are extended, replaced and
// published at once, over an active block that grows until it seals.
// Every reply must hold exactly the rows appended (wholeRows), and the
// queries must have folded blocks from memos, or the test would check
// only the decoder. The writer waits for four more queries every 100
// rows, so the queries interleave with the appends however the
// goroutines are scheduled.
func TestQueriesRefoldGrowingBlock(t *testing.T) {
	st := New(Config{MaxBytes: 1 << 30, MaxAge: -1, BlockSamples: 2048})
	row := make([]int64, 2)
	st.AppendBatch(1, 0, benchEvents[:2], row)
	var queries atomic.Int64
	var failed atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(1); i <= 8_000; i++ {
			row[0], row[1] = i*i, i*i
			st.AppendBatch(1, i*100, benchEvents[:2], row)
			for want := i / 100 * 4; i%100 == 0 && queries.Load() < want && !failed.Load(); {
				runtime.Gosched()
			}
		}
	}()
	var wg sync.WaitGroup
	for g, step := range []int64{70_000, 70_000, 100_000, 100_000} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				q := Query{From: int64(g) * 10_000, To: math.MaxInt64, Step: step}
				for _, sr := range st.Query(1, q) {
					if err := wholeRows(q, sr.Buckets); err != nil {
						t.Errorf("querier %d, reply %d %+v, %s: %v", g, n, q, sr.Event, err)
						failed.Store(true)
						return
					}
				}
				queries.Add(1)
			}
		}()
	}
	wg.Wait()
	if st.memoHits.Load() == 0 {
		t.Errorf("no block folded from a memo (%d misses)", st.memoMisses.Load())
	}
}

// wholeRows checks a reply to q against TestQuerySeesWholeRows' rows,
// row i holding i² at ts i·100, of which some prefix has landed: the
// buckets must hold every row from the first one in range on, in order,
// each window all the rows it spans but the last, which may stop early,
// and each bucket's count, min, max, sum and last must be those rows'.
func wholeRows(q Query, bks []Bucket) error {
	squares := func(b int64) int64 { return b * (b + 1) * (2*b + 1) / 6 } // Σ i² over 0..b
	step := max(q.Step, 1)
	from, _ := q.grid()
	next := (from + 99) / 100 // the first row in range
	for k, bk := range bks {
		lo, hi := bk.Start, bk.Start+step-1 // the bucket's window, inclusive
		if q.Step > 0 && (mod(lo, q.Step) != 0 || lo < from) {
			return fmt.Errorf("bucket %d %+v is off the step grid", k, bk)
		}
		a := (lo + 99) / 100 // the window's first row
		b := a + int64(bk.Count) - 1
		switch {
		case a != next:
			return fmt.Errorf("bucket %d %+v starts at row %d, want row %d", k, bk, a, next)
		case bk.Count == 0 || b*100 > hi || (k < len(bks)-1 && (b+1)*100 <= hi):
			return fmt.Errorf("bucket %d %+v holds %d rows of window [%d, %d]", k, bk, bk.Count, lo, hi)
		case bk.Min != a*a || bk.Max != b*b || bk.Last != b*b || bk.Sum != squares(b)-squares(a-1):
			return fmt.Errorf("bucket %d %+v: rows %d..%d hold min %d max %d sum %d last %d",
				k, bk, a, b, a*a, b*b, squares(b)-squares(a-1), b*b)
		}
		next = b + 1
	}
	return nil
}

// TestAppendBatchEquivalence: a batched row must leave the store in
// exactly the state E sequential Appends would — same query results,
// same sample/byte accounting — at any row width.
func TestAppendBatchEquivalence(t *testing.T) {
	const sessions, ticks = 3, 400
	events := make([]string, 70)
	for i := range events {
		events[i] = fmt.Sprintf("PAPI_EV_%02d", i)
	}
	for _, width := range []int{1, 2, 8, len(events)} {
		batched := New(Config{MaxBytes: 1 << 30, MaxAge: -1})
		serial := New(Config{MaxBytes: 1 << 30, MaxAge: -1})
		row := make([]int64, width)
		for sess := uint64(1); sess <= sessions; sess++ {
			ts, rng := int64(0), rand.New(rand.NewSource(int64(sess)*7+int64(width)))
			for tick := 0; tick < ticks; tick++ {
				ts += 50_000 + rng.Int63n(31)
				for e := 0; e < width; e++ {
					row[e] += 1_000 + rng.Int63n(97)
				}
				batched.AppendBatch(sess, ts, events[:width], row)
				for e := 0; e < width; e++ {
					serial.Append(sess, events[e], ts, row[e])
				}
			}
		}
		bs, ss := batched.Stats(), serial.Stats()
		if bs != ss {
			t.Fatalf("width %d: stats diverge: batched %+v, serial %+v", width, bs, ss)
		}
		for sess := uint64(1); sess <= sessions; sess++ {
			for e := 0; e < width; e++ {
				q := Query{Events: []string{events[e]}, From: 0, To: 1 << 62, Step: 0}
				bq := batched.Query(sess, q)
				sq := serial.Query(sess, q)
				if len(bq) != 1 || len(sq) != 1 {
					t.Fatalf("width %d sess %d %s: %d/%d series", width, sess, events[e], len(bq), len(sq))
				}
				sameBuckets(t, fmt.Sprintf("width %d sess %d %s", width, sess, events[e]),
					bq[0].Buckets, sq[0].Buckets)
			}
		}
	}
}

// TestAppendBatchRaggedRow: a row is as long as the shorter of its two
// slices; extra values without names, or names without values, are
// ignored.
func TestAppendBatchRaggedRow(t *testing.T) {
	st := New(Config{MaxBytes: 1 << 30, MaxAge: -1})
	st.AppendBatch(1, 100, []string{"A", "B"}, []int64{1, 2, 3})
	st.AppendBatch(1, 200, []string{"A", "B", "C"}, []int64{4, 5})
	st.AppendBatch(1, 300, nil, []int64{9})
	stats := st.Stats()
	if stats.Series != 2 || stats.Samples != 4 {
		t.Fatalf("ragged rows: %+v", stats)
	}
}

// TestUnpersistedQueuesOldestFirst: the store is the persist queue. It
// hands out every sealed block no storage pass has written, each
// series' oldest first, and a block marked persisted leaves the queue
// while the ones a failed pass never wrote stay in it.
func TestUnpersistedQueuesOldestFirst(t *testing.T) {
	st := New(Config{BlockSamples: 4, MaxBytes: 1 << 30, MaxAge: -1})
	for i := 0; i < 12; i++ { // three sealed blocks of four samples
		st.AppendRows([]Row{{Session: 1, TS: int64(i) * 1000, Events: []string{"E"}, Vals: []int64{int64(i)}}}, []uint64{uint64(i + 1)})
	}
	// A pass whose disk fills after two blocks: the third stays queued.
	queued := st.Unpersisted()
	if len(queued) != 3 || queued[0].MinTS != 0 || queued[1].MinTS != 4000 {
		t.Fatalf("Unpersisted did not queue the sealed blocks oldest first: %+v", queued)
	}
	st.MarkPersisted(queued[0])
	st.MarkPersisted(queued[1])
	if again := st.Unpersisted(); len(again) != 1 || again[0].MinTS != 8000 {
		t.Fatalf("Unpersisted re-queued an already-persisted block: %+v", again)
	}
}

// TestHoldsRawFollowsEviction: a block read back from disk is held
// while its series' oldest sealed block is no newer, by row sequence.
// Every row here shares one timestamp, so a timestamp test could not
// tell the evicted blocks from the kept ones. A block the budget
// evicted, a block of a series swept whole, and a block of an earlier
// life of a series swept and re-created are gone.
func TestHoldsRawFollowsEviction(t *testing.T) {
	st := New(Config{BlockSamples: 4, MaxBytes: 1 << 30, MaxAge: time.Minute})
	for i := 0; i < 16; i++ { // four sealed blocks, one timestamp
		st.AppendRows([]Row{{Session: 1, TS: 1000, Events: []string{"E"}, Vals: []int64{int64(i)}}}, []uint64{uint64(i + 1)})
	}
	written := persistAll(st)
	if len(written) != 4 {
		t.Fatalf("%d sealed blocks written, want 4", len(written))
	}
	for i, sb := range written {
		if !st.HoldsRaw([]SealedBlock{sb}) {
			t.Fatalf("block %d is held, HoldsRaw says gone", i)
		}
	}
	// The budget evicts the oldest two, one byte over at a time.
	for st.Stats().Evictions < 2 {
		st.cfg.MaxBytes = st.Stats().Bytes - 1
		st.evictToBudget()
	}
	gone, held := written[:2], written[2:]
	if st.HoldsRaw(gone) {
		t.Error("HoldsRaw reports the two evicted blocks held")
	}
	if !st.HoldsRaw(held[:1]) || !st.HoldsRaw([]SealedBlock{gone[0], gone[1], held[1]}) {
		t.Error("HoldsRaw reports a kept block gone")
	}
	// The series expires whole, then comes back with newer rows.
	st.cfg.MaxBytes = 1 << 30
	st.Sweep(1000 + 2*time.Minute.Microseconds())
	if st.HoldsRaw(written) {
		t.Error("HoldsRaw reports blocks of a swept series held")
	}
	for i := 16; i < 24; i++ {
		st.AppendRows([]Row{{Session: 1, TS: 1000 + 3*time.Minute.Microseconds(), Events: []string{"E"}, Vals: []int64{int64(i)}}}, []uint64{uint64(i + 1)})
	}
	if st.HoldsRaw(written) {
		t.Error("HoldsRaw reports blocks of a series' earlier life held")
	}
}

// bruteRaw is the reference for step=0: the samples in [from, to), one
// bucket each.
func bruteRaw(samples []sample, from, to int64) []Bucket {
	var out []Bucket
	for _, s := range samples {
		if s.ts >= from && s.ts < to {
			out = append(out, Bucket{Start: s.ts, Count: 1, Min: s.v, Max: s.v, Sum: s.v, Last: s.v})
		}
	}
	return out
}

// TestQueryEquivalenceSeeded checks Store.Query against brute force
// over the appended samples on seeded random schedules: irregular,
// duplicate and backwards (clamped) timestamps, histories that start
// below zero, blocks small enough that windows straddle seals and the
// active block, From/To mid-window, To at and near MaxInt64, steps no
// rollup divides (raw fold), steps one does (rollup fold), step 0, and
// event filters against nil. A failure names its seed and query, which
// replay it. The raw folds must take some blocks whole from their value
// summary and decode others, or the test would check only one of the
// two.
func TestQueryEquivalenceSeeded(t *testing.T) {
	events := []string{"A", "B", "C"}
	steps := []int64{0, 1, 7, 333, 999, 1000, 2000, 5000, 6000, 12_000, 4096, 1 << 50}
	var summarized, decoded int
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := New(Config{MaxBytes: 1 << 30, MaxAge: -1, BlockSamples: 4 + rng.Intn(60),
			Rollups: []time.Duration{time.Millisecond, 6 * time.Millisecond}})
		model := map[string][]sample{}
		ts := rng.Int63n(40_000) - 30_000
		lo := ts
		for i, n := 0, 50+rng.Intn(800); i < n; i++ {
			switch rng.Intn(10) {
			case 0: // same instant again
			case 1:
				ts -= rng.Int63n(500) // clock stepped back: the store clamps
			case 2:
				ts += rng.Int63n(20_000) // a gap of several windows
			default:
				ts += 1 + rng.Int63n(50)
			}
			for _, ev := range events {
				if rng.Intn(4) == 0 {
					continue // series of one session need not tick together
				}
				got, v := ts, rng.Int63n(1<<40)-(1<<39)
				if m := model[ev]; len(m) > 0 && got < m[len(m)-1].ts {
					got = m[len(m)-1].ts
				}
				model[ev] = append(model[ev], sample{got, v})
				st.Append(9, ev, ts, v)
			}
		}
		hi := ts
		for qi := 0; qi < 80; qi++ {
			q := Query{Step: steps[rng.Intn(len(steps))]}
			q.From = lo - 3000 + rng.Int63n(hi-lo+6000)
			switch rng.Intn(5) {
			case 0:
				q.To = math.MaxInt64
			case 1:
				q.To = math.MaxInt64 - rng.Int63n(20_000)
			default:
				q.To = q.From + 1 + rng.Int63n(hi-q.From+3000)
			}
			want := events
			if rng.Intn(2) == 0 {
				q.Events = []string{events[rng.Intn(3)], "never-recorded"}
				want = q.Events[:1]
			}
			res := st.Query(9, q)
			if q.Step > 0 && st.pickWidth(q.Step) == 0 {
				s, d := rawFoldBlocks(st, 9, q)
				summarized, decoded = summarized+s, decoded+d
			}
			label := fmt.Sprintf("seed %d query %d %+v", seed, qi, q)
			for _, ev := range want {
				exp := bruteRaw(model[ev], q.From, q.To)
				if q.Step > 0 {
					exp = bruteQuery(model[ev], q.From, q.To, q.Step)
				}
				if len(exp) == 0 {
					continue // empty series are omitted from the reply
				}
				if len(res) == 0 || res[0].Event != ev {
					t.Fatalf("%s: series %s missing from %d-series reply", label, ev, len(res))
				}
				if res[0].Width != st.pickWidth(q.Step) {
					t.Fatalf("%s: %s served from width %d", label, ev, res[0].Width)
				}
				sameBuckets(t, label+" "+ev, res[0].Buckets, exp)
				res = res[1:]
			}
			if len(res) != 0 {
				t.Fatalf("%s: %d unexpected series, first %q", label, len(res), res[0].Event)
			}
		}
	}
	t.Logf("raw step folds: %d blocks from their summary, %d decoded", summarized, decoded)
	if summarized == 0 || decoded == 0 {
		t.Errorf("raw step folds took %d blocks from their summary and decoded %d; want both > 0",
			summarized, decoded)
	}
}

// rawFoldBlocks counts the blocks of session's series that a raw step
// fold of q takes whole from their value summary, and those it decodes.
func rawFoldBlocks(st *Store, session uint64, q Query) (summarized, decoded int) {
	from, to := q.grid()
	sh := st.shardFor(session)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for _, sr := range sh.m[session].series {
		c := sr.capture(-1, from, to)
		for _, b := range c.blocks {
			if b.inWindow(from, to, q.Step) {
				summarized++
			} else {
				decoded++
			}
		}
	}
	return summarized, decoded
}

// TestQueryWindowPastEndOfTime: a step window whose end would overflow
// int64 still aggregates whole instead of splitting per sample.
func TestQueryWindowPastEndOfTime(t *testing.T) {
	st := New(Config{MaxBytes: 1 << 30, MaxAge: -1, BlockSamples: 2})
	var samples []sample
	for i, back := range []int64{5000, 4000, 900, 500, 2} {
		samples = append(samples, sample{math.MaxInt64 - back, int64(i) * 3})
		st.Append(1, "E", math.MaxInt64-back, int64(i)*3)
	}
	for _, step := range []int64{7, 1000, 1 << 50} {
		res := st.Query(1, Query{From: math.MaxInt64 - 4500, To: math.MaxInt64, Step: step})
		if len(res) != 1 {
			t.Fatalf("step %d: %d series", step, len(res))
		}
		sameBuckets(t, fmt.Sprintf("step %d", step), res[0].Buckets,
			bruteQuery(samples, math.MaxInt64-4500, math.MaxInt64, step))
	}
}

// TestQueryRawRangeAllocs is the timing-free guard against a per-sample
// intermediate coming back on the raw-decoded range path: eight times
// the samples in the same four windows must cost exactly the same
// allocations, and a handful at that. With every sample in the active
// block, whose bytes a Query shares instead of copying, they must cost
// the same bytes too; over sealed blocks the list of block refs grows
// with the samples, so only the allocations are pinned there.
func TestQueryRawRangeAllocs(t *testing.T) {
	cost := func(blockSamples, samples int) (allocs, bytes float64) {
		st := New(Config{MaxBytes: 1 << 30, MaxAge: -1, BlockSamples: blockSamples})
		for i := 0; i < samples; i++ {
			st.Append(1, "PAPI_TOT_CYC", int64(i)*4_000_000/int64(samples), int64(i)*1000)
		}
		q := Query{From: 0, To: math.MaxInt64, Step: 1_000_000} // no rollup divides 1s
		if res := st.Query(1, q); len(res) != 1 || res[0].Width != 0 || len(res[0].Buckets) != 4 {
			t.Fatalf("%d samples: want one raw-decoded series of 4 windows, got %+v", samples, res)
		}
		// Whatever else the process allocates meanwhile only adds bytes,
		// so the least of five rounds is the queries' own.
		const runs = 20
		bytes = math.Inf(1)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				st.Query(1, q)
			}
			runtime.ReadMemStats(&after)
			bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return testing.AllocsPerRun(runs, func() { st.Query(1, q) }), bytes
	}
	for _, tc := range []struct {
		name         string
		blockSamples int
		sameBytes    bool
	}{{"sealed blocks", 0, false}, {"active block", 1 << 15, true}} {
		sparseAllocs, sparseBytes := cost(tc.blockSamples, 2_100)
		denseAllocs, denseBytes := cost(tc.blockSamples, 16_800)
		if sparseAllocs != denseAllocs || denseAllocs > 8 {
			t.Errorf("%s: allocs per query: %v over 2,100 samples, %v over 16,800, both in 4 windows; want equal and <= 8",
				tc.name, sparseAllocs, denseAllocs)
		}
		if tc.sameBytes && sparseBytes != denseBytes {
			t.Errorf("%s: bytes per query: %v over 2,100 samples, %v over 16,800, both in 4 windows; want equal",
				tc.name, sparseBytes, denseBytes)
		}
	}
}

// TestRequeryDecodesOnlyNewRows: a range QUERY asked again at the step
// it was last folded at decodes only the samples appended since — none
// when nothing was — and folds every other block from its memo; a query
// at another step decodes everything again, and so does the first step
// after it, whose memos it replaced. The memos' bytes stay under the
// blocks'.
func TestRequeryDecodesOnlyNewRows(t *testing.T) {
	st := New(Config{MaxBytes: 1 << 30, MaxAge: -1})
	model := map[string][]sample{}
	rng := rand.New(rand.NewSource(5))
	row := make([]int64, len(benchEvents))
	var ts int64
	appendRows := func(n int) {
		for range n {
			ts += 12_000 + rng.Int63n(300)
			for e, ev := range benchEvents {
				row[e] += 1_000_000 + rng.Int63n(997)
				model[ev] = append(model[ev], sample{ts, row[e]})
			}
			st.AppendBatch(1, ts, benchEvents, row)
		}
	}
	query := func(step int64) (decoded, hits, misses uint64) {
		d, h, m := st.decoded.Load(), st.memoHits.Load(), st.memoMisses.Load()
		q := Query{From: 0, To: math.MaxInt64, Step: step}
		res := st.Query(1, q)
		if len(res) != len(benchEvents) {
			t.Fatalf("step %d: %d series", step, len(res))
		}
		for _, sr := range res {
			sameBuckets(t, fmt.Sprintf("step %d %s", step, sr.Event), sr.Buckets, bruteQuery(model[sr.Event], q.From, q.To, step))
		}
		return st.decoded.Load() - d, st.memoHits.Load() - h, st.memoMisses.Load() - m
	}
	appendRows(2000) // 3 sealed blocks and the active one per event
	all := uint64(len(benchEvents) * 2000)
	const blocks = 4 * 8
	for _, tc := range []struct {
		name                  string
		rows                  int
		step                  int64
		decoded, hits, misses uint64
	}{
		{"first", 0, 1_000_000, all, 0, blocks},
		{"again", 0, 1_000_000, 0, blocks, 0},
		{"10 rows later", 10, 1_000_000, 80, blocks, 0},
		{"another step", 0, 700_000, all + 80, 0, blocks},
		{"the first step again", 0, 1_000_000, all + 80, 0, blocks},
	} {
		appendRows(tc.rows)
		if d, h, m := query(tc.step); d != tc.decoded || h != tc.hits || m != tc.misses {
			t.Errorf("%s: decoded %d samples, %d memo hits, %d misses; want %d, %d, %d",
				tc.name, d, h, m, tc.decoded, tc.hits, tc.misses)
		}
	}
	if memo, held := st.memoBytes(), st.Stats().Bytes; memo == 0 || memo > held {
		t.Errorf("memos hold %d bytes, the store %d; want some, and no more than the blocks", memo, held)
	}
}

// recountBytes sums every live series' footprint from scratch.
func recountBytes(st *Store) int64 {
	var n int64
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		for _, e := range sh.m {
			for _, sr := range e.series {
				n += sr.bytes()
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

// TestBudgetRunningTotalMatchesRecount: the store keeps its byte total
// by deltas taken around what each operation changed, never by
// recounting a series; after every step of a seeded schedule of
// appends, budget and age evictions, sweeps, force-seals, replay
// installs and compaction drops, that total must equal a full recount.
func TestBudgetRunningTotalMatchesRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	st := New(Config{MaxBytes: 24 << 10, MaxAge: 2 * time.Second, BlockSamples: 32})
	events := []string{"A", "B", "C", "D"}
	check := func(op string, i int) {
		t.Helper()
		if got, want := st.Stats().Bytes, recountBytes(st); got != want {
			t.Fatalf("after %s at step %d: running total %d, recount %d", op, i, got, want)
		}
	}
	var ts int64
	var persisted int
	row := make([]int64, len(events))
	for i := 0; i < 30_000; i++ {
		ts += 500 + rng.Int63n(2_000)
		for e := range row {
			row[e] += rng.Int63n(1 << uint(10+rng.Intn(30)))
		}
		switch sess := uint64(1 + rng.Intn(3)); rng.Intn(40) {
		case 0:
			st.Sweep(ts)
			check("Sweep", i)
		case 1:
			st.SealAllActive()
			check("SealAllActive", i)
		case 2:
			var b block
			for k := int64(0); k < 20; k++ {
				b.appendSample(ts+k, k)
			}
			ts += 20
			st.InstallSealed(sealedBlockOf(SeriesKey{Session: 50 + sess, Event: "R"}, &b))
			check("InstallSealed", i)
		case 3:
			st.InstallRollup(SeriesKey{Session: 50 + sess, Event: "R"}, st.widths[0],
				[]Bucket{{Start: ts - mod(ts, st.widths[0]), Count: 1}})
			check("InstallRollup", i)
		case 4:
			// A storage layer writes the queue: a block costs the same
			// persisted or not.
			persisted += len(persistAll(st))
			check("persist", i)
		case 5:
			st.Append(sess, events[0], ts, row[0])
			check("Append", i)
		case 6:
			// A series that only ever gets rollup buckets, and a run of a
			// width the store does not keep (which must create nothing).
			key, start := SeriesKey{Session: 60 + sess, Event: "O"}, ts-mod(ts, st.widths[0])
			st.InstallRollup(key, st.widths[0], []Bucket{{Start: start, Count: 1}})
			check("InstallRollup (rollup-only series)", i)
			if st.InstallRollup(key, st.widths[0]+1, []Bucket{{Start: start, Count: 1}}) {
				t.Fatalf("step %d: InstallRollup filed a run of a width the store does not keep", i)
			}
			check("InstallRollup (unknown width)", i)
		default:
			st.AppendBatch(sess, ts, events, row)
			check("AppendBatch", i)
		}
	}
	if st.Stats().Evictions == 0 || persisted == 0 {
		t.Errorf("the schedule made %d evictions and persisted %d blocks; it no longer exercises the eviction and persist steps",
			st.Stats().Evictions, persisted)
	}
	st.Sweep(ts + time.Hour.Microseconds())
	check("final Sweep", -1)
	if got := st.Stats(); got.Series != 0 || got.Bytes != 0 {
		t.Errorf("after everything expired: %+v, want no series and 0 bytes", got)
	}
}

// persistAll is a storage pass whose every write succeeds: it marks
// each queued block persisted and returns them.
func persistAll(st *Store) []SealedBlock {
	written := st.Unpersisted()
	for _, sb := range written {
		st.MarkPersisted(sb)
	}
	return written
}

// TestInstallSealedOwnsItsBytes: a replayed block keeps its own copy of
// the buffer it was installed from — a segment file's bytes, which the
// storage layer lets go once the install pass ends — so writing over that
// buffer afterwards changes nothing the store serves.
func TestInstallSealedOwnsItsBytes(t *testing.T) {
	var b block
	for k := int64(0); k < 20; k++ {
		b.appendSample(1000+k, 7*k)
	}
	st := New(Config{MaxBytes: 1 << 20, MaxAge: -1})
	key := SeriesKey{Session: 1, Event: "E"}
	st.InstallSealed(sealedBlockOf(key, &b))
	q := Query{From: 0, To: math.MaxInt64}
	want := st.Query(key.Session, q)[0].Buckets
	clear(b.buf)
	if got := st.Query(key.Session, q)[0].Buckets; !slices.Equal(got, want) || len(got) != 20 {
		t.Errorf("after the install buffer was overwritten the store serves %d samples, differing from the %d it served before",
			len(got), len(want))
	}
}

// TestSweepThenRecreate: the session's entry is the event index, so
// Events, a filterless Query, Stats().Series and the papid_tsdb_series
// gauge cannot disagree — after a session expires entirely, after it
// appends again, after only some of its series expire — and an entry
// leaves the shard map with its last series: a session ever seen must
// not cost memory forever.
func TestSweepThenRecreate(t *testing.T) {
	const minute = int64(time.Minute / time.Microsecond)
	reg := telemetry.NewRegistry()
	st := New(Config{MaxBytes: 1 << 30, MaxAge: time.Minute, Registry: reg})
	agree := func(step string, want ...string) {
		t.Helper()
		var listed []string
		for _, sr := range st.Query(5, Query{From: 0, To: math.MaxInt64}) {
			listed = append(listed, sr.Event)
		}
		entries := 0
		for i := range st.shards {
			entries += len(st.shards[i].m)
		}
		gauge, ok := reg.Stats()["tsdb_series"]
		if !ok {
			t.Fatal("no tsdb_series in the registry's Stats")
		}
		if ev := st.Events(5); !slices.Equal(ev, want) || !slices.Equal(listed, want) ||
			st.Stats().Series != len(want) || gauge != uint64(len(want)) || entries != min(len(want), 1) {
			t.Fatalf("%s: want %v; Events %v, Query lists %v, Stats().Series %d, papid_tsdb_series %v, %d session entries",
				step, want, ev, listed, st.Stats().Series, gauge, entries)
		}
	}
	agree("empty store")
	st.AppendBatch(5, 1, []string{"B", "A"}, []int64{1, 2})
	agree("first rows", "A", "B")
	st.Sweep(3 * minute)
	agree("session expired")
	st.AppendBatch(5, 3*minute, []string{"C", "B"}, []int64{3, 4})
	agree("session appends again", "B", "C")
	st.AppendBatch(5, 5*minute, []string{"C"}, []int64{5})
	st.Sweep(5 * minute)
	agree("one series expired", "C")
	st.Sweep(7 * minute)
	agree("session expired again")
	if got := st.Stats().Bytes; got != 0 {
		t.Errorf("an empty store charges %d bytes", got)
	}
}

// TestSweepDropsRollupOnlySeries: a series holding only installed
// rollup buckets — what replay builds for a series whose raw blocks
// compaction folded away — expires like any other: Sweep takes it out
// of its session's entry and the byte charge. A run of a width the
// store does not keep is refused before any series is created for it.
func TestSweepDropsRollupOnlySeries(t *testing.T) {
	st := New(Config{MaxBytes: 1 << 30, MaxAge: time.Minute})
	empty := st.Stats()
	key, w := SeriesKey{Session: 7, Event: "E"}, st.widths[0]

	if st.InstallRollup(key, w+1, []Bucket{{Start: 0, Count: 1}}) {
		t.Fatal("InstallRollup filed a run of a width the store does not keep")
	}
	if got := st.Stats(); got != empty || len(st.Events(key.Session)) != 0 {
		t.Fatalf("refused run left state behind: %+v, events %v", got, st.Events(key.Session))
	}

	if !st.InstallRollup(key, w, []Bucket{{Start: 0, Count: 3}, {Start: w, Count: 3}, {Start: 2 * w, Count: 1}}) {
		t.Fatal("InstallRollup refused a configured width")
	}
	if got := st.Stats(); got.Series != 1 || got.Bytes <= empty.Bytes {
		t.Fatalf("after install: %+v", got)
	}
	st.Sweep(2*w + time.Hour.Microseconds())
	if got := st.Stats(); got.Series != 0 || got.Bytes != empty.Bytes {
		t.Errorf("after Sweep past MaxAge: %+v, want no series and %d bytes", got, empty.Bytes)
	}
	if ev := st.Events(key.Session); len(ev) != 0 {
		t.Errorf("session event index still lists %v", ev)
	}
}

// TestOldestUnpersisted: the store answers which WAL rows it still
// needs — the first sequence of its oldest block not on disk — case by
// case: an active block, a sealed block whose write has not succeeded,
// the same once a storage pass has written it, a series Sweep dropped
// whole, the series appending again, and rows that came with no
// sequence.
func TestOldestUnpersisted(t *testing.T) {
	const minute = int64(time.Minute / time.Microsecond)
	st := New(Config{MaxBytes: 1 << 30, MaxAge: time.Minute, BlockSamples: 4})
	key := SeriesKey{Session: 3, Event: "E"}
	want := func(step string, seq uint64) {
		t.Helper()
		if got := st.OldestUnpersisted(); got != seq {
			t.Fatalf("%s: OldestUnpersisted = %d, want %d", step, got, seq)
		}
	}
	want("empty store", 0)
	st.AppendRows([]Row{{Session: key.Session, TS: 1, Events: []string{key.Event}, Vals: []int64{1}}}, []uint64{5})
	want("active block", 5)
	for seq := uint64(6); seq <= 9; seq++ {
		st.AppendRows([]Row{{Session: key.Session, TS: int64(seq), Events: []string{key.Event}, Vals: []int64{int64(seq)}}}, []uint64{seq})
	}
	if n := len(st.Unpersisted()); n != 1 {
		t.Fatalf("%d blocks sealed, want 1", n)
	}
	want("sealed, not persisted", 5)
	if written := persistAll(st); len(written) != 1 || written[0].LastSeq != 8 {
		t.Fatalf("persisted %+v, want the one block, through seq 8", written)
	}
	want("sealed block persisted", 9)
	st.Sweep(10 * minute)
	if n := st.Stats().Series; n != 0 {
		t.Fatalf("Sweep left %d series", n)
	}
	want("series dropped", 0)
	st.AppendRows([]Row{{Session: key.Session, TS: 10 * minute, Events: []string{key.Event}, Vals: []int64{10}}}, []uint64{20})
	want("append after the drop", 20)

	ram := New(Config{MaxBytes: 1 << 30, MaxAge: time.Minute, BlockSamples: 4})
	for ts := int64(1); ts <= 6; ts++ {
		ram.AppendBatch(key.Session, ts, []string{key.Event}, []int64{ts})
	}
	if got := ram.OldestUnpersisted(); got != 0 {
		t.Errorf("RAM-only store: OldestUnpersisted = %d, want 0", got)
	}
}
