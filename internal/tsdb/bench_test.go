package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// benchEvents is one papid session's row: 8 events.
var benchEvents = []string{"PAPI_TOT_CYC", "PAPI_FP_OPS", "PAPI_L1_DCM", "PAPI_TOT_INS",
	"PAPI_BR_MSP", "PAPI_TLB_DM", "PAPI_L2_TCM", "PAPI_TOT_IIS"}

// benchSamples is a realistic papid stream: 50ms ticks, near-constant
// counter rate with jitter.
func benchSamples(n int) []sample {
	rng := rand.New(rand.NewSource(3))
	out := make([]sample, n)
	ts, v := int64(0), int64(0)
	for i := range out {
		ts += 50_000 + rng.Int63n(31)
		v += 1_000_000 + rng.Int63n(997)
		out[i] = sample{ts, v}
	}
	return out
}

// BenchmarkTSDBAppend measures ingest throughput: one sample per op,
// rollups included.
func BenchmarkTSDBAppend(b *testing.B) {
	st := New(Config{MaxBytes: 1 << 30, MaxAge: -1})
	samples := benchSamples(1 << 16)
	b.SetBytes(16) // one raw (ts, value) pair
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := samples[i&(1<<16-1)]
		// Keep timestamps monotone across wraps.
		st.Append(1, "PAPI_TOT_CYC", s.ts+int64(i>>16)*samples[len(samples)-1].ts, s.v)
	}
}

// BenchmarkTSDBCompress reports the headline compression ratio versus
// raw int64 (ts, value) pairs, as the x-compression metric.
func BenchmarkTSDBCompress(b *testing.B) {
	samples := benchSamples(1 << 16)
	var encoded int64
	for i := 0; i < b.N; i++ {
		var blk block
		for _, s := range samples {
			blk.appendSample(s.ts, s.v)
		}
		encoded = int64(len(blk.buf))
	}
	raw := int64(len(samples) * 16)
	b.SetBytes(raw)
	b.ReportMetric(float64(raw)/float64(encoded), "x-compression")
	b.ReportMetric(float64(encoded)/float64(len(samples)), "B/sample")
}

// BenchmarkTSDBDecode measures block decode throughput.
func BenchmarkTSDBDecode(b *testing.B) {
	samples := benchSamples(1 << 16)
	var blk block
	for _, s := range samples {
		blk.appendSample(s.ts, s.v)
	}
	b.SetBytes(int64(len(samples) * 16))
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		IterBlock(blk.buf, blk.n, func(_, v int64) bool { sink += v; return true })
	}
	_ = sink
}

// BenchmarkTSDBAppendBatch measures papid's tick shape — one row of E
// events per op — batched (one lock round per shard) against the
// sequential per-event path it replaced.
func BenchmarkTSDBAppendBatch(b *testing.B) {
	events := benchEvents
	for _, mode := range []string{"batched", "serial"} {
		for _, width := range []int{2, 8} {
			b.Run(fmt.Sprintf("%s/events-%d", mode, width), func(b *testing.B) {
				st := New(Config{MaxBytes: 1 << 30, MaxAge: -1})
				samples := benchSamples(1 << 16)
				row := make([]int64, width)
				b.SetBytes(int64(16 * width))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s := samples[i&(1<<16-1)]
					ts := s.ts + int64(i>>16)*samples[len(samples)-1].ts
					for e := range row {
						row[e] = s.v + int64(e)
					}
					if mode == "batched" {
						st.AppendBatch(1, ts, events[:width], row)
					} else {
						for e := 0; e < width; e++ {
							st.Append(1, events[e], ts, row[e])
						}
					}
				}
			})
		}
	}
}

// BenchmarkTSDBQuery measures query latency over a populated store at
// 1, 8 and 64 concurrent queriers mixing rollup- and raw-resolution
// reads.
func BenchmarkTSDBQuery(b *testing.B) {
	st := New(Config{MaxBytes: 1 << 30, MaxAge: -1})
	samples := benchSamples(200_000)
	events := []string{"PAPI_TOT_CYC", "PAPI_FP_OPS", "PAPI_L1_DCM", "PAPI_TOT_INS"}
	for _, ev := range events {
		for _, s := range samples {
			st.Append(1, ev, s.ts, s.v)
		}
	}
	last := samples[len(samples)-1].ts
	queries := []Query{
		{From: 0, To: last, Step: 60_000_000},                          // full range, 60s rollup
		{From: last / 2, To: last, Step: 10_000_000},                   // half range, 10s rollup
		{From: last - 2_000_000, To: last, Step: 100_000},              // recent 2s, raw decode
		{Events: events[:1], From: 0, To: last, Step: 10 * 60_000_000}, // coarse single event
	}
	for _, nq := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("queriers-%d", nq), func(b *testing.B) {
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < nq; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := next.Add(1) - 1
						if i >= int64(b.N) {
							return
						}
						q := queries[i%int64(len(queries))]
						if res := st.Query(1, q); len(res) == 0 {
							b.Error("empty query result")
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkTSDBQueryRawRange measures the raw-decoded range query —
// what `perfometer -step 1s` and derive-mode QUERY send, since no
// rollup width divides a step under 10s: a whole-history step=1s read
// of one session of 8 events. "burst" packs 4,000 rows 250us apart (a
// preload: ~1s of history, a handful of windows); "tick-50ms" spaces
// 4,000 rows like a live session (200 windows); "publish" is a
// publish_fanout session as papistorm drives it, a 200-row preload
// burst and then 8.5s of its share of 5,000 rows/s over 64 sessions:
// ~78 rows/s, one or two 9ms publish periods apart (9 windows, 860
// rows). B/op is the guard: it must follow the windows returned, not
// the samples decoded.
func BenchmarkTSDBQueryRawRange(b *testing.B) {
	events := benchEvents
	for _, sp := range []struct {
		name string
		rows int
		gap  func(row int, rng *rand.Rand) int64 // µs before the row
	}{
		{"burst", 4000, func(_ int, rng *rand.Rand) int64 { return 250 + rng.Int63n(31) }},
		{"tick-50ms", 4000, func(_ int, rng *rand.Rand) int64 { return 50_000 + rng.Int63n(31) }},
		{"publish", 860, func(row int, rng *rand.Rand) int64 {
			if row < 200 {
				return 1_250 + rng.Int63n(31)
			}
			gap := 9_000 + rng.Int63n(200)
			if rng.Intn(45) < 19 { // 45 rows a period over 64 sessions
				gap += 9_000
			}
			return gap
		}},
	} {
		b.Run(sp.name, func(b *testing.B) {
			st := New(Config{MaxBytes: 1 << 30, MaxAge: -1})
			rng := rand.New(rand.NewSource(3))
			row := make([]int64, len(events))
			var ts int64
			for i := 0; i < sp.rows; i++ {
				ts += sp.gap(i, rng)
				for e := range row {
					row[e] += 1_000_000 + rng.Int63n(997)
				}
				st.AppendBatch(1, ts, events, row)
			}
			q := Query{From: 0, To: math.MaxInt64, Step: 1_000_000}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := st.Query(1, q); len(res) != len(events) {
					b.Fatalf("query returned %d series, want %d", len(res), len(events))
				}
			}
		})
	}
}

// BenchmarkTSDBEvictingAppend measures steady-state ingest with the
// budget eviction loop active — the worst-case hot path.
func BenchmarkTSDBEvictingAppend(b *testing.B) {
	st := New(Config{MaxBytes: 64 << 10, MaxAge: time.Hour})
	samples := benchSamples(1 << 16)
	b.SetBytes(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := samples[i&(1<<16-1)]
		st.Append(1, "PAPI_TOT_CYC", s.ts+int64(i>>16)*samples[len(samples)-1].ts, s.v)
	}
}
