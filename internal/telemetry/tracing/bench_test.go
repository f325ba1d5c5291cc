package tracing

import (
	"testing"
	"time"
)

// BenchmarkTraceSpan is the per-span cost every instrumented stage
// pays: start + end on an unretained trace.
func BenchmarkTraceSpan(b *testing.B) {
	tr := NewTracer(Config{Ring: 8})
	trc := tr.Start("bench", "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := trc.StartSpan(NoSpan, "stage")
		trc.EndSpan(sp)
		if i%1024 == 0 {
			// Keep the span slice from growing past the cap mid-bench.
			trc.spans = trc.spans[:1]
		}
	}
	b.StopTimer()
	tr.Finish(trc)
}

// BenchmarkTraceStartFinish is the per-unit floor for an unretained
// trace (the common case: neither slow nor errored): pool get, one
// clock read at each end, pool put.
func BenchmarkTraceStartFinish(b *testing.B) {
	tr := NewTracer(Config{Ring: 8})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Finish(tr.Start("request", "READ"))
	}
}

// BenchmarkTraceRingInsert is the retained path: every trace is
// head-sampled, so each Finish inserts into the ring.
func BenchmarkTraceRingInsert(b *testing.B) {
	tr := NewTracer(Config{Sample: 1, Ring: 128})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trc := tr.Start("request", "READ")
		sp := trc.StartSpan(NoSpan, "dispatch")
		trc.EndSpan(sp)
		tr.Finish(trc)
	}
}

// BenchmarkTraceAnnotate measures attaching one int annotation.
func BenchmarkTraceAnnotate(b *testing.B) {
	tr := NewTracer(Config{Sample: 1, Ring: 2, Slow: time.Hour})
	trc := tr.Start("bench", "bench")
	sp := trc.StartSpan(NoSpan, "stage")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trc.AnnotateInt(sp, "n", int64(i))
		if i%1024 == 0 {
			trc.spans[sp].Attrs = trc.spans[sp].Attrs[:0]
		}
	}
	b.StopTimer()
	tr.Finish(trc)
}
