package telemetry

import (
	"io"
	"runtime"
	"sync/atomic"
	"testing"
)

// BenchmarkTelemetryCounter measures the hot-path increment, serial
// and under full parallel contention — the case the stripes exist for.
func BenchmarkTelemetryCounter(b *testing.B) {
	reg := NewRegistry()
	c := reg.NewCounter(Opts{Name: "bench_total"})
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Inc()
			}
		})
	})
}

// BenchmarkTelemetryHistogram measures Observe — the per-request cost
// added to every wire op — and the scrape-time Summary extraction.
func BenchmarkTelemetryHistogram(b *testing.B) {
	reg := NewRegistry()
	h := reg.NewLatencyHistogram(Opts{Name: "bench_seconds", Key: "bench"})
	b.Run("observe-serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(int64(i)*31 + 1000)
		}
	})
	b.Run("observe-parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			v := int64(1000)
			for pb.Next() {
				h.Observe(v)
				v += 31
			}
		})
	})
	// Each parallel recorder observes into a cell of its own, as
	// papid's sweep workers do; against observe-parallel this is what
	// the shared bucket lines cost.
	cells := reg.NewLatencyHistogramCells(Opts{Name: "bench_cells_seconds", Key: "cells"}, runtime.GOMAXPROCS(0))
	b.Run("observe-parallel-cells", func(b *testing.B) {
		b.ReportAllocs()
		var next atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			cell := int(next.Add(1)-1) % runtime.GOMAXPROCS(0)
			v := int64(1000)
			for pb.Next() {
				cells.ObserveAt(cell, v)
				v += 31
			}
		})
	})
	b.Run("summary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if s := h.Summary(); s.Count == 0 {
				b.Fatal("empty summary")
			}
		}
	})
}

// BenchmarkPrometheusScrape measures a full /metrics render of a
// registry shaped like papid's (a few dozen instruments).
func BenchmarkPrometheusScrape(b *testing.B) {
	reg := NewRegistry()
	for _, name := range []string{"a_total", "b_total", "c_total", "d_total"} {
		reg.NewCounter(Opts{Name: name}).Add(12345)
	}
	reg.NewGaugeFunc(Opts{Name: "g"}, func() float64 { return 7 })
	for _, name := range []string{"h1_seconds", "h2_seconds", "h3_seconds"} {
		h := reg.NewLatencyHistogram(Opts{Name: name, Key: name})
		for v := int64(100); v < 1_000_000_000; v *= 3 {
			h.Observe(v)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := reg.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
