package wal

import (
	"testing"

	"repro/internal/tsdb"
)

// BenchmarkWALAppend measures the journaling cost of one tick row (4
// events) under each fsync policy. "always" is dominated by the fsync
// itself — the number to quote is rows/s, which bounds the tick rate a
// synchronous-durability papid can sustain. "interval" and "off" show
// the pure encode+write cost the default configuration adds per tick.
func BenchmarkWALAppend(b *testing.B) {
	events := []string{"PAPI_TOT_CYC", "PAPI_TOT_INS", "PAPI_FP_OPS", "PAPI_L1_DCM"}
	for _, policy := range []string{FsyncAlways, FsyncInterval, FsyncOff} {
		b.Run(policy, func(b *testing.B) {
			l, err := Open(b.TempDir(), Options{Fsync: policy})
			if err != nil {
				b.Fatal(err)
			}
			store := tsdb.New(tsdb.Config{MaxBytes: 1 << 30, MaxAge: -1})
			if _, err := l.Start(store); err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			vals := make([]int64, len(events))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ts := int64(i) * 10_000 // 10ms ticks
				for j := range vals {
					vals[j] += int64(j) + 5000
				}
				if err := l.AppendBatch(1, ts, events, vals); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkReplay measures crash-recovery speed: how fast a WAL of
// 20k tick rows (2 events each) rebuilds the in-memory store. The
// huge BlockSamples keeps replay from sealing blocks back to disk, so
// iterations see an identical directory and the number isolates
// decode + insert.
func BenchmarkReplay(b *testing.B) {
	dir := b.TempDir()
	const rows = 20_000
	events := []string{"PAPI_TOT_CYC", "PAPI_FP_OPS"}
	opts := noCompact(Options{Fsync: FsyncOff})
	cfg := tsdb.Config{MaxBytes: 1 << 30, MaxAge: -1, BlockSamples: 1 << 20}

	l, err := Open(dir, opts)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := l.Start(tsdb.New(cfg)); err != nil {
		b.Fatal(err)
	}
	vals := make([]int64, len(events))
	for i := 0; i < rows; i++ {
		for j := range vals {
			vals[j] += int64(j) + 5000
		}
		if err := l.AppendBatch(1, int64(i)*10_000, events, vals); err != nil {
			b.Fatal(err)
		}
	}
	l.Abandon() // crash shape: the WAL is the only copy

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := Open(dir, opts)
		if err != nil {
			b.Fatal(err)
		}
		rs, err := l.Start(tsdb.New(cfg))
		if err != nil {
			b.Fatal(err)
		}
		if rs.Rows != rows {
			b.Fatalf("replayed %d rows, want %d", rs.Rows, rows)
		}
		l.Abandon()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*rows/b.Elapsed().Seconds(), "rows/s")
}
