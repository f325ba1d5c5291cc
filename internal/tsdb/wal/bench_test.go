package wal

import (
	"os"
	"path/filepath"
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
// 20k tick rows (2 events each) rebuilds the in-memory store. Starting
// a log opens a fresh WAL file, so each iteration replays its own copy
// of the seeded directory, made outside the timer, and every iteration
// sees the same files. The huge BlockSamples keeps replay from sealing
// blocks back to disk, so the number isolates decode + insert.
func BenchmarkReplay(b *testing.B) {
	seeded := b.TempDir()
	const rows = 20_000
	events := []string{"PAPI_TOT_CYC", "PAPI_FP_OPS"}
	opts := noCompact(Options{Fsync: FsyncOff})
	cfg := tsdb.Config{MaxBytes: 1 << 30, MaxAge: -1, BlockSamples: 1 << 20}

	l, err := Open(seeded, opts)
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
	dir := filepath.Join(b.TempDir(), "replay")
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copyDir(b, dir, seeded)
		b.StartTimer()
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

// copyDir makes dst a copy of the flat directory src, replacing
// whatever dst held.
func copyDir(b *testing.B, dst, src string) {
	if err := os.RemoveAll(dst); err != nil {
		b.Fatal(err)
	}
	if err := os.Mkdir(dst, 0o755); err != nil {
		b.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			b.Fatal(err)
		}
	}
}
