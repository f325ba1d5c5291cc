package wal

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

// TestLongSegmentOutageKeepsRows: segment record writes fail for 300
// seals in a row, then the disk recovers. Every block sealed during the
// outage must still reach a segment, oldest first, and a crash after
// the recovery must lose nothing: a restart serves, in every view,
// exactly what the live store served. No cap on the blocks waiting may
// leave some of them WAL-only behind a newer persisted block, whose
// sequence replay would then take as the series' watermark.
func TestLongSegmentOutageKeepsRows(t *testing.T) {
	const outage, lead = 300, 40
	dir := t.TempDir()
	events := []string{"PAPI_TOT_CYC"}
	failing := 0 // segment record writes still to fail
	opts := noCompact(Options{Fsync: FsyncOff})
	opts.wrap = onFiles("seg-", func(w io.Writer) io.Writer {
		return writeFunc(func(p []byte) (int, error) {
			if failing > 0 {
				failing--
				return 0, errInjected
			}
			return w.Write(p)
		})
	})
	cfg := tsdb.Config{BlockSamples: 4}
	l, store, _ := openPair(t, dir, opts, cfg)
	const step = 100_000
	appendTicks(t, l, 1, events, lead, 0, step)
	failing = outage
	appendTicks(t, l, 1, events, outage*cfg.BlockSamples, lead*step, step)
	if failing != 0 {
		t.Fatalf("the outage outlasted its seals: %d failures to come", failing)
	}
	appendTicks(t, l, 1, events, lead, (lead+outage*int64(cfg.BlockSamples))*step, step)
	want := queryAll(t, store, 1, 0, 1<<60)
	live := len(servedRaw(store, 1, 1))
	l.Abandon()

	opts.wrap = nil
	l2, store2, rs := openPair(t, dir, opts, cfg)
	defer l2.Close()
	if got := queryAll(t, store2, 1, 0, 1<<60); got != want {
		t.Errorf("a restart after a %d-seal segment outage serves %d raw points, the live store served %d (replay %+v)",
			outage, len(servedRaw(store2, 1, 1)), live, rs)
	}
}

// TestSweepWritesNoExpiredBlock: a session whose partial active block
// expires under Sweep is dropped whole by that Sweep, so nothing of it
// reaches a segment; and when the session appends again, seals and
// crashes, a restart serves exactly what the live store served — not
// the expired samples, out of time order, behind the new ones.
func TestSweepWritesNoExpiredBlock(t *testing.T) {
	const minute = int64(time.Minute / time.Microsecond)
	dir := t.TempDir()
	events := []string{"PAPI_TOT_CYC"}
	opts := noCompact(Options{Fsync: FsyncOff})
	cfg := tsdb.Config{MaxAge: time.Minute, BlockSamples: 8}
	l, store, _ := openPair(t, dir, opts, cfg)
	appendTicks(t, l, 1, events, 2, 0, 1_000) // ts 0 and 1,000: a partial block
	before := stat(t, l, "wal_sealed_blocks")
	store.Sweep(10 * minute)
	if after := stat(t, l, "wal_sealed_blocks"); after != before {
		t.Errorf("Sweep wrote %d expired blocks to a segment", after-before)
	}
	if n := store.Stats().Series; n != 0 {
		t.Fatalf("Sweep left %d series", n)
	}
	appendTicks(t, l, 1, events, 20, 10*minute, 1_000_000) // two seals, a partial block
	want := queryAll(t, store, 1, 0, 1<<60)
	l.Abandon()

	opts.Clock = clock.NewFake(time.UnixMicro(10*minute + 20_000_000))
	l2, store2, rs := openPair(t, dir, opts, cfg)
	defer l2.Close()
	if got := queryAll(t, store2, 1, 0, 1<<60); got != want {
		t.Errorf("restart after Sweep and a crash (replay %+v):\nlive:     %s\nrestart:  %s", rs, want, got)
	}
}

// TestPersistPassRacesSweepsAndCompactions: two publishers seal blocks
// under the interval fsync policy, each pass driven from its own
// goroutine — an append that sealed, the fsync tick, the top of Compact
// — while a third goroutine sweeps, compacts, syncs and advances the
// log's clock. Passes take the segment lock whole and the store marks
// each block persisted as it is written, so after Close no block of a
// series appears in two live segments; and after a restart every acked
// row inside retention — MaxAge's rule, per series — is served. tools/ci.sh runs it many times under
// -race.
func TestPersistPassRacesSweepsAndCompactions(t *testing.T) {
	const publishers, rows, sessionsEach = 2, 600, 4
	const minute = int64(time.Minute / time.Microsecond)
	dir := t.TempDir()
	fk := clock.NewFake(time.UnixMicro(minute))
	opts := Options{Fsync: FsyncInterval, SegmentBytes: 2 << 10, Clock: fk, Registry: telemetry.NewRegistry()}
	cfg := tsdb.Config{MaxBytes: 1 << 30, MaxAge: time.Minute, BlockSamples: 8}
	l, store, _ := openPair(t, dir, opts, cfg)
	events := []string{"PAPI_TOT_CYC", "PAPI_FP_OPS"}

	const firstSession = 100
	var appended atomic.Int64
	var running atomic.Int32
	running.Store(publishers)
	acked := make([][]rawSample, publishers)
	var wg sync.WaitGroup
	for p := range publishers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer running.Add(-1)
			for i := range rows {
				session := uint64(firstSession + p*sessionsEach + i%sessionsEach)
				// The row index keeps each series' timestamps rising, so
				// a block's first timestamp names it.
				ts := fk.Now().UnixMicro() + int64(i)
				vals := []int64{int64(i)*10 + int64(p), int64(i) * 7}
				if err := l.AppendBatch(session, ts, events, vals); err != nil {
					t.Errorf("publisher %d row %d: %v", p, i, err)
					return
				}
				for j, ev := range events {
					acked[p] = append(acked[p], rawSample{session, ev, ts, vals[j]})
				}
				appended.Add(1)
			}
		}()
	}
	for done, step := int64(0), 0; running.Load() > 0; {
		n := appended.Load()
		if n-done < 5 {
			runtime.Gosched()
			continue
		}
		done = n
		fk.Advance(time.Second) // fires the fsync ticker: a persist pass
		now := fk.Now().UnixMicro()
		switch step++; step % 3 {
		case 0:
			store.Sweep(now)
		case 1:
			if _, err := l.Compact(now); err != nil {
				t.Errorf("Compact: %v", err)
			}
		default:
			l.Sync()
		}
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	now := fk.Now().UnixMicro()
	opts.Clock = clock.NewFake(fk.Now())
	opts.Registry = nil
	l2, store2, _ := openPair(t, dir, opts, cfg)
	defer l2.Close()
	type blockID struct {
		key   tsdb.SeriesKey
		minTS int64
	}
	in := map[blockID]string{}
	for _, seg := range l2.segs {
		for _, sb := range seg.blocks {
			id := blockID{sb.Key, sb.MinTS}
			if prev, dup := in[id]; dup {
				t.Errorf("block %+v is written twice: in %s and %s", id, prev, seg.path)
			}
			in[id] = seg.path
		}
	}
	if len(in) == 0 {
		t.Fatal("no block reached a live segment")
	}
	served := servedRaw(store2, firstSession, firstSession+publishers*sessionsEach-1)
	// Retention cuts each series at max(now, its newest acked ts) −
	// MaxAge (tsdb.Config.MaxAge): a row's ts leads the clock by its
	// row index, so a series' newest row may lie ahead of now.
	type seriesID struct {
		session uint64
		event   string
	}
	cut := map[seriesID]int64{}
	for _, rows := range acked {
		for _, a := range rows {
			id := seriesID{a.session, a.event}
			cut[id] = max(cut[id], now-minute, a.ts-minute)
		}
	}
	checked := 0
	var missing strings.Builder
	for _, rows := range acked {
		for _, a := range rows {
			if a.ts < cut[seriesID{a.session, a.event}] {
				continue
			}
			checked++
			if !served[a] && missing.Len() < 1<<10 {
				fmt.Fprintf(&missing, " %+v", a)
			}
		}
	}
	if missing.Len() > 0 {
		t.Errorf("acked rows inside retention not served after a restart:%s", missing.String())
	}
	if checked == 0 {
		t.Fatal("no acked row was inside retention at the end")
	}
}
