package wal

import (
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/tsdb"
)

// sameSegment fails the test on every field in which a segment the live
// log holds differs from a fresh load of the file it names.
func sameSegment(t *testing.T, when string, live *segment) {
	t.Helper()
	disk, err := loadSegment(live.path, live.seq)
	if err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	for _, f := range []struct {
		name       string
		live, disk any
	}{
		{"blocks", live.blocks, disk.blocks},
		{"rollups", live.rollups, disk.rollups},
		{"marks", live.marks, disk.marks},
		{"replacedThrough", live.replacedThrough, disk.replacedThrough},
		{"maxTS", live.maxTS, disk.maxTS},
		{"raw", live.raw, disk.raw},
		{"finalized", live.finalized, disk.finalized},
		{"size", live.size, disk.size},
		{"torn", live.torn, disk.torn},
	} {
		if !reflect.DeepEqual(f.live, f.disk) {
			t.Errorf("%s: %s: segment.%s held live differs from the file's:\nlive: %.300s\nfile: %.300s",
				when, live.path, f.name, fmt.Sprint(f.live), fmt.Sprint(f.disk))
		}
	}
}

// TestLiveSegmentIsItsFile: what the live log holds for a segment file
// is what loading that file gives — after a live finalize (a full
// segment rotating out) and after a live compaction, whose output
// carries rollups, watermarks and the provenance record.
func TestLiveSegmentIsItsFile(t *testing.T) {
	opts := noCompact(Options{Fsync: FsyncOff, SegmentBytes: 4 << 10})
	// The budget keeps only blocks still in the segment being written.
	l, _, _ := openPair(t, t.TempDir(), opts, tsdb.Config{BlockSamples: 64, MaxBytes: 7680})
	defer l.Abandon()
	appendTicks(t, l, 5, []string{"PAPI_TOT_CYC", "PAPI_FP_OPS"}, 4000, 3_333_333, 100_000)
	if len(l.segs) < 2 {
		t.Fatalf("%d segments finalized live, want a few", len(l.segs))
	}
	for _, s := range l.segs {
		sameSegment(t, "after a live finalize", s)
		if !s.finalized || !s.raw || len(s.blocks) == 0 {
			t.Errorf("%s: finalized=%v raw=%v blocks=%d, want a finalized raw segment", s.path, s.finalized, s.raw, len(s.blocks))
		}
	}

	cs, err := l.Compact(3_333_333 + 3999*100_000 + time.Minute.Microseconds() + 1)
	if err != nil || cs.RawBlocks == 0 {
		t.Fatalf("Compact: %+v, %v", cs, err)
	}
	if len(l.segs) != 1 {
		t.Fatalf("%d segments after compacting everything, want the output alone", len(l.segs))
	}
	out := l.segs[0]
	sameSegment(t, "after a live compaction", out)
	if !out.finalized || out.raw || len(out.rollups) == 0 || len(out.marks) == 0 || out.replacedThrough == 0 || out.maxTS == 0 {
		t.Errorf("compaction output held live: finalized=%v raw=%v rollups=%d marks=%d replacedThrough=%d maxTS=%d",
			out.finalized, out.raw, len(out.rollups), len(out.marks), out.replacedThrough, out.maxTS)
	}
}

// TestCompactTwiceThenRestart: a compaction output is an input of the
// next compaction, so what the first pass distilled must come out of
// the second — two passes in one process, then a crash, and the
// restarted store answers as the live one did before either.
func TestCompactTwiceThenRestart(t *testing.T) {
	dir := t.TempDir()
	events := []string{"PAPI_TOT_CYC", "PAPI_FP_OPS"}
	opts := noCompact(Options{Fsync: FsyncOff, SegmentBytes: 4 << 10})
	cfg := tsdb.Config{BlockSamples: 128, MaxBytes: 16 << 10}
	l, store, _ := openPair(t, dir, opts, cfg)

	const start, step, n = 3_333_333, 100_000, 4000
	appendTicks(t, l, 5, events, n, start, step)
	if cs, err := l.Compact(start + (n-1)*step + time.Minute.Microseconds() + 1); err != nil || cs.RawBlocks == 0 {
		t.Fatalf("first Compact: %+v, %v", cs, err)
	}
	appendTicks(t, l, 5, events, n, start+n*step, step)
	_, want := views(queryAll(t, store, 5, 0, 1<<60))

	cs, err := l.Compact(start + (2*n-1)*step + time.Minute.Microseconds() + 1)
	if err != nil || cs.RawBlocks == 0 || cs.Compacted < 2 {
		t.Fatalf("second Compact folded %+v (%v), want the first output and raw segments", cs, err)
	}
	// Raw coverage shrinks to what was not compacted; the restart must
	// agree with the live store on that too.
	wantRaw, got := views(queryAll(t, store, 5, 0, 1<<60))
	if got != want {
		t.Errorf("second compaction changed live rollup answers (%d → %d bytes)", len(want), len(got))
	}
	wantRuns := 0
	for _, s := range l.segs {
		wantRuns += len(s.rollups)
	}

	l.Abandon()
	l2, store2, rs := openPair(t, dir, opts, cfg)
	defer l2.Close()
	if rs.RollupRuns != wantRuns || wantRuns == 0 {
		t.Errorf("restart installed %d rollup runs, the live log held %d (%+v)", rs.RollupRuns, wantRuns, rs)
	}
	gotRaw, got := views(queryAll(t, store2, 5, 0, 1<<60))
	if gotRaw != wantRaw || got != want {
		t.Errorf("restart after two compactions changed answers: raw %d → %d bytes, 10 s and 60 s %d → %d bytes",
			len(wantRaw), len(gotRaw), len(want), len(got))
	}
}

// TestPeriodicCompactionThenRestart compacts the way papid's background
// loop does, every 30 s against the current time: once under a byte
// budget that evicts raw blocks, and once under the budget with the
// store keeping two minutes of history, swept before each pass as
// papid's tick sweeps it. Then it restarts after a crash, and again
// after a clean stop: every QUERY view must come back as the live store
// answered it after its last sweep, before the restarted store has
// swept anything. Outputs used to pile up with interleaved time ranges,
// and replay dropped the rollup buckets that reached the store out of
// order; a restart used to serve expired history until its first sweep.
// A pass that finds a segment the store has let go must still compact
// it, or delete it once expired.
func TestPeriodicCompactionThenRestart(t *testing.T) {
	events := []string{"PAPI_TOT_CYC", "PAPI_TOT_INS"}
	for _, mode := range []struct {
		name   string
		maxAge time.Duration
	}{
		{"budget", 0},
		{"retention", 2 * time.Minute},
	} {
		dir := t.TempDir()
		opts := noCompact(Options{Fsync: FsyncOff, SegmentBytes: 8 << 10})
		cfg := tsdb.Config{MaxAge: mode.maxAge, MaxBytes: 64 << 10}
		l, store, _ := openPair(t, dir, opts, cfg)
		var ts int64
		compacted := 0
		for i := int64(1); i <= 40_000; i++ {
			ts = 1_000_000 + i*10_000
			if err := l.AppendBatch(5, ts, events, []int64{i * 3, i * 7}); err != nil {
				t.Fatal(err)
			}
			if i%3000 != 0 {
				continue
			}
			store.Sweep(ts)
			// The pass must fold a let-go prefix that holds a raw segment
			// and reaches the last output.
			let := evicted(l, store)
			due := slices.ContainsFunc(l.segs[:let], func(s *segment) bool { return s.raw }) &&
				!slices.ContainsFunc(l.segs[let:], func(s *segment) bool { return !s.raw })
			cs, err := l.Compact(ts)
			if err != nil {
				t.Fatal(err)
			}
			if due && cs.Compacted+cs.Deleted == 0 {
				t.Errorf("%s: a pass with %d leading segments the store let go compacted and deleted nothing", mode.name, let)
			}
			compacted += cs.Compacted
		}
		if compacted == 0 {
			t.Errorf("%s: no pass compacted", mode.name)
		}
		store.Sweep(ts)
		want := queryAll(t, store, 5, 0, 1<<60)
		l.Abandon()
		// The restarted log's clock reads the time of the last sweep.
		opts.Clock = clock.NewFake(time.UnixMicro(ts))
		for _, after := range []string{"a crash", "a clean stop"} {
			l2, store2, rs := openPair(t, dir, opts, cfg)
			if got := queryAll(t, store2, 5, 0, 1<<60); got != want {
				t.Errorf("%s: restart after %s changed answers (replay %+v): %d → %d bytes",
					mode.name, after, rs, len(want), len(got))
			}
			l2.Close()
		}
	}
}

// views splits a queryAll capture into its raw reply and its rollup
// replies.
func views(all string) (raw, rollups string) {
	raw, rollups, _ = strings.Cut(all, "\n")
	return raw, rollups
}

// TestCorruptCompactionOutputKept: a compaction output that was
// finalized — footer and all, its inputs since unlinked — and then lost
// a record to corruption is the only copy of what it holds. Open must
// not take it for an interrupted output and delete it, and must not
// serve the part of it that still reads.
func TestCorruptCompactionOutputKept(t *testing.T) {
	dir := t.TempDir()
	payloads := [][]byte{appendCompactMeta(nil, 3), testBlockPayload(0), testBlockPayload(1)}
	torn := segmentImage(payloads[:2])
	whole := withFooter(segmentImage(payloads), nil, -1)
	corrupt := append([]byte(nil), whole...)
	corrupt[len(torn)+recHeaderLen+2] ^= 0x40
	for seq, img := range map[uint64][]byte{4: torn, 5: corrupt, 6: whole} {
		if err := os.WriteFile(segPath(dir, seq), img, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := Open(dir, noCompact(Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Abandon()
	if len(l.segs) != 1 || l.segs[0].seq != 6 {
		t.Errorf("Open serves %d segments, want the whole output alone", len(l.segs))
	}
	if _, err := os.Stat(segPath(dir, 4)); !os.IsNotExist(err) {
		t.Errorf("interrupted output survives Open: %v", err)
	}
	if _, err := os.Stat(segPath(dir, 5)); err != nil {
		t.Errorf("corrupt finalized output deleted: %v", err)
	}
	if l.totalSegTorn == 0 {
		t.Error("corrupt record not counted as torn")
	}
}
