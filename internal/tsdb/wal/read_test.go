package wal

import (
	"bytes"
	"log/slog"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/tsdb"
)

// TestTruncatedSegmentKeepsServing: a segment file cut short after it
// was loaded costs nothing the store serves, since the store's blocks
// are copies of what the load read; and a compaction pass that would
// fold a damaged input stops before it writes or deletes anything,
// logging and counting why.
func TestTruncatedSegmentKeepsServing(t *testing.T) {
	events := []string{"PAPI_TOT_CYC", "PAPI_FP_OPS"}
	opts := noCompact(Options{Fsync: FsyncOff, SegmentBytes: 4 << 10})

	t.Run("query", func(t *testing.T) {
		const ticks = 5000
		dir := t.TempDir()
		cfg := tsdb.Config{BlockSamples: 64}
		l, _, _ := openPair(t, dir, opts, cfg)
		appendTicks(t, l, 1, events, ticks, 0, 10_000)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, store2, rs := openPair(t, dir, opts, cfg)
		defer l2.Abandon()
		want := queryViews(t, store2, 1, 0, 1<<60, 0)
		if n := rawPoints(store2, 1); n != ticks*len(events) || rs.Blocks == 0 {
			t.Fatalf("the restart serves %d raw points from %d blocks, want %d", n, rs.Blocks, ticks*len(events))
		}
		files, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
		if len(files) < 2 {
			t.Fatalf("%d segment files, want several", len(files))
		}
		for _, f := range files {
			if err := os.Truncate(f, 0); err != nil {
				t.Fatal(err)
			}
		}
		if got := queryViews(t, store2, 1, 0, 1<<60, 0); got != want {
			t.Errorf("after every segment file was truncated the store serves %d raw points, want the %d it served before",
				rawPoints(store2, 1), ticks*len(events))
		}
	})

	for _, cut := range []string{"empty", "half"} {
		t.Run("compaction input/"+cut, func(t *testing.T) {
			dir := t.TempDir()
			var logged bytes.Buffer
			opts := opts
			opts.Logger = slog.New(slog.NewTextHandler(&logged, nil))
			l, store, _ := openPair(t, dir, opts, tsdb.Config{BlockSamples: 128, MaxBytes: 16 << 10})
			defer l.Abandon()
			appendTicks(t, l, 5, events, 4000, 3_333_333, 100_000)
			want := queryAll(t, store, 5, 0, 1<<60)
			inputs := evicted(l, store)
			if inputs < 2 {
				t.Fatalf("the budget left %d segments to compact, want several", inputs)
			}
			victim := l.segs[inputs-1].path
			fi, err := os.Stat(victim)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(victim, map[string]int64{"empty": 0, "half": fi.Size() / 2}[cut]); err != nil {
				t.Fatal(err)
			}
			segs := slices.Clone(l.segs)
			files, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
			errsBefore := l.writeErrs.Load()

			if cs, err := l.Compact(1 << 40); err == nil || !strings.Contains(err.Error(), victim) {
				t.Fatalf("Compact = %+v, %v; want an error naming %s", cs, err, victim)
			}
			if after, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg")); !slices.Equal(after, files) || !slices.Equal(l.segs, segs) {
				t.Errorf("after the failed pass: files %v and %d live segments, want the %d files and %d segments before it",
					after, len(l.segs), len(files), len(segs))
			}
			if got := l.writeErrs.Load() - errsBefore; got != 1 {
				t.Errorf("the failed pass counted %d errors, want 1", got)
			}
			if !strings.Contains(logged.String(), "compaction failed") {
				t.Errorf("the failed pass logged nothing about it:\n%s", logged.String())
			}
			if got := queryAll(t, store, 5, 0, 1<<60); got != want {
				t.Error("the failed pass changed live answers")
			}
		})
	}
}

// segFile matches a segment file's name in /proc/self/maps.
var segFile = regexp.MustCompile(`seg-[0-9]{8}\.seg`)

// TestRetiredSegmentsPinNothing: a segment the log has let go — folded
// by compaction, its file deleted — holds neither address space nor
// heap. After 20,000 ticks through 4 KiB segments under a 7,680 B budget
// and a compaction, the process maps no segment file; and the heap in
// use after a GC is the same, within the store's and the output's own
// growth, whether 20 or 200 segments were retired.
func TestRetiredSegmentsPinNothing(t *testing.T) {
	if _, err := os.Stat("/proc/self/maps"); err != nil {
		t.Skip("no /proc/self/maps")
	}
	events := []string{"PAPI_TOT_CYC", "PAPI_FP_OPS"}
	opts := noCompact(Options{Fsync: FsyncOff, SegmentBytes: 4 << 10})
	cfg := tsdb.Config{BlockSamples: 64, MaxBytes: 7680}
	// run appends ticks, compacts, and reports how many segment files
	// were retired and the heap in use with the log and store still live.
	run := func(ticks int) (retired int, heap uint64) {
		l, store, _ := openPair(t, t.TempDir(), opts, cfg)
		defer l.Abandon()
		appendTicks(t, l, 1, events, ticks, 0, 1_000)
		if _, err := l.Compact(int64(ticks) * 1_000); err != nil {
			t.Fatal(err)
		}
		maps, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Fatal(err)
		}
		if n := len(segFile.FindAll(maps, -1)); n > 0 {
			t.Errorf("after %d ticks the process maps %d segment files, the first at %s",
				ticks, n, segFile.Find(maps))
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(store)
		return int(l.nextSegSeq-1) - len(l.segs), ms.HeapAlloc
	}
	few, fewHeap := run(20_000)
	many, manyHeap := run(170_000)
	t.Logf("heap in use: %d B with %d segments retired, %d B with %d", fewHeap, few, manyHeap, many)
	if few < 20 || many < 200 {
		t.Fatalf("%d and %d segments retired, want at least 20 and 200", few, many)
	}
	// A retired segment's file held 4 KiB; keeping a tenth of that
	// per segment would show.
	if grew := int64(manyHeap) - int64(fewHeap); grew > int64(many-few)*(4<<10)/10 {
		t.Errorf("heap in use grew %d B from %d to %d retired segments", grew, few, many)
	}
}
