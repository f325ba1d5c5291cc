package wal

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/tsdb"
)

// TestRestartServesWhatTheBudgetKept: 20,000 ticks of two events into a
// store whose 16 KiB budget evicts most of them. A restart, clean or
// after a crash, must serve every view — raw, 10 s, 60 s, and 1 s,
// which no rollup divides, so it folds raw blocks, some of them whole
// from the value summary a restart rebuilds — exactly as the live store
// served it, and what the live store serves must not
// depend on the segment size. A block used to cost its fixed overhead
// alone once its segment was mapped, so a live store kept more or fewer
// raw blocks depending on when segments finalized, and a replayed one,
// all of whose blocks are mapped, brought evicted history back.
func TestRestartServesWhatTheBudgetKept(t *testing.T) {
	const ticks = 20_000
	events := []string{"PAPI_TOT_CYC", "PAPI_TOT_INS"}
	cfg := tsdb.Config{MaxBytes: 16 << 10, BlockSamples: 64}
	steps := []int64{0, 10_000_000, 60_000_000, 1_000_000}
	liveRaw := map[int64]int{}
	for _, segBytes := range []int64{4 << 10, 1 << 20} {
		for _, crash := range []bool{false, true} {
			t.Run(fmt.Sprintf("segment=%d/crash=%v", segBytes, crash), func(t *testing.T) {
				dir := t.TempDir()
				opts := noCompact(Options{Fsync: FsyncOff, SegmentBytes: segBytes})
				l, store, _ := openPair(t, dir, opts, cfg)
				appendTicks(t, l, 1, events, ticks, 0, 10_000)
				if store.Stats().Evictions == 0 {
					t.Fatal("the budget never evicted")
				}
				want := queryViews(t, store, 1, 0, 1<<60, steps...)
				liveRaw[segBytes] = rawPoints(store, 1)
				if crash {
					l.Abandon()
				} else if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				l2, store2, rs := openPair(t, dir, opts, cfg)
				defer l2.Close()
				got := queryViews(t, store2, 1, 0, 1<<60, steps...)
				wantViews, gotViews := strings.Split(want, "\n"), strings.Split(got, "\n")
				for i, step := range []string{"raw", "10 s", "60 s", "1 s"} {
					if gotViews[i] != wantViews[i] {
						t.Errorf("%s view: the restart serves %d bytes, the live store served %d (replay %+v)",
							step, len(gotViews[i]), len(wantViews[i]), rs)
					}
				}
				t.Logf("raw points: live %d, restart %d", liveRaw[segBytes], rawPoints(store2, 1))
			})
		}
	}
	if liveRaw[4<<10] != liveRaw[1<<20] {
		t.Errorf("live raw points depend on the segment size: %d at 4 KiB, %d at 1 MiB", liveRaw[4<<10], liveRaw[1<<20])
	}
}

// rawPoints counts the raw samples the store serves for session.
func rawPoints(store *tsdb.Store, session uint64) int {
	n := 0
	for _, sr := range store.Query(session, tsdb.Query{From: 0, To: 1 << 62}) {
		n += len(sr.Buckets)
	}
	return n
}
