package derive

import (
	"testing"
	"time"

	"repro/internal/tsdb"
)

// synthStore fills a store with cumulative counters for one session on
// a regular tick grid, returning the raw cumulative values per event
// for brute-force checking. Increments vary per tick so rollup windows
// are not trivially uniform.
func synthStore(t *testing.T, ticks int, tickUsec int64) (*tsdb.Store, []int64, []int64, []int64) {
	t.Helper()
	st := tsdb.New(tsdb.Config{MaxBytes: 64 << 20, MaxAge: -1, Rollups: []time.Duration{10 * time.Second}})
	events := []string{"PAPI_TOT_INS", "PAPI_TOT_CYC"}
	var ins, cyc int64
	insAt := make([]int64, 0, ticks)
	cycAt := make([]int64, 0, ticks)
	tsAt := make([]int64, 0, ticks)
	for i := 0; i < ticks; i++ {
		ins += int64(900 + (i%13)*37)
		cyc += int64(2100 + (i%7)*101)
		ts := int64(i+1) * tickUsec
		st.AppendBatch(1, ts, events, []int64{ins, cyc})
		insAt = append(insAt, ins)
		cycAt = append(cycAt, cyc)
		tsAt = append(tsAt, ts)
	}
	return st, insAt, cycAt, tsAt
}

func ipcGroup(t *testing.T) *Group {
	t.Helper()
	g := NewRegistry().Lookup("ipc")
	if g == nil {
		t.Fatal("no ipc group")
	}
	return g
}

func TestEvalHistoryRaw(t *testing.T) {
	const ticks, tickUsec = 120, int64(100_000) // 12s at 100ms
	st, insAt, cycAt, tsAt := synthStore(t, ticks, tickUsec)
	series := st.Query(1, tsdb.Query{From: 0, To: 1 << 62, Step: 0})
	if len(series) != 2 {
		t.Fatalf("query returned %d series", len(series))
	}
	out := EvalHistory([]*Group{ipcGroup(t)}, series)
	byName := map[string]HistorySeries{}
	for _, hs := range out {
		byName[hs.Metric] = hs
	}
	ipc := byName["ipc"]
	if len(ipc.Points) != ticks-1 {
		t.Fatalf("ipc over raw: %d points, want %d (one per consecutive sample pair)", len(ipc.Points), ticks-1)
	}
	for k, pt := range ipc.Points {
		dIns := float64(insAt[k+1] - insAt[k])
		dCyc := float64(cycAt[k+1] - cycAt[k])
		if pt.Start != tsAt[k+1] {
			t.Fatalf("point %d anchored at %d, want closing sample ts %d", k, pt.Start, tsAt[k+1])
		}
		if want := dIns / dCyc; pt.Value != want {
			t.Fatalf("point %d: ipc %g, want %g", k, pt.Value, want)
		}
	}
	// mips uses the real sample spacing.
	mips := byName["mips"]
	for k, pt := range mips.Points {
		dIns := float64(insAt[k+1] - insAt[k])
		if want := dIns / (float64(tickUsec) / 1e6) / 1e6; pt.Value != want {
			t.Fatalf("mips point %d: %g, want %g", k, pt.Value, want)
		}
	}
}

// The raw-vs-rollup equivalence this file's doc comment promises,
// brute-force checked: evaluating over Step-windowed buckets must
// agree exactly with evaluating over the raw cumulative series
// restricted to each window's last sample (the Last anchors). Bucket
// Sum or Sum/Count would fail this test by orders of magnitude —
// cumulative counters telescope through Last only.
func TestEvalHistoryRollupEquivalence(t *testing.T) {
	const ticks, tickUsec = 600, int64(100_000) // 60s at 100ms
	const stepUsec = int64(10_000_000)          // 10s windows → served from the 10s rollup
	st, insAt, cycAt, tsAt := synthStore(t, ticks, tickUsec)

	series := st.Query(1, tsdb.Query{From: 0, To: 1 << 62, Step: stepUsec})
	if len(series) != 2 {
		t.Fatalf("rollup query returned %d series", len(series))
	}
	for _, s := range series {
		if s.Width == 0 {
			t.Fatalf("series %s answered from raw; want the 10s rollup exercised", s.Event)
		}
	}
	out := EvalHistory([]*Group{ipcGroup(t)}, series)
	var ipc, mips HistorySeries
	for _, hs := range out {
		switch hs.Metric {
		case "ipc":
			ipc = hs
		case "mips":
			mips = hs
		}
	}

	// Brute force: anchor = last raw sample strictly inside each step
	// window; per-window cumulative value = raw value at the anchor.
	lastIn := map[int64]int{} // window start → raw index of its last sample
	var winStarts []int64
	for i, ts := range tsAt {
		w := ts - ts%stepUsec
		if _, seen := lastIn[w]; !seen {
			winStarts = append(winStarts, w)
		}
		lastIn[w] = i
	}
	if len(ipc.Points) != len(winStarts)-1 {
		t.Fatalf("ipc over rollup: %d points, want %d", len(ipc.Points), len(winStarts)-1)
	}
	for k := 1; k < len(winStarts); k++ {
		a0, a1 := lastIn[winStarts[k-1]], lastIn[winStarts[k]]
		dIns := float64(insAt[a1] - insAt[a0])
		dCyc := float64(cycAt[a1] - cycAt[a0])
		pt := ipc.Points[k-1]
		if pt.Start != winStarts[k] {
			t.Fatalf("rollup point %d at %d, want window start %d", k-1, pt.Start, winStarts[k])
		}
		if want := dIns / dCyc; pt.Value != want {
			t.Fatalf("rollup ipc point %d: %g, want %g (Last-anchor brute force)", k-1, pt.Value, want)
		}
		// Rate over rollups is window-averaged: delta over the Start
		// spacing (= Step on a full grid).
		dtSec := float64(winStarts[k]-winStarts[k-1]) / 1e6
		if want := dIns / dtSec / 1e6; mips.Points[k-1].Value != want {
			t.Fatalf("rollup mips point %d: %g, want %g", k-1, mips.Points[k-1].Value, want)
		}
	}
}

func TestEvalHistoryCounterReset(t *testing.T) {
	st := tsdb.New(tsdb.Config{MaxBytes: 1 << 20, MaxAge: -1})
	events := []string{"PAPI_TOT_INS", "PAPI_TOT_CYC"}
	rows := [][2]int64{{1000, 2000}, {2000, 4000}, {100, 200}, {1100, 2200}}
	for i, r := range rows {
		st.AppendBatch(1, int64(i+1)*1e6, events, []int64{r[0], r[1]})
	}
	series := st.Query(1, tsdb.Query{From: 0, To: 1 << 62})
	out := EvalHistory([]*Group{ipcGroup(t)}, series)
	for _, hs := range out {
		if hs.Metric != "ipc" {
			continue
		}
		// Interval 2→3 is a reset (values drop) and must be skipped:
		// intervals 1→2 and 3→4 survive.
		if len(hs.Points) != 2 {
			t.Fatalf("ipc points across reset = %d, want 2", len(hs.Points))
		}
		for _, pt := range hs.Points {
			if pt.Value != 0.5 {
				t.Fatalf("ipc = %g, want 0.5", pt.Value)
			}
		}
	}
}

func TestEvalHistoryMissingEvent(t *testing.T) {
	st := tsdb.New(tsdb.Config{MaxBytes: 1 << 20, MaxAge: -1})
	for i := int64(1); i <= 3; i++ {
		st.AppendBatch(1, i*1e6, []string{"PAPI_TOT_INS"}, []int64{i * 1000})
	}
	series := st.Query(1, tsdb.Query{From: 0, To: 1 << 62})
	if out := EvalHistory([]*Group{ipcGroup(t)}, series); len(out) != 0 {
		t.Fatalf("group evaluated without PAPI_TOT_CYC present: %d series", len(out))
	}
}
