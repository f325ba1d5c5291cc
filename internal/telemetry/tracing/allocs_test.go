//go:build !race

// Allocation counts: under the race detector sync.Pool drops entries at
// random, so a recycled trace is sometimes a new one and no count holds.
// tools/ci.sh, whose suite runs under -race, runs this file on its own.
package tracing

import (
	"testing"
	"time"
)

// TestRecycledTraceAnnotatesWithoutAllocating: a pooled trace reuses
// each span slot's annotation storage, so a traced unit shaped like the
// last one (a tick's shard spans, a request's root) allocates nothing,
// and a retained trace, which is never pooled, keeps its annotations
// while later traces recycle theirs.
func TestRecycledTraceAnnotatesWithoutAllocating(t *testing.T) {
	tr := NewTracer(Config{Slow: time.Hour, Ring: 4})
	unit := func(name string, shard int64) *Trace {
		trc := tr.Start("tick", name)
		trc.AnnotateInt(NoSpan, "root", shard)
		for i := int64(0); i < 4; i++ {
			sp := trc.StartSpan(NoSpan, "shard")
			trc.AnnotateInt(sp, "shard", shard+i)
			trc.AnnotateInt(sp, "worker", 1)
			trc.Annotate(sp, "kind", name)
			trc.EndSpan(sp)
		}
		return trc
	}
	kept := unit("kept", 100)
	kept.SetError("keep me")
	id := kept.ID()
	tr.Finish(kept)
	before := tr.Get(id).View()
	want := make([][]Attr, len(before.Spans))
	for i, sp := range before.Spans {
		want[i] = append([]Attr(nil), sp.Attrs...)
	}

	tr.Finish(unit("warm", 0))
	shard := int64(0)
	if n := testing.AllocsPerRun(100, func() {
		shard++
		tr.Finish(unit("recycled", shard))
	}); n != 0 {
		t.Errorf("a recycled trace with 13 annotations allocates %.1f times, want 0", n)
	}

	after := tr.Get(id).View()
	for i, sp := range after.Spans {
		if len(sp.Attrs) != len(want[i]) {
			t.Fatalf("retained span %d has %d attrs after recycling, want %d", i, len(sp.Attrs), len(want[i]))
		}
		for j, a := range sp.Attrs {
			if a != want[i][j] {
				t.Errorf("retained span %d attr %d = %+v after recycling, want %+v", i, j, a, want[i][j])
			}
		}
	}
}
