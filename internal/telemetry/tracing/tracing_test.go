package tracing

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

func TestSpanTree(t *testing.T) {
	tr := NewTracer(Config{Sample: 1, Ring: 8})
	trc := tr.Start("tick", "tick")
	if trc == nil {
		t.Fatal("Start returned nil with tracing enabled")
	}
	shard := trc.StartSpan(NoSpan, "shard")
	trc.AnnotateInt(shard, "shard", 3)
	snap := trc.StartSpan(shard, "snapshot")
	trc.Annotate(snap, "session", "7")
	trc.EndSpan(snap)
	trc.EndSpan(shard)
	id := trc.ID()
	tr.Finish(trc)

	got := tr.Get(id)
	if got == nil {
		t.Fatalf("retained trace %x not found", id)
	}
	v := got.View()
	if v.Retained != "sampled" {
		t.Fatalf("retained reason = %q, want sampled", v.Retained)
	}
	if len(v.Spans) != 3 {
		t.Fatalf("span count = %d, want 3 (root, shard, snapshot)", len(v.Spans))
	}
	if v.Spans[0].Parent != NoSpan || v.Spans[1].Parent != 0 || v.Spans[2].Parent != 1 {
		t.Fatalf("parent links wrong: %+v", v.Spans)
	}
	for i, sp := range v.Spans {
		if sp.Dur < 0 {
			t.Fatalf("span %d left open after Finish: %+v", i, sp)
		}
	}
	if v.Spans[1].Attrs[0].Key != "shard" || v.Spans[1].Attrs[0].Int != 3 {
		t.Fatalf("int annotation lost: %+v", v.Spans[1].Attrs)
	}
	if v.Spans[2].Attrs[0].Str != "7" {
		t.Fatalf("string annotation lost: %+v", v.Spans[2].Attrs)
	}
}

func TestHeadSampling(t *testing.T) {
	tr := NewTracer(Config{Sample: 4, Ring: 64})
	for i := 0; i < 16; i++ {
		tr.Finish(tr.Start("request", "READ"))
	}
	if n := len(tr.Snapshot()); n != 4 {
		t.Fatalf("retained %d of 16 at 1/4 sampling, want 4", n)
	}
}

// TestNoHeadSampling: Sample <= 0 still traces every unit, keeps the
// slow and errored ones, and never keeps one as "sampled".
func TestNoHeadSampling(t *testing.T) {
	for _, sample := range []int{0, -1} {
		tr := NewTracer(Config{Sample: sample, Slow: time.Hour, Ring: 8})
		for i := 0; i < 16; i++ {
			trc := tr.Start("request", "READ")
			if trc == nil {
				t.Fatalf("Sample=%d: Start returned nil", sample)
			}
			tr.Finish(trc)
		}
		if n := len(tr.Snapshot()); n != 0 {
			t.Errorf("Sample=%d: %d fast, clean traces retained, want 0", sample, n)
		}
		failed := tr.Start("request", "READ")
		failed.SetError("boom")
		tr.Finish(failed)
		st := tr.TracerStats()
		if st.Started != 17 || st.Retained != 1 || st.KeptErr != 1 {
			t.Errorf("Sample=%d: stats %+v, want 17 started, 1 retained for its error", sample, st)
		}
		for _, kept := range tr.Snapshot() {
			if v := kept.View(); v.Sampled || v.Retained != "error" {
				t.Errorf("Sample=%d: kept trace sampled=%v retained=%q, want an unsampled error",
					sample, v.Sampled, v.Retained)
			}
		}
	}
}

func TestTailRetentionSlow(t *testing.T) {
	tr := NewTracer(Config{Slow: time.Microsecond, Ring: 8})
	trc := tr.Start("request", "READ")
	time.Sleep(50 * time.Microsecond)
	tr.Finish(trc)
	traces := tr.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("slow trace not tail-retained (got %d)", len(traces))
	}
	if v := traces[0].View(); v.Retained != "slow" {
		t.Fatalf("retained reason = %q, want slow", v.Retained)
	}
}

func TestTailRetentionError(t *testing.T) {
	tr := NewTracer(Config{Ring: 8})
	trc := tr.Start("request", "READ")
	trc.SetError("no such session")
	tr.Finish(trc)
	traces := tr.Snapshot()
	if len(traces) != 1 {
		t.Fatal("error trace not tail-retained")
	}
	v := traces[0].View()
	if v.Retained != "error" || v.Err != "no such session" {
		t.Fatalf("retained=%q err=%q, want error / no such session", v.Retained, v.Err)
	}
	// Fast, unsampled, no-error traces are dropped.
	tr.Finish(tr.Start("request", "READ"))
	if n := len(tr.Snapshot()); n != 1 {
		t.Fatalf("boring trace retained (ring has %d)", n)
	}
}

func TestRingEviction(t *testing.T) {
	tr := NewTracer(Config{Sample: 1, Ring: 4})
	var ids []uint64
	for i := 0; i < 6; i++ {
		trc := tr.Start("tick", "tick")
		ids = append(ids, trc.ID())
		tr.Finish(trc)
	}
	traces := tr.Snapshot()
	if len(traces) != 4 {
		t.Fatalf("ring holds %d, want 4", len(traces))
	}
	// Newest first.
	if traces[0].ID() != ids[5] || traces[3].ID() != ids[2] {
		t.Fatalf("snapshot order wrong: got first=%x last=%x", traces[0].ID(), traces[3].ID())
	}
	if tr.Get(ids[0]) != nil || tr.Get(ids[1]) != nil {
		t.Fatal("evicted traces still retrievable")
	}
}

func TestNilSafety(t *testing.T) {
	for _, ring := range []int{0, -1} {
		if NewTracer(Config{Sample: 1, Ring: ring}) != nil {
			t.Fatalf("Ring=%d built a recorder that can retain nothing", ring)
		}
	}
	var tr *Tracer
	trc := tr.Start("tick", "tick")
	if trc != nil {
		t.Fatal("nil tracer returned a trace")
	}
	// All of these must be no-ops, not panics.
	sp := trc.StartSpan(NoSpan, "x")
	trc.Annotate(sp, "k", "v")
	trc.AnnotateInt(sp, "k", 1)
	trc.EndSpan(sp)
	trc.SetName("y")
	trc.SetError("e")
	if trc.ID() != 0 {
		t.Fatal("nil trace has identity")
	}
	tr.Finish(trc)
	if tr.Snapshot() != nil || tr.Get(1) != nil {
		t.Fatal("nil tracer retained something")
	}
	if s := tr.TracerStats(); s.Started != 0 {
		t.Fatal("nil tracer counted")
	}
}

func TestPoolReuseResetsSpans(t *testing.T) {
	tr := NewTracer(Config{Ring: 4})
	trc := tr.Start("request", "A")
	trc.StartSpan(NoSpan, "child")
	tr.Finish(trc) // dropped -> pooled
	again := tr.Start("request", "B")
	v := again.View()
	if len(v.Spans) != 1 || v.Spans[0].Name != "B" {
		t.Fatalf("pooled trace not reset: %+v", v.Spans)
	}
	tr.Finish(again)
}

func TestMaxSpansCap(t *testing.T) {
	tr := NewTracer(Config{Sample: 1, Ring: 2})
	trc := tr.Start("tick", "tick")
	for i := 0; i < maxSpans+10; i++ {
		trc.StartSpan(NoSpan, "s")
	}
	id := trc.ID()
	tr.Finish(trc)
	v := tr.Get(id).View()
	if len(v.Spans) != maxSpans {
		t.Fatalf("span cap not enforced: %d", len(v.Spans))
	}
	if v.LostSpans != 11 {
		t.Fatalf("lost spans = %d, want 11", v.LostSpans)
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer(Config{Sample: 1, Ring: 2})
	trc := tr.Start("tick", "tick")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := trc.StartSpan(NoSpan, "shard")
				trc.AnnotateInt(sp, "worker", int64(w))
				trc.EndSpan(sp)
			}
		}(w)
	}
	wg.Wait()
	id := trc.ID()
	tr.Finish(trc)
	if v := tr.Get(id).View(); len(v.Spans) != 1+8*50 {
		t.Fatalf("concurrent spans lost: %d", len(v.Spans))
	}
}

func TestFormatParseID(t *testing.T) {
	for _, id := range []uint64{0, 1, 0xdeadbeef, ^uint64(0)} {
		s := FormatID(id)
		if len(s) != 16 {
			t.Fatalf("FormatID(%d) = %q, want 16 hex chars", id, s)
		}
		got, ok := ParseID(s)
		if !ok || got != id {
			t.Fatalf("ParseID(FormatID(%d)) = %d, %v", id, got, ok)
		}
	}
	if _, ok := ParseID("xyz"); ok {
		t.Fatal("ParseID accepted garbage")
	}
	if _, ok := ParseID(""); ok {
		t.Fatal("ParseID accepted empty")
	}
	if _, ok := ParseID("00000000000000000"); ok {
		t.Fatal("ParseID accepted >16 chars")
	}
	if got, ok := ParseID("DEADBEEF"); !ok || got != 0xdeadbeef {
		t.Fatal("ParseID rejected uppercase")
	}
}

func TestSummariesSlowestFirst(t *testing.T) {
	tr := NewTracer(Config{Sample: 1, Ring: 8})
	fast := tr.Start("request", "fast")
	tr.Finish(fast)
	slow := tr.Start("request", "slow")
	time.Sleep(2 * time.Millisecond)
	tr.Finish(slow)
	sums := tr.Summaries()
	if len(sums) != 2 {
		t.Fatalf("summaries = %d, want 2", len(sums))
	}
	if sums[0].Name != "slow" {
		t.Fatalf("slowest first ordering violated: %+v", sums)
	}
}

func TestChromeJSON(t *testing.T) {
	tr := NewTracer(Config{Sample: 1, Ring: 2})
	trc := tr.Start("tick", "tick")
	sp := trc.StartSpan(NoSpan, "shard")
	trc.AnnotateInt(sp, "worker", 2)
	trc.AnnotateInt(sp, "sessions", 9)
	trc.EndSpan(sp)
	id := trc.ID()
	tr.Finish(trc)

	data, err := tr.Get(id).ChromeJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome JSON does not parse: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("events = %d, want 2", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[1]
	if ev["name"] != "shard" || ev["ph"] != "X" {
		t.Fatalf("bad event: %v", ev)
	}
	if ev["tid"].(float64) != 3 { // worker 2 -> tid 3
		t.Fatalf("worker annotation not mapped to tid: %v", ev)
	}
	if ev["args"].(map[string]any)["sessions"].(float64) != 9 {
		t.Fatalf("args lost: %v", ev)
	}
}

func TestHTTPHandlers(t *testing.T) {
	tr := NewTracer(Config{Sample: 1, Ring: 8})
	trc := tr.Start("request", "READ")
	trc.StartSpan(NoSpan, "dispatch")
	id := trc.ID()
	tr.Finish(trc)

	// /tracez HTML
	rec := httptest.NewRecorder()
	TracezHandler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/tracez", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("tracez HTML content-type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), FormatID(id)) {
		t.Fatal("tracez HTML missing trace ID")
	}

	// /tracez JSON
	rec = httptest.NewRecorder()
	TracezHandler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/tracez?format=json", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("tracez JSON content-type = %q", ct)
	}
	var list struct {
		Stats  Stats     `json:"stats"`
		Traces []Summary `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if list.Stats.Started != 1 || len(list.Traces) != 1 || list.Traces[0].ID != FormatID(id) {
		t.Fatalf("tracez JSON wrong: %+v", list)
	}

	// /debug/trace native JSON
	rec = httptest.NewRecorder()
	TraceHandler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?id="+FormatID(id), nil))
	var v TraceView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if v.ID != FormatID(id) || len(v.Spans) != 2 || v.Spans[1].Name != "dispatch" {
		t.Fatalf("trace JSON wrong: %+v", v)
	}

	// /debug/trace chrome export
	rec = httptest.NewRecorder()
	TraceHandler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?id="+FormatID(id)+"&format=chrome", nil))
	if !strings.Contains(rec.Body.String(), `"traceEvents"`) {
		t.Fatal("chrome export missing traceEvents")
	}

	// Errors.
	rec = httptest.NewRecorder()
	TraceHandler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	if rec.Code != 400 {
		t.Fatalf("missing id -> %d, want 400", rec.Code)
	}
	rec = httptest.NewRecorder()
	TraceHandler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?id=ffffffffffffffff", nil))
	if rec.Code != 404 {
		t.Fatalf("unknown id -> %d, want 404", rec.Code)
	}

	// Disabled tracer still serves a page rather than crashing.
	rec = httptest.NewRecorder()
	TracezHandler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/tracez", nil))
	if !strings.Contains(rec.Body.String(), "disabled") {
		t.Fatal("nil tracer tracez page should say disabled")
	}
}

func TestFinishIdempotent(t *testing.T) {
	tr := NewTracer(Config{Sample: 1, Ring: 4})
	trc := tr.Start("tick", "tick")
	tr.Finish(trc)
	tr.Finish(trc)
	if n := len(tr.Snapshot()); n != 1 {
		t.Fatalf("double Finish inserted twice: ring has %d", n)
	}
	if st := tr.TracerStats(); st.Retained != 1 {
		t.Fatalf("retained counter = %d, want 1", st.Retained)
	}
}

// readCounter is a Fake clock that counts its reads: a Stamp, a Now or
// a Mono is one each.
type readCounter struct {
	*clock.Fake
	reads int
}

func (c *readCounter) Now() time.Time      { c.reads++; return c.Fake.Now() }
func (c *readCounter) Mono() time.Duration { c.reads++; return c.Fake.Mono() }
func (c *readCounter) Stamp() (time.Time, time.Duration) {
	c.reads++
	return c.Fake.Stamp()
}

// TestOneReadPerBoundary: on the tracer's own clock, Start takes one
// reading for its wall stamp and its origin, NextSpan one for the two
// spans it joins, the At forms none, and Finish one, which also closes
// the span still open — so a request shaped root → dispatch → write
// costs four readings, and its spans meet exactly.
func TestOneReadPerBoundary(t *testing.T) {
	fk := clock.NewFake(time.Unix(1_700_000_000, 0))
	c := &readCounter{Fake: fk}
	tr := NewTracerOn(c, Config{Sample: 1, Ring: 4})
	c.reads = 0
	fk.Advance(time.Second)
	trc := tr.StartOwned("request", "READ")
	at := fk.Mono() // a reading the caller took for itself (uncounted)
	fk.Advance(3 * time.Millisecond)
	dsp := trc.StartSpanAt(NoSpan, "dispatch", at)
	fk.Advance(5 * time.Millisecond)
	wr := trc.NextSpan(dsp, NoSpan, "write")
	fk.Advance(7 * time.Millisecond)
	id := trc.ID()
	trc.Finish()
	if c.reads != 3 {
		t.Errorf("Start, NextSpan and Finish took %d clock readings, want 3", c.reads)
	}
	v := tr.Get(id).View()
	if v.StartUS != time.Unix(1_700_000_001, 0).UnixMicro() {
		t.Errorf("wall stamp %d, want the Start reading's", v.StartUS)
	}
	sp := v.Spans
	if len(sp) != 3 || sp[dsp].Start != 0 || sp[dsp].Dur != int64(8*time.Millisecond) ||
		sp[wr].Start != int64(8*time.Millisecond) || sp[wr].Dur != int64(7*time.Millisecond) ||
		sp[0].Dur != int64(15*time.Millisecond) {
		t.Errorf("spans %+v: want dispatch [0, 8ms), write [8ms, 15ms) and a 15ms root", sp)
	}
	shared := tr.Start("tick", "tick")
	at = fk.Mono()
	s1 := shared.StartSpanAt(NoSpan, "shard", at)
	fk.Advance(time.Millisecond)
	shared.EndSpanAt(s1, fk.Mono())
	if v := shared.View(); v.Spans[1].Dur != int64(time.Millisecond) {
		t.Errorf("At span lasted %d, want 1ms", v.Spans[1].Dur)
	}
	shared.Finish()
}
