// Package tracing is papid's flight recorder: a low-overhead span
// engine that records where time goes inside the serving pipeline —
// which tick, which shard, which stage (snapshot, tsdb append, derive
// eval, encode, fan-out, WAL batch, fsync), which request.
//
// It is deliberately distinct from the paper-level internal/trace
// event log (which records *counter* activity for analysis); this
// package traces *papid itself*.
//
// The model is the usual span tree: a Trace is one traced unit (a
// tick, a wire request, a WAL batch) holding a flat slice of Spans;
// each span records a name, a parent (by index), a monotonic start
// offset, a duration, and optional key/value annotations. Spans are
// pooled with their trace, so steady-state tracing does not allocate
// once the pool is warm.
//
// Retention is tail retention: every unit is traced while the
// recorder is on, but a finished trace is kept in the fixed-size ring
// only if it exceeded the slow threshold or carried an error (or, when
// Config.Sample asks for it, was head-sampled 1 in N). The tail rule is
// what makes the recorder useful: the SlowOp warn line that fires at
// 3am names a trace ID that is still in the ring.
//
// All methods are nil-receiver safe: a disabled Tracer returns nil
// traces and every Span/Trace method on nil is a no-op, so call sites
// stay branchless.
//
// A tracer reads one clock (NewTracerOn; NewTracer's is the wall
// clock), and reads it once per boundary: Start takes the unit's wall
// stamp and its origin from one reading, NextSpan ends one span and
// opens the next at one reading, and a caller that has just read the
// same clock hands its reading to StartSpanAt and EndSpanAt instead of
// paying for another.
package tracing

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
)

// SpanRef names a span within its trace (an index into Trace.spans).
type SpanRef int32

// NoSpan is the nil SpanRef: annotating or ending it is a no-op, and
// a root span's Parent is NoSpan.
const NoSpan SpanRef = -1

// maxSpans bounds one trace's span count so a pathological unit
// cannot hold the ring's memory hostage. Excess StartSpan calls return
// NoSpan and are counted in Trace.LostSpans.
const maxSpans = 4096

// Attr is one key/value annotation on a span. Exactly one of Str/Int
// is meaningful, per IsInt.
type Attr struct {
	Key   string `json:"key"`
	Str   string `json:"str,omitempty"`
	Int   int64  `json:"int,omitempty"`
	IsInt bool   `json:"is_int,omitempty"`
}

// Span is one timed region inside a trace. Start is a monotonic
// nanosecond offset from the trace's start; Dur is -1 while open.
type Span struct {
	Name   string  `json:"name"`
	Parent SpanRef `json:"parent"`
	Start  int64   `json:"start_ns"`
	Dur    int64   `json:"dur_ns"`
	Attrs  []Attr  `json:"attrs,omitempty"`
}

// Trace is one traced unit. Created by Tracer.Start, mutated through
// the Span methods (safe from concurrent goroutines — the tick's
// parallel sweep workers append spans to the same trace), sealed by
// Tracer.Finish. After Finish a retained trace is immutable and may
// be read without locks. A trace from StartOwned is worked on by one
// goroutine at a time and takes no lock at all.
type Trace struct {
	id      uint64
	kind    string
	name    string
	sampled bool // head-sampled: retained unconditionally
	owned   bool // StartOwned's: one goroutine at a time, no locking
	wallUS  int64
	t0      time.Duration // the tracer clock's Mono at Start
	tr      *Tracer

	mu       sync.Mutex
	spans    []Span
	lost     int32
	errMsg   string
	hasErr   bool
	dur      int64
	finished atomic.Bool
	retained bool
	keptWhy  string
}

// lock and unlock guard a shared trace's mutable state; an owned
// trace's owner is its only user.
func (t *Trace) lock() {
	if !t.owned {
		t.mu.Lock()
	}
}

func (t *Trace) unlock() {
	if !t.owned {
		t.mu.Unlock()
	}
}

// since is the offset of a fresh reading of the tracer's clock.
func (t *Trace) since() int64 { return int64(t.tr.clock.Mono() - t.t0) }

// ID returns the trace's identifier. IDs are rendered in hex (see
// FormatID) in log lines, replies and URLs. Immutable after Start, so
// callers may read it even after handing the trace off for Finish.
func (t *Trace) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// SetName renames the trace's unit (the request op becomes known only
// after decode).
func (t *Trace) SetName(name string) {
	if t == nil {
		return
	}
	t.lock()
	t.name = name
	if len(t.spans) > 0 {
		t.spans[0].Name = name
	}
	t.unlock()
}

// SetError marks the trace failed, which forces tail retention at
// Finish. The first message wins.
func (t *Trace) SetError(msg string) {
	if t == nil {
		return
	}
	t.lock()
	if !t.hasErr {
		t.hasErr = true
		t.errMsg = msg
	}
	t.unlock()
}

// StartSpan opens a child span under parent (NoSpan parents to the
// root) and returns its reference.
func (t *Trace) StartSpan(parent SpanRef, name string) SpanRef {
	if t == nil {
		return NoSpan
	}
	return t.startSpan(parent, name, t.since())
}

// StartSpanAt is StartSpan at at, a reading of the tracer's clock's
// Mono the caller has already taken.
func (t *Trace) StartSpanAt(parent SpanRef, name string, at time.Duration) SpanRef {
	if t == nil {
		return NoSpan
	}
	return t.startSpan(parent, name, int64(at-t.t0))
}

// NextSpan ends span end and opens name under parent at the same
// reading: adjacent spans share their boundary.
func (t *Trace) NextSpan(end, parent SpanRef, name string) SpanRef {
	if t == nil {
		return NoSpan
	}
	at := t.since()
	t.endSpan(end, at)
	return t.startSpan(parent, name, at)
}

func (t *Trace) startSpan(parent SpanRef, name string, start int64) SpanRef {
	t.lock()
	defer t.unlock()
	if len(t.spans) >= maxSpans {
		t.lost++
		return NoSpan
	}
	if parent == NoSpan && len(t.spans) > 0 {
		parent = 0
	}
	ref := SpanRef(len(t.spans))
	t.spans = append(t.spans, Span{Name: name, Parent: parent, Start: start, Dur: -1,
		Attrs: t.slotAttrs(int(ref))})
	return ref
}

// slotAttrs returns span slot i's attribute storage, emptied, when a
// pooled trace has used the slot before, so annotating a recycled trace
// does not allocate. Only unretained traces are pooled: no reader still
// holds the storage.
func (t *Trace) slotAttrs(i int) []Attr {
	if i < cap(t.spans) {
		return t.spans[:i+1][i].Attrs[:0]
	}
	return nil
}

// EndSpan closes the span. Ending NoSpan or an already-closed span is
// a no-op.
func (t *Trace) EndSpan(ref SpanRef) {
	if t == nil || ref < 0 {
		return
	}
	t.endSpan(ref, t.since())
}

// EndSpanAt is EndSpan at at, a reading of the tracer's clock's Mono
// the caller has already taken.
func (t *Trace) EndSpanAt(ref SpanRef, at time.Duration) {
	if t == nil || ref < 0 {
		return
	}
	t.endSpan(ref, int64(at-t.t0))
}

// endSpan closes span ref at offset end; NoSpan is a no-op.
func (t *Trace) endSpan(ref SpanRef, end int64) {
	if ref < 0 {
		return
	}
	t.lock()
	if int(ref) < len(t.spans) && t.spans[ref].Dur < 0 {
		t.spans[ref].Dur = end - t.spans[ref].Start
	}
	t.unlock()
}

// Finish is t's Tracer's Finish: whoever ends a request's unit needs
// the trace alone.
func (t *Trace) Finish() {
	if t != nil {
		t.tr.Finish(t)
	}
}

// Annotate attaches a string annotation to the span (NoSpan targets
// the root).
func (t *Trace) Annotate(ref SpanRef, key, val string) {
	if t == nil {
		return
	}
	t.annotate(ref, Attr{Key: key, Str: val})
}

// AnnotateInt attaches an integer annotation to the span.
func (t *Trace) AnnotateInt(ref SpanRef, key string, val int64) {
	if t == nil {
		return
	}
	t.annotate(ref, Attr{Key: key, Int: val, IsInt: true})
}

func (t *Trace) annotate(ref SpanRef, a Attr) {
	t.lock()
	if ref < 0 {
		ref = 0
	}
	if int(ref) < len(t.spans) {
		t.spans[ref].Attrs = append(t.spans[ref].Attrs, a)
	}
	t.unlock()
}

// Config sizes a Tracer.
type Config struct {
	// Sample head-samples 1 in Sample traces for unconditional
	// retention. <= 0 samples none: only slow and errored traces are
	// kept.
	Sample int
	// Slow tail-retains any trace at least this slow. <= 0 disables
	// latency-based tail retention (errors still retain).
	Slow time.Duration
	// Ring is the number of retained traces kept. <= 0 retains nothing,
	// so there is no recorder (NewTracer returns nil).
	Ring int
}

// Tracer owns sampling state and the retention ring. A nil Tracer is
// valid and disabled: Start returns nil.
type Tracer struct {
	sample int
	slow   time.Duration
	clock  clock.Clock

	seq atomic.Uint64 // head-sampling counter
	ids atomic.Uint64 // trace-ID allocator

	pool sync.Pool // *Trace

	mu   sync.Mutex
	ring []*Trace // retention ring; ring[head] is the oldest slot
	head int
	n    int

	started  atomic.Uint64
	retained atomic.Uint64
	keptSlow atomic.Uint64
	keptErr  atomic.Uint64
}

// NewTracer builds a Tracer on the wall clock, or returns nil
// (disabled) when cfg.Ring <= 0.
func NewTracer(cfg Config) *Tracer { return NewTracerOn(clock.Real{}, cfg) }

// NewTracerOn is NewTracer reading time from c. When c is also the
// clock a caller times its own work on — in papid, the wall clock for
// both — the two can share readings.
func NewTracerOn(c clock.Clock, cfg Config) *Tracer {
	if cfg.Ring <= 0 {
		return nil
	}
	tr := &Tracer{
		sample: cfg.Sample,
		slow:   cfg.Slow,
		clock:  c,
		ring:   make([]*Trace, cfg.Ring),
	}
	tr.pool.New = func() any { return &Trace{} }
	// Seed IDs from the wall clock so IDs from successive daemon runs
	// do not collide in operators' notes.
	tr.ids.Store(uint64(c.Now().UnixNano()) << 12)
	return tr
}

// Start begins a trace of one unit. kind groups traces in /tracez
// ("tick", "request", "wal"); name is the unit label (the op name, or
// "tick"). Returns nil when the tracer is disabled.
func (tr *Tracer) Start(kind, name string) *Trace { return tr.start(kind, name, false) }

// StartOwned is Start for a unit one goroutine works on at a time — a
// wire request, which its connection's reader dispatches and then
// hands, riding its reply, to the connection's writer. The trace takes
// no lock; each handoff must order the goroutines, as a mutex-guarded
// queue does.
func (tr *Tracer) StartOwned(kind, name string) *Trace { return tr.start(kind, name, true) }

func (tr *Tracer) start(kind, name string, owned bool) *Trace {
	if tr == nil {
		return nil
	}
	t := tr.pool.Get().(*Trace)
	t.id = tr.ids.Add(1)
	t.kind = kind
	t.name = name
	t.sampled = tr.sample > 0 && tr.seq.Add(1)%uint64(tr.sample) == 0
	t.owned = owned
	t.tr = tr
	wall, mono := tr.clock.Stamp()
	t.wallUS = wall.UnixMicro()
	t.t0 = mono
	t.spans = append(t.spans[:0], Span{Name: name, Parent: NoSpan, Dur: -1, Attrs: t.slotAttrs(0)})
	t.lost = 0
	t.hasErr = false
	t.errMsg = ""
	t.dur = 0
	t.retained = false
	t.keptWhy = ""
	t.finished.Store(false)
	tr.started.Add(1)
	return t
}

// Finish seals the trace: closes every still-open span, decides
// retention (slow, error, or head sample) and either inserts the
// trace into the ring or returns it to the pool. Finish is
// idempotent; only the first call acts. After calling Finish the
// caller must not touch the trace (beyond values copied out earlier,
// such as its ID).
func (tr *Tracer) Finish(t *Trace) {
	if tr == nil || t == nil || !t.finished.CompareAndSwap(false, true) {
		return
	}
	dur := t.since()
	t.lock()
	t.dur = dur
	for i := range t.spans {
		if t.spans[i].Dur < 0 {
			t.spans[i].Dur = dur - t.spans[i].Start
		}
	}
	why := ""
	switch {
	case t.hasErr:
		why = "error"
		tr.keptErr.Add(1)
	case tr.slow > 0 && dur >= tr.slow.Nanoseconds():
		why = "slow"
		tr.keptSlow.Add(1)
	case t.sampled:
		why = "sampled"
	}
	t.retained = why != ""
	t.keptWhy = why
	t.unlock()

	if !t.retained {
		// Not worth keeping: recycle the span storage.
		tr.pool.Put(t)
		return
	}
	tr.retained.Add(1)
	tr.mu.Lock()
	// Evicted traces are dropped on the floor for the GC — retained
	// traces may still be referenced by an exporter, so they are
	// never pooled.
	tr.ring[tr.head] = t
	tr.head = (tr.head + 1) % len(tr.ring)
	if tr.n < len(tr.ring) {
		tr.n++
	}
	tr.mu.Unlock()
}

// Snapshot returns the retained traces, newest first. The traces are
// finished and immutable.
func (tr *Tracer) Snapshot() []*Trace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	out := make([]*Trace, 0, tr.n)
	for i := 0; i < tr.n; i++ {
		idx := (tr.head - 1 - i + len(tr.ring)) % len(tr.ring)
		if t := tr.ring[idx]; t != nil {
			out = append(out, t)
		}
	}
	tr.mu.Unlock()
	return out
}

// Get returns the retained trace with the given ID, or nil.
func (tr *Tracer) Get(id uint64) *Trace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, t := range tr.ring {
		if t != nil && t.id == id {
			return t
		}
	}
	return nil
}

// Stats is a point-in-time view of tracer counters, for metric
// registration and /statusz.
type Stats struct {
	Started  uint64 `json:"started"`
	Retained uint64 `json:"retained"`
	KeptSlow uint64 `json:"kept_slow"`
	KeptErr  uint64 `json:"kept_err"`
	Ring     int    `json:"ring"`
	SlowNS   int64  `json:"slow_ns"`
}

// TracerStats returns the tracer's counters; zero for a nil tracer.
func (tr *Tracer) TracerStats() Stats {
	if tr == nil {
		return Stats{}
	}
	tr.mu.Lock()
	ring := len(tr.ring)
	tr.mu.Unlock()
	return Stats{
		Started:  tr.started.Load(),
		Retained: tr.retained.Load(),
		KeptSlow: tr.keptSlow.Load(),
		KeptErr:  tr.keptErr.Load(),
		Ring:     ring,
		SlowNS:   tr.slow.Nanoseconds(),
	}
}

// FormatID renders a trace ID the way logs, replies and URLs carry
// it: lowercase hex.
func FormatID(id uint64) string { return fmt.Sprintf("%016x", id) }

// ParseID parses FormatID's output (with or without leading zeros).
func ParseID(s string) (uint64, bool) {
	if s == "" || len(s) > 16 {
		return 0, false
	}
	var id uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, false
		}
		id = id<<4 | d
	}
	return id, true
}
