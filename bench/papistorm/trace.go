package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/derive"
	"repro/internal/telemetry"
	"repro/internal/telemetry/tracing"
	"repro/internal/tsdb"
	"repro/internal/tsdb/wal"
	"repro/internal/wire"
	"repro/papi"
	"repro/workload"
)

// The traced run. It replays a prefix of the workload's generated
// inputs (same seed, same schedule) through the layers' public
// functions, in the order papid calls them for that workload, on one
// goroutine and in this process, each call under a span of the
// repository's own span engine. papid itself is not instrumented here;
// the end-to-end run beside it is measured with no tracing at all. A
// layer the workload does not reach records no spans, and its metrics
// read 0.

// traceRows caps how many rows (tick rows and published rows together)
// a traced run replays; the queries scheduled among them come along.
const traceRows = 20000

// keyframeEvery is papid's default -keyframe-every, which the replay
// follows when it builds the frames a delta subscriber would get.
const keyframeEvery = 10

// spanAgg accumulates one span name's cost over the run.
type spanAgg struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNS int64  `json:"total_ns"`
	SelfNS  int64  `json:"self_ns"` // total minus the part its child spans cover
}

type aggregate map[string]*spanAgg

// add folds one trace's closed spans in. It runs before Finish, on the
// goroutine that recorded them, because an unretained trace is recycled
// by Finish.
func (a aggregate) add(spans []tracing.Span) {
	child := make([]int64, len(spans))
	for _, sp := range spans[1:] {
		if sp.Dur >= 0 && sp.Parent > 0 {
			child[sp.Parent] += sp.Dur
		}
	}
	for i, sp := range spans[1:] {
		if sp.Dur < 0 {
			continue
		}
		g := a[sp.Name]
		if g == nil {
			g = &spanAgg{Name: sp.Name}
			a[sp.Name] = g
		}
		g.Count++
		g.TotalNS += sp.Dur
		g.SelfNS += sp.Dur - child[i+1]
	}
}

// selfPer is the mean self time of a span name in ns, 0 if it never ran.
func (a aggregate) selfPer(name string) float64 {
	if g := a[name]; g != nil && g.Count > 0 {
		return float64(g.SelfNS) / float64(g.Count)
	}
	return 0
}

// feed hands a Decoder one frame at a time without a socket.
type feed struct{ b []byte }

func (f *feed) Read(p []byte) (int, error) {
	if len(f.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, f.b)
	f.b = f.b[n:]
	return n, nil
}

type frameDecoder struct {
	in  feed
	dec *wire.Decoder
}

func newFrameDecoder(codec wire.Codec) *frameDecoder {
	d := &frameDecoder{}
	d.dec = wire.NewDecoder(&d.in)
	d.dec.SetCodec(codec)
	return d
}

func (d *frameDecoder) decode(frame []byte, v any) error {
	d.in.b = frame
	return d.dec.Decode(v)
}

// liveSession is the papi stack papid builds per CREATE_SESSION.
type liveSession struct {
	id   uint64
	th   *papi.Thread
	es   *papi.EventSet
	prog workload.Program // nil for workload "none"
	subs []subSpec
	last []int64 // counters at the previous tick; zero at START
}

func newLiveSession(id uint64, name string) (*liveSession, error) {
	sys, err := papi.Init(papi.Options{Platform: "aix-power3"})
	if err != nil {
		return nil, err
	}
	s := &liveSession{id: id, th: sys.Main(), last: make([]int64, len(liveEvents))}
	s.es = s.th.NewEventSet()
	for _, ev := range liveEvents {
		e, ok := papi.ResolveEvent(sys, ev)
		if !ok {
			return nil, fmt.Errorf("unknown event %s", ev)
		}
		if err := s.es.Add(e); err != nil {
			return nil, err
		}
	}
	if name != "none" {
		if s.prog, err = workload.ByName(name, 8); err != nil {
			return nil, err
		}
	}
	return s, s.es.Start()
}

// pubSession is the replay's view of one publish-only session: its
// subscriptions and, per delta subscription, the keyframe state papid's
// fan-out would hold.
type pubSession struct {
	id       uint64
	rows     uint64
	subs     []subSpec
	keySeq   uint64
	keyVals  []int64
	sinceKey int
}

func subsFor(sp *spec, label string) []subSpec {
	var out []subSpec
	for _, sub := range sp.subs {
		for _, g := range sub.labels {
			if ok, _ := path.Match(g, label); ok {
				out = append(out, sub)
				break
			}
		}
	}
	return out
}

// replay is the in-process pipeline of one traced run, and its tallies.
type replay struct {
	sp     *spec
	seed   int64
	base   int64 // µs; the schedule's offsets are laid on top of it
	tr     *tracing.Tracer
	agg    aggregate
	store  *tsdb.Store
	cfg    tsdb.Config
	log    *wal.Log
	walDir string
	eng    *derive.Engine
	groups []string // papid -groups
	ipc    []*derive.Group
	dec    [2]*frameDecoder
	reqDec *frameDecoder
	track  wire.DeltaTracker
	buf    []byte
	pubReq []byte
	vals   []int64
	bytes  map[string][2]int64 // frame kind → {frames, bytes}

	live     []*liveSession
	pubs     []*pubSession
	createUS float64 // mean cost of building one live session
	liveSeq  uint64

	rows, queries             int
	retired, cycles, liveRows int64
}

func (rp *replay) finish(t *tracing.Trace) {
	rp.agg.add(t.View().Spans)
	rp.tr.Finish(t)
}

func (rp *replay) sized(kind string, n int) {
	c := rp.bytes[kind]
	rp.bytes[kind] = [2]int64{c[0] + 1, c[1] + int64(n)}
}

// covered reports whether the events feed every default group, which
// is when papid evaluates them on a session.
func (rp *replay) covered(events []string) bool {
	for _, g := range rp.ipc {
		for _, ev := range g.Events() {
			if !slices.Contains(events, ev) {
				return false
			}
		}
	}
	return len(rp.ipc) > 0
}

// appendRow is appendHistory: through the WAL when history is durable.
func (rp *replay) appendRow(t *tracing.Trace, parent tracing.SpanRef, id uint64, ts int64, events []string, vals []int64) {
	if rp.log != nil {
		sp := t.StartSpan(parent, "wal.append")
		rp.log.AppendBatch(id, ts, events, vals)
		t.EndSpan(sp)
		return
	}
	sp := t.StartSpan(parent, "tsdb.append")
	rp.store.AppendBatch(id, ts, events, vals)
	t.EndSpan(sp)
}

// deliver encodes resp once per codec among subs and decodes it once
// per subscriber, as the fan-out and the clients do.
func (rp *replay) deliver(t *tracing.Trace, parent tracing.SpanRef, resp *wire.Response, kind string, subs []subSpec) error {
	var frames [2][]byte
	for _, sub := range subs {
		codec := rp.sp.codec[sub.conn]
		if frames[codec] == nil {
			sp := t.StartSpan(parent, "wire.encode."+codec.String())
			var err error
			rp.buf, err = wire.AppendFrame(rp.buf[:0], codec, resp)
			t.EndSpan(sp)
			if err != nil {
				return err
			}
			frames[codec] = slices.Clone(rp.buf)
			name := kind
			if kind == "full" {
				name = codec.String()
			}
			rp.sized(name, len(rp.buf))
		}
		var got wire.Response
		sp := t.StartSpan(parent, "wire.decode."+codec.String())
		err := rp.dec[codec].decode(frames[codec], &got)
		t.EndSpan(sp)
		if err != nil {
			return err
		}
		if resp.Op != wire.OpDerived {
			sp = t.StartSpan(parent, "wire.delta_apply")
			_, err = rp.track.Apply(got)
			t.EndSpan(sp)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// fanout is what papid does with one snapshot after storing it: the
// full frame to broadcast subscribers, a projected or delta frame to
// each filtered view, then the derived frame.
func (rp *replay) fanout(t *tracing.Trace, parent tracing.SpanRef, snap *wire.Response, ts int64, subs []subSpec, ps *pubSession) error {
	var broadcast []subSpec
	for _, sub := range subs {
		switch {
		case sub.delta:
			view := *snap
			kind := "delta"
			if ps.keyVals == nil || ps.sinceKey >= keyframeEvery-1 {
				ps.keySeq, ps.keyVals, ps.sinceKey = snap.Seq, slices.Clone(snap.Values), 0
				kind = "full"
			} else {
				ps.sinceKey++
				view.Op, view.Base, view.Events, view.Values = wire.OpDelta, ps.keySeq, nil, nil
				for i, v := range snap.Values {
					if v != ps.keyVals[i] {
						view.Idx = append(view.Idx, uint32(i))
						view.Values = append(view.Values, v)
					}
				}
			}
			if err := rp.deliver(t, parent, &view, kind, []subSpec{sub}); err != nil {
				return err
			}
		case len(sub.events) > 0:
			view := *snap
			view.Events, view.Values = nil, nil
			for i, ev := range snap.Events {
				if slices.Contains(sub.events, ev) {
					view.Events = append(view.Events, ev)
					view.Values = append(view.Values, snap.Values[i])
				}
			}
			if err := rp.deliver(t, parent, &view, "projected", []subSpec{sub}); err != nil {
				return err
			}
		default:
			broadcast = append(broadcast, sub)
		}
	}
	if err := rp.deliver(t, parent, snap, "full", broadcast); err != nil {
		return err
	}
	if !rp.covered(snap.Events) {
		return nil
	}
	var derr error
	ds := t.StartSpan(parent, "derive.tick")
	rp.eng.Tick(snap.Session, snap.Events, snap.Values, ts, rp.groups, func(metrics, units []string, vals []float64) {
		resp := wire.Response{Op: wire.OpDerived, OK: true, Session: snap.Session, Seq: snap.Seq,
			Metrics: metrics, Units: units, DValues: vals}
		derr = rp.deliver(t, ds, &resp, "derived", subs)
	})
	t.EndSpan(ds)
	return derr
}

// allocsPer runs f n times and returns the mallocs and bytes one call
// costs. Nothing else allocates meanwhile: the replay is one goroutine.
func allocsPer(n int, f func()) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// tickEvery is papid's -tick, pinned by commonFlags.
const tickEvery = 50 * time.Millisecond

// newReplay builds the stores and the sessions as papid does at start-up
// and on CREATE_SESSION + START, and preloads the publish sessions.
// Session IDs follow papid's order: live sessions first.
func newReplay(sp *spec, seed int64, outDir string) (*replay, error) {
	rp := &replay{sp: sp, seed: seed, agg: aggregate{}, bytes: map[string][2]int64{},
		tr:   tracing.NewTracer(tracing.Config{Sample: 64, Ring: 64}),
		eng:  derive.NewEngine(nil, nil, telemetry.Discard(), nil),
		cfg:  tsdb.Config{MaxBytes: 8 << 20, MaxAge: 15 * time.Minute}, // papid's defaults
		vals: make([]int64, len(pubEvents))}
	rp.dec = [2]*frameDecoder{newFrameDecoder(wire.CodecJSON), newFrameDecoder(wire.CodecBinary)}
	rp.reqDec = newFrameDecoder(sp.codec[0])
	if i := slices.Index(sp.flags, "-groups"); i >= 0 {
		rp.groups = []string{sp.flags[i+1]}
		var err error
		if rp.ipc, err = rp.eng.Registry().Resolve(rp.groups); err != nil {
			return nil, err
		}
	}
	if sp.durable {
		var err error
		if rp.walDir, err = os.MkdirTemp(outDir, "trace-wal-"); err != nil {
			return nil, err
		}
		if rp.log, err = wal.Open(rp.walDir, wal.Options{Fsync: wal.FsyncInterval}); err != nil {
			return nil, err
		}
		rp.cfg.Storage = rp.log
	}
	rp.store = tsdb.New(rp.cfg)
	if rp.log != nil {
		if _, err := rp.log.Start(rp.store); err != nil {
			return nil, err
		}
	}

	t0 := time.Now()
	for i := 0; i < sp.live; i++ {
		s, err := newLiveSession(uint64(i+1), sp.liveWorkload)
		if err != nil {
			return nil, err
		}
		s.subs = subsFor(sp, fmt.Sprintf("live-%03d", i))
		rp.live = append(rp.live, s)
	}
	if sp.live > 0 {
		rp.createUS = float64(time.Since(t0).Microseconds()) / float64(sp.live)
	}
	for i, label := range sp.pubLabels {
		rp.pubs = append(rp.pubs, &pubSession{id: uint64(sp.live + i + 1), subs: subsFor(sp, label)})
	}

	// A synthetic clock: the schedule's offsets on top of "now", so row
	// timestamps are spaced as the end-to-end run spaces them however
	// fast the replay goes. Preloaded rows sit in the second before.
	rp.base = time.Now().UnixMicro()
	preload := max(sp.preload, 1)
	for k := 1; k <= preload; k++ {
		for i, ps := range rp.pubs {
			ps.rows++
			rowValues(seed, i, ps.rows, rp.vals)
			rp.vals[dueIdx] = rp.base * 1e3
			ts := rp.base - 1e6 + int64(k)*1e6/int64(preload+1)
			if rp.log != nil {
				rp.log.AppendBatch(ps.id, ts, pubEvents, rp.vals)
			} else {
				rp.store.AppendBatch(ps.id, ts, pubEvents, rp.vals)
			}
		}
	}
	return rp, nil
}

// close releases the WAL directory. The log itself was abandoned, as a
// crash would leave it.
func (rp *replay) close() {
	if rp.walDir != "" {
		os.RemoveAll(rp.walDir)
	}
}

// tick is one tick of papid: every live session's row, then the
// batched WAL append of a durable server, then the store sweep.
func (rp *replay) tick(off time.Duration) error {
	ts := rp.base + off.Microseconds()
	rp.liveSeq++
	var batch []wal.Row
	for _, s := range rp.live {
		t := rp.tr.Start("row", "tick")
		row := t.StartSpan(tracing.NoSpan, "row")
		if s.prog != nil {
			span := t.StartSpan(row, "papi.run")
			s.prog.Reset()
			s.th.Run(s.prog)
			t.EndSpan(span)
		}
		cur := make([]int64, len(liveEvents))
		span := t.StartSpan(row, "papi.read")
		err := s.es.Read(cur)
		t.EndSpan(span)
		if err != nil {
			return err
		}
		rp.retired += cur[0] - s.last[0]
		rp.cycles += cur[1] - s.last[1]
		s.last = cur
		if rp.log != nil {
			// Tick rows of a durable server go to the batched appender.
			batch = append(batch, wal.Row{Session: s.id, TS: ts, Events: liveEvents, Vals: cur})
		} else {
			rp.appendRow(t, row, s.id, ts, liveEvents, cur)
		}
		snap := wire.Response{Op: wire.OpSnapshot, OK: true, Session: s.id, Events: liveEvents, Values: cur,
			RealUsec: s.th.RealUsec(), Seq: rp.liveSeq, Source: "live"}
		err = rp.fanout(t, row, &snap, ts, s.subs, nil)
		t.EndSpan(row)
		rp.finish(t)
		if err != nil {
			return err
		}
		rp.rows++
	}
	t := rp.tr.Start("tick", "tick")
	defer rp.finish(t)
	if len(batch) > 0 {
		span := t.StartSpan(tracing.NoSpan, "wal.append_batch")
		err := rp.log.AppendRows(batch)
		t.AnnotateInt(span, "rows", int64(len(batch)))
		t.EndSpan(span)
		if err != nil {
			return err
		}
	}
	sw := t.StartSpan(tracing.NoSpan, "tsdb.sweep")
	rp.store.Sweep(ts)
	t.EndSpan(sw)
	return nil
}

// publish is one PUBLISH as papid handles it: decode the request,
// store the row, fan it out.
func (rp *replay) publish(sess int, ts int64) error {
	ps := rp.pubs[sess]
	ps.rows++
	rowValues(rp.seed, sess, ps.rows, rp.vals)
	rp.vals[dueIdx] = ts * 1e3
	var err error
	rp.pubReq, err = wire.AppendFrame(rp.pubReq[:0], rp.sp.codec[0],
		&wire.Request{Op: wire.OpPublish, Session: ps.id, Values: rp.vals})
	if err != nil {
		return err
	}
	t := rp.tr.Start("row", "publish")
	defer rp.finish(t)
	row := t.StartSpan(tracing.NoSpan, "row")
	defer t.EndSpan(row)
	var req wire.Request
	span := t.StartSpan(row, "wire.request_decode")
	err = rp.reqDec.decode(rp.pubReq, &req)
	t.EndSpan(span)
	if err != nil {
		return err
	}
	rp.appendRow(t, row, ps.id, ts, pubEvents, req.Values)
	snap := wire.Response{Op: wire.OpSnapshot, OK: true, Session: ps.id, Events: pubEvents,
		Values: req.Values, Seq: ps.rows, Source: "published"}
	rp.rows++
	return rp.fanout(t, row, &snap, ts, ps.subs, ps)
}

// query is one QUERY: the store read, the derive evaluation of a
// derive-mode query, and the reply's encoding.
func (rp *replay) query(kind opKind, sess int, ts int64) error {
	id := rp.pubs[sess%len(rp.pubs)].id
	if rp.sp.queryLive {
		id = rp.live[sess].id
	}
	q := queryShape(kind, ts)
	name := [...]string{opQueryRange: "range", opQueryRaw: "raw", opQueryDerive: "derive"}[kind]
	t := rp.tr.Start("query", name)
	defer rp.finish(t)
	qs := t.StartSpan(tracing.NoSpan, "query")
	defer t.EndSpan(qs)
	resp := wire.Response{Op: wire.OpQuery, OK: true, Session: id}
	if kind == opQueryDerive {
		groups, err := rp.eng.Registry().Resolve(deriveGroups)
		if err != nil {
			return err
		}
		q.Events = derive.EventsFor(groups)
		span := t.StartSpan(qs, "tsdb.query.derive")
		series := rp.store.Query(id, q)
		t.EndSpan(span)
		span = t.StartSpan(qs, "derive.eval_history")
		hist := derive.EvalHistory(groups, series)
		t.EndSpan(span)
		for _, h := range hist {
			ds := wire.DerivedSeries{Metric: h.Metric, Unit: h.Unit}
			for _, p := range h.Points {
				ds.Points = append(ds.Points, wire.DerivedPoint{Start: p.Start, Value: p.Value})
			}
			resp.Derived = append(resp.Derived, ds)
		}
	} else {
		span := t.StartSpan(qs, "tsdb.query."+name)
		resp.Series = rp.store.Query(id, q)
		t.EndSpan(span)
	}
	span := t.StartSpan(qs, "wire.encode_query."+name)
	var err error
	rp.buf, err = wire.AppendFrame(rp.buf[:0], rp.sp.codec[1], &resp)
	t.EndSpan(span)
	if err != nil {
		return err
	}
	if len(resp.Series) == 0 && len(resp.Derived) == 0 {
		return fmt.Errorf("traced %s query on session %d returned nothing", name, id)
	}
	rp.queries++
	return nil
}

// tracedReplay runs the traced replay of sp, adds the per-layer
// metrics to res and writes <outDir>/trace-<workload>.json.
func tracedReplay(sp *spec, seed int64, outDir string, window time.Duration, res *result) error {
	rp, err := newReplay(sp, seed, outDir)
	if rp != nil {
		defer rp.close()
	}
	if err != nil {
		return err
	}
	// The sessions have ticked before the first request is due, as they
	// have in the end-to-end run by the time set-up returns.
	for _, off := range []time.Duration{-2 * tickEvery, -tickEvery} {
		if err := rp.tick(off); err != nil {
			return err
		}
	}
	nextTick := tickEvery
	for _, a := range sp.schedule(seed, warmup, window) {
		if rp.rows >= traceRows {
			break
		}
		for ; nextTick <= a.off; nextTick += tickEvery {
			if err := rp.tick(nextTick); err != nil {
				return err
			}
		}
		ts := rp.base + a.off.Microseconds()
		switch a.kind {
		case opEdge:
		case opPublish:
			err = rp.publish(a.sess, ts)
		default:
			err = rp.query(a.kind, a.sess, ts)
		}
		if err != nil {
			return err
		}
	}
	if err := rp.report(res.Layers, window); err != nil {
		return err
	}
	return rp.write(filepath.Join(outDir, "trace-"+sp.name+".json"))
}

// report turns the span aggregate and a few short untraced loops over
// the same state into the per-layer metrics.
func (rp *replay) report(l map[string]metric, window time.Duration) error {
	// Price of the tracing itself: an empty span.
	const emptySpans = 100000
	t1 := time.Now()
	for i := 0; i < emptySpans/1000; i++ {
		t := rp.tr.Start("overhead", "empty")
		for j := 0; j < 1000; j++ {
			t.EndSpan(t.StartSpan(tracing.NoSpan, "empty"))
		}
		rp.tr.Finish(t)
	}
	overhead := float64(time.Since(t1).Nanoseconds()) / emptySpans

	ns := func(name string, v float64) { l[name] = metric{Value: v, Unit: "ns"} }
	us := func(name string, v float64) { l[name] = metric{Value: v / 1e3, Unit: "us"} }
	cnt := func(name string, v float64) { l[name] = metric{Value: v, Unit: "count"} }
	size := func(name, kind string) {
		c := rp.bytes[kind]
		l[name] = metric{Value: ratio(float64(c[1]), float64(c[0])), Unit: "B"}
	}
	total := func(name string) float64 {
		if g := rp.agg[name]; g != nil {
			return float64(g.TotalNS)
		}
		return 0
	}
	us("papi.run_us_per_tick", rp.agg.selfPer("papi.run"))
	ns("papi.read_ns", rp.agg.selfPer("papi.read"))
	us("papi.create_session_us", rp.createUS*1e3)
	l["hwsim.instr_per_host_s"] = metric{Value: ratio(float64(rp.retired), total("papi.run")/1e9), Unit: "1/s"}
	liveRows := float64(rp.liveSeq) * float64(len(rp.live))
	cnt("hwsim.retired_per_tick", ratio(float64(rp.retired), liveRows))
	cnt("hwsim.cycles_per_tick", ratio(float64(rp.cycles), liveRows))
	ns("tsdb.append_ns_per_row", rp.agg.selfPer("tsdb.append"))
	us("tsdb.query_range_us", rp.agg.selfPer("tsdb.query.range"))
	us("tsdb.query_raw_us", rp.agg.selfPer("tsdb.query.raw"))
	us("tsdb.sweep_us", rp.agg.selfPer("tsdb.sweep"))
	ns("wal.append_sync_ns_per_row", rp.agg.selfPer("wal.append"))
	ns("wal.append_batch_ns_per_row", ratio(total("wal.append_batch"), liveRows))
	ns("wire.encode_binary_ns", rp.agg.selfPer("wire.encode.binary"))
	ns("wire.encode_json_ns", rp.agg.selfPer("wire.encode.json"))
	ns("wire.decode_binary_ns", rp.agg.selfPer("wire.decode.binary"))
	ns("wire.decode_json_ns", rp.agg.selfPer("wire.decode.json"))
	ns("wire.request_decode_ns", rp.agg.selfPer("wire.request_decode"))
	us("wire.encode_query_us", rp.agg.selfPer("wire.encode_query.range"))
	size("wire.frame_bytes_binary", "binary")
	size("wire.frame_bytes_json", "json")
	size("wire.frame_bytes_delta", "delta")
	size("wire.frame_bytes_projected", "projected")
	ns("wire.delta_apply_ns", rp.agg.selfPer("wire.delta_apply"))
	ns("derive.tick_ns", rp.agg.selfPer("derive.tick"))
	us("derive.eval_history_us", rp.agg.selfPer("derive.eval_history"))
	ns("trace.overhead_ns_per_span", overhead)
	cnt("trace.rows", float64(rp.rows))
	cnt("trace.queries", float64(rp.queries))

	// Allocation prices.
	cnt("papi.run_allocs_per_tick", 0)
	l["papi.run_bytes_per_tick"] = metric{Unit: "B"}
	if len(rp.live) > 0 && rp.live[0].prog != nil {
		i := 0
		a, b := allocsPer(len(rp.live), func() {
			s := rp.live[i]
			i++
			s.prog.Reset()
			s.th.Run(s.prog)
		})
		cnt("papi.run_allocs_per_tick", a)
		l["papi.run_bytes_per_tick"] = metric{Value: b, Unit: "B"}
	}
	ts := rp.base + (warmup + window).Microseconds()
	k := rp.pubs[0].rows
	a, _ := allocsPer(1000, func() {
		k++
		ts += 100
		rowValues(rp.seed, 0, k, rp.vals)
		rp.store.AppendBatch(1<<40, ts, pubEvents, rp.vals) // a session of its own
	})
	cnt("tsdb.append_allocs_per_row", a)
	qid := rp.pubs[0].id
	if rp.sp.queryLive {
		qid = rp.live[0].id
	}
	a, _ = allocsPer(20, func() { rp.store.Query(qid, queryShape(opQueryRange, ts)) })
	cnt("tsdb.query_range_allocs", a)

	// Replay: crash the WAL the traced run wrote and open it again.
	l["wal.replay_rows_per_s"] = metric{Unit: "1/s"}
	cnt("wal.replay_allocs_per_row", 0)
	if rp.log == nil {
		return nil
	}
	rp.log.Abandon()
	var replayed wal.ReplayStats
	var err error
	t2 := time.Now()
	a, _ = allocsPer(1, func() {
		if rp.log, err = wal.Open(rp.walDir, wal.Options{Fsync: wal.FsyncInterval}); err != nil {
			return
		}
		rp.cfg.Storage = rp.log
		replayed, err = rp.log.Start(tsdb.New(rp.cfg))
	})
	secs := time.Since(t2).Seconds()
	if err != nil {
		return fmt.Errorf("wal replay: %w", err)
	}
	rp.log.Abandon()
	if replayed.Rows == 0 {
		return fmt.Errorf("wal replay: nothing replayed from %s", rp.walDir)
	}
	l["wal.replay_rows_per_s"] = metric{Value: float64(replayed.Rows) / secs, Unit: "1/s"}
	cnt("wal.replay_allocs_per_row", a/float64(replayed.Rows))
	return nil
}

// write saves the aggregate table and a sample of traces (those the
// tracer head-sampled) as one Chrome trace-event file; Perfetto reads
// traceEvents and ignores the aggregate key beside it.
func (rp *replay) write(file string) error {
	doc := struct {
		TraceEvents     []json.RawMessage `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		Aggregate       []*spanAgg        `json:"aggregate"`
	}{DisplayTimeUnit: "ms"}
	for _, t := range rp.tr.Snapshot() {
		b, err := t.ChromeJSON()
		if err != nil {
			return err
		}
		var one struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(b, &one); err != nil {
			return err
		}
		doc.TraceEvents = append(doc.TraceEvents, one.TraceEvents...)
	}
	for _, g := range rp.agg {
		doc.Aggregate = append(doc.Aggregate, g)
	}
	sort.Slice(doc.Aggregate, func(i, j int) bool { return doc.Aggregate[i].SelfNS > doc.Aggregate[j].SelfNS })
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(file, b, 0o644)
}
