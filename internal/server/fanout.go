// Fan-out: a numbered row of a session — a tick's or a PUBLISH's — goes
// to every view of the session (filter.go) and then to the derive
// engine. Each distinct frame is encoded at most once per codec in use
// (encCache) into a reference-counted pooled buffer (sharedBuf) that
// every subscriber's connection queue shares; deliver is the one push
// site.
package server

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry/tracing"
	"repro/internal/wire"
)

// subscriber is one SUBSCRIBE registration on one session: the filter
// it asked for and the connection whose write queue its frames go to.
// It owns no queue and no goroutine. A wildcard SUBSCRIBE registers one
// subscriber per matched session.
type subscriber struct {
	c    *conn
	sess *session

	// The view it follows, immutable after subscribe: events is the
	// canonical event-name filter (nil = all), delta requests delta
	// frames. See filter.go.
	events []string
	delta  bool
	// needKey, on a delta subscriber, requests a keyframe at this
	// session's next fan-out: set at subscribe (the first frame anchors
	// the stream) and by frame.drop on any lost frame.
	needKey atomic.Bool
	// live opens the stream: fan-out skips the subscription until its
	// SUBSCRIBE reply is queued, so with fan-out pushing straight into
	// the connection's queue no frame can overtake the ack that tells
	// the client which sessions it now follows. goLive sets it under the
	// session's lock, so the stream opens between two rows.
	live atomic.Bool
}

// fanout delivers one numbered row of the session — a tick's or a
// PUBLISH's — to every view and then to the derive engine, whose DERIVED
// frame follows the row's SNAPSHOT into the same queues. Each view
// serializes its frame at most once per codec in use: with N subscribers
// of a view on one codec the row pays for one encode, not N, and the
// refcount on each shared buffer (see sharedBuf) returns it to the pool
// once every queue is done with it. The caller holds sess.mu and has
// held it since it numbered the row, so whoever produced them, a
// session's rows reach every subscriber, every view's delta baseline
// and the engine in seq order.
//
// r records the row: both halves are timed on the stage histograms
// from r's latest reading on, and every frame count goes on r's
// stripe. t is the PUBLISH request's trace, which takes a fanout and a
// derive span, each marked with its half's faults and bounded by the
// readings that end the stages, or nil: a tick's rows are stage-timed
// only, and fanout returns what the row went wrong with for the tick
// to mark its own trace.
func (s *Server) fanout(t *tracing.Trace, sess *session, snap *wire.Response, now int64, r *rec) (f faults) {
	start := r.last
	fs := s.spanStart(t, "fanout", start)
	t.AnnotateInt(fs, "views", int64(len(sess.views)))
	for i := range sess.views {
		f.encodes += s.fanoutView(r, &sess.views[i], snap)
	}
	f.mark(t, fs)
	s.stageFrom(r, stageFanout, start)
	ds := s.spanNext(t, fs, "derive", r.last)
	d := s.fanoutDerived(r, sess, snap, now)
	d.mark(t, ds)
	s.spanEnd(t, ds, r.last)
	return faults{alerts: d.alerts, encodes: f.encodes + d.encodes}
}

// faults is what one or more rows' fan-out went wrong with: the
// threshold alerts they fired and the frames (one per codec per
// fan-out) that could not be encoded.
type faults struct{ alerts, encodes int }

func (f *faults) add(g faults) { f.alerts, f.encodes = f.alerts+g.alerts, f.encodes+g.encodes }

// mark annotates span sp with the faults and marks t failed when there
// are any: tail retention then keeps the flight-recorder evidence of
// what the pipeline was doing when they happened.
func (f faults) mark(t *tracing.Trace, sp tracing.SpanRef) {
	if t != nil && f != (faults{}) {
		t.AnnotateInt(sp, "alerts", int64(f.alerts))
		t.AnnotateInt(sp, "encode_failures", int64(f.encodes))
		t.SetError(fmt.Sprintf("fanout: %d threshold alert(s) fired, %d frame encode(s) failed", f.alerts, f.encodes))
	}
}

// fanoutView delivers one tick to the subscribers of one view: the
// snapshot itself for the broadcast view, a projected full snapshot for
// filtered non-delta views; for delta views a keyframe when the epoch
// must (re)start — first frame, projection change, resync request,
// cadence — and otherwise a DELTA of everything that drifted from the
// keyframe. An empty delta sends nothing at all. It returns the
// frame encodes that failed.
func (s *Server) fanoutView(r *rec, v *viewSubs, snap *wire.Response) int {
	vs := v.vs
	if vs.filter == nil && !vs.delta {
		return s.deliverAll(r, snap, kindSnapshot, v.subs) // nothing to project
	}
	rekeyed := vs.project(snap)
	if len(vs.events) == 0 {
		return 0 // the filter matches none of this session's events
	}
	if !vs.delta {
		return s.deliverAll(r, vs.projected(snap), kindSnapshot, v.subs)
	}
	needKey := slices.ContainsFunc(v.subs, func(sub *subscriber) bool { return sub.needKey.Load() })
	vs.sinceKey++
	if !vs.primed || rekeyed || needKey || vs.sinceKey >= s.cfg.KeyframeEvery {
		vs.primed = true
		vs.keySeq = snap.Seq
		vs.keyVals = append(vs.keyVals[:0], vs.cur...)
		vs.sinceKey = 0
		return s.deliverAll(r, vs.projected(snap), kindKeyframe, v.subs)
	}
	vs.changed = vs.changed[:0]
	vs.cvals = vs.cvals[:0]
	for i, val := range vs.cur {
		if val != vs.keyVals[i] {
			vs.changed = append(vs.changed, uint32(i))
			vs.cvals = append(vs.cvals, val)
		}
	}
	if len(vs.changed) == 0 {
		return 0
	}
	return s.deliverAll(r, &wire.Response{Op: wire.OpDelta, OK: true, Session: snap.Session,
		Seq: snap.Seq, Base: vs.keySeq, Idx: vs.changed, Values: vs.cvals}, kindDelta, v.subs)
}

// deliverAll encodes one view frame at most once per codec — every
// codec its live subscribers read, back to back, before any push — and
// delivers it to every subscriber of the view, counting the frames
// sent once for the view. It returns the encodes that failed.
func (s *Server) deliverAll(r *rec, resp *wire.Response, kind frameKind, subs []*subscriber) int {
	var enc encCache
	enc.want(subs)
	enc.encode(s, r, resp, kindNames[kind])
	s.pushAll(&enc, r, resp, kind, subs)
	return enc.done()
}

// pushAll delivers the frame enc holds to every subscriber in subs and
// counts those it pushed, once.
func (s *Server) pushAll(enc *encCache, r *rec, resp *wire.Response, kind frameKind, subs []*subscriber) {
	n := uint64(0)
	for _, sub := range subs {
		if s.deliver(enc, r, resp, kind, sub) {
			n++
		}
	}
	if n > 0 {
		r.add(s.m.sent[kind], n)
		if kind == kindKeyframe {
			r.add(s.m.keyframes, n)
		}
	}
}

// fanoutDerived is fanout's second half: it evaluates the session's
// performance groups over the row and pushes the resulting DERIVED frame
// to every subscriber of every view, encode-once like the views'
// frames. Evaluation runs even with no subscriber — threshold rules
// alert server-side regardless of who is watching. It returns the
// threshold alerts the row fired and the encodes that failed. The
// derive stage runs from r's latest reading to a reading after the
// pushes; when there is a frame to encode, one more reading ends the
// evaluation, so the encodes time the encodes alone.
func (s *Server) fanoutDerived(r *rec, sess *session, snap *wire.Response, ts int64) (f faults) {
	groups := sess.derivedGroups(s.defGroups)
	if len(groups) == 0 {
		return faults{}
	}
	start := r.last
	f.alerts = s.derive.Tick(sess.id, snap.Events, snap.Values, ts, groups,
		func(metrics, units []string, vals []float64) {
			// The emit slices are engine-owned and reused next tick;
			// the frame is encoded before this callback returns, so
			// nothing engine-owned escapes, and resp stays on the stack.
			resp := wire.Response{Op: wire.OpDerived, OK: true, Session: snap.Session,
				Seq: snap.Seq, Metrics: metrics, Units: units, DValues: vals}
			var enc encCache
			for _, v := range sess.views {
				enc.want(v.subs)
			}
			if enc.wanted != ([2]bool{}) {
				r.last = s.cfg.clock.Mono()
				enc.encode(s, r, &resp, kindNames[kindDerived])
			}
			for _, v := range sess.views {
				s.pushAll(&enc, r, &resp, kindDerived, v.subs)
			}
			f.encodes += enc.done()
		})
	s.stageFrom(r, stageDerive, start)
	return f
}

// encodeFault, when a test sets it, is the error every fan-out encode
// fails with — the seam that pins the negative-cache behavior. It is a
// value, not a func variable standing in for the encoder: a call through
// one leaks its argument, and every frame would escape to the heap.
var encodeFault error

// encCache serializes one response at most once per codec and hands
// out the shared bytes — the encode-once fan-out path. want marks the
// codecs a frame's live subscribers read and encode serializes them
// back to back before the first push, so a frame's encodes chain on one
// recorder's readings with nothing between them; get still encodes a
// codec nobody wanted on first use. The buffers are pooled,
// reference-counted sharedBufs: the cache holds one reference across
// the fan-out, each enqueued frame takes its own, and done() drops the
// cache's when the fan-out ends. A failed encode is negative-cached for
// the rest of the fan-out: logged and counted once, with every later
// subscriber on that codec just recording its dropped frame instead of
// re-attempting the encode and re-logging each tick.
//
// The response is not a field: every call on one cache passes the same
// one. Escape analysis does not tell one field of a struct from
// another, and the buffers reach the pool, so a response held here
// would be moved to the heap — one allocation per frame.
type encCache struct {
	shared [2]*sharedBuf // indexed by wire.Codec
	failed [2]bool
	wanted [2]bool
}

// want marks the codec of every live subscriber in subs. The caller
// holds the session's lock, which goLive takes to open a stream, so no
// subscriber goes live between want and the pushes.
func (e *encCache) want(subs []*subscriber) {
	for _, sub := range subs {
		if sub.live.Load() {
			e.wanted[sub.c.codecNow()] = true
		}
	}
}

// encode serializes resp for every wanted codec, back to back.
func (e *encCache) encode(s *Server, r *rec, resp *wire.Response, what string) {
	for codec, w := range e.wanted {
		if w {
			e.get(s, r, resp, what, wire.Codec(codec))
		}
	}
}

// get returns the encoded frame for codec, serializing on first use:
// the encode is timed as its codec's encode stage from r's latest
// reading. ok is false when the encode failed (now or earlier this
// fan-out); deliver counts the drop for its frame kind. An ok buffer
// stays valid until done(); a caller enqueuing it must sb.ref() first.
func (e *encCache) get(s *Server, r *rec, resp *wire.Response, what string, codec wire.Codec) (sb *sharedBuf, ok bool) {
	if e.failed[codec] {
		return nil, false
	}
	if sb := e.shared[codec]; sb != nil {
		return sb, true
	}
	sb = newSharedBuf()
	p, err := sb.buf[:0], encodeFault
	if err == nil {
		p, err = wire.AppendResponse(p, codec, resp)
	}
	s.lap(r, stageEncode+stage(codec))
	if err != nil {
		sb.release()
		e.failed[codec] = true
		s.m.encodeFailures.Inc()
		s.slog.Error("papid: "+what+" encode failed",
			"codec", codec.String(), "session", resp.Session, "err", err)
		return nil, false
	}
	sb.buf = p
	e.shared[codec] = sb
	return sb, true
}

// done drops the cache's own reference on every buffer it encoded and
// returns the codecs whose encode failed. Call exactly once, after the
// fan-out loop that used the cache — a buffer no connection queue took
// goes straight back to the pool.
func (e *encCache) done() (failed int) {
	for i, sb := range e.shared {
		if sb != nil {
			sb.release()
			e.shared[i] = nil
		}
		if e.failed[i] {
			failed++
		}
	}
	return failed
}

// deliver is the one fan-out push site: it hands sub its frame of the
// encode-once payload by pushing straight into the owning connection's
// write queue, and reports whether it did; the caller counts the frames
// sent. Every way the frame can then fail to reach the socket — an
// encode failure here, eviction from the full queue, a closed or
// abandoned queue — ends in frame.drop, which counts it against the
// same kind and marks a delta view for re-key.
func (s *Server) deliver(enc *encCache, r *rec, resp *wire.Response, kind frameKind, sub *subscriber) bool {
	if !sub.live.Load() {
		return false // not acked yet: the stream starts after its SUBSCRIBE reply
	}
	codec := sub.c.codecNow()
	f := frame{codec: codec, kind: kind, sub: sub}
	sb, ok := enc.get(s, r, resp, kindNames[kind], codec)
	if !ok {
		f.drop(s.m)
		return false
	}
	if kind == kindKeyframe {
		// Cleared before the push, never after: a concurrent eviction of
		// this very keyframe sets the flag again, and a clear landing
		// after that set would lose the resync.
		sub.needKey.Store(false)
	}
	sb.ref()
	f.payload, f.shared = sb.buf, sb
	sub.c.q.push(f)
	return true
}

// maxPooledFrame bounds what the frame-buffer pool retains; a rare
// oversized frame is left to the GC instead of pinning its array.
const maxPooledFrame = 1 << 16

// sharedBuf is a reference-counted, pooled encode buffer — the one
// owner of every outbound frame's bytes. A fan-out serializes each
// distinct frame once per codec and shares the bytes across every
// subscriber's connection queue: the refcount is one for the encCache
// that owns the encode plus one per enqueued frame. A reply is encoded
// for one frame, which takes over the maker's one reference. Whoever
// drops the last reference returns the buffer to the pool. Every frame
// is settled exactly once — the socket write, or frame.drop on
// eviction, jam, closed queue and writer exit — so no reference is left
// behind.
type sharedBuf struct {
	buf  []byte
	refs atomic.Int32
}

var sharedBufPool = sync.Pool{New: func() any { return new(sharedBuf) }}

// newSharedBuf takes a pooled buffer with one reference, its maker's.
func newSharedBuf() *sharedBuf {
	sb := sharedBufPool.Get().(*sharedBuf)
	sb.refs.Store(1)
	return sb
}

// ref takes one more reference, for a frame about to be enqueued.
func (sb *sharedBuf) ref() { sb.refs.Add(1) }

func (sb *sharedBuf) release() {
	if sb.refs.Add(-1) == 0 {
		if cap(sb.buf) <= maxPooledFrame {
			sb.buf = sb.buf[:0]
			sharedBufPool.Put(sb)
		}
	}
}
