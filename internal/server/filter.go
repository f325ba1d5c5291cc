// Subscription views: every subscriber follows one view of its session
// — the (event filter, delta mode) pair it subscribed with — and may
// narrow what it follows to selected sessions (by ID list or label
// glob). The broadcast view, no filter and no delta, is every counter
// of every tick.
//
// The fan-out is encode-once per view: subscribers are grouped by view
// when they subscribe (session.addSubscriber), each view is projected
// and encoded at most once per codec per tick, and the shared immutable
// []byte flows through every subscriber of that view.
//
// Delta frames chain from keyframes, not from each other: a DELTA
// carries every counter whose value differs from the view's last
// keyframe (wire.Response.Base names it by Seq), with absolute values.
// Each delta therefore fully supersedes the previous one, and a
// dropped delta can never corrupt client state. The only frame whose
// loss matters is a keyframe — any lost frame of a delta subscription
// marks it needKey (frame.drop), and that session's next fan-out
// re-keys the whole view (an extra keyframe for its in-sync peers, full
// resync for the lagging one).
// A periodic cadence (Config.KeyframeEvery) bounds both delta growth
// within an epoch and the time any desynced client waits.
package server

import (
	"path"
	"slices"

	"repro/internal/telemetry/tracing"
	"repro/internal/wire"
)

// canonEvents is the sorted, deduplicated form of a SUBSCRIBE event
// filter, so two subscribers naming the same counters share one view;
// nil selects every event.
func canonEvents(events []string) []string {
	if len(events) == 0 {
		return nil
	}
	canon := slices.Clone(events)
	slices.Sort(canon)
	return slices.Compact(canon)
}

// viewState is one distinct view of one session: the projection of the
// session's event list through the filter, and — for delta views — the
// keyframe epoch the next delta chains from. filter and delta are
// immutable; everything else is guarded by the session's mu.
type viewState struct {
	filter []string // canonical event filter; nil selects every event
	delta  bool

	srcNames []string // session event list the projection was built from
	idx      []int    // position of each view event in the session's Values
	events   []string // projected event names, session order

	primed   bool    // a keyframe has been produced
	keySeq   uint64  // Seq of the current epoch's keyframe
	keyVals  []int64 // projected values at that keyframe
	sinceKey int     // fan-outs since the last keyframe

	// Per-tick scratch, reused across fan-outs (frames are serialized
	// before the fan-out returns, so nothing escapes).
	cur     []int64
	changed []uint32
	cvals   []int64
}

// viewSubs is one entry of a session's subscriber index: a view and
// its subscribers, in subscription order.
type viewSubs struct {
	vs   *viewState
	subs []*subscriber
}

// project refreshes the view's projection of the session snapshot and
// fills vs.cur with the projected values. It reports whether the
// session's event list changed since the last fan-out — the projection
// (and so every delta index) is relative to the event order, so a
// change forces a fresh keyframe.
func (vs *viewState) project(snap *wire.Response) (rekeyed bool) {
	if !slices.Equal(vs.srcNames, snap.Events) {
		vs.srcNames = slices.Clone(snap.Events)
		vs.idx = vs.idx[:0]
		vs.events = vs.events[:0]
		for i, name := range snap.Events {
			if vs.filter != nil && !slices.Contains(vs.filter, name) {
				continue
			}
			vs.idx = append(vs.idx, i)
			vs.events = append(vs.events, name)
		}
		rekeyed = vs.primed
	}
	vs.cur = vs.cur[:0]
	for _, i := range vs.idx {
		vs.cur = append(vs.cur, snap.Values[i])
	}
	return rekeyed
}

// projected is the full SNAPSHOT frame of the view's current
// projection — a filtered subscriber's every frame, a delta view's
// keyframe.
func (vs *viewState) projected(snap *wire.Response) *wire.Response {
	return &wire.Response{Op: wire.OpSnapshot, OK: true, Session: snap.Session,
		Events: vs.events, Values: vs.cur, RealUsec: snap.RealUsec,
		Seq: snap.Seq, Source: snap.Source}
}

// matches reports whether a wildcard SUBSCRIBE's filters select this
// session: its ID is listed, or its label matches any glob. id and
// label are immutable after createSession, so no lock is needed.
func (sess *session) matches(ids []uint64, globs []string) bool {
	if slices.Contains(ids, sess.id) {
		return true
	}
	for _, g := range globs {
		if ok, _ := path.Match(g, sess.label); ok {
			return true
		}
	}
	return false
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
// t is the enclosing trace (the tick, or the PUBLISH request), which
// takes encode spans when detailed and the alert mark; the two stage
// spans hang on d under parent — a request passes t, a tick passes t
// only when it is detailed. Any of them may be nil.
func (s *Server) fanout(t, d *tracing.Trace, parent tracing.SpanRef, sess *session, snap *wire.Response, now int64) {
	fs := d.StartSpan(parent, "fanout")
	d.AnnotateInt(fs, "views", int64(len(sess.views)))
	for _, v := range sess.views {
		s.fanoutView(t, fs, v, snap)
	}
	d.EndSpan(fs)
	ds := d.StartSpan(parent, "derive")
	s.fanoutDerived(t, ds, sess, snap, now)
	d.EndSpan(ds)
}

// fanoutView delivers one tick to the subscribers of one view: the
// snapshot itself for the broadcast view, a projected full snapshot for
// filtered non-delta views; for delta views a keyframe when the epoch
// must (re)start — first frame, projection change, resync request,
// cadence — and otherwise a DELTA of everything that drifted from the
// keyframe. An empty delta sends nothing at all.
func (s *Server) fanoutView(t *tracing.Trace, parent tracing.SpanRef, v viewSubs, snap *wire.Response) {
	vs := v.vs
	if vs.filter == nil && !vs.delta {
		s.deliverAll(t, parent, snap, kindSnapshot, v.subs) // nothing to project
		return
	}
	rekeyed := vs.project(snap)
	if len(vs.events) == 0 {
		return // the filter matches none of this session's events
	}
	if !vs.delta {
		s.deliverAll(t, parent, vs.projected(snap), kindSnapshot, v.subs)
		return
	}
	needKey := slices.ContainsFunc(v.subs, func(sub *subscriber) bool { return sub.needKey.Load() })
	vs.sinceKey++
	if !vs.primed || rekeyed || needKey || vs.sinceKey >= s.cfg.KeyframeEvery {
		vs.primed = true
		vs.keySeq = snap.Seq
		vs.keyVals = append(vs.keyVals[:0], vs.cur...)
		vs.sinceKey = 0
		s.deliverAll(t, parent, vs.projected(snap), kindKeyframe, v.subs)
		return
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
		return
	}
	s.deliverAll(t, parent, &wire.Response{Op: wire.OpDelta, OK: true, Session: snap.Session,
		Seq: snap.Seq, Base: vs.keySeq, Idx: vs.changed, Values: vs.cvals}, kindDelta, v.subs)
}

// deliverAll encodes one view frame at most once per codec and delivers
// it to every subscriber of the view.
func (s *Server) deliverAll(t *tracing.Trace, parent tracing.SpanRef, resp *wire.Response, kind frameKind, subs []*subscriber) {
	var enc encCache
	if t.Detailed() {
		enc.trc, enc.parent = t, parent
	}
	for _, sub := range subs {
		s.deliver(&enc, resp, kind, sub)
	}
	enc.done()
}
