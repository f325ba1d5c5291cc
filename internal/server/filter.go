// Filtered and delta subscriptions (protocol v4): instead of every
// subscriber receiving every session's full snapshot every tick, a
// subscriber may narrow its stream to selected sessions (by ID list or
// label glob), selected counters (by event name), and delta mode —
// only the counters that changed since its last keyframe.
//
// The fan-out stays encode-once: subscribers are partitioned by filter
// signature (filterSig), each distinct view is projected and encoded
// at most once per codec per tick, and the shared immutable []byte
// flows through every subscriber of that view exactly like the
// unfiltered path.
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
	"strings"

	"repro/internal/telemetry/tracing"
	"repro/internal/wire"
)

// filterSig canonicalizes a subscriber's (event filter, delta) pair
// into the signature fanout partitions by: subscribers with the same
// signature share one viewState and one encoded frame per codec. The
// empty signature is the unfiltered, non-delta fast path. canon is the
// sorted, deduplicated filter the view matches against (nil = every
// event).
func filterSig(events []string, delta bool) (sig string, canon []string) {
	if len(events) == 0 && !delta {
		return "", nil
	}
	if len(events) > 0 {
		canon = slices.Clone(events)
		slices.Sort(canon)
		canon = slices.Compact(canon)
	}
	var b strings.Builder
	if delta {
		b.WriteString("d|")
	} else {
		b.WriteString("f|")
	}
	for i, ev := range canon {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(ev)
	}
	return b.String(), canon
}

// viewState is one distinct filtered view of one session: the
// projection of the session's event list through the filter, and — for
// delta views — the keyframe epoch the next delta chains from. Guarded
// by the session's fanMu.
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

// view returns (creating if needed) the session's viewState for the
// subscriber's filter signature. Callers hold sess.fanMu.
func (sess *session) view(sub *subscriber) *viewState {
	vs := sess.views[sub.sig]
	if vs == nil {
		if sess.views == nil {
			sess.views = make(map[string]*viewState)
		}
		vs = &viewState{filter: sub.events, delta: sub.delta}
		sess.views[sub.sig] = vs
	}
	return vs
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

// fanoutViews delivers one tick to the filtered/delta subscribers,
// grouped by filter signature so each distinct view is projected and
// encoded at most once per codec. sess.fanMu serializes concurrent
// fan-outs of the same session (the tick loop and PUBLISH handlers),
// keeping per-view baselines consistent.
// t/parent thread the enclosing trace so detailed traces record the
// per-view encode spans; both may be nil/zero.
func (s *Server) fanoutViews(t *tracing.Trace, parent tracing.SpanRef, sess *session, snap *wire.Response, subs []*subscriber) {
	sess.fanMu.Lock()
	defer sess.fanMu.Unlock()
	type group struct {
		vs      *viewState
		subs    []*subscriber
		needKey bool
	}
	groups := make(map[string]*group, 1)
	order := make([]*group, 0, 1)
	for _, sub := range subs {
		g := groups[sub.sig]
		if g == nil {
			g = &group{vs: sess.view(sub)}
			groups[sub.sig] = g
			order = append(order, g)
		}
		g.subs = append(g.subs, sub)
		if sub.delta && sub.needKey.Load() {
			g.needKey = true
		}
	}
	for _, g := range order {
		s.fanoutView(t, parent, g.vs, g.subs, g.needKey, snap)
	}
}

// fanoutView delivers one tick to the subscribers of one view: a
// projected full snapshot for filtered non-delta views; for delta
// views a keyframe when the epoch must (re)start — first frame,
// projection change, resync request, cadence — and otherwise a DELTA
// of everything that drifted from the keyframe. An empty delta sends
// nothing at all.
func (s *Server) fanoutView(t *tracing.Trace, parent tracing.SpanRef, vs *viewState, subs []*subscriber, needKey bool, snap *wire.Response) {
	rekeyed := vs.project(snap)
	if len(vs.events) == 0 {
		return // the filter matches none of this session's events
	}
	if !vs.delta {
		s.deliverAll(t, parent, vs.projected(snap), kindSnapshot, subs)
		return
	}
	vs.sinceKey++
	if !vs.primed || rekeyed || needKey || vs.sinceKey >= s.cfg.KeyframeEvery {
		vs.primed = true
		vs.keySeq = snap.Seq
		vs.keyVals = append(vs.keyVals[:0], vs.cur...)
		vs.sinceKey = 0
		s.deliverAll(t, parent, vs.projected(snap), kindKeyframe, subs)
		return
	}
	vs.changed = vs.changed[:0]
	vs.cvals = vs.cvals[:0]
	for i, v := range vs.cur {
		if v != vs.keyVals[i] {
			vs.changed = append(vs.changed, uint32(i))
			vs.cvals = append(vs.cvals, v)
		}
	}
	if len(vs.changed) == 0 {
		return
	}
	s.deliverAll(t, parent, &wire.Response{Op: wire.OpDelta, OK: true, Session: snap.Session,
		Seq: snap.Seq, Base: vs.keySeq, Idx: vs.changed, Values: vs.cvals}, kindDelta, subs)
}

// deliverAll encodes one view frame at most once per codec and delivers
// it to every subscriber of the view.
func (s *Server) deliverAll(t *tracing.Trace, parent tracing.SpanRef, resp *wire.Response, kind frameKind, subs []*subscriber) {
	enc := encCache{resp: resp}
	if t.Detailed() {
		enc.trc, enc.parent = t, parent
	}
	for _, sub := range subs {
		s.deliver(&enc, kind, sub)
	}
	enc.done()
}
