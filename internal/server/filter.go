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
