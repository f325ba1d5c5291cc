// Delta reassembly: a subscriber that asked for delta
// mode receives full SNAPSHOT keyframes interleaved with compact DELTA
// frames. Every delta is complete relative to its keyframe — Idx lists
// each counter whose value differs from the keyframe identified by
// Base, with the absolute current value in Values — so a dropped delta
// never corrupts client state: the next delta or keyframe fully
// supersedes it. The only unrecoverable gap is a missed keyframe, which
// a client detects by Base not matching the Seq of the keyframe it
// holds; it discards such deltas and waits for the next keyframe (the
// server re-keys on drops and on a periodic cadence, so the wait is
// bounded).
package wire

import (
	"errors"
	"fmt"
)

// ErrDeltaGap reports a DELTA frame whose Base does not name the
// keyframe the tracker holds — a keyframe was missed. The tracker's
// state is unchanged; the caller skips the frame and keeps feeding
// until the next keyframe re-anchors the stream.
var ErrDeltaGap = errors.New("delta chains from a missed keyframe")

// ErrNoKeyframe reports a DELTA frame for a session the tracker has no
// keyframe for yet (e.g. frames raced ahead of the subscribe reply).
// Like ErrDeltaGap it is skippable: the next keyframe recovers.
var ErrNoKeyframe = errors.New("delta precedes any keyframe")

// DeltaTracker materializes a delta-mode subscription stream back into
// full snapshots: feed every SNAPSHOT and DELTA frame to Apply and get
// a complete snapshot back for each. One tracker handles any number of
// interleaved sessions. Not safe for concurrent use.
type DeltaTracker struct {
	views map[uint64]*trackerView
}

type trackerView struct {
	keySeq uint64   // Seq of the keyframe held
	events []string // keyframe event order (deltas index into it)
	base   []int64  // keyframe values
	out    []int64  // reusable materialization buffer
}

// Apply consumes one frame. A SNAPSHOT (keyframe) is stored and
// returned unchanged; a DELTA is materialized against the stored
// keyframe and returned as a full OpSnapshot response (Events and
// Values complete, Idx and Base cleared). Frames of any other op pass
// through untouched. The returned response's Events and Values must
// not be retained across Apply calls — the tracker reuses them.
func (t *DeltaTracker) Apply(resp Response) (Response, error) {
	switch resp.Op {
	case OpSnapshot:
		if t.views == nil {
			t.views = make(map[uint64]*trackerView)
		}
		v := t.views[resp.Session]
		if v == nil {
			v = &trackerView{}
			t.views[resp.Session] = v
		}
		v.keySeq = resp.Seq
		v.events = resp.Events
		v.base = append(v.base[:0], resp.Values...)
		return resp, nil
	case OpDelta:
		v := t.views[resp.Session]
		if v == nil {
			return Response{}, fmt.Errorf("session %d: %w", resp.Session, ErrNoKeyframe)
		}
		if resp.Base != v.keySeq {
			return Response{}, fmt.Errorf("session %d: delta base seq %d, keyframe seq %d: %w",
				resp.Session, resp.Base, v.keySeq, ErrDeltaGap)
		}
		if len(resp.Idx) != len(resp.Values) {
			return Response{}, fmt.Errorf("session %d: delta carries %d indices but %d values",
				resp.Session, len(resp.Idx), len(resp.Values))
		}
		v.out = append(v.out[:0], v.base...)
		for i, idx := range resp.Idx {
			if int(idx) >= len(v.out) {
				return Response{}, fmt.Errorf("session %d: delta index %d out of range (keyframe has %d counters)",
					resp.Session, idx, len(v.out))
			}
			v.out[idx] = resp.Values[i]
		}
		resp.Op = OpSnapshot
		resp.Events = v.events
		resp.Values = v.out
		resp.Idx, resp.Base = nil, 0
		return resp, nil
	}
	return resp, nil
}
