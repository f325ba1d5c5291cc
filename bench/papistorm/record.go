package main

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/wire"
)

// liveRec is one SNAPSHOT frame of a papid-driven session. Its lag
// cannot be computed on receipt: the tick's own timestamp is only in
// the tsdb, so it is looked up by (session, seq) after the window.
type liveRec struct {
	sess int
	seq  uint64
	recv int64
	sum  uint64 // hash of the values, compared across the two codecs
}

// sample is one latency of the measured window: when the row or request
// was due (for a tick frame, when it arrived), and how long after that
// the answer was in the harness's hands.
type sample struct{ at, ns int64 }

// stream is what one connection has seen of one session it subscribes
// to.
type stream struct {
	sub    int // index into spec.subs
	first  uint64
	last   uint64
	frames uint64
	vals   []int64 // last values, for monotonicity of live counters
}

// connRec is everything one connection's reader goroutine records. The
// mutex is uncontended while traffic flows (one reader per connection)
// and orders the reader's writes before the main goroutine's reads.
type connRec struct {
	mu      sync.Mutex
	track   wire.DeltaTracker
	streams map[uint64]*stream // by session id

	pubLag   [][]sample // per subscription, frames of published rows due in the window
	live     []liveRec  // frames received in the window
	ack      []sample
	query    [3][]sample     // by opQueryRange..opQueryDerive
	acked    []uint64        // per publish session, highest acked seq
	stats    []wire.Response // STATS replies, in order
	errors   int             // ERROR replies
	failures int             // failed output checks
	first    string          // first failure or error, for the report
}

// recorder is the sink of both connections plus the facts the checks
// need: which session is which, and the measured window.
type recorder struct {
	sp      *spec
	seed    int64
	liveIdx map[uint64]int // session id → index, papid-driven sessions
	pubIdx  map[uint64]int // session id → index, publish-only sessions
	conns   [2]connRec

	// t0 and t1 bound the window in unix ns. They are written before the
	// first request of the run is sent, under both connection locks.
	t0, t1 int64
}

func newRecorder(sp *spec, seed int64) *recorder {
	r := &recorder{sp: sp, seed: seed, liveIdx: map[uint64]int{}, pubIdx: map[uint64]int{}}
	for i := range r.conns {
		r.conns[i].streams = map[uint64]*stream{}
		r.conns[i].pubLag = make([][]sample, len(sp.subs))
		r.conns[i].acked = make([]uint64, len(sp.pubLabels))
	}
	return r
}

func (r *recorder) setWindow(t0, t1 time.Time) {
	for i := range r.conns {
		r.conns[i].mu.Lock()
	}
	r.t0, r.t1 = t0.UnixNano(), t1.UnixNano()
	for i := range r.conns {
		r.conns[i].mu.Unlock()
	}
}

func (cr *connRec) fail(format string, args ...any) {
	cr.failures++
	if cr.first == "" {
		cr.first = fmt.Sprintf(format, args...)
	}
}

func hashValues(vals []int64) uint64 {
	var h uint64
	for _, v := range vals {
		h = mix(h ^ uint64(v))
	}
	return h
}

// frame checks and files one asynchronous frame.
func (r *recorder) frame(c *client, resp *wire.Response, recv time.Time) {
	cr := &r.conns[c.id]
	cr.mu.Lock()
	defer cr.mu.Unlock()
	st := cr.streams[resp.Session]
	if st == nil {
		cr.fail("conn %d: %s frame for session %d it never subscribed to", c.id, resp.Op, resp.Session)
		return
	}
	if resp.Op == wire.OpDerived {
		// DERIVED follows the SNAPSHOT it was evaluated on.
		if resp.Seq != st.last {
			cr.fail("conn %d session %d: DERIVED seq %d after SNAPSHOT seq %d", c.id, resp.Session, resp.Seq, st.last)
		}
		return
	}
	full, err := cr.track.Apply(*resp)
	if err != nil {
		cr.fail("conn %d session %d: %v", c.id, resp.Session, err)
		return
	}
	st.frames++
	if st.first == 0 {
		st.first = full.Seq
	} else if full.Seq != st.last+1 {
		cr.fail("conn %d session %d: seq %d after %d", c.id, resp.Session, full.Seq, st.last)
	}
	st.last = full.Seq
	if len(full.Events) != len(full.Values) {
		cr.fail("conn %d session %d seq %d: %d events, %d values", c.id, resp.Session, full.Seq,
			len(full.Events), len(full.Values))
		return
	}
	now := recv.UnixNano()
	if i, ok := r.liveIdx[resp.Session]; ok {
		for j, v := range full.Values {
			if j < len(st.vals) && v < st.vals[j] {
				cr.fail("conn %d session %d seq %d: %s fell from %d to %d", c.id, resp.Session, full.Seq,
					full.Events[j], st.vals[j], v)
			}
		}
		st.vals = append(st.vals[:0], full.Values...)
		if now >= r.t0 && now < r.t1 {
			cr.live = append(cr.live, liveRec{sess: i, seq: full.Seq, recv: now, sum: hashValues(full.Values)})
		}
		return
	}
	// A published row: every counter the view carries must be the one
	// generated for (session, seq), whatever projection or delta
	// reassembly it went through.
	i := r.pubIdx[resp.Session]
	var want [dueIdx]int64
	rowValues(r.seed, i, full.Seq, want[:])
	wantEvents := r.sp.subs[st.sub].events
	if len(wantEvents) == 0 {
		wantEvents = pubEvents
	}
	if len(full.Events) != len(wantEvents) {
		cr.fail("conn %d session %d seq %d: events %v, want %v", c.id, resp.Session, full.Seq, full.Events, wantEvents)
		return
	}
	due := int64(-1)
	for j, ev := range full.Events {
		k := slices.Index(pubEvents, ev)
		switch {
		case k < 0 || !slices.Contains(wantEvents, ev):
			cr.fail("conn %d session %d seq %d: unexpected event %s", c.id, resp.Session, full.Seq, ev)
		case k == dueIdx:
			due = full.Values[j]
		case full.Values[j] != want[k]:
			cr.fail("conn %d session %d seq %d: %s = %d, published %d", c.id, resp.Session, full.Seq,
				ev, full.Values[j], want[k])
		}
	}
	if due < 0 || due > now {
		cr.fail("conn %d session %d seq %d: due time %d not before receipt %d", c.id, resp.Session, full.Seq, due, now)
		return
	}
	if due >= r.t0 && due < r.t1 {
		cr.pubLag[st.sub] = append(cr.pubLag[st.sub], sample{due, now - due})
	}
}

// reply checks and files the reply to one pipelined request.
func (r *recorder) reply(c *client, p pending, resp *wire.Response, recv time.Time) {
	cr := &r.conns[c.id]
	cr.mu.Lock()
	defer cr.mu.Unlock()
	if !resp.OK {
		cr.errors++
		if cr.first == "" {
			cr.first = fmt.Sprintf("conn %d: %s: %s", c.id, resp.Op, resp.Error)
		}
		return
	}
	s := sample{p.due, recv.UnixNano() - p.due}
	inWindow := p.due >= r.t0 && p.due < r.t1
	switch p.kind {
	case opPublish:
		if resp.Op != wire.OpPublish || resp.Seq != p.seq {
			cr.fail("PUBLISH session index %d: acked %s seq %d, sent row %d", p.sess, resp.Op, resp.Seq, p.seq)
			return
		}
		cr.acked[p.sess] = p.seq
		if inWindow {
			cr.ack = append(cr.ack, s)
		}
	case opQueryRange, opQueryRaw:
		want := len(pubEvents)
		if r.sp.queryLive {
			want = len(liveEvents)
		}
		if p.kind == opQueryRaw {
			want = len(rawQueryEvents)
		}
		if resp.Op != wire.OpQuery || len(resp.Series) != want {
			cr.fail("QUERY kind %d session index %d: %s with %d series, want %d", p.kind, p.sess, resp.Op,
				len(resp.Series), want)
			return
		}
		for _, sr := range resp.Series {
			if len(sr.Buckets) == 0 {
				cr.fail("QUERY kind %d session index %d: empty series %s", p.kind, p.sess, sr.Event)
				return
			}
		}
		if inWindow {
			cr.query[p.kind-opQueryRange] = append(cr.query[p.kind-opQueryRange], s)
		}
	case opQueryDerive:
		// A derived point is the change between two one-second buckets, so a
		// history that has not yet crossed a second boundary rightly yields
		// none. That can happen to a warm-up query right after the preload;
		// by the window the history is seconds long.
		if resp.Op != wire.OpQuery || inWindow && (len(resp.Derived) == 0 || len(resp.Derived[0].Points) == 0) {
			cr.fail("derive QUERY session index %d: %s with no derived points", p.sess, resp.Op)
			return
		}
		if inWindow {
			cr.query[p.kind-opQueryRange] = append(cr.query[p.kind-opQueryRange], s)
		}
	case opStats:
		if resp.Op != wire.OpStats {
			cr.fail("STATS answered by %s", resp.Op)
			return
		}
		cr.stats = append(cr.stats, *resp)
	}
}
