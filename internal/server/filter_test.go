package server

import (
	"encoding/json"
	"errors"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/wire"
)

// pubSession creates a publish-only session with the given label and
// returns its ID.
func pubSession(t *testing.T, cl *Client, label string) uint64 {
	t.Helper()
	created, err := cl.Do(wire.Request{Op: wire.OpCreate, Workload: "none", Label: label})
	if err != nil {
		t.Fatal(err)
	}
	return created.Session
}

// helloT performs the handshake on a test client.
func helloT(t *testing.T, cl *Client) wire.Response {
	t.Helper()
	hello, err := cl.Hello()
	if err != nil {
		t.Fatal(err)
	}
	return hello
}

// TestSubscribeWildcard: label globs and explicit ID lists select the
// matching sessions, the reply names them, and frames arrive only for
// the subscribed set.
func TestSubscribeWildcard(t *testing.T) {
	_, addr := startServer(t, Config{TickInterval: time.Hour})
	pub := dialT(t, addr)
	app1 := pubSession(t, pub, "app-1")
	app2 := pubSession(t, pub, "app-2")
	other := pubSession(t, pub, "other")

	sub := dialT(t, addr)
	helloT(t, sub)
	resp, err := sub.Do(wire.Request{Op: wire.OpSubscribe, Labels: []string{"app-*"}})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(resp.Sessions, []uint64{app1, app2}) {
		t.Fatalf("wildcard matched %v, want [%d %d]", resp.Sessions, app1, app2)
	}

	for i, id := range []uint64{app1, other, app2} {
		if _, err := pub.Do(wire.Request{Op: wire.OpPublish, Session: id,
			Events: []string{"x"}, Values: []int64{int64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[uint64]int64{}
	for i := 0; i < 2; i++ {
		got, err := sub.Next()
		if err != nil {
			t.Fatal(err)
		}
		if got.Session == other {
			t.Fatalf("frame for unmatched session %d leaked through the wildcard", other)
		}
		seen[got.Session] = got.Values[0]
	}
	if seen[app1] != 0 || seen[app2] != 2 {
		t.Errorf("wildcard frames %v, want app1=0 app2=2", seen)
	}

	// Explicit ID list works the same way.
	byID := dialT(t, addr)
	helloT(t, byID)
	resp, err = byID.Do(wire.Request{Op: wire.OpSubscribe, Sessions: []uint64{app2}})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(resp.Sessions, []uint64{app2}) {
		t.Fatalf("ID-list subscribe matched %v, want [%d]", resp.Sessions, app2)
	}
}

// TestSubscribeValidation: every malformed SUBSCRIBE earns a loud
// ERROR and registers nothing.
func TestSubscribeValidation(t *testing.T) {
	_, addr := startServer(t, Config{TickInterval: time.Hour})
	pub := dialT(t, addr)
	id := pubSession(t, pub, "val")

	cl := dialT(t, addr)
	helloT(t, cl)
	cases := []struct {
		name string
		req  wire.Request
		want string
	}{
		{"session plus list", wire.Request{Op: wire.OpSubscribe, Session: id,
			Sessions: []uint64{id}}, "leave session 0"},
		{"wildcard derive", wire.Request{Op: wire.OpSubscribe, Labels: []string{"val"},
			Derive: []string{"ipc"}}, "single-session"},
		{"bad glob", wire.Request{Op: wire.OpSubscribe, Labels: []string{"[x"}}, "glob"},
		{"no match", wire.Request{Op: wire.OpSubscribe, Labels: []string{"nothing-*"}}, "no live session"},
	}
	for _, tc := range cases {
		_, err := cl.Do(tc.req)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestDeltaKeyframeCadence runs a delta subscriber and an unfiltered
// subscriber side by side: keyframes appear on the configured cadence,
// deltas carry only changed counters, and the materialized delta
// stream is value-identical to the unfiltered stream at every seq.
func TestDeltaKeyframeCadence(t *testing.T) {
	srv, addr := startServer(t, Config{TickInterval: time.Hour, KeyframeEvery: 3})
	pub := dialT(t, addr)
	id := pubSession(t, pub, "cadence")

	plain := dialT(t, addr)
	helloT(t, plain)
	if _, err := plain.Do(wire.Request{Op: wire.OpSubscribe, Session: id}); err != nil {
		t.Fatal(err)
	}
	deltaCl := dialT(t, addr)
	helloT(t, deltaCl)
	if _, err := deltaCl.Do(wire.Request{Op: wire.OpSubscribe, Session: id, Delta: true}); err != nil {
		t.Fatal(err)
	}

	events := []string{"a", "b", "c", "d"}
	vals := []int64{10, 20, 30, 40}
	const rounds = 7
	for i := 0; i < rounds; i++ {
		vals[i%len(vals)] += int64(i + 1) // one counter moves per round
		if _, err := pub.Do(wire.Request{Op: wire.OpPublish, Session: id,
			Events: events, Values: vals}); err != nil {
			t.Fatal(err)
		}
	}

	// The unfiltered stream is ground truth per seq.
	truth := make(map[uint64][]int64, rounds)
	for i := 0; i < rounds; i++ {
		got, err := plain.Next()
		if err != nil {
			t.Fatal(err)
		}
		truth[got.Seq] = slices.Clone(got.Values)
	}

	var tracker wire.DeltaTracker
	var ops []string
	for i := 0; i < rounds; i++ {
		got, err := deltaCl.Next()
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, got.Op)
		if got.Op == wire.OpDelta {
			if len(got.Idx) == 0 || len(got.Idx) >= len(events) {
				t.Errorf("delta seq %d ships %d of %d counters; want only the changed subset",
					got.Seq, len(got.Idx), len(events))
			}
			if got.Base == 0 {
				t.Errorf("delta seq %d has no base keyframe seq", got.Seq)
			}
		}
		snap, err := tracker.Apply(got)
		if err != nil {
			t.Fatalf("frame %d (%s): %v", i, got.Op, err)
		}
		want, ok := truth[snap.Seq]
		if !ok {
			t.Fatalf("delta stream has seq %d the unfiltered stream never saw", snap.Seq)
		}
		if !slices.Equal(snap.Values, want) || !slices.Equal(snap.Events, events) {
			t.Errorf("seq %d materialized %v=%v, want %v=%v",
				snap.Seq, snap.Events, snap.Values, events, want)
		}
	}
	wantOps := []string{wire.OpSnapshot, wire.OpDelta, wire.OpDelta,
		wire.OpSnapshot, wire.OpDelta, wire.OpDelta, wire.OpSnapshot}
	if !slices.Equal(ops, wantOps) {
		t.Errorf("frame ops %v, want cadence %v", ops, wantOps)
	}
	if keys, deltas := stat(t, srv, "keyframes_sent"), stat(t, srv, "deltas_sent"); keys != 3 || deltas != 4 {
		t.Errorf("stats keyframes=%d deltas=%d, want 3 and 4", keys, deltas)
	}
}

// TestDeltaResyncAfterQueueDrop drives the real publish → fanout →
// push path against a delta subscriber that never drains: the drop
// marks the view the lost frame belonged to for resync, and that
// session's next fan-out re-keys instead of shipping a delta the client
// could no longer anchor. The wildcard case is the regression test for
// the resync landing on the wrong session: with one subscription across
// sessions A and B, losing A's keyframe must re-key A — not whichever
// session happens to fan out next — so a client applying the surviving
// frames never sees a DELTA it cannot anchor.
func TestDeltaResyncAfterQueueDrop(t *testing.T) {
	type step struct {
		sess    int   // index into the test's sessions
		v       int64 // published value of counter b
		pop     int   // frames the client manages to read before this publish
		wantOp  string
		needKey []bool // per session, after the publish
	}
	for _, tc := range []struct {
		name      string
		sessions  int
		depth     int
		steps     []step
		keyframes uint64
		deltas    uint64
	}{
		{name: "single session", sessions: 1, depth: 1, keyframes: 2, deltas: 1, steps: []step{
			{sess: 0, v: 2, wantOp: wire.OpSnapshot, needKey: []bool{false}}, // keyframe, queued cleanly
			{sess: 0, v: 3, wantOp: wire.OpDelta, needKey: []bool{true}},     // evicts the keyframe
			{sess: 0, v: 4, wantOp: wire.OpSnapshot, needKey: []bool{true}},  // resync (evicts the delta)
		}},
		{name: "wildcard: the lost keyframe's session re-keys", sessions: 2, depth: 2, keyframes: 3, deltas: 3, steps: []step{
			{sess: 0, v: 2, wantOp: wire.OpSnapshot, needKey: []bool{false, true}},  // A's keyframe
			{sess: 1, v: 2, wantOp: wire.OpSnapshot, needKey: []bool{false, false}}, // B's keyframe
			{sess: 1, v: 3, wantOp: wire.OpDelta, needKey: []bool{true, false}},     // evicts A's keyframe
			{sess: 1, v: 4, pop: 2, wantOp: wire.OpDelta, needKey: []bool{true, false}},
			{sess: 0, v: 3, pop: 1, wantOp: wire.OpSnapshot, needKey: []bool{false, false}}, // A re-keys
			{sess: 0, v: 4, pop: 1, wantOp: wire.OpDelta, needKey: []bool{false, false}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(Config{TickInterval: time.Hour, KeyframeEvery: 100})
			c := testConn(srv, tc.depth)
			var ids []uint64
			var subs []*subscriber
			for i := 0; i < tc.sessions; i++ {
				created := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate, Workload: "none"})
				if !created.OK {
					t.Fatal(created.Error)
				}
				sess, ok := srv.reg.get(created.Session)
				if !ok {
					t.Fatal("session not registered")
				}
				ids = append(ids, created.Session)
				subs = append(subs, c.follow(t, sess, nil, true))
			}
			// The client applies every frame that survives the queue; after
			// a keyframe loss it may skip frames, but must never be handed a
			// DELTA chained to a keyframe it did not get.
			var tracker wire.DeltaTracker
			read := func(n int) (row wire.Response) {
				t.Helper()
				for ; n > 0; n-- {
					f, ok := c.q.pop(false)
					if !ok {
						t.Fatal("queue empty")
					}
					var resp wire.Response
					if err := json.Unmarshal(f.payload, &resp); err != nil {
						t.Fatalf("frame payload: %v", err)
					}
					f.release()
					var err error
					if row, err = tracker.Apply(resp); err != nil {
						t.Fatalf("session %d seq %d: %v", resp.Session, resp.Seq, err)
					}
				}
				return row
			}
			var v int64
			for i, st := range tc.steps {
				read(st.pop)
				resp := srv.dispatch(nil, &wire.Request{Op: wire.OpPublish, Session: ids[st.sess],
					Events: []string{"a", "b"}, Values: []int64{1, st.v}})
				if !resp.OK {
					t.Fatal(resp.Error)
				}
				v = st.v
				for j, want := range st.needKey {
					if got := subs[j].needKey.Load(); got != want {
						t.Fatalf("step %d: session %d needKey=%v, want %v", i, j, got, want)
					}
				}
				// The newest frame is at the back of the queue.
				frames := c.q.len()
				if newest := *c.q.slot(frames - 1); !strings.Contains(string(newest.payload), `"op":"`+st.wantOp+`"`) {
					t.Fatalf("step %d: pushed %s, want %s", i, newest.payload, st.wantOp)
				}
			}
			row := read(c.q.len())
			last := tc.steps[len(tc.steps)-1]
			if row.Session != ids[last.sess] {
				t.Fatalf("last frame is session %d's, want %d's", row.Session, ids[last.sess])
			}
			if !slices.Equal(row.Events, []string{"a", "b"}) || !slices.Equal(row.Values, []int64{1, v}) {
				t.Errorf("reassembled %v=%v, want [a b]=[1 %d]", row.Events, row.Values, v)
			}
			if keys, deltas := stat(t, srv, "keyframes_sent"), stat(t, srv, "deltas_sent"); keys != tc.keyframes || deltas != tc.deltas {
				t.Errorf("keyframes=%d deltas=%d, want %d and %d", keys, deltas, tc.keyframes, tc.deltas)
			}
		})
	}
}

// TestDeltaResyncAfterMidFrameCut cuts a delta subscriber's connection
// mid-conversation via faultnet, redials, and re-subscribes: the fresh
// subscription's first frame must be a keyframe carrying the complete
// current state — a reconnecting client can never be left applying
// deltas against a baseline it lost with the old connection.
func TestDeltaResyncAfterMidFrameCut(t *testing.T) {
	_, addr := startServer(t, Config{TickInterval: time.Hour, KeyframeEvery: 100})
	pub := dialT(t, addr)
	id := pubSession(t, pub, "cut")

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Sever the connection once the client has written its handshake
	// and subscribe plus a few bytes — the next request dies mid-frame.
	helloB, _ := wire.AppendFrame(nil, wire.CodecJSON, &wire.Request{Op: wire.OpHello, Version: wire.ProtocolVersion})
	subB, _ := wire.AppendFrame(nil, wire.CodecJSON, &wire.Request{Op: wire.OpSubscribe, Session: id, Delta: true})
	fc := faultnet.WrapConn(nc, faultnet.Faults{CutAfter: int64(len(helloB) + len(subB) + 3)})
	defer fc.Close()
	enc, dec := wire.NewEncoder(fc), wire.NewDecoder(fc)
	var resp wire.Response
	if err := enc.Encode(&wire.Request{Op: wire.OpHello, Version: wire.ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&resp); err != nil || !resp.OK {
		t.Fatalf("hello: %v %+v", err, resp)
	}
	if err := enc.Encode(&wire.Request{Op: wire.OpSubscribe, Session: id, Delta: true}); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&resp); err != nil || !resp.OK {
		t.Fatalf("subscribe: %v %+v", err, resp)
	}

	var tracker wire.DeltaTracker
	publish := func(a, b int64) {
		t.Helper()
		if _, err := pub.Do(wire.Request{Op: wire.OpPublish, Session: id,
			Events: []string{"a", "b"}, Values: []int64{a, b}}); err != nil {
			t.Fatal(err)
		}
	}
	publish(1, 2) // keyframe
	publish(1, 3) // delta
	for i := 0; i < 2; i++ {
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("pre-cut frame %d: %v", i, err)
		}
		if _, err := tracker.Apply(resp); err != nil {
			t.Fatalf("pre-cut frame %d: %v", i, err)
		}
	}
	// This write crosses CutAfter: the conn is severed mid-frame.
	if err := enc.Encode(&wire.Request{Op: wire.OpBye}); err == nil {
		if err := dec.Decode(&resp); err == nil {
			t.Fatal("connection survived the scheduled cut")
		}
	}

	// Redial; a fresh delta subscription must open with a keyframe.
	publish(7, 8) // state moved while we were gone
	nc2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc2.Close()
	enc2, dec2 := wire.NewEncoder(nc2), wire.NewDecoder(nc2)
	if err := enc2.Encode(&wire.Request{Op: wire.OpHello, Version: wire.ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	if err := dec2.Decode(&resp); err != nil || !resp.OK {
		t.Fatalf("redial hello: %v %+v", err, resp)
	}
	if err := enc2.Encode(&wire.Request{Op: wire.OpSubscribe, Session: id, Delta: true}); err != nil {
		t.Fatal(err)
	}
	if err := dec2.Decode(&resp); err != nil || !resp.OK {
		t.Fatalf("redial subscribe: %v %+v", err, resp)
	}
	publish(7, 9)
	if err := dec2.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Op != wire.OpSnapshot {
		t.Fatalf("first post-redial frame is %s, want a keyframe SNAPSHOT", resp.Op)
	}
	if !slices.Equal(resp.Values, []int64{7, 9}) {
		t.Errorf("post-redial keyframe values %v, want [7 9]", resp.Values)
	}
}

// TestReconnClientReplaysDeltaSub cuts the server side of a
// ReconnClient's connection mid-stream: the client redials, replays
// its recorded delta subscription, and the stream re-anchors with a
// keyframe — the DeltaTracker over the whole received sequence
// converges back to the live values.
func TestReconnClientReplaysDeltaSub(t *testing.T) {
	// Conn 0 is the publisher; conn 1 (the subscriber's first) is cut
	// after a few hundred bytes of server writes; later conns are clean.
	_, addr := serveFaults(t, Config{TickInterval: time.Hour, KeyframeEvery: 50},
		func(i int, nc net.Conn) faultnet.Faults {
			if i == 1 {
				return faultnet.Faults{CutAfter: 400}
			}
			return faultnet.Faults{}
		})

	pub := dialT(t, addr)
	id := pubSession(t, pub, "reconn")
	if _, err := pub.Do(wire.Request{Op: wire.OpPublish, Session: id,
		Events: []string{"a", "b"}, Values: []int64{1, 1}}); err != nil {
		t.Fatal(err)
	}

	rc, err := DialReconn(addr, RetryConfig{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	var frames []wire.Response // appended inside rc.Do, on this goroutine
	collect := func(resp wire.Response) { frames = append(frames, resp) }
	rc.OnSnapshot, rc.OnDelta = collect, collect
	if _, err := rc.SubscribeWith(SubOptions{Session: id, Delta: true}); err != nil {
		t.Fatal(err)
	}

	// Publish and pump until the cut has happened and the stream has
	// recovered past it. STATS is replayable, so the Do that trips over
	// the cut reconnects (replaying the subscription) and still answers.
	val := int64(1)
	deadline := time.Now().Add(10 * time.Second)
	for rc.Reconnects == 0 || val < 40 {
		if time.Now().After(deadline) {
			t.Fatalf("no reconnect after %d publishes", val)
		}
		val++
		if _, err := pub.Do(wire.Request{Op: wire.OpPublish, Session: id,
			Events: []string{"a", "b"}, Values: []int64{1, val}}); err != nil {
			t.Fatal(err)
		}
		if _, err := rc.Do(wire.Request{Op: wire.OpStats}); err != nil {
			t.Fatalf("pump: %v", err)
		}
	}

	// The last pump's STATS reply was queued behind the frames of every
	// publish before it, so the stream holds them all.
	var tracker wire.DeltaTracker
	var last []int64
	skipped := 0
	for _, f := range frames {
		snap, err := tracker.Apply(f)
		if err != nil {
			// A delta that chains from a keyframe lost to the cut is
			// skippable by design; the replayed subscription's keyframe
			// re-anchors.
			skipped++
			continue
		}
		last = slices.Clone(snap.Values)
	}
	if rc.Reconnects == 0 {
		t.Fatal("the cut never tripped a reconnect")
	}
	if !slices.Equal(last, []int64{1, val}) {
		t.Fatalf("materialized stream ended at %v, want [1 %d] (skipped %d)", last, val, skipped)
	}
}

// TestFanoutEncodeFailure pins the fixed fan-out failure path: an
// encode failure is attempted and logged once per codec per tick, the
// failure is counted, and every subscriber on that codec records a
// dropped frame instead of silently losing it.
func TestFanoutEncodeFailure(t *testing.T) {
	encodeFault = errors.New("boom")
	defer func() { encodeFault = nil }()

	srv := New(Config{TickInterval: time.Hour})
	created := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate, Workload: "none"})
	if !created.OK {
		t.Fatal(created.Error)
	}
	sess, ok := srv.reg.get(created.Session)
	if !ok {
		t.Fatal("session not registered")
	}
	c := testConn(srv, 4)
	for i := 0; i < 2; i++ {
		c.follow(t, sess, nil, false)
	}
	resp := srv.dispatch(nil, &wire.Request{Op: wire.OpPublish, Session: created.Session,
		Events: []string{"a"}, Values: []int64{1}})
	if !resp.OK {
		t.Fatal(resp.Error)
	}
	// Every attempt fails and is counted, so one failure is one attempt.
	if n := stat(t, srv, "encode_failures"); n != 1 {
		t.Errorf("encode failures %d, want 1 (failure negative-cached per tick)", n)
	}
	if sent, dropped := stat(t, srv, "snapshots_sent"), stat(t, srv, "snapshots_dropped"); sent != 0 || dropped != 2 {
		t.Errorf("sent=%d dropped=%d, want 0 sent and both subscribers' drops counted", sent, dropped)
	}
}

// TestQueryDeriveNoHistory is the regression test for the nil-history
// panic: a derive QUERY against a server running with history disabled
// must answer with a wire ERROR naming the configuration, not crash.
func TestQueryDeriveNoHistory(t *testing.T) {
	srv := New(Config{TickInterval: time.Hour, TSDBMaxBytes: -1})
	req := &wire.Request{Op: wire.OpQuery, Session: 1, Derive: []string{"ipc"},
		From: 0, To: 100}
	for name, resp := range map[string]wire.Response{
		"dispatch":     srv.dispatch(nil, req),
		"queryDerived": srv.queryDerived(req),
	} {
		if resp.OK {
			t.Errorf("%s: derive QUERY with history disabled succeeded", name)
		}
		if !strings.Contains(resp.Error, "history disabled") {
			t.Errorf("%s: error %q does not name the disabled history", name, resp.Error)
		}
	}
}

// TestDerivedCountersDistinct pins the fixed DERIVED accounting:
// derived frames land in derived_sent, never inflating the snapshot
// counters.
func TestDerivedCountersDistinct(t *testing.T) {
	srv, addr := startServer(t, Config{TickInterval: time.Hour})
	pub := dialT(t, addr)
	id := pubSession(t, pub, "derived")
	publish := func(ins, cyc int64) {
		t.Helper()
		if _, err := pub.Do(wire.Request{Op: wire.OpPublish, Session: id,
			Events: []string{"PAPI_TOT_INS", "PAPI_TOT_CYC"}, Values: []int64{ins, cyc}}); err != nil {
			t.Fatal(err)
		}
	}
	publish(100, 100) // names the events so the group resolves

	sub := dialT(t, addr)
	helloT(t, sub)
	if _, err := sub.Do(wire.Request{Op: wire.OpSubscribe, Session: id,
		Derive: []string{"ipc"}}); err != nil {
		t.Fatal(err)
	}
	publish(300, 200) // primes the delta-based engine
	publish(700, 400) // second sample after priming: the group evaluates

	if stat(t, srv, "derived_sent") == 0 {
		t.Fatal("no DERIVED frame counted in derived_sent")
	}
	if n := stat(t, srv, "snapshots_sent"); n != 2 {
		t.Errorf("snapshots_sent %d, want 2 (DERIVED frames must not inflate it)", n)
	}
	if der, snap := stat(t, srv, "derived_dropped"), stat(t, srv, "snapshots_dropped"); der != 0 || snap != 0 {
		t.Errorf("dropped counters derived=%d snap=%d, want 0", der, snap)
	}
	resp, err := sub.Do(wire.Request{Op: wire.OpStats})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"derived_sent", "deltas_sent", "keyframes_sent", "encode_failures"} {
		if _, ok := resp.Stats[key]; !ok {
			t.Errorf("STATS reply missing %q", key)
		}
	}
	if n := stat(t, srv, "derived_sent"); resp.Stats["derived_sent"] != n {
		t.Errorf("STATS derived_sent %d != Stats() %d", resp.Stats["derived_sent"], n)
	}
}

// TestViewMembershipChurn races subscribes and connection teardowns
// against PUBLISH fan-out on one session (run it under -race): the
// subscriber index is edited in place under the session lock the
// fan-out walks it under. Whatever the interleaving, every subscriber's
// frames are a gap-free run of seqs that reassembles to the published
// rows, a subscription's first frame is a full SNAPSHOT — also when its
// view had just been dropped by its last leaver — nothing is pushed at
// a connection once its teardown has returned, and sent − dropped
// equals the frames the queues took.
func TestViewMembershipChurn(t *testing.T) {
	srv := New(Config{TickInterval: time.Hour, TSDBMaxBytes: -1, KeyframeEvery: 5})
	created := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate, Workload: "none"})
	if !created.OK {
		t.Fatal(created.Error)
	}
	sess, _ := srv.reg.get(created.Session)
	events := []string{"a", "b", "c"}
	const publishes = 400
	truth := make([][]int64, publishes+1) // by seq; written before the publish that carries it
	publish := func(seq int) {
		row := []int64{int64(seq), int64(seq * 2), 7}
		truth[seq] = row
		if resp := srv.dispatch(nil, &wire.Request{Op: wire.OpPublish, Session: sess.id,
			Events: events, Values: row}); !resp.OK || resp.Seq != uint64(seq) {
			t.Errorf("publish %d: %+v", seq, resp)
		}
	}
	// check drains a torn-down connection and audits its one stream.
	popped := 0
	check := func(c *conn, filter []string, delta bool) {
		t.Helper()
		var tracker wire.DeltaTracker
		var last uint64
		for i, f := range c.popResponses(t) {
			popped++
			if i == 0 && f.Op != wire.OpSnapshot {
				t.Errorf("stream opens with %s seq %d, want a full SNAPSHOT", f.Op, f.Seq)
			}
			if f.Op == wire.OpDelta && !delta {
				t.Errorf("DELTA seq %d on a non-delta subscription", f.Seq)
			}
			row, err := tracker.Apply(f)
			if err != nil {
				t.Fatalf("seq %d (%s): %v", f.Seq, f.Op, err)
			}
			if last != 0 && row.Seq != last+1 {
				t.Errorf("seq %d follows %d: a gap with nothing dropped before the close", row.Seq, last)
			}
			last = row.Seq
			var want []int64
			for j, ev := range events {
				if filter == nil || slices.Contains(filter, ev) {
					want = append(want, truth[row.Seq][j])
				}
			}
			if !slices.Equal(row.Values, want) {
				t.Errorf("seq %d reassembled %v, want %v", row.Seq, row.Values, want)
			}
		}
	}

	shapes := []struct {
		filter []string
		delta  bool
	}{{nil, false}, {[]string{"a", "c"}, false}, {nil, true}, {[]string{"b", "a"}, true}}
	type stream struct {
		c     *conn
		shape int
		held  int // frames queued when teardown returned
	}
	const nChurners = 4
	streams := make([][]stream, nChurners)
	var stop atomic.Bool
	var churners sync.WaitGroup
	var subscribed [nChurners]atomic.Int64 // subscriptions each churner made
	for g := 0; g < nChurners; g++ {
		churners.Add(1)
		go func() {
			defer churners.Done()
			for n := g; !stop.Load(); n++ {
				shape := shapes[n%len(shapes)]
				c := testConn(srv, 2*publishes) // deep enough that nothing is evicted
				c.follow(t, sess, shape.filter, shape.delta)
				subscribed[g].Add(1)
				// Stay for one to three fan-outs, so every stream overlaps
				// the publisher, then hang up under its feet.
				for stay := 1 + n/len(shapes)%3; c.q.len() < stay && !stop.Load(); {
					runtime.Gosched()
				}
				c.teardown()
				// Reopened, so that a frame pushed for a subscription that
				// is gone would sit in the queue instead of being dropped
				// at its door.
				c.q.mu.Lock()
				c.q.closed = false
				held := c.q.n
				c.q.mu.Unlock()
				streams[g] = append(streams[g], stream{c, n % len(shapes), held})
			}
		}()
	}
	// The publisher goes in rounds. Each waits until every churner has
	// made a subscription since the last round — however the host
	// schedules them — and then publishes three rows, as many fan-outs
	// as a stream stays for, so each of those subscriptions hangs up
	// during the round or the next. The churn overlaps the publishes by
	// construction.
	var seen [nChurners]int64
	for seq := 1; seq <= publishes; {
		for g := range subscribed {
			for subscribed[g].Load() == seen[g] {
				runtime.Gosched()
			}
			seen[g] = subscribed[g].Load()
		}
		for end := min(seq+3, publishes+1); seq < end; seq++ {
			publish(seq)
			runtime.Gosched()
		}
	}
	stop.Store(true)
	churners.Wait()

	if n := len(sess.views); n != 0 {
		t.Errorf("%d views left after every subscriber went; the last leaver takes its view", n)
	}
	for _, ss := range streams {
		for _, st := range ss {
			if n := st.c.q.len(); n != st.held {
				t.Errorf("%d frames pushed at a connection after its teardown returned", n-st.held)
			}
			check(st.c, canonEvents(shapes[st.shape].filter), shapes[st.shape].delta)
		}
	}
	deltas := stat(t, srv, "deltas_sent")
	if took := stat(t, srv, "snapshots_sent") - stat(t, srv, "snapshots_dropped") + deltas - stat(t, srv, "deltas_dropped"); took != uint64(popped) {
		t.Errorf("sent − dropped = %d frames, but the queues held %d", took, popped)
	}
	if popped < publishes/4 || deltas == 0 {
		t.Errorf("%d frames, %d deltas: the churn barely overlapped the publishes", popped, deltas)
	}
}

// TestStreamOpensBetweenRows: a SUBSCRIBE opens its stream between two
// of its session's rows, never inside one, right behind its ack: the
// stream's first frame is a row's SNAPSHOT and every DERIVED follows its
// own row's SNAPSHOT. A stream once opened under no session lock, and a
// row's SNAPSHOT could pass a subscriber by while its DERIVED reached it
// (papistorm: "DERIVED seq 2 after SNAPSHOT seq 0"). Each stream opens
// through dispatch, as a connection's SUBSCRIBE does.
func TestStreamOpensBetweenRows(t *testing.T) {
	srv := New(Config{TickInterval: time.Hour, TSDBMaxBytes: -1, Groups: []string{"ipc"}})
	created := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate, Workload: "none"})
	if !created.OK {
		t.Fatal(created.Error)
	}
	sess, _ := srv.reg.get(created.Session)
	var stop atomic.Bool
	published := make(chan struct{})
	go func() {
		defer close(published)
		for k := int64(1); !stop.Load(); k++ {
			srv.dispatch(nil, &wire.Request{Op: wire.OpPublish, Session: sess.id,
				Events: []string{"PAPI_TOT_INS", "PAPI_TOT_CYC"}, Values: []int64{3 * k, k}})
		}
	}()
	for i := 0; i < 1000 && !t.Failed(); i++ {
		c := testConn(srv, 1<<20) // never full: nothing is dropped before the pop
		if resp := srv.dispatch(c, &wire.Request{Op: wire.OpSubscribe, Session: sess.id}); !resp.OK {
			t.Fatal(resp.Error)
		}
		for c.q.len() < 5 {
			runtime.Gosched()
		}
		frames := c.popResponses(t)
		c.teardown()
		if frames[0].Op != wire.OpSubscribe {
			t.Fatalf("stream %d: %s seq %d ahead of the SUBSCRIBE ack", i, frames[0].Op, frames[0].Seq)
		}
		var snap uint64
		for j, f := range frames[1:] {
			switch {
			case j == 0 && f.Op != wire.OpSnapshot:
				t.Errorf("stream %d opens with %s seq %d, want a SNAPSHOT", i, f.Op, f.Seq)
			case f.Op == wire.OpSnapshot:
				snap = f.Seq
			case f.Seq != snap:
				t.Errorf("stream %d: %s seq %d after SNAPSHOT seq %d", i, f.Op, f.Seq, snap)
			}
		}
	}
	stop.Store(true)
	<-published
}

// TestViewOrderAndRekey is the deterministic half of the membership
// contract: subscribers of a view are served in subscription order, and
// a view dropped by its last leaver starts over — keyframe first — for
// whoever subscribes with that filter next.
func TestViewOrderAndRekey(t *testing.T) {
	srv := New(Config{TickInterval: time.Hour, TSDBMaxBytes: -1, KeyframeEvery: 100})
	created := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate, Workload: "none"})
	if !created.OK {
		t.Fatal(created.Error)
	}
	sess, _ := srv.reg.get(created.Session)
	publish := func(v int64) {
		t.Helper()
		if resp := srv.dispatch(nil, &wire.Request{Op: wire.OpPublish, Session: sess.id,
			Events: []string{"a", "b"}, Values: []int64{1, v}}); !resp.OK {
			t.Fatal(resp.Error)
		}
	}
	served := func(c *conn) (subs []*subscriber) {
		for f, ok := c.q.pop(false); ok; f, ok = c.q.pop(false) {
			subs = append(subs, f.sub)
			f.release()
		}
		return subs
	}

	// One connection, four subscriptions to the same view.
	c := testConn(srv, 16)
	var subs []*subscriber
	for i := 0; i < 4; i++ {
		subs = append(subs, c.follow(t, sess, []string{"b"}, false))
	}
	publish(1)
	if got := served(c); !slices.Equal(got, subs) {
		t.Errorf("served %v, want subscription order %v", got, subs)
	}
	sess.removeSubscriber(subs[1])
	subs = append(slices.Delete(subs, 1, 2), c.follow(t, sess, []string{"b"}, false))
	publish(2)
	if got := served(c); !slices.Equal(got, subs) {
		t.Errorf("after a leave and a join served %v, want %v", got, subs)
	}
	if n := len(sess.views); n != 1 {
		t.Fatalf("%d views for one filter", n)
	}

	// A delta view: keyframe, delta; the last leaver drops the view, and
	// the same filter subscribed again opens with a keyframe.
	d := testConn(srv, 16)
	first := d.follow(t, sess, nil, true)
	publish(3)
	publish(4)
	sess.removeSubscriber(first)
	if n := len(sess.views); n != 1 {
		t.Fatalf("%d views after the delta view's only subscriber left, want 1", n)
	}
	d.follow(t, sess, nil, true)
	publish(5)
	var ops []string
	for _, f := range d.popResponses(t) {
		ops = append(ops, f.Op)
	}
	if want := []string{wire.OpSnapshot, wire.OpDelta, wire.OpSnapshot}; !slices.Equal(ops, want) {
		t.Errorf("delta stream ops %v, want %v", ops, want)
	}
}
