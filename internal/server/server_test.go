package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/faultnet"
	"repro/internal/wire"
	"repro/papi"
)

// startServer brings up a papid instance on a loopback port and
// registers its shutdown with the test. On a fake clock it serves
// through faultnet (serveFaults): the deadlines the server sets are then
// virtual time, which a plain socket would take for wall time.
func startServer(t testing.TB, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.clock != nil {
		return serveFaults(t, cfg, nil)
	}
	srv := New(cfg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	shutdownAtCleanup(t, srv)
	return srv, addr.String()
}

// serveFaults serves cfg on a loopback port behind faultnet: plan, when
// set, picks each accepted connection's faults, and every connection
// measures its deadlines on cfg.clock.
func serveFaults(t testing.TB, cfg Config, plan func(i int, nc net.Conn) faultnet.Faults) (*Server, string) {
	t.Helper()
	srv := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Serve(faultnet.Wrap(ln, func(i int, nc net.Conn) faultnet.Faults {
		var f faultnet.Faults
		if plan != nil {
			f = plan(i, nc)
		}
		f.Clock = cfg.clock
		return f
	}))
	shutdownAtCleanup(t, srv)
	return srv, addr.String()
}

func shutdownAtCleanup(t testing.TB, srv *Server) {
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
}

// stat reads one key of srv.Stats() and fails the test when the key is
// absent, so a misspelt name cannot read as 0.
func stat(t testing.TB, srv *Server, key string) uint64 {
	t.Helper()
	v, ok := srv.Stats()[key]
	if !ok {
		t.Fatalf("Stats() has no key %q", key)
	}
	return v
}

func dialT(t testing.TB, addr string) *Client {
	t.Helper()
	cl, err := DialRetry(addr, RetryConfig{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// testConn is a connection with no socket and no writer goroutine:
// fan-out lands in its depth-bounded write queue — the one queue a
// subscriber frame crosses — and the test pops it, standing in for a
// consumer as slow or as fast as the test wants.
func testConn(srv *Server, depth int) *conn {
	return &conn{srv: srv, q: newWriteQueue(depth, srv.m)}
}

// follow subscribes the connection to sess as SUBSCRIBE does, less
// the ack: the stream opens between two of the session's rows.
func (c *conn) follow(tb testing.TB, sess *session, events []string, delta bool) *subscriber {
	tb.Helper()
	if !sess.lockOpen() {
		tb.Fatal(errSessionClosed)
	}
	defer sess.mu.Unlock()
	return c.srv.addSubscriber(c, sess, &wire.Request{Events: events, Delta: delta})
}

// popAll empties the connection's queue as its writer would, each
// frame counted written, returning each frame's payload in queue order.
func (c *conn) popAll() []string {
	var out []string
	for {
		f, ok := c.q.pop(false)
		if !ok {
			return out
		}
		out = append(out, string(f.payload))
		c.settle([]frame{f}, len(f.payload))
	}
}

// popResponses is popAll with every (JSON) frame decoded.
func (c *conn) popResponses(tb testing.TB) []wire.Response {
	tb.Helper()
	var out []wire.Response
	for _, p := range c.popAll() {
		var resp wire.Response
		if err := json.Unmarshal([]byte(p), &resp); err != nil {
			tb.Fatalf("frame payload: %v", err)
		}
		out = append(out, resp)
	}
	return out
}

func TestSessionLifecycle(t *testing.T) {
	fk := clock.NewFake(time.Unix(1_700_000_000, 0))
	srv, addr := startServer(t, Config{TickInterval: time.Hour, clock: fk})
	cl := dialT(t, addr)

	hello, err := cl.Do(wire.Request{Op: wire.OpHello})
	if err != nil {
		t.Fatal(err)
	}
	if hello.Protocol != wire.ProtocolVersion {
		t.Fatalf("protocol %d, want %d", hello.Protocol, wire.ProtocolVersion)
	}

	created, err := cl.Do(wire.Request{Op: wire.OpCreate, Platform: papi.PlatformAIXPower3,
		Events: []string{"PAPI_FP_INS"}, Workload: "dot", N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if created.Session == 0 {
		t.Fatal("no session id")
	}
	id := created.Session

	if _, err := cl.Do(wire.Request{Op: wire.OpAddEvents, Session: id,
		Events: []string{"PAPI_TOT_CYC"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Do(wire.Request{Op: wire.OpStart, Session: id}); err != nil {
		t.Fatal(err)
	}

	// A tick advances the workload; READ sees the growth.
	fk.Advance(2 * time.Millisecond)
	srv.tick()
	read, err := cl.Do(wire.Request{Op: wire.OpRead, Session: id})
	if err != nil {
		t.Fatal(err)
	}
	if len(read.Values) != 2 {
		t.Fatalf("READ returned %d values, want 2", len(read.Values))
	}
	cyc := read.Values[1]
	if cyc == 0 {
		t.Error("TOT_CYC did not advance; the tick is not driving the workload")
	}

	stopped, err := cl.Do(wire.Request{Op: wire.OpStop, Session: id})
	if err != nil {
		t.Fatal(err)
	}
	if len(stopped.Values) != 2 || stopped.Values[1] < cyc {
		t.Errorf("final values %v, want TOT_CYC >= %d", stopped.Values, cyc)
	}

	// READ after STOP serves the final snapshot.
	read, err = cl.Do(wire.Request{Op: wire.OpRead, Session: id})
	if err != nil {
		t.Fatal(err)
	}
	if read.Source != "last" {
		t.Errorf("post-stop READ source %q, want last", read.Source)
	}

	if _, err := cl.Do(wire.Request{Op: wire.OpCloseSession, Session: id}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Do(wire.Request{Op: wire.OpRead, Session: id}); err == nil {
		t.Error("READ on a closed session succeeded")
	}
	if _, err := cl.Do(wire.Request{Op: wire.OpBye}); err != nil {
		t.Fatal(err)
	}
}

// TestStress64ConcurrentClients drives ≥64 simultaneous clients through
// the full create/start/read/stop/close lifecycle against a live
// listener, rotating across all simulated platforms. Run under -race
// (tools/ci.sh) this is the subsystem's data-race gate.
func TestStress64ConcurrentClients(t *testing.T) {
	srv, addr := startServer(t, Config{TickInterval: 2 * time.Millisecond})
	platforms := papi.Platforms()

	const nClients = 64
	var wg sync.WaitGroup
	errc := make(chan error, nClients)
	for i := 0; i < nClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errc <- func() error {
				cl, err := Dial(addr)
				if err != nil {
					return err
				}
				defer cl.Close()
				if _, err := cl.Do(wire.Request{Op: wire.OpHello}); err != nil {
					return err
				}
				created, err := cl.Do(wire.Request{Op: wire.OpCreate,
					Platform: platforms[i%len(platforms)],
					Events:   []string{"PAPI_FP_INS", "PAPI_TOT_CYC"},
					Workload: "dot", N: 8})
				if err != nil {
					return err
				}
				id := created.Session
				if _, err := cl.Do(wire.Request{Op: wire.OpStart, Session: id}); err != nil {
					return err
				}
				for j := 0; j < 3; j++ {
					read, err := cl.Do(wire.Request{Op: wire.OpRead, Session: id})
					if err != nil {
						return err
					}
					if len(read.Values) != 2 {
						return fmt.Errorf("client %d: READ returned %d values", i, len(read.Values))
					}
				}
				stopped, err := cl.Do(wire.Request{Op: wire.OpStop, Session: id})
				if err != nil {
					return err
				}
				if len(stopped.Values) != 2 {
					return fmt.Errorf("client %d: STOP returned %d values", i, len(stopped.Values))
				}
				if _, err := cl.Do(wire.Request{Op: wire.OpCloseSession, Session: id}); err != nil {
					return err
				}
				_, err = cl.Do(wire.Request{Op: wire.OpBye})
				return err
			}()
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Error(err)
		}
	}
	if n := stat(t, srv, "sessions"); n != 0 {
		t.Errorf("%d sessions left after close", n)
	}
}

// TestDropOldestPolicy verifies the bounded-queue policy of the
// connection write queue, the only queue a subscriber frame crosses: a
// push into a full queue evicts the oldest droppable frame and keeps
// the newest, replies are never the victim and keep their place, a
// droppable frame that finds only replies queued is itself dropped, a
// reply that does is a jam — and every drop lands in the ledger of the
// frame that was actually lost.
func TestDropOldestPolicy(t *testing.T) {
	srv := New(Config{TickInterval: time.Hour})
	created := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate, Workload: "none"})
	sess, _ := srv.reg.get(created.Session)
	mk := func(c *conn, kind frameKind, seq uint64) frame {
		payload, err := wire.AppendFrame(nil, wire.CodecJSON, &wire.Response{Seq: seq})
		if err != nil {
			t.Fatal(err)
		}
		f := frame{payload: payload, kind: kind}
		if kind != kindReply {
			f.sub = c.subs[0]
		}
		return f
	}
	const R, S, D = kindReply, kindSnapshot, kindDerived
	type push struct {
		kind frameKind
		ok   bool
	}
	for _, tc := range []struct {
		name        string
		depth       int
		pushes      []push // seq = 1-based position
		pops        int    // frames the consumer takes after the first two pushes
		want        []uint64
		snapDropped uint64
		derDropped  uint64
	}{
		{name: "oldest droppable goes", depth: 2,
			pushes: []push{{S, true}, {S, true}, {S, true}}, want: []uint64{2, 3}, snapDropped: 1},
		{name: "replies ahead of the victim keep their place", depth: 4,
			pushes: []push{{R, true}, {R, true}, {S, true}, {S, true}, {S, true}},
			want:   []uint64{1, 2, 4, 5}, snapDropped: 1},
		{name: "the evicted frame's kind is charged, not the pusher's", depth: 2,
			pushes: []push{{S, true}, {D, true}, {D, true}}, want: []uint64{2, 3}, snapDropped: 1},
		{name: "every queued reply outranks a new droppable", depth: 2,
			pushes: []push{{R, true}, {R, true}, {D, true}}, want: []uint64{1, 2}, derDropped: 1},
		{name: "replies alone jam", depth: 2,
			pushes: []push{{R, true}, {R, true}, {R, false}}, want: []uint64{1, 2}},
		{name: "ring wraps across pops and growth", depth: 16, pops: 2,
			pushes: []push{{S, true}, {S, true}, {S, true}, {R, true}, {S, true}, {S, true},
				{S, true}, {S, true}, {S, true}, {S, true}, {S, true}, {S, true}},
			want: []uint64{3, 4, 5, 6, 7, 8, 9, 10, 11, 12}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snapBefore, derBefore := stat(t, srv, "snapshots_dropped"), stat(t, srv, "derived_dropped")
			c := testConn(srv, tc.depth)
			c.follow(t, sess, nil, false)
			for i, p := range tc.pushes {
				if i == 2 {
					for range tc.pops {
						f, _ := c.q.pop(false)
						f.release()
					}
				}
				if ok := c.q.push(mk(c, p.kind, uint64(i+1))); ok != p.ok {
					t.Errorf("push %d: ok=%v, want %v", i+1, ok, p.ok)
				}
			}
			var got []uint64
			for _, resp := range c.popResponses(t) {
				got = append(got, resp.Seq)
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("queue holds seq %v, want %v", got, tc.want)
			}
			if d := stat(t, srv, "snapshots_dropped") - snapBefore; d != tc.snapDropped {
				t.Errorf("snapshots_dropped +%d, want +%d", d, tc.snapDropped)
			}
			if d := stat(t, srv, "derived_dropped") - derBefore; d != tc.derDropped {
				t.Errorf("derived_dropped +%d, want +%d", d, tc.derDropped)
			}
			c.teardown()
		})
	}
}

// TestSlowConsumerDropsViaTick drives the real tick → fanout → push
// path against a maximally slow consumer (a connection with no
// writer): old snapshots are dropped, the newest survives, and the tick
// loop never blocks. TCP buffering would mask this end to end, so the
// ticks are driven directly.
func TestSlowConsumerDropsViaTick(t *testing.T) {
	srv := New(Config{TickInterval: time.Hour})
	created := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate,
		Events: []string{"PAPI_TOT_CYC"}, Workload: "dot", N: 8})
	if !created.OK {
		t.Fatal(created.Error)
	}
	sess, ok := srv.reg.get(created.Session)
	if !ok {
		t.Fatal("session not registered")
	}
	stalled := testConn(srv, 1)
	stalled.follow(t, sess, nil, false)
	if resp := srv.dispatch(nil, &wire.Request{Op: wire.OpStart, Session: created.Session}); !resp.OK {
		t.Fatal(resp.Error)
	}
	for i := 0; i < 3; i++ {
		srv.tick()
	}
	if n := stat(t, srv, "snapshots_sent"); n != 3 {
		t.Errorf("sent %d snapshots, want 3", n)
	}
	if n := stat(t, srv, "snapshots_dropped"); n != 2 {
		t.Errorf("dropped %d snapshots, want 2", n)
	}
	held := stalled.popResponses(t)
	if len(held) != 1 || held[0].Seq != 3 {
		t.Errorf("stalled queue holds %+v, want only the newest (seq 3)", held)
	}
}

// TestFramesWaitForSubscribeReply: fan-out pushes straight into the
// connection's queue, so a SUBSCRIBE queues its ack in the hold that
// registers it. The ack is the first frame in the queue, and the first
// tick after dispatch returns is delivered and counted.
func TestFramesWaitForSubscribeReply(t *testing.T) {
	srv := New(Config{TickInterval: time.Hour})
	created := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate,
		Events: []string{"PAPI_TOT_CYC"}, Workload: "dot", N: 8})
	if resp := srv.dispatch(nil, &wire.Request{Op: wire.OpStart, Session: created.Session}); !resp.OK {
		t.Fatal(resp.Error)
	}
	c := testConn(srv, 8)
	if resp := srv.dispatch(c, &wire.Request{Op: wire.OpSubscribe, Session: created.Session}); !resp.OK {
		t.Fatal(resp.Error)
	}
	srv.tick()
	var ops []string
	for _, resp := range c.popResponses(t) {
		ops = append(ops, resp.Op)
	}
	if want := []string{wire.OpSubscribe, wire.OpSnapshot}; !slices.Equal(ops, want) {
		t.Errorf("queue holds %v, want %v", ops, want)
	}
	if sent, dropped := stat(t, srv, "snapshots_sent"), stat(t, srv, "snapshots_dropped"); sent != 1 || dropped != 0 {
		t.Errorf("sent=%d dropped=%d, want 1/0", sent, dropped)
	}
}

// TestClosedSessionEndsReadIdleExemption: a subscriber is exempt from
// the read-idle deadline because fan-out is its traffic, and only for as
// long as that can be true. Once its session closes it will never be
// sent another frame, so the next idle deadline evicts it; it used to
// stay in its connection's subscription list and hold the socket, the
// reader and the writer for good.
//
// The connection's read deadline is on a fake clock: the only timers it
// arms are that deadline, once before each request the server waits
// for (the write deadline is off).
func TestClosedSessionEndsReadIdleExemption(t *testing.T) {
	clk := spyClock{Fake: clock.NewFake(time.Unix(1_700_000_000, 0)), armed: make(chan time.Duration, 8)}
	srv, addr := startServer(t, Config{TickInterval: time.Hour, ReadIdleTimeout: 100 * time.Millisecond,
		WriteTimeout: -1, clock: clk})
	created := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate, Workload: "none"})
	if !created.OK {
		t.Fatal(created.Error)
	}
	sub := dialT(t, addr)
	if _, err := sub.Do(wire.Request{Op: wire.OpSubscribe, Session: created.Session}); err != nil {
		t.Fatal(err)
	}
	if resp := srv.dispatch(nil, &wire.Request{Op: wire.OpCloseSession, Session: created.Session}); !resp.OK {
		t.Fatal(resp.Error)
	}
	<-clk.armed // for the SUBSCRIBE
	<-clk.armed // for whatever comes next: the server is waiting
	clk.Advance(100 * time.Millisecond)
	if _, err := sub.Next(); err == nil {
		t.Fatal("the subscriber of a closed session read a frame after its idle deadline; want the connection closed")
	}
	if n := stat(t, srv, "evictions"); n != 1 {
		t.Errorf("evictions %d, want 1", n)
	}
	if n := stat(t, srv, "deadline_trips"); n != 1 {
		t.Errorf("deadline_trips %d, want 1", n)
	}
}

// TestConnGoroutinesIndependentOfSubscriptions: a connection costs the
// server a reader and a writer, and a subscription costs it no
// goroutine at all — one subscription or sixty-five, the count is the
// same.
func TestConnGoroutinesIndependentOfSubscriptions(t *testing.T) {
	srv, addr := startServer(t, Config{TickInterval: time.Hour})
	const nSessions = 64
	var first uint64
	for i := 0; i < nSessions; i++ {
		created := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate, Workload: "none", Label: "fleet"})
		if !created.OK {
			t.Fatal(created.Error)
		}
		if first == 0 {
			first = created.Session
		}
	}
	// settled waits for a goroutine count that holds still, so stragglers
	// of earlier tests do not skew the baseline.
	settled := func() int {
		n, same := runtime.NumGoroutine(), 0
		for deadline := time.Now().Add(5 * time.Second); same < 5 && time.Now().Before(deadline); {
			time.Sleep(2 * time.Millisecond)
			if now := runtime.NumGoroutine(); now == n {
				same++
			} else {
				n, same = now, 0
			}
		}
		return n
	}
	idle := settled()
	cl := dialT(t, addr)
	if _, err := cl.Hello(); err != nil {
		t.Fatal(err)
	}
	connected := settled()
	if connected != idle+2 {
		t.Fatalf("a connection holds %d server goroutines, want 2 (reader + writer)", connected-idle)
	}
	if _, err := cl.Do(wire.Request{Op: wire.OpSubscribe, Session: first}); err != nil {
		t.Fatal(err)
	}
	if n := settled(); n != connected {
		t.Errorf("1 subscription: %d goroutines, want %d", n, connected)
	}
	resp, err := cl.Do(wire.Request{Op: wire.OpSubscribe, Labels: []string{"fleet"}, Delta: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Sessions) != nSessions {
		t.Fatalf("wildcard matched %d sessions, want %d", len(resp.Sessions), nSessions)
	}
	if n := settled(); n != connected {
		t.Errorf("%d subscriptions: %d goroutines, want %d", nSessions+1, n, connected)
	}
}

// TestPublishRejectionLeavesSessionIntact: a rejected PUBLISH must not
// rename the session's events, a counting session's events cannot be
// renamed at all, and a value count that matches no event list is
// refused.
func TestPublishRejectionLeavesSessionIntact(t *testing.T) {
	_, addr := startServer(t, Config{TickInterval: time.Hour})
	cl := dialT(t, addr)
	created, err := cl.Do(wire.Request{Op: wire.OpCreate,
		Events: []string{"PAPI_TOT_CYC"}, Workload: "dot", N: 8})
	if err != nil {
		t.Fatal(err)
	}
	id := created.Session

	// Mismatched values with renaming events: rejected, and the
	// session's original event list must survive untouched.
	if _, err := cl.Do(wire.Request{Op: wire.OpPublish, Session: id,
		Events: []string{"A", "B"}, Values: []int64{1}}); err == nil {
		t.Fatal("mismatched renaming publish accepted")
	}
	sub, err := cl.Do(wire.Request{Op: wire.OpSubscribe, Session: id})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Events) != 1 || sub.Events[0] != "PAPI_TOT_CYC" {
		t.Fatalf("rejected publish renamed session events to %v", sub.Events)
	}
	// Renaming a session that counts its own events is rejected even
	// with a consistent value count.
	if _, err := cl.Do(wire.Request{Op: wire.OpPublish, Session: id,
		Events: []string{"A", "B"}, Values: []int64{1, 2}}); err == nil {
		t.Fatal("renaming publish accepted on a session with real events")
	}
	// Value-only publish for the session's own events still works.
	if _, err := cl.Do(wire.Request{Op: wire.OpPublish, Session: id,
		Values: []int64{42}}); err != nil {
		t.Fatal(err)
	}
	read, err := cl.Do(wire.Request{Op: wire.OpRead, Session: id})
	if err != nil {
		t.Fatal(err)
	}
	if len(read.Values) != 1 || read.Values[0] != 42 {
		t.Errorf("READ after value-only publish: %v", read.Values)
	}
	// A value-only publish of the wrong count is refused, and the last
	// row stands.
	if _, err := cl.Do(wire.Request{Op: wire.OpPublish, Session: id,
		Values: []int64{1, 2}}); err == nil {
		t.Error("mismatched value-only publish accepted")
	}
	if read, err := cl.Do(wire.Request{Op: wire.OpRead, Session: id}); err != nil ||
		read.Seq != 1 || !slices.Equal(read.Values, []int64{42}) {
		t.Errorf("READ after a refused publish: %+v (%v), want seq 1 [42]", read, err)
	}
}

func TestProtocolErrors(t *testing.T) {
	_, addr := startServer(t, Config{})
	cl := dialT(t, addr)
	if _, err := cl.Do(wire.Request{Op: "FROB"}); err == nil {
		t.Error("unknown op accepted")
	}
	if _, err := cl.Do(wire.Request{Op: wire.OpRead, Session: 999}); err == nil {
		t.Error("READ on unknown session accepted")
	}
	if _, err := cl.Do(wire.Request{Op: wire.OpCreate, Platform: "vax-11"}); err == nil {
		t.Error("unknown platform accepted")
	}
	if _, err := cl.Do(wire.Request{Op: wire.OpCreate, Events: []string{"PAPI_NOPE"}}); err == nil {
		t.Error("unknown event accepted")
	}
	// A session with no events cannot START.
	created, err := cl.Do(wire.Request{Op: wire.OpCreate})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Do(wire.Request{Op: wire.OpStart, Session: created.Session}); err == nil {
		t.Error("START with an empty EventSet accepted")
	}
}

// TestQueryValidation: a reversed range or a negative step is a
// client bug and must come back as a wire ERROR, never as an empty
// series the client could mistake for "no data".
func TestQueryValidation(t *testing.T) {
	_, addr := startServer(t, Config{TickInterval: time.Hour})
	cl := dialT(t, addr)
	created, err := cl.Do(wire.Request{Op: wire.OpCreate, Workload: "none"})
	if err != nil {
		t.Fatal(err)
	}
	id := created.Session
	if _, err := cl.Do(wire.Request{Op: wire.OpPublish, Session: id,
		Events: []string{"PAPI_TOT_CYC"}, Values: []int64{42}}); err != nil {
		t.Fatal(err)
	}

	// from > to: rejected with a range error.
	resp, err := cl.Do(wire.Request{Op: wire.OpQuery, Session: id,
		From: 100, To: 50, Step: 0})
	if err == nil {
		t.Error("QUERY with from > to accepted")
	} else if !strings.Contains(resp.Error, "bad range") {
		t.Errorf("from > to error %q does not name the range", resp.Error)
	}
	// from == to is degenerate too (empty half-open window).
	if _, err := cl.Do(wire.Request{Op: wire.OpQuery, Session: id,
		From: 100, To: 100}); err == nil {
		t.Error("QUERY with from == to accepted")
	}
	// step < 0: rejected with a step error.
	resp, err = cl.Do(wire.Request{Op: wire.OpQuery, Session: id,
		From: 0, To: 1 << 62, Step: -1})
	if err == nil {
		t.Error("QUERY with negative step accepted")
	} else if !strings.Contains(resp.Error, "bad step") {
		t.Errorf("negative step error %q does not name the step", resp.Error)
	}
	// The connection survives the rejections and a valid query works.
	good, err := cl.Do(wire.Request{Op: wire.OpQuery, Session: id,
		From: 0, To: 1<<63 - 1, Step: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(good.Series) != 1 {
		t.Errorf("valid QUERY after rejections returned %d series, want 1", len(good.Series))
	}
}

// TestGracefulShutdown checks that Shutdown folds running sessions and
// returns with no goroutines stuck, even with live subscribers.
func TestGracefulShutdown(t *testing.T) {
	srv := New(Config{TickInterval: time.Millisecond})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	created, err := cl.Do(wire.Request{Op: wire.OpCreate,
		Events: []string{"PAPI_TOT_CYC"}, Workload: "dot", N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Do(wire.Request{Op: wire.OpStart, Session: created.Session}); err != nil {
		t.Fatal(err)
	}
	sub, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if _, err := sub.Do(wire.Request{Op: wire.OpSubscribe, Session: created.Session}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := Dial(addr.String()); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}
