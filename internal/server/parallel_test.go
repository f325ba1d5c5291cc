// Tests for the parallel tick pipeline (tick.go, DESIGN.md S31): the
// per-session ordering invariants the sharded sweep must preserve at
// every worker count, the serial-equivalence guarantee of width 1, and
// the durability of served tick rows. Run under -race by
// tools/ci.sh — most of what these tests certify is the absence of
// cross-worker interference, which only the race detector and the
// byte-level stream comparisons can see.
package server

import (
	"context"
	"log/slog"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/tsdb"
	"repro/internal/wire"
)

// parallelHarness builds a hand-ticked server with nSessions counting
// sessions, one subscribed testConn each (queue depth queueCap,
// caller-drained), spread across registry shards.
type parallelHarness struct {
	srv   *Server
	ids   []uint64
	conns []*conn
}

func newParallelHarness(t *testing.T, cfg Config, nSessions, queueCap int) *parallelHarness {
	t.Helper()
	h := &parallelHarness{srv: New(cfg)}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		h.srv.Shutdown(ctx)
	})
	for i := 0; i < nSessions; i++ {
		created := h.srv.dispatch(nil, &wire.Request{Op: wire.OpCreate,
			Events: []string{"PAPI_TOT_INS", "PAPI_TOT_CYC"}, Workload: "dot", N: 8})
		if !created.OK {
			t.Fatal(created.Error)
		}
		sess, ok := h.srv.reg.get(created.Session)
		if !ok {
			t.Fatal("session not registered")
		}
		c := testConn(h.srv, queueCap)
		c.follow(t, sess, nil, false)
		if resp := h.srv.dispatch(nil, &wire.Request{Op: wire.OpStart,
			Session: created.Session}); !resp.OK {
			t.Fatal(resp.Error)
		}
		h.ids = append(h.ids, created.Session)
		h.conns = append(h.conns, c)
	}
	return h
}

// TestParallelTickSeqMonotonic: with the sweep at full width, every
// subscriber still sees its session's snapshots in strictly increasing,
// gapless Seq order — the per-session ordering invariant the shard
// partitioning exists to preserve. Queues are deep enough that nothing
// drops, so any gap or reorder is a sweep bug, not backpressure.
func TestParallelTickSeqMonotonic(t *testing.T) {
	const nSessions, nTicks = 32, 10
	h := newParallelHarness(t, Config{TickInterval: time.Hour, tickWorkers: 8},
		nSessions, nTicks+2)
	for i := 0; i < nTicks; i++ {
		h.srv.tick()
	}
	for i, c := range h.conns {
		frames := c.popResponses(t)
		if len(frames) != nTicks {
			t.Fatalf("session %d: %d frames, want %d", h.ids[i], len(frames), nTicks)
		}
		for j, f := range frames {
			if f.Session != h.ids[i] {
				t.Fatalf("session %d received session %d's frame", h.ids[i], f.Session)
			}
			if want := uint64(j + 1); f.Seq != want {
				t.Fatalf("session %d frame %d: seq %d, want %d (gapless, in order)",
					h.ids[i], j, f.Seq, want)
			}
		}
	}
	if sent, dropped := stat(t, h.srv, "snapshots_sent"), stat(t, h.srv, "snapshots_dropped"); dropped != 0 ||
		sent != uint64(nSessions*nTicks) {
		t.Fatalf("sent=%d dropped=%d, want %d/0", sent, dropped, nSessions*nTicks)
	}
}

// TestParallelSerialEquivalence: a tickWorkers=1 server and a
// tickWorkers=8 server fed identical inputs produce byte-identical
// per-subscriber frame streams. Width 1 is the same sweep with no
// helpers — every shard in order on the tick goroutine; this pins that
// higher widths change scheduling only, never any session's stream
// content or order.
func TestParallelSerialEquivalence(t *testing.T) {
	const nSessions, nTicks = 16, 6
	run := func(workers int) map[uint64][]string {
		h := newParallelHarness(t, Config{TickInterval: time.Hour, tickWorkers: workers},
			nSessions, nTicks+2)
		for i := 0; i < nTicks; i++ {
			h.srv.tick()
		}
		streams := make(map[uint64][]string, nSessions)
		for i, c := range h.conns {
			streams[h.ids[i]] = c.popAll()
		}
		return streams
	}
	serial, parallel := run(1), run(8)
	for id, want := range serial {
		got := parallel[id]
		if len(got) != len(want) {
			t.Fatalf("session %d: %d frames parallel vs %d serial", id, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("session %d frame %d diverged:\nserial:   %s\nparallel: %s",
					id, i, want[i], got[i])
			}
		}
	}
}

// TestParallelDeltaRekeyAfterDrop: a delta subscriber that drops frames
// under the parallel sweep is re-anchored — the first frame it receives
// after a drop is a full keyframe, never a DELTA chained to an epoch it
// may have lost. This is the delta-correctness invariant under
// concurrent sweep workers plus backpressure.
func TestParallelDeltaRekeyAfterDrop(t *testing.T) {
	srv := New(Config{TickInterval: time.Hour, tickWorkers: 8,
		KeyframeEvery: 1 << 30})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	created := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate,
		Events: []string{"PAPI_TOT_INS", "PAPI_TOT_CYC"}, Workload: "dot", N: 8})
	if !created.OK {
		t.Fatal(created.Error)
	}
	sess, _ := srv.reg.get(created.Session)
	c := testConn(srv, 2)
	c.follow(t, sess, nil, true)
	if resp := srv.dispatch(nil, &wire.Request{Op: wire.OpStart,
		Session: created.Session}); !resp.OK {
		t.Fatal(resp.Error)
	}

	srv.tick() // anchors the epoch
	frames := c.popResponses(t)
	if len(frames) != 1 || frames[0].Op != wire.OpSnapshot {
		t.Fatalf("first frame: %+v, want one keyframe SNAPSHOT", frames)
	}
	// Undrained ticks overflow the 2-deep queue: deltas drop, and one
	// of the lost frames could have been a keyframe.
	for i := 0; i < 5; i++ {
		srv.tick()
	}
	if stat(t, srv, "deltas_dropped") == 0 {
		t.Fatal("no deltas dropped; the test never created the resync condition")
	}
	c.popAll()
	srv.tick()
	after := c.popResponses(t)
	if len(after) == 0 {
		t.Fatal("no frame after resync tick")
	}
	if after[0].Op != wire.OpSnapshot {
		t.Fatalf("first frame after drop is %s, want a keyframe SNAPSHOT", after[0].Op)
	}
}

// TestParallelDerivedFollowsSnapshot: under the parallel sweep, every
// DERIVED frame a subscriber receives carries the Seq of the SNAPSHOT
// frame immediately before it in its queue — evaluation and both
// fan-outs of one session-tick stay a single unit on one worker.
func TestParallelDerivedFollowsSnapshot(t *testing.T) {
	srv := New(Config{TickInterval: time.Hour, tickWorkers: 8, Groups: []string{"ipc"}})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	const nSessions, nTicks = 8, 6
	var conns []*conn
	for i := 0; i < nSessions; i++ {
		created := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate,
			Events: []string{"PAPI_TOT_INS", "PAPI_TOT_CYC"}, Workload: "dot", N: 8})
		if !created.OK {
			t.Fatal(created.Error)
		}
		sess, _ := srv.reg.get(created.Session)
		c := testConn(srv, 4*nTicks)
		c.follow(t, sess, nil, false)
		if resp := srv.dispatch(nil, &wire.Request{Op: wire.OpStart,
			Session: created.Session}); !resp.OK {
			t.Fatal(resp.Error)
		}
		conns = append(conns, c)
	}
	for i := 0; i < nTicks; i++ {
		srv.tick()
	}
	derived := 0
	for _, c := range conns {
		frames := c.popResponses(t)
		var lastSnap uint64
		for _, f := range frames {
			switch f.Op {
			case wire.OpSnapshot:
				lastSnap = f.Seq
			case wire.OpDerived:
				derived++
				if f.Seq != lastSnap {
					t.Fatalf("DERIVED seq %d after SNAPSHOT seq %d; must match", f.Seq, lastSnap)
				}
			default:
				t.Fatalf("unexpected op %s", f.Op)
			}
		}
	}
	// The first tick only primes deltas, so nTicks-1 evaluations per
	// session reach the subscriber.
	if want := nSessions * (nTicks - 1); derived != want {
		t.Fatalf("%d DERIVED frames, want %d", derived, want)
	}
}

// TestServedTickRowsSurviveShutdown: on a durable server whose tick
// loop is running, the rows QUERY serves before a graceful shutdown are
// a prefix of what a restart serves, and the restart holds exactly one
// row per snapshot the session took — Shutdown joins the tick loop, and
// every tick that returned has already journaled its rows.
func TestServedTickRowsSurviveShutdown(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		TickInterval:  time.Millisecond,
		tickWorkers:   8,
		TSDBRetention: -1,
		DataDir:       dir,
		Fsync:         "off",
	}
	srv, addr := startServer(t, cfg)
	cl := dialT(t, addr)
	created, err := cl.Do(wire.Request{Op: wire.OpCreate,
		Events: []string{"PAPI_TOT_INS", "PAPI_TOT_CYC"}, Workload: "dot", N: 8})
	if err != nil {
		t.Fatal(err)
	}
	id := created.Session
	if _, err := cl.Do(wire.Request{Op: wire.OpSubscribe, Session: id}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Do(wire.Request{Op: wire.OpStart, Session: id}); err != nil {
		t.Fatal(err)
	}
	// The 40th snapshot arriving means at least 39 ticks have returned.
	for {
		snap, err := cl.Next()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Seq >= 40 {
			break
		}
	}
	cl.Close()

	// Ticks keep producing rows until Shutdown, so the row set is only
	// final afterwards: one row per snapshot the session took (its seq).
	// What QUERY served before the drain must survive as a prefix, and
	// the restart must replay exactly seq rows per event.
	rawRows := func(s *Server) []tsdb.Series {
		t.Helper()
		resp := s.dispatch(nil, &wire.Request{Op: wire.OpQuery, Session: id, From: 0, To: 1 << 60})
		if !resp.OK {
			t.Fatalf("QUERY: %s", resp.Error)
		}
		return resp.Series
	}
	sess, _ := srv.reg.get(id)
	want := rawRows(srv)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	sess.mu.Lock()
	produced := int(sess.seq)
	sess.mu.Unlock()

	srv2 := New(Config{TickInterval: time.Hour, TSDBRetention: -1, DataDir: dir, Fsync: "off"})
	if srv2.walErr != nil {
		t.Fatalf("wal reopen: %v", srv2.walErr)
	}
	defer srv2.Shutdown(context.Background())
	got := rawRows(srv2)
	if len(got) != len(want) {
		t.Fatalf("%d series after restart, %d before", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if len(w.Buckets) < 39 {
			t.Errorf("%s: QUERY served %d rows after the 40th snapshot arrived: a returned tick's row was not yet in the store",
				w.Event, len(w.Buckets))
		}
		if len(g.Buckets) != produced {
			t.Errorf("%s: %d rows after restart, ticks produced %d",
				g.Event, len(g.Buckets), produced)
		}
		if g.Event != w.Event || len(g.Buckets) < len(w.Buckets) ||
			!slices.Equal(g.Buckets[:len(w.Buckets)], w.Buckets) {
			t.Errorf("%s: rows served before the restart are not a prefix of the replayed ones:\nbefore: %v\nafter:  %v",
				w.Event, w.Buckets, g.Buckets)
		}
	}
}

// sinkConn is the socket under a recConn for a hand-built connection:
// it takes every byte and counts the writes that completed while the
// test had a tick in flight. With gate set, every Write first waits
// for the gate to close — a peer that has stopped reading.
type sinkConn struct {
	net.Conn   // nil: only the methods writeLoop uses are implemented
	inTick     atomic.Bool
	duringTick atomic.Int32
	gate       chan struct{}
	blocked    chan struct{} // closed when the first gated Write parks
	parked     sync.Once
}

func (c *sinkConn) Write(p []byte) (int, error) {
	if c.gate != nil {
		c.parked.Do(func() { close(c.blocked) })
		<-c.gate
	}
	if c.inTick.Load() {
		c.duringTick.Add(1)
	}
	return len(p), nil
}

func (c *sinkConn) Close() error                     { return nil }
func (c *sinkConn) SetWriteDeadline(time.Time) error { return nil }

// TestSweepHandsFramesOffBeforeItEnds pins the shard-boundary
// scheduling point (tick.go, runSweep) in the configuration where it is
// deterministic: one P, one sweep worker. The connection's writer can
// only run if the sweep yields, so at least one socket write completing
// before tick() returns is the yield; without it the count is 0 and
// every frame waits for the sweep to end. Frames must still arrive in
// per-session seq order, and a second subscriber whose socket has
// stopped taking bytes must not hold the sweep: tick() returns with
// that writer still parked in Write.
func TestSweepHandsFramesOffBeforeItEnds(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const nSessions, nTicks = 64, 5
	srv := New(Config{TickInterval: time.Hour, tickWorkers: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	sink := &sinkConn{}
	stuck := &sinkConn{gate: make(chan struct{}), blocked: make(chan struct{})}
	rec, stuckRec := &recConn{Conn: sink}, &recConn{Conn: stuck}
	conns := make([]*conn, 2)
	for i, nc := range []net.Conn{rec, stuckRec} {
		c := testConn(srv, nSessions*nTicks+1)
		c.nc, c.log = nc, slog.New(slog.DiscardHandler)
		srv.wg.Add(1)
		go c.writeLoop()
		conns[i] = c
	}
	t.Cleanup(func() {
		close(stuck.gate)
		for _, c := range conns {
			c.q.close()
		}
	})
	shards := map[*regShard]bool{}
	for i := 0; i < nSessions; i++ {
		created := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate,
			Events: []string{"PAPI_TOT_INS", "PAPI_TOT_CYC"}, Workload: "dot", N: 8})
		if !created.OK {
			t.Fatal(created.Error)
		}
		sess, _ := srv.reg.get(created.Session)
		shards[srv.reg.shardFor(sess.id)] = true
		for _, c := range conns {
			c.follow(t, sess, nil, false)
		}
		if resp := srv.dispatch(nil, &wire.Request{Op: wire.OpStart, Session: created.Session}); !resp.OK {
			t.Fatal(resp.Error)
		}
	}
	if len(shards) < 4 {
		t.Fatalf("sessions landed in %d shards, want >= 4", len(shards))
	}

	for i := 0; i < nTicks; i++ {
		sink.inTick.Store(true)
		srv.tick()
		sink.inTick.Store(false)
	}
	select {
	case <-stuck.blocked:
	default:
		t.Error("the stuck subscriber's writer never reached its socket during the ticks")
	}
	if n := len(stuckRec.frames()); n != 0 {
		t.Errorf("the stuck subscriber's socket took %d frames", n)
	}

	deadline := time.Now().Add(10 * time.Second)
	var frames []wire.Response
	for len(frames) < nSessions*nTicks {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d frames reached the socket", len(frames), nSessions*nTicks)
		}
		runtime.Gosched()
		frames = rec.frames()
	}
	if sink.duringTick.Load() == 0 {
		t.Error("no socket write completed before tick() returned: the sweep never yielded to the writers")
	}
	next := map[uint64]uint64{}
	for _, f := range frames {
		if next[f.Session]++; f.Seq != next[f.Session] {
			t.Fatalf("session %d: seq %d arrived where %d was due", f.Session, f.Seq, next[f.Session])
		}
	}
	if n := stat(t, srv, "snapshots_dropped"); n != 0 {
		t.Errorf("%d snapshots dropped with queues deeper than the run", n)
	}
}

// TestTicksSkipped drives the tick clock by hand: ticks that start on
// the interval grid, or late by less than one interval, count nothing;
// a tick that starts after whole intervals went by unanswered counts
// each of them, including under a sustained overrun where every single
// gap is under two intervals. The count reads the same from Stats, the
// STATS reply and /metrics.
func TestTicksSkipped(t *testing.T) {
	const iv = int64(50_000) // 50 ms in the clock's microseconds
	for _, tc := range []struct {
		name   string
		starts []float64 // tick start times, in intervals
		want   uint64
	}{
		{"on time with jitter", []float64{0.02, 1.0, 2.01, 2.99, 4.0}, 0},
		{"one long sweep", []float64{0, 2.7, 3.0, 4.0}, 1},
		{"sustained 1.5x overrun", []float64{0, 1.5, 3.0, 4.5, 6.0}, 2},
		{"late tick then longer sweep", []float64{0, 2.7, 5.2, 6.0}, 3},
		{"hand-driven burst", []float64{0, 0.001, 0.002, 0.003}, 0},
	} {
		base := time.UnixMicro(1_700_000_000_000_000)
		fk := clock.NewFake(base)
		srv := New(Config{TickInterval: time.Duration(iv) * time.Microsecond, tickWorkers: 1, clock: fk})
		for _, at := range tc.starts {
			fk.Advance(base.Add(time.Duration(at*float64(iv)) * time.Microsecond).Sub(fk.Now()))
			srv.tick()
		}
		if got := stat(t, srv, "ticks_skipped"); got != tc.want {
			t.Errorf("%s: %d ticks skipped, want %d", tc.name, got, tc.want)
		}
		if got, ok := srv.dispatch(nil, &wire.Request{Op: wire.OpStats}).Stats["ticks_skipped"]; !ok || got != tc.want {
			t.Errorf("%s: STATS ticks_skipped = %d (present: %v), want %d", tc.name, got, ok, tc.want)
		}
		var sb strings.Builder
		if err := srv.Telemetry().WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), "papid_ticks_skipped_total") {
			t.Errorf("%s: /metrics lacks papid_ticks_skipped_total", tc.name)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		srv.Shutdown(ctx)
		cancel()
	}
}

// TestSweepWidthFollowsGOMAXPROCS: no flag or exported field sets the
// sweep width; it is min(GOMAXPROCS, regShards), which STATS reports as
// tick_workers, and GOMAXPROCS=1 is the serial sweep.
func TestSweepWidthFollowsGOMAXPROCS(t *testing.T) {
	for _, procs := range []int{1, 2, 4 * regShards} {
		prev := runtime.GOMAXPROCS(procs)
		srv := New(Config{TickInterval: time.Hour})
		runtime.GOMAXPROCS(prev)
		if n := stat(t, srv, "tick_workers"); n != uint64(min(procs, regShards)) {
			t.Errorf("GOMAXPROCS=%d: tick_workers %d, want %d", procs, n, min(procs, regShards))
		}
	}
}
