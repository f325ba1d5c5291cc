package server

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/faultnet"
	"repro/internal/wire"
)

// countingClock is a fake clock that counts every reading taken of it:
// a Now, a Mono and a Stamp are one each.
type countingClock struct {
	*clock.Fake
	reads atomic.Int64
}

func (c *countingClock) Now() time.Time      { c.reads.Add(1); return c.Fake.Now() }
func (c *countingClock) Mono() time.Duration { c.reads.Add(1); return c.Fake.Mono() }
func (c *countingClock) Stamp() (time.Time, time.Duration) {
	c.reads.Add(1)
	return c.Fake.Stamp()
}

// The read budget: clock readings per unit of work with the flight
// recorder on (papid's default), counted exactly on one counting clock
// that the server, its tracer and its store all read.
const (
	// A live_fanout row — a running session followed by one binary and
	// one JSON subscriber under -groups ipc — reads the clock once per
	// boundary: the snapshot's end, each of its two encodes, the fan-out's
	// end, the derive evaluation's end, each of the DERIVED frame's two
	// encodes, the derive stage's end, and the end of its history append.
	readsPerRow = 9
	// A READ: the trace's start, the latency clock's start (the dispatch
	// span's too), the boundary between the dispatch and write spans, the
	// latency clock's end, the trace's finish, and the read and write
	// deadlines.
	readsPerRead = 7
	// A PUBLISH with no subscriber adds to a READ's: one reading for the
	// row's timestamp and its chain's start, the store's two around the
	// row, the end of the history append, the fan-out's end and the
	// derive stage's end.
	readsPerPublish = readsPerRead + 6
)

// TestReadBudget pins how often papid reads its clock: per tick row and
// per request, as the difference between two runs that differ only in
// the number of rows or requests, so the per-tick and per-connection
// readings cancel out. It also pins that each instrument observes once
// per unit of work — every stage once per row, every encode once per
// frame, the history append once per row — and that the sweep counts
// its frames on the worker's own counter stripe, one add per view, not
// one increment per subscriber on a random stripe.
func TestReadBudget(t *testing.T) {
	const k = 5 // ticks counted, after one that primes the derive engine
	rows := func(n int) (reads int64) {
		cc := &countingClock{Fake: clock.NewFake(time.Unix(1_700_000_000, 0))}
		srv := New(Config{TickInterval: time.Hour, Groups: []string{"ipc"}, TraceRing: 64,
			tickWorkers: 1, clock: cc, traceClock: cc})
		shutdownAtCleanup(t, srv)
		subs := [2]*conn{testConn(srv, 4*n*(k+1)), testConn(srv, 4*n*(k+1))}
		subs[wire.CodecBinary].codec.Store(uint32(wire.CodecBinary))
		for i := 0; i < n; i++ {
			created := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate,
				Events: []string{"PAPI_TOT_INS", "PAPI_TOT_CYC"}, Workload: "dot", N: 8})
			if resp := srv.dispatch(nil, &wire.Request{Op: wire.OpStart, Session: created.Session}); !resp.OK {
				t.Fatal(resp.Error)
			}
			sess, _ := srv.reg.get(created.Session)
			for _, c := range subs {
				c.follow(t, sess, nil, false)
			}
		}
		srv.tick() // the first row of a session derives nothing
		before := cc.reads.Load()
		for i := 0; i < k; i++ {
			cc.Advance(50 * time.Millisecond)
			srv.tick()
		}
		reads = cc.reads.Load() - before

		// Every row is snapshotted, fanned out, derived and appended;
		// every frame is encoded once, the row's SNAPSHOT and, after the
		// first, its DERIVED.
		rows, derived := uint64(n*(k+1)), uint64(n*k)
		sums := srv.Telemetry().Summaries()
		for key, want := range map[string]uint64{
			"stage/snapshot": rows, "stage/fanout": rows, "stage/derive": rows, "tsdb/append": rows,
			"stage/encode/json": rows + derived, "stage/encode/binary": rows + derived,
		} {
			if got := sums[key].Count; got != want {
				t.Errorf("n=%d: %s observed %d times over %d rows, want %d", n, key, got, rows, want)
			}
		}
		for codec, c := range subs {
			if got := uint64(len(c.popAll())); got != rows+derived {
				t.Errorf("n=%d: %s subscriber got %d frames, want %d", n, wire.Codec(codec), got, rows+derived)
			}
		}
		for kind, want := range map[frameKind]uint64{kindSnapshot: 2 * rows, kindDerived: 2 * derived} {
			ctr := srv.m.sent[kind]
			if v, own := ctr.Value(), ctr.Stripe(0); v != want || own != v {
				t.Errorf("n=%d: %s sent = %d, %d of them on the sweep worker's stripe; want %d, all of them",
					n, kindNames[kind], v, own, want)
			}
		}
		return reads
	}
	small, large := rows(4), rows(12)
	perRow := float64(large-small) / float64((12-4)*k)
	t.Logf("clock readings: %d over %d ticks of 4 rows, %d of 12: %.2f per row, %.1f per tick besides",
		small, k, large, perRow, float64(small)/k-4*perRow)
	if perRow != readsPerRow {
		t.Errorf("a tick row reads the clock %.2f times, want %d", perRow, readsPerRow)
	}

	requests := func(reads, publishes int) int64 {
		cc := &countingClock{Fake: clock.NewFake(time.Unix(1_700_000_000, 0))}
		srv := New(Config{TickInterval: time.Hour, Groups: []string{"ipc"}, TraceRing: 64,
			tickWorkers: 1, clock: cc, traceClock: cc})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		// The connection's deadlines run on the fake clock itself, not
		// on the counter: faultnet's own readings are not the server's.
		addr := srv.Serve(faultnet.Wrap(ln, func(int, net.Conn) faultnet.Faults {
			return faultnet.Faults{Clock: cc.Fake}
		}))
		shutdownAtCleanup(t, srv)
		cl := dialT(t, addr.String())
		read, err := cl.Do(wire.Request{Op: wire.OpCreate, Events: []string{"PAPI_TOT_CYC"}, Workload: "dot", N: 8})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Do(wire.Request{Op: wire.OpStart, Session: read.Session}); err != nil {
			t.Fatal(err)
		}
		pub, err := cl.Do(wire.Request{Op: wire.OpCreate, Workload: "none"})
		if err != nil {
			t.Fatal(err)
		}
		srv.tick() // a READ needs a row
		for i := 0; i < reads; i++ {
			if resp, err := cl.Do(wire.Request{Op: wire.OpRead, Session: read.Session}); err != nil || !resp.OK {
				t.Fatal(resp.Error, err)
			}
		}
		for i := 0; i < publishes; i++ {
			if resp, err := cl.Do(wire.Request{Op: wire.OpPublish, Session: pub.Session,
				Events: []string{"PAPI_TOT_INS", "PAPI_TOT_CYC"}, Values: []int64{int64(3 * i), int64(i)}}); err != nil || !resp.OK {
				t.Fatal(resp.Error, err)
			}
		}
		// The reader and the writer read the clock after each reply has
		// been sent, so only once the connection is gone are the
		// readings of every request in; the setup's, the same in every
		// run, cancel out in the differences.
		if _, err := cl.Do(wire.Request{Op: wire.OpBye}); err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := cl.Next(); err != nil {
				break
			}
		}
		open := func() int { // not Stats, whose uptime gauge reads the clock
			srv.connsMu.Lock()
			defer srv.connsMu.Unlock()
			return len(srv.conns)
		}
		for deadline := time.Now().Add(10 * time.Second); open() > 0; {
			if time.Now().After(deadline) {
				t.Fatal("connection never closed")
			}
			time.Sleep(time.Millisecond)
		}
		return cc.reads.Load()
	}
	base := requests(2, 2)
	perRead := float64(requests(10, 2)-base) / 8
	perPublish := float64(requests(2, 10)-base) / 8
	t.Logf("clock readings: %.2f per READ, %.2f per PUBLISH", perRead, perPublish)
	if perRead != readsPerRead {
		t.Errorf("a READ reads the clock %.2f times, want %d", perRead, readsPerRead)
	}
	if perPublish != readsPerPublish {
		t.Errorf("a PUBLISH reads the clock %.2f times, want %d", perPublish, readsPerPublish)
	}
}
