package server

import (
	"context"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/wire"
)

// ipcEvents is the event set the built-in `ipc` group needs; it fits
// every platform's counter budget, including linux-x86's two.
var ipcEvents = []string{"PAPI_TOT_INS", "PAPI_TOT_CYC"}

// TestDerivedSubscribeStream is the live end-to-end path: a client
// registers the ipc group at SUBSCRIBE time and must receive DERIVED
// frames carrying finite, plausible values alongside its snapshots.
func TestDerivedSubscribeStream(t *testing.T) {
	_, addr := startServer(t, Config{TickInterval: 2 * time.Millisecond})
	cl := dialT(t, addr)
	if _, err := cl.Hello(); err != nil {
		t.Fatal(err)
	}
	created, err := cl.Do(wire.Request{Op: wire.OpCreate,
		Events: ipcEvents, Workload: "dot", N: 16})
	if err != nil {
		t.Fatal(err)
	}
	id := created.Session
	if _, err := cl.Do(wire.Request{Op: wire.OpStart, Session: id}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Do(wire.Request{Op: wire.OpSubscribe, Session: id,
		Derive: []string{"ipc"}}); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no DERIVED frame within deadline")
		}
		resp, err := cl.Next()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Op != wire.OpDerived {
			continue
		}
		if len(resp.Metrics) != 2 || resp.Metrics[0] != "ipc" || resp.Metrics[1] != "mips" {
			t.Fatalf("DERIVED metrics = %v, want [ipc mips]", resp.Metrics)
		}
		if len(resp.DValues) != 2 || len(resp.Units) != 2 {
			t.Fatalf("DERIVED parallel slices: %d values, %d units", len(resp.DValues), len(resp.Units))
		}
		ipc := resp.DValues[0]
		if math.IsNaN(ipc) || math.IsInf(ipc, 0) || ipc <= 0 || ipc > 32 {
			t.Fatalf("ipc = %v, want finite positive and plausible", ipc)
		}
		if resp.Session != id || resp.Seq == 0 {
			t.Fatalf("DERIVED session/seq = %d/%d", resp.Session, resp.Seq)
		}
		return
	}
}

// TestSubscribeDeriveValidation: a derive registration naming an
// unknown group or needing events the session does not count is a wire
// ERROR — and leaves no subscription behind.
func TestSubscribeDeriveValidation(t *testing.T) {
	srv, addr := startServer(t, Config{TickInterval: time.Hour})
	cl := dialT(t, addr)
	if _, err := cl.Hello(); err != nil {
		t.Fatal(err)
	}
	created, err := cl.Do(wire.Request{Op: wire.OpCreate, Events: ipcEvents, Workload: "dot"})
	if err != nil {
		t.Fatal(err)
	}
	id := created.Session

	_, err = cl.Do(wire.Request{Op: wire.OpSubscribe, Session: id, Derive: []string{"nope"}})
	if err == nil || !strings.Contains(err.Error(), "unknown group") {
		t.Errorf("unknown group error = %v", err)
	}
	// flops needs PAPI_FP_OPS, which this session does not count.
	_, err = cl.Do(wire.Request{Op: wire.OpSubscribe, Session: id, Derive: []string{"flops"}})
	if err == nil || !strings.Contains(err.Error(), "does not count") {
		t.Errorf("uncovered group error = %v", err)
	}
	// Neither failed registration may have left a subscriber attached.
	srv.reg.forEach(func(sess *session) {
		sess.mu.Lock()
		defer sess.mu.Unlock()
		if len(sess.views) != 0 {
			t.Errorf("rejected SUBSCRIBE left %d views", len(sess.views))
		}
		if len(sess.deriveGroups) != 0 {
			t.Errorf("rejected SUBSCRIBE left groups %v registered", sess.deriveGroups)
		}
	})
}

// publishTicks drives a publish-only session through n evenly spaced
// cumulative snapshots under the injected clock.
func publishTicks(t *testing.T, srv *Server, id uint64, fk *clock.Fake,
	events []string, start []int64, step []int64, n int, dt time.Duration) {
	t.Helper()
	vals := append([]int64(nil), start...)
	for i := 0; i < n; i++ {
		fk.Advance(dt)
		if resp := srv.dispatch(nil, &wire.Request{Op: wire.OpPublish, Session: id,
			Events: events, Values: vals}); !resp.OK {
			t.Fatal(resp.Error)
		}
		for j := range vals {
			vals[j] += step[j]
		}
	}
}

// TestQueryDerived checks the derive-mode QUERY against a
// deterministic published history: constant per-interval deltas must
// come back as constant derived values, raw and rolled up.
func TestQueryDerived(t *testing.T) {
	fk := clock.NewFake(time.UnixMicro(1_000_000))
	srv, addr := startServer(t, Config{
		TickInterval: time.Hour, // history driven by PUBLISH below
		clock:        fk,
	})
	created := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate, Workload: "none"})
	if !created.OK {
		t.Fatal(created.Error)
	}
	id := created.Session
	// 20 snapshots, 100ms apart: +500 instructions, +1000 cycles each.
	publishTicks(t, srv, id, fk, []string{"PAPI_TOT_CYC", "PAPI_TOT_INS"},
		[]int64{0, 0}, []int64{1000, 500}, 20, 100*time.Millisecond)

	cl := dialT(t, addr)
	if _, err := cl.Hello(); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Do(wire.Request{Op: wire.OpQuery, Session: id,
		From: 0, To: fk.Now().UnixMicro() + 1, Derive: []string{"ipc"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Derived) != 2 {
		t.Fatalf("derived series = %d, want 2 (ipc, mips)", len(resp.Derived))
	}
	ipc := resp.Derived[0]
	if ipc.Metric != "ipc" || ipc.Unit != "instr/cycle" {
		t.Fatalf("series 0 = %s (%s), want ipc (instr/cycle)", ipc.Metric, ipc.Unit)
	}
	if len(ipc.Points) != 19 {
		t.Fatalf("ipc points = %d, want 19 (20 samples, consecutive pairs)", len(ipc.Points))
	}
	for _, p := range ipc.Points {
		if p.Value != 0.5 {
			t.Fatalf("ipc point at %d = %v, want 0.5", p.Start, p.Value)
		}
	}
	mips := resp.Derived[1]
	// rate(TOT_INS)/1e6 = (500 / 0.1s) / 1e6.
	for _, p := range mips.Points {
		if math.Abs(p.Value-0.005) > 1e-12 {
			t.Fatalf("mips point at %d = %v, want 0.005", p.Start, p.Value)
		}
	}

	// The rollup path (Step aligned to a configured width) must agree.
	rolled, err := cl.Do(wire.Request{Op: wire.OpQuery, Session: id,
		From: 0, To: fk.Now().UnixMicro() + 1, Step: 1_000_000, Derive: []string{"ipc"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rolled.Derived) != 2 || len(rolled.Derived[0].Points) == 0 {
		t.Fatalf("rollup derive reply: %+v", rolled.Derived)
	}
	for _, p := range rolled.Derived[0].Points {
		if p.Value != 0.5 {
			t.Fatalf("rollup ipc at %d = %v, want 0.5", p.Start, p.Value)
		}
	}
}

// TestQueryDerivedSeesWholeRows: a derived metric is only meaningful
// over counters taken at the same instant, so a QUERY reply must never
// hold part of a row. One connection PUBLISHes cumulative rows in which
// PAPI_TOT_INS is exactly twice PAPI_TOT_CYC while another asks for
// `ipc` over step windows: a reply that took one event's newest sample
// and not the other's would put a point off 2.
func TestQueryDerivedSeesWholeRows(t *testing.T) {
	fk := clock.NewFake(time.UnixMicro(1_000_000))
	srv, addr := startServer(t, Config{
		TickInterval: time.Hour, // history driven by PUBLISH below
		clock:        fk,
	})
	created := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate, Workload: "none"})
	if !created.OK {
		t.Fatal(created.Error)
	}
	id := created.Session
	pub, qry := dialT(t, addr), dialT(t, addr)
	publish := func(i int64) error {
		fk.Advance(100 * time.Microsecond) // ten rows per step window below
		cyc := i * (i + 1_000)
		_, err := pub.Do(wire.Request{Op: wire.OpPublish, Session: id,
			Events: ipcEvents, Values: []int64{2 * cyc, cyc}})
		return err
	}
	if err := publish(1); err != nil { // derive-mode QUERY refuses a session with no history
		t.Fatal(err)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(2); i <= 5_000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := publish(i); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() { close(stop); <-done }()
	for n := 0; ; n++ {
		select {
		case <-done:
			return
		default:
		}
		resp, err := qry.Do(wire.Request{Op: wire.OpQuery, Session: id,
			From: 0, To: math.MaxInt64, Step: 1_000, Derive: []string{"ipc"}})
		if err != nil {
			t.Fatal(err)
		}
		for _, ds := range resp.Derived {
			for _, p := range ds.Points {
				if ds.Metric == "ipc" && p.Value != 2 {
					t.Fatalf("reply %d: ipc at window %d = %v, want exactly 2", n, p.Start, p.Value)
				}
			}
		}
	}
}

// TestQueryDeriveErrors pins the loud-validation satellite: unknown
// groups and missing history both earn a wire ERROR — never an empty
// reply.
func TestQueryDeriveErrors(t *testing.T) {
	fk := clock.NewFake(time.UnixMicro(1_000_000))
	srv, addr := startServer(t, Config{
		TickInterval: time.Hour,
		clock:        fk,
	})
	created := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate, Workload: "none"})
	id := created.Session
	// Only TOT_INS recorded: ipc also needs TOT_CYC.
	publishTicks(t, srv, id, fk, []string{"PAPI_TOT_INS"},
		[]int64{0}, []int64{500}, 5, 100*time.Millisecond)

	cl := dialT(t, addr)
	if _, err := cl.Hello(); err != nil {
		t.Fatal(err)
	}
	_, err := cl.Do(wire.Request{Op: wire.OpQuery, Session: id,
		From: 0, To: fk.Now().UnixMicro() + 1, Derive: []string{"ipc"}})
	if err == nil || !strings.Contains(err.Error(), "PAPI_TOT_CYC") {
		t.Errorf("missing-event derive QUERY error = %v, want mention of PAPI_TOT_CYC", err)
	}
	_, err = cl.Do(wire.Request{Op: wire.OpQuery, Session: id,
		From: 0, To: fk.Now().UnixMicro() + 1, Derive: []string{"bogus"}})
	if err == nil || !strings.Contains(err.Error(), "unknown group") {
		t.Errorf("unknown-group derive QUERY error = %v", err)
	}
}

// TestDeriveConfigErrors: a bad -groups or -derive-rules value must
// fail Listen loudly, not serve without the requested metrics.
func TestDeriveConfigErrors(t *testing.T) {
	srv := New(Config{Groups: []string{"no-such-group"}})
	if _, err := srv.Listen("127.0.0.1:0"); err == nil ||
		!strings.Contains(err.Error(), "unknown group") {
		t.Errorf("Listen with bad group = %v", err)
	}
	// A rule that can never fire is as bad as a misspelled one: a metric
	// no group defines, a metric name ending in a space, a NaN bound.
	for _, spec := range []string{"ipc<", "ipcc<0.5", "ipc <0.5", "ipc<NaN"} {
		srv = New(Config{DeriveRules: []string{spec}})
		if _, err := srv.Listen("127.0.0.1:0"); err == nil {
			t.Errorf("Listen with rule %q succeeded", spec)
			srv.Shutdown(context.Background())
		}
	}
}

// TestReconnReplaysDeriveSubscription: a severed subscriber connection
// redials, re-handshakes, and replays its recorded SUBSCRIBE including
// the derive groups — the DERIVED stream resumes without caller help.
func TestReconnReplaysDeriveSubscription(t *testing.T) {
	fk := clock.NewFake(time.Unix(1_700_000_000, 0))
	srv, addr := startServer(t, Config{TickInterval: time.Hour, clock: fk})

	ctl := dialT(t, addr)
	created, err := ctl.Do(wire.Request{Op: wire.OpCreate,
		Events: ipcEvents, Workload: "dot", N: 16})
	if err != nil {
		t.Fatal(err)
	}
	id := created.Session
	if _, err := ctl.Do(wire.Request{Op: wire.OpStart, Session: id}); err != nil {
		t.Fatal(err)
	}

	rc, err := DialReconn(addr, RetryConfig{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	var derived atomic.Uint64
	rc.OnDerived = func(wire.Response) { derived.Add(1) }
	if _, err := rc.Subscribe(id, "ipc"); err != nil {
		t.Fatal(err)
	}

	// A tick's frames are queued ahead of the STATS reply that follows
	// it, so Do has handed them to OnDerived when it returns. The first
	// tick only primes the engine's deltas.
	tick := func() {
		t.Helper()
		fk.Advance(2 * time.Millisecond)
		srv.tick()
		if _, err := rc.Do(wire.Request{Op: wire.OpStats}); err != nil {
			t.Fatal(err)
		}
	}
	tick()
	tick()
	if n := derived.Load(); n != 1 {
		t.Fatalf("%d DERIVED frames after two ticks, want 1", n)
	}

	rc.cl.nc.Close() // sever behind the client's back
	tick()           // lost with the old connection; STATS reconnects
	tick()
	tick()
	if n := derived.Load(); n != 3 || rc.Reconnects != 1 {
		t.Errorf("%d DERIVED frames and %d reconnects, want 3 and 1", n, rc.Reconnects)
	}
}
