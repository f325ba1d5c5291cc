// The identities between papid's numbers about itself, made checkable:
// CounterPoint's method pointed at papid. The design implies equalities
// between its counters and histogram counts; a quiescent server — no
// request in flight and every write queue settled, as after Shutdown —
// whose numbers break one refutes the design, or the counting. Where an
// identity is exact one side is redundant, and the redundant side is
// gone: papid_ticks_total was the tick histogram's count,
// papid_traces_retained_total was kept_slow + kept_err, and
// papid_traces_started_total was the tick and op/* counts.
package server

import (
	"context"
	"fmt"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// driven is what a test did to a server that no number of papid's own
// records: the hand ticks it ran, the rows those ticks read, and the
// PUBLISHes papid accepted.
type driven struct{ ticks, tickRows, publishes uint64 }

// readings is one quiescent read of a server's numbers, beside what
// drove them.
type readings struct {
	driven
	stats map[string]uint64
	hists map[string]telemetry.Summary
	// retained and started are the tracer's own counts of the traces
	// its ring took and the traces it began, which have no family.
	retained, started uint64
	traced, durable   bool
	missing           []string // stats keys an identity read and STATS lacks
}

// stat reads one STATS key, noting a key STATS lacks: a misspelt or
// deleted key must not read as 0.
func (r *readings) stat(key string) uint64 {
	v, ok := r.stats[key]
	if !ok {
		r.missing = append(r.missing, key)
	}
	return v
}

// hist is the count of one histogram; an absent key has observed
// nothing.
func (r *readings) hist(key string) uint64 { return r.hists[key].Count }

// replies is every reply papid wrote: one per request it decoded (the
// op/<OP>/<codec> counts) and one ERROR per malformed frame it skipped.
func (r *readings) replies() uint64 {
	n := r.stat("resyncs")
	for key, sum := range r.hists {
		if strings.HasPrefix(key, "op/") {
			n += sum.Count
		}
	}
	return n
}

// identity is one equality between papid's numbers at quiescence.
type identity struct {
	name string
	// on, when set, says which servers the identity holds on.
	on       func(r *readings) bool
	lhs, rhs func(r *readings) uint64
}

func traced(r *readings) bool  { return r.traced }
func durable(r *readings) bool { return r.durable }

// journaledAll: a durable server none of whose writes failed — a row
// whose journal write failed is served from RAM, fanned out and not
// counted in wal_rows.
func journaledAll(r *readings) bool { return r.durable && r.stat("wal_write_errors") == 0 }

// identities is the table, each row confirmed by TestIdentities. Two
// candidates are refined, not taken as stated: the replies a writer
// puts on the wire include the ERROR answering each malformed frame,
// which no op histogram counts; and derive_evals is not stage/derive
// (TestIdentities: priming rows are evaluated, not counted).
var identities = []identity{
	{name: "the tick histogram counts the ticks run",
		lhs: func(r *readings) uint64 { return r.hist("tick") },
		rhs: func(r *readings) uint64 { return r.ticks }},
	{name: "every tick has one delivery pass",
		lhs: func(r *readings) uint64 { return r.hist("tick/deliver") },
		rhs: func(r *readings) uint64 { return r.hist("tick") }},
	{name: "stage/snapshot counts the rows ticks read",
		lhs: func(r *readings) uint64 { return r.hist("stage/snapshot") },
		rhs: func(r *readings) uint64 { return r.tickRows }},
	{name: "stage/fanout counts tick rows and accepted PUBLISHes",
		lhs: func(r *readings) uint64 { return r.hist("stage/fanout") },
		rhs: func(r *readings) uint64 { return r.hist("stage/snapshot") + r.publishes }},
	{name: "frames written are fan-out frames and replies kept",
		lhs: func(r *readings) uint64 { return r.stat("frames_sent_json") + r.stat("frames_sent_binary") },
		rhs: func(r *readings) uint64 {
			var kept uint64
			for _, kind := range []string{"snapshots", "deltas", "derived"} {
				kept += r.stat(kind+"_sent") - r.stat(kind+"_dropped")
			}
			return kept + r.replies() - r.stat("replies_dropped")
		}},
	{name: "a kept trace was kept slow or kept errored", on: traced,
		lhs: func(r *readings) uint64 { return r.retained },
		rhs: func(r *readings) uint64 { return r.stat("traces_kept_slow") + r.stat("traces_kept_err") }},
	{name: "every tick and every decoded request is traced", on: traced,
		lhs: func(r *readings) uint64 { return r.started },
		rhs: func(r *readings) uint64 { return r.hist("tick") + r.replies() - r.stat("resyncs") }},
	{name: "wal_fsyncs counts the wal/fsync histogram", on: durable,
		lhs: func(r *readings) uint64 { return r.stat("wal_fsyncs") },
		rhs: func(r *readings) uint64 { return r.hist("wal/fsync") }},
	{name: "every fanned-out row is journaled", on: journaledAll,
		lhs: func(r *readings) uint64 { return r.stat("wal_rows") },
		rhs: func(r *readings) uint64 { return r.hist("stage/fanout") }},
}

// checkIdentities reads srv once and fails t on every identity its
// numbers break. It returns each identity that applies to srv with its
// left-hand side, so a caller can tell a checked identity from one that
// held as 0 = 0.
func checkIdentities(t testing.TB, srv *Server, d driven) map[string]uint64 {
	t.Helper()
	ts := srv.trc.TracerStats()
	r := &readings{driven: d, stats: srv.Stats(), hists: srv.Telemetry().Summaries(),
		retained: ts.Retained, started: ts.Started, traced: srv.trc != nil, durable: srv.wal != nil}
	checked := make(map[string]uint64)
	for _, id := range identities {
		if id.on != nil && !id.on(r) {
			continue
		}
		lhs, rhs := id.lhs(r), id.rhs(r)
		if lhs != rhs {
			t.Errorf("identity broken: %s: %d != %d", id.name, lhs, rhs)
		}
		checked[id.name] = lhs
	}
	if len(r.missing) > 0 {
		t.Errorf("identities read STATS keys it lacks: %v", r.missing)
	}
	return checked
}

// everySubsystem serves a papid with every subsystem on — durable under
// -fsync always, -groups ipc with an always-breached threshold rule, a
// trace ring that keeps every trace, two sweep workers, the admin mux —
// on a fake clock, and drives it through each kind of traffic: a JSON
// and a binary subscriber, each on plain, events, delta and
// events+delta views; k hand ticks of two running sessions; PUBLISHes
// to two publish-only sessions from a JSON and a binary connection;
// two rejected PUBLISHes, a QUERY and a malformed line. Every request
// has its reply back when it returns. It returns the server, the admin
// base URL and what the traffic was; each of the four sessions with
// rows covers ipc.
func everySubsystem(t *testing.T) (*Server, string, driven) {
	t.Helper()
	const k = 6
	fk := clock.NewFake(time.Unix(1_700_000_000, 0))
	srv, addr := startServer(t, Config{TickInterval: time.Hour, tickWorkers: 2, KeyframeEvery: 3,
		DataDir: t.TempDir(), Fsync: "always", Groups: []string{"ipc"}, DeriveRules: []string{"ipc>0:1"},
		TraceRing: 8, SlowOp: time.Nanosecond, clock: fk})
	aaddr, err := srv.ListenAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	events := []string{"PAPI_TOT_INS", "PAPI_TOT_CYC"}

	ctl := dialT(t, addr)
	do := func(cl *Client, req wire.Request) wire.Response {
		t.Helper()
		resp, err := cl.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", req.Op, err)
		}
		return resp
	}
	var live, pub [2]uint64
	for i := range live {
		live[i] = do(ctl, wire.Request{Op: wire.OpCreate, Events: events, Workload: "dot", N: 8}).Session
		do(ctl, wire.Request{Op: wire.OpStart, Session: live[i]})
		pub[i] = do(ctl, wire.Request{Op: wire.OpCreate, Workload: "none", Label: fmt.Sprint("pub-", i)}).Session
	}

	for _, sub := range []*Client{dialT(t, addr), dialBinary(t, addr)} {
		for _, req := range []wire.Request{
			{Op: wire.OpSubscribe, Session: live[0]},
			{Op: wire.OpSubscribe, Session: live[1], Events: events[:1]},
			{Op: wire.OpSubscribe, Session: pub[0], Delta: true},
			{Op: wire.OpSubscribe, Session: pub[1], Events: events[1:], Delta: true},
		} {
			do(sub, req)
		}
		go func() { // reads until the connection closes
			for {
				if _, err := sub.Next(); err != nil {
					return
				}
			}
		}()
	}

	var d driven
	pubs := []*Client{dialT(t, addr), dialBinary(t, addr)}
	vals := [2][]int64{{0, 0}, {0, 0}}
	for step := 0; step < k; step++ {
		fk.Advance(10 * time.Millisecond)
		srv.tick()
		d.ticks++
		d.tickRows += uint64(len(live))
		for i, cl := range pubs {
			s := (step + i) % len(pub)
			vals[s][0] += int64(3 + step)
			vals[s][1] += int64(5 + i)
			do(cl, wire.Request{Op: wire.OpPublish, Session: pub[s], Events: events, Values: vals[s]})
			d.publishes++
		}
	}
	for _, req := range []wire.Request{
		{Op: wire.OpPublish, Session: math.MaxUint32, Events: events, Values: vals[0]},
		// A row of no events, to a session that names none: nothing
		// history could journal, so nothing to fan out either.
		{Op: wire.OpPublish, Session: do(ctl, wire.Request{Op: wire.OpCreate, Workload: "none"}).Session},
	} {
		if resp, err := pubs[0].Do(req); err == nil {
			t.Fatalf("PUBLISH %+v accepted: %+v", req, resp)
		}
	}
	do(ctl, wire.Request{Op: wire.OpQuery, Session: pub[0], To: math.MaxInt64})

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	fmt.Fprintln(raw, "{nonsense")
	if _, err := raw.Read(make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	return srv, "http://" + aaddr.String(), d
}

// TestIdentities confirms every identity on a server that has seen
// every kind of traffic, after Shutdown has settled every queue and
// writer, with both sides of each identity nonzero. It also pins the
// one refuted candidate as a documented exception: derive_evals counts
// the evaluations that produced values, and a session's first row with
// its groups bound only primes the engine, so stage/derive exceeds
// derive_evals by one row per session (a counter going backwards
// re-primes too; nothing here restarts).
func TestIdentities(t *testing.T) {
	srv, _, d := everySubsystem(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	checked := checkIdentities(t, srv, d)
	for _, id := range identities {
		if v, ok := checked[id.name]; !ok || v == 0 {
			t.Errorf("%s: not checked, or 0 on both sides (%d)", id.name, v)
		} else {
			t.Logf("%s: %d", id.name, v)
		}
	}
	for _, k := range []string{"resyncs", "deltas_sent", "derived_sent", "frames_sent_binary",
		"traces_kept_slow", "traces_kept_err"} {
		if stat(t, srv, k) == 0 {
			t.Errorf("%s is 0: the traffic never exercised it", k)
		}
	}
	const primed = 4 // two ticked and two published sessions, each covering ipc
	derived := srv.Telemetry().Summaries()["stage/derive"].Count
	if evals := stat(t, srv, "derive_evals"); evals+primed != derived {
		t.Errorf("derive_evals %d + %d primed rows != stage/derive %d", evals, primed, derived)
	}
}
