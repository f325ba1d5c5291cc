package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/telemetry/tracing"
	"repro/internal/wire"
	"repro/tools/perfometer"
)

// TestTraceSlowOpRetained is the flight recorder's headline promise:
// a SlowOp-triggering request produces a warn line carrying a trace
// ID, the reply returns the same ID to the client, and the trace
// is tail-retained — retrievable through /debug/trace?id= in both
// native and Chrome trace-event form. There is no head sampling: only
// tail retention can keep the trace.
func TestTraceSlowOpRetained(t *testing.T) {
	var log logBuffer
	srv, addr := startServer(t, Config{TickInterval: time.Hour,
		SlowOp:    time.Nanosecond, // every op breaches, and every trace is kept
		TraceRing: 64,
		Logger:    log.logger()})
	cl := dialT(t, addr)
	if _, err := cl.Hello(); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Do(wire.Request{Op: wire.OpStats})
	if err != nil {
		t.Fatal(err)
	}
	if resp.TraceID == 0 {
		t.Fatal("reply carries no trace ID")
	}
	id := tracing.FormatID(resp.TraceID)
	tr := hangUpForTrace(t, srv, cl, resp.TraceID)

	lines := log.lines()
	warned := false
	for _, l := range lines {
		if strings.Contains(l, "slow op") && strings.Contains(l, "trace="+id) {
			warned = true
		}
	}
	if !warned {
		t.Errorf("no slow-op warn line carrying trace=%s in %q", id, lines)
	}

	view := tr.View()
	if view.Retained != "slow" || view.Sampled {
		t.Errorf("retained = %q, sampled = %v; want slow and unsampled", view.Retained, view.Sampled)
	}
	names := spanNames(view)
	for _, want := range []string{"STATS", "dispatch", "write"} {
		if !names[want] {
			t.Errorf("request trace lacks span %q; has %v", want, names)
		}
	}

	// Retrieval over the admin surface, both formats.
	h := tracing.TraceHandler(srv.trc)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?id="+id, nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), id) {
		t.Errorf("/debug/trace?id=%s: code %d body %s", id, rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?id="+id+"&format=chrome", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "traceEvents") ||
		!strings.Contains(rec.Body.String(), `"dispatch"`) {
		t.Errorf("chrome export wrong: code %d body %s", rec.Code, rec.Body.String())
	}

	// A second STATS sees the breach in the slow-sample ring, trace ID
	// attached.
	resp2, err := dialT(t, addr).Do(wire.Request{Op: wire.OpStats})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp2.Slow) == 0 {
		t.Fatal("STATS reply has no slow samples after a breach")
	}
	found := false
	for _, s := range resp2.Slow {
		if s.Op == wire.OpStats && s.TraceID == resp.TraceID {
			found = true
		}
	}
	if !found {
		t.Errorf("slow samples lack the STATS breach with trace %s: %+v", id, resp2.Slow)
	}
	// And the tracer's own counters surface through STATS.
	if resp2.Stats["traces_kept_slow"] == 0 {
		t.Errorf("traces_* STATS keys missing or zero: %v", resp2.Stats)
	}
}

// TestTraceDisabledByDefault: the Config zero value — a TraceRing of
// 0 — runs the untraced pipeline even with a slow threshold set: no
// trace IDs, no tracer, and the traces_* STATS keys read 0 the way
// their /metrics families do.
func TestTraceDisabledByDefault(t *testing.T) {
	srv, addr := startServer(t, Config{TickInterval: time.Hour, SlowOp: time.Nanosecond})
	if srv.trc != nil {
		t.Fatal("a Config with no TraceRing built a tracer")
	}
	cl := dialT(t, addr)
	if _, err := cl.Hello(); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Do(wire.Request{Op: wire.OpStats})
	if err != nil {
		t.Fatal(err)
	}
	if resp.TraceID != 0 {
		t.Errorf("untraced server returned trace ID %x", resp.TraceID)
	}
	for _, key := range []string{"traces_kept_slow", "traces_kept_err"} {
		if n, ok := resp.Stats[key]; !ok || n != 0 {
			t.Errorf("untraced server: %s = %d (present %v), want 0", key, n, ok)
		}
	}
	srv.tick() // must not panic with a nil tracer
}

// TestTracezWithRecorderOff: the admin mux serves /tracez and
// /debug/trace with the recorder off too, so perfometer -tracez against
// papid -trace-ring 0 renders the disabled recorder instead of failing
// on a 404, and a trace lookup answers that nothing is retained.
func TestTracezWithRecorderOff(t *testing.T) {
	srv, _ := startServer(t, Config{TickInterval: time.Hour})
	aaddr, err := srv.ListenAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + aaddr.String()
	var doc perfometer.TracezDoc
	if err := json.Unmarshal([]byte(adminGet(t, base+"/tracez?format=json")), &doc); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	perfometer.RenderTracez(&sb, doc)
	if !strings.Contains(sb.String(), "tracing disabled") {
		t.Errorf("perfometer -tracez against a disabled recorder printed:\n%s", sb.String())
	}
	resp, err := adminClient().Get(base + "/debug/trace?id=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), "not retained") {
		t.Errorf("/debug/trace with the recorder off: %s %q", resp.Status, body)
	}
}

// TestTraceTickStructure drives a hand tick on a server that keeps
// every trace and asserts the tick trace's anatomy: a root, one "shard"
// span and one "advance" span per registry shard, spread across the
// sweep workers when there are two, and no span per session or per row
// stage — those are on the stage histograms. The server is durable
// under -fsync always, so the tick trace also carries what its history
// write cost: tsdb.append around each worker's batch, wal.append
// annotated with the rows it journaled, and wal.fsync. With one sweep
// worker the trace is as large with 30 sessions as with 3; two workers
// write one or two batches, as the claims fall, so their span count is
// not compared.
func TestTraceTickStructure(t *testing.T) {
	spans := make(map[int]int)
	for _, c := range []struct{ sessions, workers int }{{3, 1}, {30, 1}, {30, 2}} {
		tick, nShards := tickTrace(t, c.sessions, c.workers)
		if c.workers == 1 {
			spans[c.sessions] = len(tick.Spans)
		}
		names := spanNames(tick)
		for _, want := range []string{"tick", "shard",
			"tsdb.append", "wal.append", "wal.fsync", "advance", "tsdb.sweep"} {
			if !names[want] {
				t.Errorf("%+v: tick trace lacks span %q; has %v", c, want, names)
			}
		}
		for _, gone := range []string{"session", "snapshot", "fanout", "derive", "encode"} {
			if names[gone] {
				t.Errorf("%+v: tick trace has a per-session %q span", c, gone)
			}
		}
		shards, advanced, journaled := 0, 0, int64(0)
		for _, sp := range tick.Spans {
			switch sp.Name {
			case "shard":
				shards++
			case "advance":
				advanced++
			case "wal.append":
				for _, a := range sp.Attrs {
					if a.Key == "rows" {
						journaled += a.Int
					}
				}
			}
		}
		if journaled != int64(c.sessions) {
			t.Errorf("%+v: wal.append spans account for %d rows, want %d", c, journaled, c.sessions)
		}
		if shards != nShards || advanced != nShards {
			t.Errorf("%+v: %d shard and %d advance spans, want %d of each", c, shards, advanced, nShards)
		}
	}
	if spans[3] != spans[30] {
		t.Errorf("tick trace has %d spans with 3 sessions and %d with 30, want the same", spans[3], spans[30])
	}
}

// tickTrace runs one hand tick of n running sessions, swept by the
// given number of workers, on a durable server that retains every
// trace and returns the tick's trace and the server's registry shard
// count.
func tickTrace(t *testing.T, n, workers int) (tracing.TraceView, int) {
	t.Helper()
	srv, _ := startServer(t, Config{TickInterval: time.Hour, tickWorkers: workers,
		SlowOp: time.Nanosecond, TraceRing: 8, DataDir: t.TempDir(), Fsync: "always",
		Groups: []string{"ipc"}})
	for i := 0; i < n; i++ {
		created := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate,
			Events: []string{"PAPI_TOT_INS", "PAPI_TOT_CYC"}, N: 8})
		if !created.OK {
			t.Fatal(created.Error)
		}
		if resp := srv.dispatch(nil, &wire.Request{Op: wire.OpStart,
			Session: created.Session}); !resp.OK {
			t.Fatal(resp.Error)
		}
	}
	srv.tick()
	tick, ok := retainedTick(t, srv)
	if !ok {
		t.Fatal("no tick trace retained at a 1ns slow threshold")
	}
	return tick, len(srv.reg.shards)
}

// retainedTick returns a tick trace from srv's ring.
func retainedTick(t *testing.T, srv *Server) (tracing.TraceView, bool) {
	t.Helper()
	for _, sum := range srv.trc.Summaries() {
		id, ok := tracing.ParseID(sum.ID)
		if !ok {
			t.Fatalf("unparseable summary ID %q", sum.ID)
		}
		if tr := srv.trc.Get(id); tr != nil && sum.Kind == "tick" {
			return tr.View(), true
		}
	}
	return tracing.TraceView{}, false
}

// TestTraceEncodeFailureRetained: a fan-out frame that cannot be
// encoded marks the trace that carried its row failed, so tail
// retention keeps it with no slow threshold set — a PUBLISH's trace on
// its fanout span, a tick's on the shard span that swept the session.
func TestTraceEncodeFailureRetained(t *testing.T) {
	encodeFault = errors.New("boom")
	defer func() { encodeFault = nil }()
	srv, addr := startServer(t, Config{TickInterval: time.Hour, TraceRing: 8})
	live := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate,
		Events: []string{"PAPI_TOT_INS"}, N: 8})
	if !live.OK {
		t.Fatal(live.Error)
	}
	if resp := srv.dispatch(nil, &wire.Request{Op: wire.OpStart, Session: live.Session}); !resp.OK {
		t.Fatal(resp.Error)
	}
	cl := dialT(t, addr)
	if _, err := cl.Hello(); err != nil {
		t.Fatal(err)
	}
	published, err := cl.Do(wire.Request{Op: wire.OpCreate, Workload: "none"})
	if err != nil {
		t.Fatal(err)
	}
	sub := testConn(srv, 8)
	for _, id := range []uint64{live.Session, published.Session} {
		sess, ok := srv.reg.get(id)
		if !ok {
			t.Fatalf("session %d not registered", id)
		}
		sub.follow(t, sess, nil, false)
	}

	srv.tick()
	tick, ok := retainedTick(t, srv)
	if !ok {
		t.Fatal("a tick whose fan-out failed to encode was not retained")
	}
	if tick.Retained != "error" || !strings.Contains(tick.Err, "encode") {
		t.Errorf("tick trace retained %q with error %q, want an encode error", tick.Retained, tick.Err)
	}
	if !spanHasAttr(tick, "shard", "encode_failures") {
		t.Errorf("no shard span carries encode_failures: %+v", tick.Spans)
	}

	resp, err := cl.Do(wire.Request{Op: wire.OpPublish, Session: published.Session,
		Events: []string{"PAPI_TOT_INS"}, Values: []int64{42}})
	if err != nil {
		t.Fatal(err)
	}
	view := hangUpForTrace(t, srv, cl, resp.TraceID).View()
	if view.Retained != "error" || !strings.Contains(view.Err, "encode") {
		t.Errorf("PUBLISH trace retained %q with error %q, want an encode error", view.Retained, view.Err)
	}
	if !spanHasAttr(view, "fanout", "encode_failures") {
		t.Errorf("PUBLISH fanout span lacks encode_failures: %+v", view.Spans)
	}
}

// spanHasAttr reports whether a span called name carries attribute key.
func spanHasAttr(v tracing.TraceView, name, key string) bool {
	for _, sp := range v.Spans {
		if sp.Name == name && slices.ContainsFunc(sp.Attrs, func(a tracing.Attr) bool { return a.Key == key }) {
			return true
		}
	}
	return false
}

// TestTracePublishStages: a traced PUBLISH records its pipeline stages
// (tsdb.append, fanout, derive) in the request trace and, on a durable
// server under -fsync always, the journal write and fsync its ack
// waited for.
func TestTracePublishStages(t *testing.T) {
	srv, addr := startServer(t, Config{TickInterval: time.Hour, SlowOp: time.Nanosecond,
		TraceRing: 64, DataDir: t.TempDir(), Fsync: "always"})
	cl := dialT(t, addr)
	if _, err := cl.Hello(); err != nil {
		t.Fatal(err)
	}
	created, err := cl.Do(wire.Request{Op: wire.OpCreate, Workload: "none"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Do(wire.Request{Op: wire.OpPublish, Session: created.Session,
		Events: []string{"PAPI_TOT_INS"}, Values: []int64{42}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.TraceID == 0 {
		t.Fatal("traced PUBLISH returned no trace ID")
	}
	names := spanNames(hangUpForTrace(t, srv, cl, resp.TraceID).View())
	for _, want := range []string{"PUBLISH", "dispatch", "tsdb.append", "wal.append", "wal.fsync",
		"fanout", "derive", "write"} {
		if !names[want] {
			t.Errorf("PUBLISH trace lacks span %q; has %v", want, names)
		}
	}
}

// TestTraceFinishedWhenWriterAbandonsBacklog: a request trace rides its
// reply frame and finishes when the frame is consumed, so a writer that
// gives up on a dead peer must settle the replies still queued behind
// the failed write — every started trace finishes, none leaks with its
// reply buffer. The peer pipelines requests and never reads; the
// connection's writes stall, the deadline trips, and the eviction finds
// a backlog several socket writes deep.
func TestTraceFinishedWhenWriterAbandonsBacklog(t *testing.T) {
	srv, addr := serveFaults(t, Config{TickInterval: time.Hour, SlowOp: time.Nanosecond, TraceRing: 64,
		WriteTimeout: 50 * time.Millisecond, WriteQueueDepth: 1024},
		func(int, net.Conn) faultnet.Faults { return faultnet.Faults{StallAfter: 512} })
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	const nReqs = 400 // ~70 reply bytes each: six write batches' worth
	var reqs []byte
	for i := 0; i < nReqs; i++ {
		if reqs, err = wire.AppendFrame(reqs, wire.CodecJSON, &wire.Request{Op: wire.OpHello}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nc.Write(reqs); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); stat(t, srv, "evictions") == 0; {
		if time.Now().After(deadline) {
			t.Fatal("stalled peer never evicted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// Every trace is over the 1ns slow threshold, so finishing one
	// retains it.
	ts := srv.trc.TracerStats()
	if ts.Started < nReqs/2 {
		t.Fatalf("only %d traces started; the backlog never built", ts.Started)
	}
	if ts.Started != ts.Retained {
		t.Errorf("%d traces started but only %d finished: the abandoned backlog leaked its traces",
			ts.Started, ts.Retained)
	}
}

// hangUpForTrace says BYE on cl, reads until the server closes the
// connection and returns trace id from the ring. The server finishes a
// request's trace when its writer settles the reply, and the writer
// closes the socket only after settling every frame, so each trace the
// connection started has finished, and each line its requests logged is
// written, by the time the connection ends.
func hangUpForTrace(t *testing.T, srv *Server, cl *Client, id uint64) *tracing.Trace {
	t.Helper()
	if _, err := cl.Do(wire.Request{Op: wire.OpBye}); err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := cl.Next(); err != nil {
			break
		}
	}
	tr := srv.trc.Get(id)
	if tr == nil {
		t.Fatalf("trace %s not retained", tracing.FormatID(id))
	}
	return tr
}

// spanNames collects a view's span names into a set.
func spanNames(v tracing.TraceView) map[string]bool {
	names := make(map[string]bool, len(v.Spans))
	for _, sp := range v.Spans {
		names[sp.Name] = true
	}
	return names
}
