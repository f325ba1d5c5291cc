package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// logBuffer collects a server's structured log as text lines, one
// record per line ("... msg=\"papid: slow op\" conn=1 op=STATS ...").
type logBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *logBuffer) lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Split(b.sb.String(), "\n")
}

func (b *logBuffer) logger() *slog.Logger {
	return slog.New(slog.NewTextHandler(b, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

// adminClient is an HTTP client safe for goroutine-leak-checking
// tests: no keep-alive connections survive the scrape.
func adminClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{DisableKeepAlives: true},
	}
}

// adminGet fetches one admin-endpoint URL, failing the test on
// anything but a 200.
func adminGet(t *testing.T, url string) string {
	t.Helper()
	hc := adminClient()
	defer hc.CloseIdleConnections()
	resp, err := hc.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestAdminEndpoint drives real traffic through papid and scrapes the
// admin listener: /metrics must expose the per-op latency histograms,
// and queue-depth gauges in parseable Prometheus text,
// /statusz must be a JSON document carrying the same stats, and the
// whole surface must go away on Shutdown.
func TestAdminEndpoint(t *testing.T) {
	srv, addr := startServer(t, Config{TickInterval: time.Hour})
	aaddr, err := srv.ListenAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + aaddr.String()
	get := func(path string) string { return adminGet(t, base+path) }

	// Traffic: a session with a subscriber, a READ, a STATS.
	cl := dialT(t, addr)
	if _, err := cl.Hello(); err != nil {
		t.Fatal(err)
	}
	created, err := cl.Do(wire.Request{Op: wire.OpCreate,
		Events: []string{"PAPI_TOT_CYC"}, Workload: "dot", N: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{wire.OpStart, wire.OpSubscribe, wire.OpRead} {
		if _, err := cl.Do(wire.Request{Op: op, Session: created.Session}); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
	}
	srv.tick() // the READ reply came after the subscription went live

	metrics := get("/metrics")
	for _, want := range []string{
		"# TYPE papid_op_latency_seconds histogram",
		`papid_op_latency_seconds_bucket{codec="json",op="READ",le="+Inf"}`,
		"papid_op_latency_seconds_count",
		"# TYPE papid_sessions gauge",
		"papid_sessions 1",
		"papid_write_queue_frames",
		"papid_snapshots_sent_total",
		"papid_tick_duration_seconds_count",
		"papid_tick_deliver_seconds_count",
		`papid_frames_sent_total{codec="json"}`,
		"papid_tsdb_append_seconds_count",
		"papid_goroutines",
		"papid_uptime_seconds",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	// Every sample line must parse as "<name>{...} <float>".
	for _, line := range strings.Split(metrics, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		var f float64
		if _, err := fmt.Sscanf(line[sp+1:], "%g", &f); err != nil {
			t.Fatalf("sample %q value: %v", line, err)
		}
	}

	var status struct {
		Stats map[string]uint64            `json:"stats"`
		Hists map[string]telemetry.Summary `json:"hists"`
	}
	if err := json.Unmarshal([]byte(get("/statusz")), &status); err != nil {
		t.Fatalf("/statusz is not the status document: %v", err)
	}
	if status.Stats["sessions"] != 1 || status.Stats["snapshots_sent"] == 0 {
		t.Errorf("/statusz stats: %+v", status.Stats)
	}
	if s, ok := status.Hists["op/READ/json"]; !ok || s.Count == 0 || s.P50 <= 0 {
		t.Errorf("/statusz hists lack op/READ/json quantiles: %+v", status.Hists)
	}
	// The delivery pass is part of the tick, so it cannot take longer.
	if d, tk := status.Hists["tick/deliver"], status.Hists["tick"]; d.Count != 1 || tk.Count != 1 || d.Sum > tk.Sum {
		t.Errorf("/statusz hists tick/deliver %+v, tick %+v: want one observation each, deliver within tick", d, tk)
	}

	if !strings.Contains(get("/debug/pprof/"), "goroutine") {
		t.Error("/debug/pprof/ index not served")
	}

	// Shutdown (the t.Cleanup from startServer) must close the admin
	// listener; verify eagerly so the failure names the right actor.
	cl.Close()
	shutdownServer(t, srv)
	if _, err := net.DialTimeout("tcp", aaddr.String(), time.Second); err == nil {
		t.Error("admin listener still accepting after Shutdown")
	}
}

// shutdownServer drains srv now (idempotent with the cleanup hook).
func shutdownServer(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestStatsHistsOverBinaryCodec: the binary codec carries the summary
// map losslessly end to end.
func TestStatsHistsOverBinaryCodec(t *testing.T) {
	_, addr := startServer(t, Config{TickInterval: time.Hour})
	cl := dialBinary(t, addr)
	resp, err := cl.Do(wire.Request{Op: wire.OpStats})
	if err != nil {
		t.Fatal(err)
	}
	// The HELLO itself was measured; its quantiles must be sane ns.
	s, ok := resp.Hists["op/HELLO/json"] // HELLO is answered in JSON pre-upgrade
	if !ok {
		t.Fatalf("binary STATS hists: %v", resp.Hists)
	}
	if s.Count == 0 || s.P50 <= 0 || s.P50 > s.P99 || s.P99 > s.Max+s.Max/4+1 {
		t.Errorf("implausible HELLO summary over binary: %+v", s)
	}
}

// TestSlowOpWarning: a threshold of 1ns flags every op; the warn line
// must carry the op name and the connection id. The connection queues
// the reply before it logs the op, so the line may land just after the
// reply does: the test waits for it, up to 10 s.
func TestSlowOpWarning(t *testing.T) {
	var log logBuffer
	_, addr := startServer(t, Config{TickInterval: time.Hour, SlowOp: time.Nanosecond,
		Logger: log.logger()})
	cl := dialT(t, addr)
	if _, err := cl.Do(wire.Request{Op: wire.OpStats}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		lines := log.lines()
		for _, l := range lines {
			if strings.Contains(l, "slow op") && strings.Contains(l, "op=STATS") &&
				strings.Contains(l, "conn=") {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no slow-op warn line for STATS in %q", lines)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSlowOpDisabled: a negative threshold silences the warning even
// for glacial ops.
func TestSlowOpDisabled(t *testing.T) {
	var log logBuffer
	_, addr := startServer(t, Config{TickInterval: time.Hour, SlowOp: -1,
		Logger: log.logger()})
	cl := dialT(t, addr)
	if _, err := cl.Do(wire.Request{Op: wire.OpStats}); err != nil {
		t.Fatal(err)
	}
	for _, l := range log.lines() {
		if strings.Contains(l, "slow op") {
			t.Errorf("slow-op warn despite SlowOp<0: %q", l)
		}
	}
}

// TestTelemetryRegistryDirect: the embedded registry is reachable for
// embedders, and Stats() agrees with the instruments behind it.
func TestTelemetryRegistryDirect(t *testing.T) {
	srv, addr := startServer(t, Config{TickInterval: time.Hour})
	cl := dialT(t, addr)
	if _, err := cl.Do(wire.Request{Op: wire.OpCreate, Workload: "dot", N: 8,
		Events: []string{"PAPI_TOT_CYC"}}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := srv.Telemetry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "papid_sessions 1") {
		t.Errorf("registry sessions gauge missing:\n%s", sb.String())
	}
	sums := srv.Telemetry().Summaries()
	if s, ok := sums["op/CREATE_SESSION/json"]; !ok || s.Count != 1 {
		t.Errorf("per-op summary after one CREATE: %+v", sums)
	}
}

// TestStageHistogramsCountEveryRow: the per-row stage histograms see
// every row, with no recorder. k hand ticks on n running sessions, each
// followed by a broadcast subscriber on each codec under -groups ipc,
// read n·k snapshots, fan n·k out and derive n·k, and each codec's
// encode stage counts exactly the frames that codec's subscriber got —
// one encode per frame, as it is the only subscriber on its codec. A
// PUBLISH fans out once and reads no snapshot; it derives only when its
// events cover the group. papid's identities hold at the end.
func TestStageHistogramsCountEveryRow(t *testing.T) {
	const n, k = 3, 4
	srv := New(Config{TickInterval: time.Hour, Groups: []string{"ipc"},
		clock: clock.NewFake(time.Unix(1_700_000_000, 0))})
	shutdownAtCleanup(t, srv)
	subs := [2]*conn{testConn(srv, 8*n*k), testConn(srv, 8*n*k)}
	subs[wire.CodecBinary].codec.Store(uint32(wire.CodecBinary))
	events := []string{"PAPI_TOT_INS", "PAPI_TOT_CYC"}
	for i := 0; i < n; i++ {
		created := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate, Events: events, Workload: "dot", N: 8})
		if !created.OK {
			t.Fatal(created.Error)
		}
		if resp := srv.dispatch(nil, &wire.Request{Op: wire.OpStart, Session: created.Session}); !resp.OK {
			t.Fatal(resp.Error)
		}
		sess, _ := srv.reg.get(created.Session)
		for _, c := range subs {
			c.follow(t, sess, nil, false)
		}
	}
	stages := func() map[string]uint64 {
		out := make(map[string]uint64, numStages)
		sums := srv.Telemetry().Summaries()
		for _, name := range stageNames {
			out[name] = sums["stage/"+name].Count
		}
		return out
	}
	for i := 0; i < k; i++ {
		srv.tick()
	}
	got := stages()
	for _, name := range []string{"snapshot", "fanout", "derive"} {
		if got[name] != n*k {
			t.Errorf("stage/%s = %d after %d ticks of %d sessions, want %d", name, got[name], k, n, n*k)
		}
	}
	for codec, c := range subs {
		name := stageNames[stageEncode+stage(codec)]
		if frames := uint64(len(c.popAll())); got[name] != frames || frames < n*k {
			t.Errorf("stage/%s = %d, want the %d frames its subscriber got (at least %d)", name, got[name], frames, n*k)
		}
	}

	pub := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate, Workload: "none"})
	for _, pc := range []struct {
		events []string
		derive uint64
	}{{events, 1}, {events[:1], 0}} {
		before := stages()
		if resp := srv.dispatch(nil, &wire.Request{Op: wire.OpPublish, Session: pub.Session,
			Events: pc.events, Values: []int64{7, 3}[:len(pc.events)]}); !resp.OK {
			t.Fatal(resp.Error)
		}
		after := stages()
		for name, want := range map[string]uint64{"snapshot": 0, "fanout": 1, "derive": pc.derive} {
			if d := after[name] - before[name]; d != want {
				t.Errorf("PUBLISH of %v added %d to stage/%s, want %d", pc.events, d, name, want)
			}
		}
	}
	checkIdentities(t, srv, driven{ticks: k, tickRows: n * k, publishes: 2})
}
