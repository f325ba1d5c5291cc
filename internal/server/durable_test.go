package server

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/tsdb/wal"
	"repro/internal/wire"
)

// newSmallSegments is New for a durable server whose WAL rotates its
// files every segBytes instead of papid's 4 MiB, so a test of a few
// thousand rows spans several segments: the log is opened on
// cfg.DataDir here, the way New opens it, and attached to the store.
func newSmallSegments(t *testing.T, cfg Config, segBytes int64) *Server {
	t.Helper()
	dir := cfg.DataDir
	cfg.DataDir = ""
	srv := New(cfg)
	l, err := wal.Open(dir, wal.Options{Fsync: cfg.Fsync, SegmentBytes: segBytes,
		Registry: srv.m.reg, Clock: cfg.clock})
	if err != nil {
		t.Fatalf("wal open: %v", err)
	}
	if srv.replay, err = l.Start(srv.hist); err != nil {
		t.Fatalf("wal start: %v", err)
	}
	srv.wal = l
	return srv
}

// durableQueries snapshots every QUERY view of a session the server
// serves — raw plus each rollup step — for exact comparison across a
// restart.
func durableQueries(t *testing.T, srv *Server, session uint64, from, to int64) string {
	t.Helper()
	var sb strings.Builder
	for _, step := range []int64{0, 10_000_000, 60_000_000} {
		resp := srv.dispatch(nil, &wire.Request{Op: wire.OpQuery, Session: session,
			From: from, To: to, Step: step})
		if !resp.OK {
			t.Fatalf("QUERY step=%d: %s", step, resp.Error)
		}
		b, err := json.Marshal(resp.Series)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "step=%d %s\n", step, b)
	}
	return sb.String()
}

// durablePublish drives n ticks through dispatch against an injected
// clock, the same path the tick loop and PUBLISH take in production.
func durablePublish(t *testing.T, srv *Server, session uint64, fk *clock.Fake, n int) {
	t.Helper()
	events := []string{"PAPI_TOT_CYC", "PAPI_FP_OPS"}
	for i := 0; i < n; i++ {
		fk.Advance(10 * time.Millisecond)
		resp := srv.dispatch(nil, &wire.Request{Op: wire.OpPublish, Session: session,
			Events: events, Values: []int64{int64(i) * 3, int64(i) * 7}})
		if !resp.OK {
			t.Fatalf("publish %d: %s", i, resp.Error)
		}
	}
}

// TestDurableRestartCleanShutdown: a server with -data-dir set survives
// a graceful shutdown with byte-identical QUERY answers, and the
// restart takes the clean fast path (replays nothing).
func TestDurableRestartCleanShutdown(t *testing.T) {
	dir := t.TempDir()
	fk := clock.NewFake(time.UnixMicro(1_000_000))
	cfg := Config{
		TickInterval:  time.Hour,
		TSDBRetention: -1,
		DataDir:       dir,
		Fsync:         "off",
		clock:         fk,
	}

	srv := New(cfg)
	if srv.walErr != nil {
		t.Fatalf("wal open: %v", srv.walErr)
	}
	created := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate, Workload: "none", Label: "durable"})
	if !created.OK {
		t.Fatal(created.Error)
	}
	id := created.Session
	durablePublish(t, srv, id, fk, 3000)

	// STATS gains the wal_* keys only in durable mode.
	stats := srv.dispatch(nil, &wire.Request{Op: wire.OpStats})
	if stats.Stats["wal_rows"] != 3000 {
		t.Errorf("wal_rows = %d, want 3000 (stats %v)", stats.Stats["wal_rows"], stats.Stats)
	}
	if stats.Stats["wal_clean_start"] != 0 {
		t.Errorf("first boot reported wal_clean_start=%d", stats.Stats["wal_clean_start"])
	}

	want := durableQueries(t, srv, id, 0, 1<<60)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	srv2 := New(cfg)
	if srv2.walErr != nil {
		t.Fatalf("wal reopen: %v", srv2.walErr)
	}
	defer srv2.Shutdown(context.Background())
	rs := srv2.Replay()
	if !rs.CleanStart || stat(t, srv2, "wal_clean_start") != 1 {
		t.Errorf("restart after clean shutdown: CleanStart=false or wal_clean_start != 1 (%+v)", rs)
	}
	if rs.Rows != 0 {
		t.Errorf("clean restart replayed %d rows, want 0", rs.Rows)
	}
	if got := durableQueries(t, srv2, id, 0, 1<<60); got != want {
		t.Errorf("QUERY diverged across clean restart:\nbefore: %s\nafter:  %s", want, got)
	}
}

// TestDurableRestartAfterCrash: an abandoned WAL (the kill -9 shape —
// no seal, no truncate, no marker) replays to byte-identical QUERY
// answers.
func TestDurableRestartAfterCrash(t *testing.T) {
	dir := t.TempDir()
	fk := clock.NewFake(time.UnixMicro(1_000_000))
	cfg := Config{
		TickInterval:  time.Hour,
		TSDBRetention: -1,
		DataDir:       dir,
		Fsync:         "always",
		clock:         fk,
	}

	srv := New(cfg)
	if srv.walErr != nil {
		t.Fatalf("wal open: %v", srv.walErr)
	}
	created := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate, Workload: "none", Label: "crashy"})
	if !created.OK {
		t.Fatal(created.Error)
	}
	id := created.Session
	durablePublish(t, srv, id, fk, 2000)
	want := durableQueries(t, srv, id, 0, 1<<60)
	srv.wal.Abandon() // no goroutines to join: Serve was never called

	srv2 := New(cfg)
	if srv2.walErr != nil {
		t.Fatalf("wal reopen: %v", srv2.walErr)
	}
	defer srv2.Shutdown(context.Background())
	rs := srv2.Replay()
	if rs.CleanStart {
		t.Fatal("crash restart took the clean fast path")
	}
	if rs.Rows == 0 && rs.Blocks == 0 {
		t.Fatalf("nothing recovered: %+v", rs)
	}
	if got := durableQueries(t, srv2, id, 0, 1<<60); got != want {
		t.Errorf("QUERY diverged across crash restart:\nbefore: %s\nafter:  %s", want, got)
	}
	stats := srv2.dispatch(nil, &wire.Request{Op: wire.OpStats})
	if stats.Stats["wal_replayed_rows"] == 0 {
		t.Errorf("wal_replayed_rows missing after crash replay: %v", stats.Stats)
	}
}

// TestDurableRestartAfterTwoCompactions: the second compaction in one
// process takes the first one's output as an input. Every QUERY view —
// raw, both rollup steps, and a derived metric over each — must come
// back from a crash after it as the live server answered before it.
func TestDurableRestartAfterTwoCompactions(t *testing.T) {
	// 50 s in, so the 20 s of rows below cross a 60 s window edge.
	fk := clock.NewFake(time.UnixMicro(50_000_000))
	cfg := Config{
		TickInterval:  time.Hour,
		TSDBRetention: -1,
		DataDir:       t.TempDir(),
		Fsync:         "off",
		TSDBMaxBytes:  16 << 10,
		clock:         fk,
	}
	srv := newSmallSegments(t, cfg, 8<<10)
	created := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate, Workload: "none"})
	if !created.OK {
		t.Fatal(created.Error)
	}
	id := created.Session
	views := func(srv *Server) (raw, rolled string) {
		var sb strings.Builder
		for _, step := range []int64{10_000_000, 60_000_000} {
			resp := srv.dispatch(nil, &wire.Request{Op: wire.OpQuery, Session: id,
				From: 0, To: 1 << 60, Step: step, Derive: []string{"ipc"}})
			if !resp.OK || len(resp.Derived) == 0 {
				t.Fatalf("derive QUERY step=%d: %+v", step, resp)
			}
			b, _ := json.Marshal(resp.Derived)
			fmt.Fprintf(&sb, "derive step=%d %s\n", step, b)
		}
		raw, rolled, _ = strings.Cut(durableQueries(t, srv, id, 0, 1<<60), "\n")
		return raw, rolled + sb.String()
	}
	// Rows 500 µs apart: 20 s in all, so the log's background pass
	// (every 30 s of its clock) never runs and the two below are the
	// only compactions.
	var want string
	for pass := 1; pass <= 2; pass++ {
		for i := 0; i < 20_000; i++ {
			fk.Advance(500 * time.Microsecond)
			n := int64(pass*20_000 + i)
			resp := srv.dispatch(nil, &wire.Request{Op: wire.OpPublish, Session: id,
				Events: []string{"PAPI_TOT_CYC", "PAPI_TOT_INS"}, Values: []int64{n * 4, n * 2}})
			if !resp.OK {
				t.Fatalf("publish: %s", resp.Error)
			}
		}
		_, want = views(srv)
		cs, err := srv.wal.Compact(fk.Now().Add(time.Minute).UnixMicro() + 1)
		if err != nil || cs.RawBlocks == 0 || cs.Compacted < pass {
			t.Fatalf("compaction %d folded %+v (%v)", pass, cs, err)
		}
	}
	if n := stat(t, srv, "wal_compactions"); n != 2 {
		t.Errorf("%d compactions, want the test's two alone", n)
	}
	wantRaw, got := views(srv)
	if got != want {
		t.Errorf("second compaction changed live rollup and derive answers (%d → %d bytes)", len(want), len(got))
	}
	srv.wal.Abandon() // no goroutines to join: Serve was never called

	srv2 := newSmallSegments(t, cfg, 8<<10)
	defer srv2.Shutdown(context.Background())
	if gotRaw, got := views(srv2); gotRaw != wantRaw || got != want {
		t.Errorf("QUERY diverged across a crash after two compactions (replay %+v): raw %d → %d bytes, rollups and derive %d → %d bytes",
			srv2.Replay(), len(wantRaw), len(gotRaw), len(want), len(got))
	}
}

// TestTickRowsDurableWhenTickReturns: every row a returned tick()
// produced is journaled and, under -fsync always, on disk. The WAL is
// abandoned with no Shutdown (the kill -9 shape) and the restart must
// hold exactly one row per tick for every session and event. The batch
// is still a batch: a tick costs at most one fsync per sweep worker,
// not one per session.
func TestTickRowsDurableWhenTickReturns(t *testing.T) {
	const nSessions, nTicks = 64, 5
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			fk := clock.NewFake(time.UnixMicro(1_000_000))
			cfg := Config{
				TickInterval:  time.Hour,
				tickWorkers:   workers,
				TSDBRetention: -1,
				DataDir:       t.TempDir(),
				Fsync:         "always",
				clock:         fk,
			}
			srv := New(cfg)
			if srv.walErr != nil {
				t.Fatalf("wal open: %v", srv.walErr)
			}
			var ids []uint64
			for i := 0; i < nSessions; i++ {
				created := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate,
					Events: []string{"PAPI_TOT_INS", "PAPI_TOT_CYC"}, Workload: "dot", N: 8})
				if !created.OK {
					t.Fatal(created.Error)
				}
				if resp := srv.dispatch(nil, &wire.Request{Op: wire.OpStart, Session: created.Session}); !resp.OK {
					t.Fatal(resp.Error)
				}
				ids = append(ids, created.Session)
			}
			for i := 0; i < nTicks; i++ {
				fk.Advance(50 * time.Millisecond)
				before := stat(t, srv, "wal_fsyncs")
				srv.tick()
				if n := stat(t, srv, "wal_fsyncs") - before; n < 1 || n > uint64(workers) {
					t.Errorf("tick %d: %d fsyncs for %d rows, want between 1 and tickWorkers (%d)",
						i, n, nSessions, workers)
				}
			}
			srv.wal.Abandon() // no goroutines to join: Serve was never called

			srv2 := New(cfg)
			if srv2.walErr != nil {
				t.Fatalf("wal reopen: %v", srv2.walErr)
			}
			defer srv2.Shutdown(context.Background())
			if rs := srv2.Replay(); rs.Rows != nSessions*nTicks {
				t.Errorf("replayed %d rows, want %d (%+v)", rs.Rows, nSessions*nTicks, rs)
			}
			for _, id := range ids {
				resp := srv2.dispatch(nil, &wire.Request{Op: wire.OpQuery, Session: id, From: 0, To: 1 << 60})
				if !resp.OK {
					t.Fatalf("QUERY: %s", resp.Error)
				}
				if len(resp.Series) != 2 {
					t.Fatalf("session %d: %d series after restart, want 2", id, len(resp.Series))
				}
				for _, sr := range resp.Series {
					if len(sr.Buckets) != nTicks {
						t.Errorf("session %d %s: %d rows after restart, want %d",
							id, sr.Event, len(sr.Buckets), nTicks)
					}
				}
			}
		})
	}
}

// TestDurableOpenFailureRefusesToServe: a data dir that cannot be used
// must fail loudly at Listen, not silently fall back to RAM-only.
func TestDurableOpenFailureRefusesToServe(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{TickInterval: time.Hour, DataDir: file})
	if srv.walErr == nil {
		t.Fatal("New accepted a file as -data-dir")
	}
	if _, err := srv.Listen("127.0.0.1:0"); err == nil {
		t.Fatal("Listen served despite an unusable data dir")
	}
}
