package main

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
)

// TestServeUnreachable: -serve against a dead address must fail with a
// clear one-line error (main prints it and exits non-zero).
func TestServeUnreachable(t *testing.T) {
	// Bind-then-close yields a port that refuses connections.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	err = run("linux-x86", "PAPI_TOT_CYC", "dot", 8, 1, false, addr, "papirun", time.Second, false, false)
	if err == nil {
		t.Fatal("-serve against a dead papid succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, "publishing to papid") || !strings.Contains(msg, "unreachable") {
		t.Errorf("error %q does not name the publish failure", msg)
	}
	if strings.Contains(msg, "\n") {
		t.Errorf("error is not one line: %q", msg)
	}
}

// TestServeSilentServer: a papid that accepts the connection but
// never replies must trip the request deadline and fail with a
// one-line error — the regression test for the era when Client.Do had
// no timeout and a dead server hung papirun forever.
func TestServeSilentServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			defer nc.Close() // accept, then say nothing
		}
	}()

	start := time.Now()
	err = run("linux-x86", "PAPI_TOT_CYC", "dot", 8, 1, false,
		ln.Addr().String(), "papirun", 100*time.Millisecond, false, false)
	if err == nil {
		t.Fatal("-serve against a silent papid succeeded")
	}
	// One redial is allowed (the reconnecting client re-tries HELLO),
	// but the overall failure must arrive promptly, not hang.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("silent server took %v to fail; request deadline not applied", elapsed)
	}
	msg := err.Error()
	if !strings.Contains(msg, "publishing to papid") {
		t.Errorf("error %q does not name the publish failure", msg)
	}
	if strings.Contains(msg, "\n") {
		t.Errorf("error is not one line: %q", msg)
	}
}

// rejectingServer speaks just enough of the papid protocol to accept
// the handshake and session creation, then reject PUBLISH.
func rejectingServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				dec, enc := wire.NewDecoder(nc), wire.NewEncoder(nc)
				for {
					var req wire.Request
					if dec.Decode(&req) != nil {
						return
					}
					resp := wire.Response{Op: req.Op, OK: true, Session: 1,
						Protocol: wire.ProtocolVersion}
					if req.Op == wire.OpPublish {
						resp = wire.Response{Op: req.Op, OK: false,
							Error: "publish rejected by policy"}
					}
					if enc.Encode(&resp) != nil {
						return
					}
				}
			}(nc)
		}
	}()
	return ln.Addr().String()
}

// TestServeRejectedPublish: a papid that refuses the PUBLISH must
// surface the server's reason in a one-line error.
func TestServeRejectedPublish(t *testing.T) {
	addr := rejectingServer(t)
	err := run("linux-x86", "PAPI_TOT_CYC", "dot", 8, 1, false, addr, "papirun", time.Second, false, false)
	if err == nil {
		t.Fatal("rejected PUBLISH reported success")
	}
	msg := err.Error()
	if !strings.Contains(msg, "publish rejected by policy") {
		t.Errorf("error %q does not carry the server's reason", msg)
	}
	if strings.Contains(msg, "\n") {
		t.Errorf("error is not one line: %q", msg)
	}
}

// TestServePublishes: the happy path against a real papid lands the
// final snapshot in a queryable session.
func TestServePublishes(t *testing.T) {
	srv := server.New(server.Config{TickInterval: time.Hour})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	if err := run("aix-power3", "PAPI_FP_OPS,PAPI_TOT_CYC", "dot", 8, 1, false, addr.String(), "papirun", 10*time.Second, true, true); err != nil {
		t.Fatal(err)
	}
	if n := srv.Stats()["tsdb_samples"]; n != 2 {
		t.Errorf("published snapshot recorded %d tsdb samples, want 2", n)
	}
	// The published values are queryable history.
	cl, err := server.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := cl.Do(wire.Request{Op: wire.OpQuery, Session: 1,
		From: 0, To: 1<<63 - 1, Step: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Series) != 2 || resp.Series[0].Buckets[0].Count != 1 {
		t.Errorf("QUERY after papirun -serve: %+v", resp.Series)
	}
}

// TestServeTrajectoryDerives: -reps publishes one cumulative snapshot
// per repetition, which gives papid real deltas — enough for a derived
// QUERY to answer in IPC instead of instruction counts. This is the
// end-to-end demo flow: papid -groups ipc, papirun -serve -reps,
// derived history out the other side.
func TestServeTrajectoryDerives(t *testing.T) {
	srv := server.New(server.Config{TickInterval: time.Hour, Groups: []string{"ipc"}})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	const reps = 5
	if err := run("aix-power3", "PAPI_TOT_INS,PAPI_TOT_CYC", "dot", 8, reps, false,
		addr.String(), "papirun", 10*time.Second, false, false); err != nil {
		t.Fatal(err)
	}
	if n, want := srv.Stats()["tsdb_samples"], uint64(2*reps); n != want {
		t.Errorf("trajectory recorded %d tsdb samples, want %d", n, want)
	}

	cl, err := server.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Hello(); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Do(wire.Request{Op: wire.OpQuery, Session: 1,
		From: 0, To: 1<<63 - 1, Step: 0, Derive: []string{"ipc"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Derived) != 2 {
		t.Fatalf("derived QUERY returned %d series, want 2 (ipc, mips): %+v",
			len(resp.Derived), resp.Derived)
	}
	for _, d := range resp.Derived {
		// reps cumulative snapshots yield up to reps-1 delta points;
		// loopback round-trips make the publish timestamps distinct, but
		// only the count floor is load-bearing here.
		if len(d.Points) == 0 || len(d.Points) > reps-1 {
			t.Errorf("%s: %d points, want 1..%d", d.Metric, len(d.Points), reps-1)
		}
		for _, p := range d.Points {
			if p.Value <= 0 || p.Value > 1e12 {
				t.Errorf("%s @%d = %v, want positive and finite", d.Metric, p.Start, p.Value)
			}
		}
	}
}
