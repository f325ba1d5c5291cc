package server

import (
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/tsdb"
	"repro/internal/wire"
)

// bruteBuckets is an independent reference for QUERY's window
// semantics over an uncompressed sample log (see tsdb.Query): windows
// on the absolute step grid, each aggregated whole.
func bruteBuckets(ts, vs []int64, from, to, step int64) []tsdb.Bucket {
	effFrom := from - from%step
	var out []tsdb.Bucket
	for i := range ts {
		w := ts[i] - ts[i]%step
		if w < effFrom || w >= to {
			continue
		}
		v := vs[i]
		if n := len(out); n > 0 && out[n-1].Start == w {
			bk := &out[n-1]
			if v < bk.Min {
				bk.Min = v
			}
			if v > bk.Max {
				bk.Max = v
			}
			bk.Sum += v
			bk.Last = v
			bk.Count++
		} else {
			out = append(out, tsdb.Bucket{Start: w, Count: 1, Min: v, Max: v, Sum: v, Last: v})
		}
	}
	return out
}

// TestQuery100kTicks is the acceptance gate at the service layer: a
// session fed 100k ticks (driven deterministically through dispatch
// with an injected clock) answers QUERY with exactly the brute-force
// min/max/sum/count at every rollup level, stays inside the byte
// budget, and keeps answering after the session is closed.
func TestQuery100kTicks(t *testing.T) {
	const nTicks = 100_000
	fk := clock.NewFake(time.UnixMicro(1_000_000))
	srv := New(Config{
		TickInterval:  time.Hour, // ticks driven by hand below
		TSDBMaxBytes:  2 << 20,
		TSDBRetention: -1,
		clock:         fk,
	})
	created := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate, Workload: "none",
		Events: nil, Label: "history-test"})
	if !created.OK {
		t.Fatal(created.Error)
	}
	id := created.Session

	events := []string{"PAPI_FP_OPS", "PAPI_TOT_CYC"}
	rng := rand.New(rand.NewSource(11))
	tss := make([]int64, 0, nTicks)
	vals := map[string][]int64{}
	cum := map[string]int64{}
	for i := 0; i < nTicks; i++ {
		fk.Advance(10 * time.Millisecond)
		row := make([]int64, len(events))
		for j, ev := range events {
			cum[ev] += 5_000 + rng.Int63n(503)
			row[j] = cum[ev]
			vals[ev] = append(vals[ev], cum[ev])
		}
		tss = append(tss, fk.Now().UnixMicro())
		resp := srv.dispatch(nil, &wire.Request{Op: wire.OpPublish, Session: id,
			Events: events, Values: row})
		if !resp.OK {
			t.Fatalf("publish %d: %s", i, resp.Error)
		}
	}

	if n := stat(t, srv, "tsdb_samples"); n != uint64(nTicks*len(events)) {
		t.Fatalf("tsdb holds %d samples, want %d", n, nTicks*len(events))
	}
	if n := stat(t, srv, "tsdb_bytes"); n > 2<<20 {
		t.Errorf("tsdb %d bytes exceeds the 2 MiB budget", n)
	}

	from, to := tss[0], tss[len(tss)-1]+1
	for _, step := range []int64{10_000_000, 30_000_000, 60_000_000, 300_000_000} {
		resp := srv.dispatch(nil, &wire.Request{Op: wire.OpQuery, Session: id,
			From: from, To: to, Step: step})
		if !resp.OK {
			t.Fatalf("QUERY step=%d: %s", step, resp.Error)
		}
		if len(resp.Series) != len(events) {
			t.Fatalf("QUERY step=%d: %d series, want %d", step, len(resp.Series), len(events))
		}
		for _, sr := range resp.Series {
			want := bruteBuckets(tss, vals[sr.Event], from, to, step)
			if len(sr.Buckets) != len(want) {
				t.Fatalf("step=%d %s: %d buckets, want %d", step, sr.Event, len(sr.Buckets), len(want))
			}
			for i := range want {
				if sr.Buckets[i] != want[i] {
					t.Fatalf("step=%d %s bucket %d = %+v, want %+v",
						step, sr.Event, i, sr.Buckets[i], want[i])
				}
			}
		}
	}

	// Event filtering narrows the reply.
	resp := srv.dispatch(nil, &wire.Request{Op: wire.OpQuery, Session: id,
		Events: []string{"PAPI_TOT_CYC"}, From: from, To: to, Step: 60_000_000})
	if len(resp.Series) != 1 || resp.Series[0].Event != "PAPI_TOT_CYC" {
		t.Fatalf("filtered QUERY: %+v", resp.Series)
	}

	// History must outlive its session: close it, query again.
	if closed := srv.dispatch(nil, &wire.Request{Op: wire.OpCloseSession, Session: id}); !closed.OK {
		t.Fatal(closed.Error)
	}
	resp = srv.dispatch(nil, &wire.Request{Op: wire.OpQuery, Session: id,
		From: from, To: to, Step: 60_000_000})
	if !resp.OK || len(resp.Series) != 2 {
		t.Fatalf("QUERY after CLOSE_SESSION: ok=%v series=%d", resp.OK, len(resp.Series))
	}

	// Bad ranges are rejected.
	if resp := srv.dispatch(nil, &wire.Request{Op: wire.OpQuery, Session: id,
		From: 100, To: 100}); resp.OK {
		t.Error("empty range accepted")
	}
}

// TestMalformedFrameKeepsConnection: garbage on the wire draws an
// ERROR frame and the connection keeps serving — the fuzz-found
// failure mode (decoder death killing the loop) must stay fixed.
func TestMalformedFrameKeepsConnection(t *testing.T) {
	_, addr := startServer(t, Config{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	dec := wire.NewDecoder(nc)

	for i, garbage := range []string{"this is not json", `{"op":"HELLO"`, `[1,2,3]`} {
		if _, err := fmt.Fprintf(nc, "%s\n", garbage); err != nil {
			t.Fatal(err)
		}
		var resp wire.Response
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("garbage %d: connection died: %v", i, err)
		}
		if resp.Op != wire.OpError || resp.OK {
			t.Fatalf("garbage %d: got %+v, want an ERROR frame", i, resp)
		}
	}
	// The same connection still answers real requests.
	if _, err := fmt.Fprintf(nc, `{"op":"HELLO","version":%d}`+"\n", wire.ProtocolVersion); err != nil {
		t.Fatal(err)
	}
	var hello wire.Response
	if err := dec.Decode(&hello); err != nil {
		t.Fatal(err)
	}
	if hello.Op != wire.OpHello || !hello.OK || hello.Protocol != wire.ProtocolVersion {
		t.Fatalf("HELLO after garbage: %+v", hello)
	}
}

// TestHistoryDisabled: a server with history off serves everything
// else and rejects QUERY cleanly.
func TestHistoryDisabled(t *testing.T) {
	_, addr := startServer(t, Config{TSDBMaxBytes: -1})
	cl := dialT(t, addr)
	created, err := cl.Do(wire.Request{Op: wire.OpCreate, Workload: "none"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Do(wire.Request{Op: wire.OpPublish, Session: created.Session,
		Events: []string{"E"}, Values: []int64{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Do(wire.Request{Op: wire.OpQuery, Session: created.Session,
		From: 0, To: 1 << 40, Step: 0}); err == nil {
		t.Error("QUERY accepted with history disabled")
	}
	stats, err := cl.Do(wire.Request{Op: wire.OpStats})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stats["tsdb_bytes"] != 0 {
		t.Errorf("disabled tsdb reports %d bytes", stats.Stats["tsdb_bytes"])
	}
}
