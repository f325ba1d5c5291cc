//go:build !race

// Allocation counts: under the race detector sync.Pool drops entries at
// random, so the pooled encode buffers allocate and no count holds.
// tools/ci.sh, whose suite runs under -race, runs this file on its own.
package server

import (
	"testing"
	"time"

	"repro/internal/wire"
)

// TestFanoutAllocs pins the allocation profile of the one fan-out path,
// per session fan-out: nothing, in every view shape. The broadcast view
// hands the caller's row through as it is, a projecting view builds its
// frame on the stack (wire.AppendResponse keeps no reference to it), the
// encode buffers are pooled, and nothing is paid per subscriber or for
// grouping.
func TestFanoutAllocs(t *testing.T) {
	events := []string{"a", "b", "c", "d"}
	allocs := make(map[string]float64)
	for _, mode := range []struct {
		name   string
		filter []string
		delta  bool
	}{
		{name: "broadcast"},
		{name: "events", filter: events[1:3]},
		{name: "delta", delta: true},
	} {
		srv := New(Config{TickInterval: time.Hour, TSDBMaxBytes: -1, KeyframeEvery: 4})
		created := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate, Workload: "none"})
		if !created.OK {
			t.Fatal(created.Error)
		}
		sess, _ := srv.reg.get(created.Session)
		conns := []*conn{testConn(srv, 8), testConn(srv, 8)}
		for _, c := range conns {
			c.follow(t, sess, mode.filter, mode.delta)
		}
		vals := make([]int64, len(events))
		snap := wire.Response{Op: wire.OpSnapshot, OK: true, Session: sess.id,
			Events: events, Values: vals}
		frames := 0
		allocs[mode.name] = testing.AllocsPerRun(200, func() {
			vals[int(snap.Seq)%len(vals)]++
			snap.Seq++
			r := srv.reqRec(srv.cfg.clock.Mono())
			srv.fanout(nil, sess, &snap, 0, &r)
			for _, c := range conns {
				for f, ok := c.q.pop(false); ok; f, ok = c.q.pop(false) {
					frames++
					f.release()
				}
			}
		})
		if frames < 2*200 {
			t.Errorf("%s: %d frames for 200 fan-outs to 2 subscribers", mode.name, frames)
		}
	}
	t.Logf("allocs per session fan-out: %v", allocs)
	for name, n := range allocs {
		if n > 0 {
			t.Errorf("%s fan-out allocates %.1f times, want 0", name, n)
		}
	}
}
