// Tests for the tick's two passes (tick.go, DESIGN.md S31): the
// delivery pass reads and fans out every session's row, the advance
// pass then runs the chunk each session's next row will report. The
// split must not change a single row, and a session that stops and
// starts again must run its first chunk again.
package server

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/derive"
	"repro/internal/wire"
	"repro/papi"
	"repro/workload"
)

// directSession is a papi System driven the way a tick drives a
// session's, one Run and one Read per tick, with no server between.
type directSession struct {
	th   *papi.Thread
	es   *papi.EventSet
	prog workload.Program
}

func newDirectSession(t *testing.T, platform, name string, n int, events []string) *directSession {
	t.Helper()
	sys, err := papi.Init(papi.Options{Platform: platform})
	if err != nil {
		t.Fatal(err)
	}
	d := &directSession{th: sys.Main()}
	d.es = d.th.NewEventSet()
	for _, e := range events {
		ev, ok := papi.ResolveEvent(sys, e)
		if !ok {
			t.Fatalf("%s: unknown event %s", platform, e)
		}
		if err := d.es.Add(ev); err != nil {
			t.Fatal(err)
		}
	}
	if d.prog, err = workload.ByName(name, n); err != nil {
		t.Fatal(err)
	}
	if err := d.es.Start(); err != nil {
		t.Fatal(err)
	}
	return d
}

// row runs one chunk and reads it: the values and real_usec of the
// session's next row.
func (d *directSession) row(t *testing.T, n int) ([]int64, uint64) {
	t.Helper()
	d.prog.Reset()
	d.th.Run(d.prog)
	vals := make([]int64, n)
	if err := d.es.Read(vals); err != nil {
		t.Fatal(err)
	}
	return vals, d.th.RealUsec()
}

func encodeJSON(t *testing.T, resp *wire.Response) string {
	t.Helper()
	b, err := wire.AppendResponse(nil, wire.CodecJSON, resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestAdvanceAheadKeepsRows: every SNAPSHOT and DERIVED frame a
// subscriber receives is byte-identical to what the same papi System,
// driven Run → Read once per tick with no server in between, and a
// derive engine over its reads produce. Sessions on two platforms and
// two workloads, at sweep widths 1 and 8. Half the sessions are
// advanced by hand before the first tick, as the advance pass does
// when START lands between a tick's two passes, so both orders of
// advance and read are covered deterministically.
func TestAdvanceAheadKeepsRows(t *testing.T) {
	specs := []struct {
		platform, workload string
		n                  int
		events             []string
	}{
		{"linux-x86", "dot", 12, []string{"PAPI_TOT_INS", "PAPI_TOT_CYC"}},
		{"aix-power3", "matmul", 6, []string{"PAPI_TOT_INS", "PAPI_TOT_CYC", "PAPI_L2_TCM", "PAPI_L2_TCA"}},
		{"linux-x86", "matmul", 4, []string{"PAPI_TOT_INS", "PAPI_TOT_CYC"}},
		{"aix-power3", "dot", 24, []string{"PAPI_TOT_INS", "PAPI_TOT_CYC", "PAPI_L2_TCM", "PAPI_L2_TCA"}},
	}
	const nTicks = 6
	groups := []string{"ipc"}
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			fk := clock.NewFake(time.Unix(1_700_000_000, 0))
			srv := New(Config{TickInterval: time.Hour, tickWorkers: workers, Groups: groups, clock: fk})
			t.Cleanup(func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				srv.Shutdown(ctx)
			})
			eng := derive.NewEngine(nil, nil, nil, nil)
			var (
				ids    []uint64
				conns  []*conn
				direct []*directSession
			)
			for i, sp := range specs {
				created := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate, Platform: sp.platform,
					Events: sp.events, Workload: sp.workload, N: sp.n})
				if !created.OK {
					t.Fatal(created.Error)
				}
				sess, _ := srv.reg.get(created.Session)
				c := testConn(srv, 2*nTicks)
				c.follow(t, sess, nil, false)
				if resp := srv.dispatch(nil, &wire.Request{Op: wire.OpStart, Session: created.Session}); !resp.OK {
					t.Fatal(resp.Error)
				}
				if i%2 == 1 {
					sess.mu.Lock()
					sess.advance()
					sess.mu.Unlock()
				}
				ids = append(ids, created.Session)
				conns = append(conns, c)
				direct = append(direct, newDirectSession(t, sp.platform, sp.workload, sp.n, sp.events))
			}
			want := make([][]string, len(specs))
			for tick := 1; tick <= nTicks; tick++ {
				fk.Advance(50 * time.Millisecond)
				now := fk.Now().UnixMicro()
				srv.tick()
				for i, sp := range specs {
					vals, realUsec := direct[i].row(t, len(sp.events))
					want[i] = append(want[i], encodeJSON(t, &wire.Response{Op: wire.OpSnapshot, OK: true,
						Session: ids[i], Events: sp.events, Values: vals, RealUsec: realUsec,
						Seq: uint64(tick), Source: "live"}))
					eng.Tick(ids[i], sp.events, vals, now, groups, func(metrics, units []string, dv []float64) {
						want[i] = append(want[i], encodeJSON(t, &wire.Response{Op: wire.OpDerived, OK: true,
							Session: ids[i], Seq: uint64(tick), Metrics: metrics, Units: units, DValues: dv}))
					})
				}
			}
			for i, c := range conns {
				// The first row only primes the engine: one DERIVED per later row.
				if len(want[i]) != 2*nTicks-1 {
					t.Fatalf("session %d: the reference made %d frames, want %d", ids[i], len(want[i]), 2*nTicks-1)
				}
				got := c.popAll()
				if len(got) != len(want[i]) {
					t.Errorf("session %d: %d frames, want %d", ids[i], len(got), len(want[i]))
					continue
				}
				for j := range got {
					if got[j] != want[i][j] {
						t.Errorf("session %d (%s %s) frame %d differs from the direct Run → Read sequence:\ngot:  %s\nwant: %s",
							ids[i], specs[i].platform, specs[i].workload, j, got[j], want[i][j])
						break
					}
				}
			}
		})
	}
}

// TestRestartRunsFirstChunk: a session that stops and starts again
// reports one chunk in its first row after the restart, as a fresh
// session does — the advance pass ran a chunk after the last row
// before STOP, and STOP folded that chunk into its final values, so
// nothing may count as run ahead once counting restarts. Instruction
// counts are compared; cycles differ, because the restarted session's
// simulated caches are warm. Between two ticks, READ reports the chunk
// the next row will carry: it equals the next row of an identical
// session nobody reads.
func TestRestartRunsFirstChunk(t *testing.T) {
	fk := clock.NewFake(time.Unix(1_700_000_000, 0))
	srv := New(Config{TickInterval: time.Hour, tickWorkers: 1, clock: fk})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	events := []string{"PAPI_TOT_INS", "PAPI_TOT_CYC"}
	do := func(req wire.Request) wire.Response {
		t.Helper()
		resp := srv.dispatch(nil, &req)
		if !resp.OK {
			t.Fatalf("%s: %s", req.Op, resp.Error)
		}
		return resp
	}
	start := func() uint64 {
		t.Helper()
		id := do(wire.Request{Op: wire.OpCreate, Events: events, Workload: "dot", N: 12}).Session
		do(wire.Request{Op: wire.OpStart, Session: id})
		return id
	}
	lastRow := func(id uint64) []int64 {
		t.Helper()
		sess, _ := srv.reg.get(id)
		sess.mu.Lock()
		defer sess.mu.Unlock()
		return sess.last
	}
	tick := func() {
		fk.Advance(50 * time.Millisecond)
		srv.tick()
	}

	read, twin := start(), start()
	for i := 0; i < 3; i++ {
		tick()
	}
	between := do(wire.Request{Op: wire.OpRead, Session: read}).Values
	tick()
	if next := lastRow(twin); !slices.Equal(between, next) {
		t.Errorf("READ between ticks = %v, want the next row's values %v", between, next)
	}

	do(wire.Request{Op: wire.OpStop, Session: twin})
	do(wire.Request{Op: wire.OpStart, Session: twin})
	fresh := start()
	tick()
	restarted, first := lastRow(twin), lastRow(fresh)
	if restarted[0] != first[0] {
		t.Errorf("first row after a restart counts %d instructions, a fresh session's first row %d",
			restarted[0], first[0])
	}
}
