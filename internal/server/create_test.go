package server

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
	"repro/workload"
)

// TestCreateSessionRefusesUntickablePrograms: CREATE_SESSION's n comes
// off the wire. One request used to be able to take papid down two
// ways — building a workload allocates in proportion to n (chase
// n=2³¹: 16 GiB), and the tick then runs the whole program every
// interval under the session lock (matmul n=1000: 4·10⁹ instructions).
// Every workload is refused past the n limit before anything is built,
// and past the per-tick instruction budget once it is; what is accepted
// ticks.
func TestCreateSessionRefusesUntickablePrograms(t *testing.T) {
	srv := New(Config{TickInterval: time.Hour}) // ticked by hand
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	type tc struct {
		workload string
		n        int
		ok       bool
	}
	var cases []tc
	for _, name := range workload.Names() {
		// Only chase (16 instructions per n) still fits the tick budget
		// at the n limit.
		atLimit := name == "chase"
		cases = append(cases,
			tc{name, -5, true}, // non-positive n is still "the default"
			tc{name, 8, true},
			tc{name, maxWorkloadN - 1, atLimit},
			tc{name, maxWorkloadN, atLimit},
			tc{name, maxWorkloadN + 1, false},
			tc{name, 1 << 31, false})
	}
	cases = append(cases,
		tc{"matmul", 1000, false}, // inside the n limit, 4·10⁹ instructions a tick
		tc{"dot", 256, true},      // 327,680: the largest program the suite ticks
		tc{"", 1 << 31, false},    // the default workload checks n too
		tc{"none", 1 << 31, true}) // publish-only: n is never used

	var ms runtime.MemStats
	for _, c := range cases {
		name := fmt.Sprintf("%s n=%d", c.workload, c.n)
		sessions := stat(t, srv, "sessions")
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		resp := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate,
			Events: []string{"PAPI_TOT_INS"}, Workload: c.workload, N: c.n})
		runtime.ReadMemStats(&ms)
		if resp.OK != c.ok {
			t.Fatalf("%s: ok=%v (%s), want %v", name, resp.OK, resp.Error, c.ok)
		}
		if !c.ok {
			if got := stat(t, srv, "sessions"); got != sessions {
				t.Errorf("%s: refused, yet %d sessions registered, was %d", name, got, sessions)
			}
			if got := ms.TotalAlloc - before; got > 1<<20 {
				t.Errorf("%s: refusing it allocated %d bytes, want < 1 MiB", name, got)
			}
			limit := fmt.Sprint(maxWorkloadN)
			if c.n <= maxWorkloadN {
				limit = fmt.Sprint(maxTickInstrs)
				prog, _ := workload.ByName(c.workload, c.n)
				if instrs := fmt.Sprint(prog.Expected().Instrs); !strings.Contains(resp.Error, instrs) {
					t.Errorf("%s: error %q does not name the %s instructions", name, resp.Error, instrs)
				}
			}
			if c.workload != "" && !strings.Contains(resp.Error, c.workload) || !strings.Contains(resp.Error, limit) {
				t.Errorf("%s: error %q does not name the workload and the limit %s", name, resp.Error, limit)
			}
			continue
		}
		if c.workload == "none" {
			continue
		}
		if r := srv.dispatch(nil, &wire.Request{Op: wire.OpStart, Session: resp.Session}); !r.OK {
			t.Fatalf("%s: START: %s", name, r.Error)
		}
		srv.tick()
		read := srv.dispatch(nil, &wire.Request{Op: wire.OpRead, Session: resp.Session})
		sess, _ := srv.reg.get(resp.Session)
		if want := int64(sess.prog.Expected().Instrs); !read.OK || len(read.Values) != 1 || read.Values[0] < want {
			t.Errorf("%s: after one tick READ = %v (%s), want at least the program's %d instructions",
				name, read.Values, read.Error, want)
		}
		if r := srv.dispatch(nil, &wire.Request{Op: wire.OpCloseSession, Session: resp.Session}); !r.OK {
			t.Fatalf("%s: CLOSE_SESSION: %s", name, r.Error)
		}
	}

	// A live session created with neither workload nor n still runs
	// the default, dot n=24.
	resp := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate, Events: []string{"PAPI_TOT_INS"}})
	if !resp.OK {
		t.Fatal(resp.Error)
	}
	sess, _ := srv.reg.get(resp.Session)
	if got, want := sess.prog.Name(), "dot(n=576,fma=false)"; got != want {
		t.Errorf("default session runs %s, want %s", got, want)
	}
}

// TestAdmissionRefusesConflictingSet: EventSet.Add's own allocation
// solve is the admission check — there is no second answer beside it.
// Three events cannot share linux-x86's two counters: CREATE_SESSION
// and ADD_EVENTS both refuse with the substrate's error, as often as
// they are asked, and leave no session and no event behind; the same
// three fit aix-power3's eight counters.
func TestAdmissionRefusesConflictingSet(t *testing.T) {
	srv := New(Config{TickInterval: time.Hour})
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	two := []string{"PAPI_TOT_CYC", "PAPI_TOT_INS"}
	three := append(two[:2:2], "PAPI_FP_INS")
	refused := func(what string, resp wire.Response) {
		t.Helper()
		for _, want := range []string{"PAPI_FP_INS", "counter-conflict", "linux-x86", "2 counters"} {
			if resp.OK || !strings.Contains(resp.Error, want) {
				t.Errorf("%s: ok=%v, error %q does not name %s", what, resp.OK, resp.Error, want)
			}
		}
	}
	for i := 0; i < 2; i++ {
		refused("CREATE_SESSION", srv.dispatch(nil, &wire.Request{Op: wire.OpCreate,
			Platform: "linux-x86", Events: three}))
		if n := stat(t, srv, "sessions"); n != 0 {
			t.Fatalf("a refused CREATE_SESSION left %d sessions", n)
		}
	}
	if resp := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate, Platform: "aix-power3", Events: three}); !resp.OK {
		t.Errorf("aix-power3 refused %v: %s", three, resp.Error)
	}

	created := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate, Platform: "linux-x86", Events: two})
	if !created.OK {
		t.Fatal(created.Error)
	}
	for i := 0; i < 2; i++ {
		refused("ADD_EVENTS", srv.dispatch(nil, &wire.Request{Op: wire.OpAddEvents,
			Session: created.Session, Events: three[2:]}))
		if have := srv.dispatch(nil, &wire.Request{Op: wire.OpAddEvents, Session: created.Session}); !slices.Equal(have.Events, two) {
			t.Fatalf("after a refused ADD_EVENTS the session counts %v, want %v", have.Events, two)
		}
	}
	if r := srv.dispatch(nil, &wire.Request{Op: wire.OpStart, Session: created.Session}); !r.OK {
		t.Fatalf("START after the refusals: %s", r.Error)
	}
	srv.tick()
	if read := srv.dispatch(nil, &wire.Request{Op: wire.OpRead, Session: created.Session}); !read.OK ||
		len(read.Values) != 2 || read.Values[0] == 0 || read.Values[1] == 0 {
		t.Errorf("READ after the refusals = %v (%s), want two running counters", read.Values, read.Error)
	}
}

// TestAdmissionIdenticalSets: a set asked for again — the same events,
// or the same events in another order — is admitted again and counts
// the same: each session solves its own allocation on its own machine,
// and nothing is remembered between them.
func TestAdmissionIdenticalSets(t *testing.T) {
	srv := New(Config{TickInterval: time.Hour})
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	for _, platform := range []string{"linux-x86", "cray-t3e"} {
		var reads [][]int64
		for _, events := range [][]string{
			{"PAPI_TOT_CYC", "PAPI_TOT_INS"},
			{"PAPI_TOT_CYC", "PAPI_TOT_INS"},
			{"PAPI_TOT_INS", "PAPI_TOT_CYC"},
		} {
			created := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate, Platform: platform,
				Events: events, Workload: "dot", N: 8})
			if !created.OK || !slices.Equal(created.Events, events) {
				t.Fatalf("%s %v: ok=%v events %v (%s)", platform, events, created.OK, created.Events, created.Error)
			}
			if r := srv.dispatch(nil, &wire.Request{Op: wire.OpStart, Session: created.Session}); !r.OK {
				t.Fatalf("%s %v: START: %s", platform, events, r.Error)
			}
			srv.tick()
			stopped := srv.dispatch(nil, &wire.Request{Op: wire.OpStop, Session: created.Session})
			if !stopped.OK {
				t.Fatalf("%s %v: STOP: %s", platform, events, stopped.Error)
			}
			reads = append(reads, stopped.Values)
		}
		swapped := []int64{reads[2][1], reads[2][0]}
		if reads[0][0] == 0 || !slices.Equal(reads[0], reads[1]) || !slices.Equal(reads[0], swapped) {
			t.Errorf("%s: the same set counted %v, %v and (reordered) %v", platform, reads[0], reads[1], reads[2])
		}
	}
}
