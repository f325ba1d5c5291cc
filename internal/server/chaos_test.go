package server

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/faultnet"
	"repro/internal/wire"
)

// TestChaosSurvivesPathologicalPeers is the connection-lifecycle
// acceptance test: 32 concurrent clients, most of them hostile —
// subscribers that stop reading, peers that go silent, writers that
// reset mid-frame — against short deadlines and small buffers. The
// server must keep serving a healthy client's QUERY within its
// request deadline, evict every stalled peer, report the carnage in
// STATS, and leak no goroutines. Run under -race (tools/ci.sh) with a
// short -timeout, so a reintroduced hang fails CI instead of
// stalling it.
func TestChaosSurvivesPathologicalPeers(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()

	// The storm runs on a fake clock: the test ticks by hand every 2 ms
	// of it, and each deadline passes in its time, not the host's.
	fk := clock.NewFake(time.Unix(1_700_000_000, 0))
	// Tiny server-side send buffers so a subscriber that stops reading
	// back-pressures in milliseconds instead of after megabytes.
	srv, addr := serveFaults(t, Config{
		TickInterval: time.Hour,
		clock:        fk,
		// Chaos runs with the parallel sweep at full width regardless of
		// GOMAXPROCS: every fan-out invariant must hold with concurrent
		// shard workers, and -race checks they do.
		tickWorkers:     8,
		ReadIdleTimeout: 400 * time.Millisecond,
		WriteTimeout:    250 * time.Millisecond,
		WriteQueueDepth: 8,
		// Derived evaluation joins the storm: the ipc group runs on every
		// covered session each tick, and the (always-true, strict)
		// threshold rule must fire and be scrapable mid-chaos.
		Groups:      []string{"ipc"},
		DeriveRules: []string{"ipc>0:2"},
	}, func(i int, nc net.Conn) faultnet.Faults {
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.SetWriteBuffer(4 << 10)
		}
		return faultnet.Faults{}
	})

	// The admin HTTP server joins the chaos: scraped while peers are
	// being evicted, and covered by the goroutine-leak check below —
	// its serve loop must not outlive the drain. Keep-alives are off so
	// no idle HTTP connection is mistaken for a leak.
	adminAddr, err := srv.ListenAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hc := &http.Client{Timeout: 5 * time.Second,
		Transport: &http.Transport{DisableKeepAlives: true}}
	scrape := func() string {
		resp, err := hc.Get("http://" + adminAddr.String() + "/metrics")
		if err != nil {
			t.Fatalf("scrape during chaos: %v", err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("scrape body: %v", err)
		}
		return string(body)
	}

	// The healthy client: every request bounded by a deadline; its
	// session is the one the stalled subscribers will clog.
	healthy, err := DialRetry(addr, RetryConfig{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	created, err := healthy.Do(wire.Request{Op: wire.OpCreate,
		Events: []string{"PAPI_TOT_INS", "PAPI_TOT_CYC"}, Workload: "dot", N: 8})
	if err != nil {
		t.Fatal(err)
	}
	id := created.Session
	if _, err := healthy.Do(wire.Request{Op: wire.OpStart, Session: id}); err != nil {
		t.Fatal(err)
	}

	const (
		nStalled = 10 // subscribe, then never read again
		nIdle    = 11 // HELLO, then total silence
		nReset   = 10 // garbage, then a frame cut in the middle
	)
	var mu sync.Mutex
	var open []interface{ Close() error }
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range open {
			c.Close()
		}
	}()
	track := func(c interface{ Close() error }) {
		mu.Lock()
		open = append(open, c)
		mu.Unlock()
	}

	var setup sync.WaitGroup
	errc := make(chan error, nStalled+nIdle+nReset)
	for i := 0; i < nStalled; i++ {
		setup.Add(1)
		go func() {
			defer setup.Done()
			errc <- func() error {
				cl, err := Dial(addr)
				if err != nil {
					return err
				}
				track(cl)
				if tc, ok := cl.nc.(*net.TCPConn); ok {
					tc.SetReadBuffer(1 << 10)
				}
				cl.Timeout = 10 * time.Second
				if _, err := cl.Hello(); err != nil {
					return err
				}
				if _, err := cl.Do(wire.Request{Op: wire.OpSubscribe, Session: id}); err != nil {
					return err
				}
				return nil // and never read another byte
			}()
		}()
	}
	for i := 0; i < nIdle; i++ {
		setup.Add(1)
		go func() {
			defer setup.Done()
			errc <- func() error {
				cl, err := Dial(addr)
				if err != nil {
					return err
				}
				track(cl)
				cl.Timeout = 10 * time.Second
				_, err = cl.Hello()
				return err // then silence: no requests, no subscription
			}()
		}()
	}
	for i := 0; i < nReset; i++ {
		setup.Add(1)
		go func() {
			defer setup.Done()
			errc <- func() error {
				nc, err := net.Dial("tcp", addr)
				if err != nil {
					return err
				}
				fc := faultnet.WrapConn(nc, faultnet.Faults{CutAfter: 48})
				track(fc)
				// A whole garbage line, then a valid frame the cut
				// truncates mid-JSON: the server must answer ERROR,
				// resync, and carry on.
				fc.Write([]byte("definitely not json\n"))
				frame := fmt.Sprintf(`{"op":"PUBLISH","session":%d,"values":[1,2,3,4,5,6,7,8]}%s`, id, "\n")
				fc.Write([]byte(frame)) // severed by CutAfter
				return nil
			}()
		}()
	}
	setup.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatalf("chaos client setup: %v", err)
		}
	}

	// The server must evict all 21 wedged peers (the resetters
	// disconnect themselves) while the healthy client keeps getting
	// answers within its deadline.
	wantEvictions := uint64(nStalled + nIdle)
	deadline := time.Now().Add(20 * time.Second)
	var st map[string]uint64
	for {
		resp, err := healthy.Do(wire.Request{Op: wire.OpStats})
		if err != nil {
			t.Fatalf("STATS during chaos: %v", err)
		}
		st = resp.Stats
		if _, err := healthy.Do(wire.Request{Op: wire.OpQuery, Session: id,
			From: 0, To: 1 << 62, Step: 10_000_000}); err != nil {
			t.Fatalf("QUERY during chaos missed its deadline: %v", err)
		}
		// /metrics must answer mid-storm, and agree that evictions
		// and derived-metric alerts are being counted.
		if m := scrape(); !strings.Contains(m, "papid_evictions_total") {
			t.Fatalf("mid-chaos scrape lacks eviction counter:\n%.500s", m)
		} else if st["derive_alerts"] >= 1 &&
			(!strings.Contains(m, "papid_derive_alerts_total") ||
				strings.Contains(m, "papid_derive_alerts_total 0\n")) {
			t.Fatalf("mid-chaos scrape disagrees with %d fired derive alerts:\n%.500s",
				st["derive_alerts"], m)
		}
		if st["evictions"] >= wantEvictions && st["resyncs"] >= nReset &&
			st["derive_evals"] > 0 && st["derive_alerts"] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("chaos never converged: stats %v, want >= %d evictions and >= %d resyncs",
				st, wantEvictions, nReset)
		}
		for range 12 {
			fk.Advance(2 * time.Millisecond)
			srv.tick()
		}
	}
	if st["deadline_trips"] < nIdle {
		t.Errorf("deadline_trips = %d, want >= %d (idle peers trip the read deadline)",
			st["deadline_trips"], nIdle)
	}
	if st["snapshots_dropped"] == 0 {
		t.Error("snapshots_dropped = 0: stalled subscribers never hit the write-queue drop policy")
	}

	// The healthy session is still fully usable after the storm.
	if _, err := healthy.Do(wire.Request{Op: wire.OpStop, Session: id}); err != nil {
		t.Fatal(err)
	}
	if _, err := healthy.Do(wire.Request{Op: wire.OpCloseSession, Session: id}); err != nil {
		t.Fatal(err)
	}
	if _, err := healthy.Do(wire.Request{Op: wire.OpBye}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown after chaos: %v", err)
	}
	// The drain must have taken the admin listener down with it.
	if _, err := net.DialTimeout("tcp", adminAddr.String(), time.Second); err == nil {
		t.Error("admin listener still accepting after Shutdown")
	}
	hc.CloseIdleConnections()

	// No goroutine may outlive the drain: readers and writers of evicted
	// connections, and the admin HTTP server included.
	var n int
	for end := time.Now().Add(5 * time.Second); ; {
		if n = runtime.NumGoroutine(); n <= baseGoroutines+3 {
			break
		}
		if time.Now().After(end) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak after chaos: %d at start, %d after shutdown\n%s",
				baseGoroutines, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
