package server

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/wire"
)

// spyClock is a fake clock that reports each read of Now (a Stamp is
// one too) on now and each timer armed on it on armed. A report that
// finds its channel full, or nil, is dropped.
type spyClock struct {
	*clock.Fake
	now   chan time.Time
	armed chan time.Duration
}

func (c spyClock) Now() time.Time {
	t := c.Fake.Now()
	c.report(t)
	return t
}

func (c spyClock) Stamp() (time.Time, time.Duration) {
	t, mono := c.Fake.Stamp()
	c.report(t)
	return t, mono
}

func (c spyClock) report(t time.Time) {
	select {
	case c.now <- t:
	default:
	}
}

func (c spyClock) AfterFunc(d time.Duration, f func()) *clock.Timer {
	select {
	case c.armed <- d:
	default:
	}
	return c.Fake.AfterFunc(d, f)
}

// TestTickLoopCountsSkippedTicks runs the real tick loop and its ticker
// on a fake clock. The test holds a session's lock, so the first sweep
// blocks on it while three more intervals pass: the ticker holds one of
// those firings and drops two, as time.Ticker would, and ticks_skipped
// must read exactly 2 once the held firing's tick has run.
func TestTickLoopCountsSkippedTicks(t *testing.T) {
	const iv = time.Hour // on the wall clock, the loop would never tick here
	clk := spyClock{Fake: clock.NewFake(time.Unix(1_700_000_000, 0)), now: make(chan time.Time, 16)}
	srv, _ := startServer(t, Config{TickInterval: iv, tickWorkers: 1, clock: clk})
	created := srv.dispatch(nil, &wire.Request{Op: wire.OpCreate,
		Events: []string{"PAPI_TOT_CYC"}, Workload: "dot", N: 8})
	if resp := srv.dispatch(nil, &wire.Request{Op: wire.OpStart, Session: created.Session}); !resp.OK {
		t.Fatal(resp.Error)
	}
	sess, _ := srv.reg.get(created.Session)
	sub := testConn(srv, 8)
	sub.follow(t, sess, nil, false)
	for len(clk.now) > 0 {
		<-clk.now // New's read, the start of uptime
	}

	sess.mu.Lock()
	clk.Advance(iv)
	select {
	case <-clk.now: // the first tick has its start time; its sweep waits for the lock
	case <-time.After(10 * time.Second):
		sess.mu.Unlock()
		t.Fatal("no tick an interval after Serve: the loop's ticker is not on the server's clock")
	}
	clk.Advance(3 * iv)
	sess.mu.Unlock()
	for i := range 2 { // the first tick's frame, then the held firing's
		f, ok := sub.q.pop(true)
		if !ok {
			t.Fatalf("frame %d never came", i)
		}
		f.release()
	}
	if n := stat(t, srv, "ticks_skipped"); n != 2 {
		t.Errorf("ticks_skipped = %d, want 2: the ticker held one of three firings", n)
	}
}
