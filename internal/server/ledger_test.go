// The single drop ledger, made checkable: with one outbound queue per
// connection every fan-out frame is counted sent exactly once and, if
// it never reaches the socket, dropped exactly once against its own
// kind. So after a drain, sent − dropped per kind must equal the frames
// of that kind the sockets actually took — whatever mix of healthy,
// stalled and vanishing subscribers the server faced — every frame a
// surviving client did receive must be the truth for its seq, and
// papid's identities (identity_test.go) must hold.
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/wire"
)

// ledgerSeeds is how many schedules TestLedgerBalances explores; each is
// a subtest named by its seed, so `-run 'TestLedgerBalances/seed=7$'`
// replays one.
const ledgerSeeds = 50

// recConn records every byte the server's writer got onto the socket.
type recConn struct {
	net.Conn
	mu    sync.Mutex
	wrote []byte
}

func (c *recConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.wrote = append(c.wrote, p[:n]...)
	c.mu.Unlock()
	return n, err
}

// frames decodes the complete frames in the recorded stream, following
// the codec switch a binary HELLO negotiates; a frame cut short by a
// failed write ends the stream.
func (c *recConn) frames() []wire.Response {
	c.mu.Lock()
	defer c.mu.Unlock()
	dec := wire.NewDecoder(bytes.NewReader(c.wrote))
	var out []wire.Response
	for {
		var resp wire.Response
		if err := dec.Decode(&resp); err != nil {
			return out
		}
		if resp.Op == wire.OpHello && resp.Codec == wire.CodecNameBinary {
			dec.SetCodec(wire.CodecBinary)
		}
		out = append(out, resp)
	}
}

// recListener wraps every accepted connection in a recConn.
type recListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*recConn
}

func (l *recListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	rc := &recConn{Conn: nc}
	l.mu.Lock()
	l.conns = append(l.conns, rc)
	l.mu.Unlock()
	return rc, nil
}

// ledgerSub is one subscription of a ledger-test client: which session,
// and the filter it asked for.
type ledgerSub struct {
	session uint64
	events  []string // nil = every event
	delta   bool
	derive  bool
}

// ledgerClient is one subscriber connection and how it behaves.
type ledgerClient struct {
	cl         *Client
	role       string // "healthy", "stalled" or "closer"
	closeAfter int    // closer: frames read before it hangs up
	subs       map[uint64]ledgerSub
	got        []wire.Response // healthy: every frame received
}

func TestLedgerBalances(t *testing.T) {
	seeds := ledgerSeeds
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runLedgerSeed(t, seed) })
	}
}

func runLedgerSeed(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	events := []string{"PAPI_TOT_INS", "PAPI_TOT_CYC", "EV_X", "EV_Y"}
	roles := []string{"healthy", "healthy", "stalled", "closer"}

	// Decide every client's shape up front, so the fault plan — which
	// sees connections in accept order — knows who stalls. Connection 0
	// is the publisher.
	nClients := 4 + rng.Intn(4)
	clients := make([]*ledgerClient, nClients)
	faults := make([]faultnet.Faults, nClients+1)
	for i := range clients {
		c := &ledgerClient{role: roles[rng.Intn(len(roles))], closeAfter: rng.Intn(40),
			subs: make(map[uint64]ledgerSub)}
		if i == 0 {
			c.role = "healthy" // at least one stream is checked against the truth
		}
		if c.role == "stalled" {
			faults[i+1] = faultnet.Faults{StallAfter: int64(300 + rng.Intn(3000)),
				ChunkSize: 64 + rng.Intn(448)} // chunked, so a stall can cut a frame in two
		}
		clients[i] = c
	}

	srv := New(Config{TickInterval: time.Hour, WriteQueueDepth: 8 + rng.Intn(24),
		WriteTimeout: 50 * time.Millisecond, KeyframeEvery: 2 + rng.Intn(6)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rec := &recListener{Listener: faultnet.Wrap(ln, func(i int, _ net.Conn) faultnet.Faults {
		if i < len(faults) {
			return faults[i]
		}
		return faultnet.Faults{}
	})}
	addr := srv.Serve(rec).String()
	shutdown := sync.OnceFunc(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	defer shutdown()

	pub := dialT(t, addr)
	if _, err := pub.Hello(); err != nil {
		t.Fatal(err)
	}
	// publish advances one session's counters (they only grow) and
	// records the row as the truth for its seq. The first row names each
	// session's events, which a derive subscription needs in place.
	sessions := make([]uint64, 3)
	truth := make(map[uint64]map[uint64][]int64) // session → seq → row
	rows := make(map[uint64][]int64)
	var published uint64
	publish := func(id uint64) {
		t.Helper()
		row := rows[id]
		for i := range row {
			row[i] += int64(1 + rng.Intn(1000))
		}
		resp, err := pub.Do(wire.Request{Op: wire.OpPublish, Session: id, Events: events, Values: row})
		if err != nil {
			t.Fatal(err)
		}
		truth[id][resp.Seq] = slices.Clone(row)
		published++
	}
	for i := range sessions {
		created, err := pub.Do(wire.Request{Op: wire.OpCreate, Workload: "none"})
		if err != nil {
			t.Fatal(err)
		}
		id := created.Session
		sessions[i], truth[id], rows[id] = id, make(map[uint64][]int64), make([]int64, len(events))
		publish(id)
	}

	// Subscribe: each client follows a random subset of the sessions, one
	// subscription shape per session, all on its one shared connection.
	var readers sync.WaitGroup
	for i, c := range clients {
		c.cl = dialT(t, addr) // dialed one at a time: accept order is client order
		c.cl.PreferBinary = rng.Intn(3) == 0
		if _, err := c.cl.Hello(); err != nil {
			t.Fatal(err)
		}
		for j, id := range sessions {
			if j > 0 && rng.Intn(3) == 0 {
				continue
			}
			sub := ledgerSub{session: id}
			shape := rng.Intn(4)
			if j == 0 && (i == 1 || i == 2) {
				shape = i + 1 // every seed has a delta and a derive subscription
			}
			switch shape {
			case 1:
				sub.events = []string{events[rng.Intn(2)], events[2+rng.Intn(2)]}
			case 2:
				sub.delta = true
				if rng.Intn(2) == 0 {
					sub.events = events[1:3]
				}
			case 3:
				sub.derive = true
			}
			req := wire.Request{Op: wire.OpSubscribe, Session: id, Events: sub.events, Delta: sub.delta}
			if sub.derive {
				req.Derive = []string{"ipc"}
			}
			// No one publishes meanwhile, so the reply is the only frame.
			if _, err := c.cl.Do(req); err != nil {
				t.Fatalf("client %d: %v", i, err)
			}
			c.subs[id] = sub
		}
		if c.role == "stalled" {
			continue // never reads a byte
		}
		readers.Add(1)
		go func() {
			defer readers.Done()
			for n := 0; ; n++ {
				if c.role == "closer" && n == c.closeAfter {
					c.cl.Close()
					return
				}
				resp, err := c.cl.Next()
				if err != nil || resp.Op == wire.OpBye {
					return
				}
				if c.role == "healthy" {
					c.got = append(c.got, resp)
				}
			}
		}()
	}

	for step, n := 0, 150+rng.Intn(150); step < n; step++ {
		publish(sessions[rng.Intn(len(sessions))])
	}

	// A BYE is queued behind every frame already fanned out to the
	// connection, so a healthy reader that sees its reply has seen
	// everything the queue did not drop.
	// Closers that never got their fill hang up now.
	for _, c := range clients {
		switch c.role {
		case "healthy":
			if err := c.cl.enc.Encode(&wire.Request{Op: wire.OpBye}); err != nil {
				t.Fatalf("BYE: %v", err)
			}
		case "closer":
			c.cl.Close()
		}
	}
	watchdog := time.AfterFunc(10*time.Second, shutdown)
	readers.Wait()
	if !watchdog.Stop() {
		t.Error("a healthy reader never saw its BYE reply; the watchdog had to cut it loose")
	}
	shutdown()

	// Ledger: per kind, sent − dropped == what the sockets took.
	var snaps, deltas, derived, all uint64
	for _, rc := range rec.conns {
		for _, f := range rc.frames() {
			all++
			switch f.Op {
			case wire.OpSnapshot:
				snaps++
			case wire.OpDelta:
				deltas++
			case wire.OpDerived:
				derived++
			}
		}
	}
	t.Logf("%d clients, %d evictions, %d frames on sockets", nClients, stat(t, srv, "evictions"), all)
	for _, k := range []struct {
		kind    string
		written uint64
	}{{"snapshots", snaps}, {"deltas", deltas}, {"derived", derived}} {
		sent, dropped := stat(t, srv, k.kind+"_sent"), stat(t, srv, k.kind+"_dropped")
		if sent-dropped != k.written {
			t.Errorf("%s: sent %d − dropped %d = %d, but %d reached the sockets",
				k.kind, sent, dropped, sent-dropped, k.written)
		}
		if sent == 0 {
			t.Errorf("%s: none sent; the schedule never exercised the kind", k.kind)
		}
	}
	if sent := stat(t, srv, "frames_sent_json") + stat(t, srv, "frames_sent_binary"); sent != all {
		t.Errorf("frames_sent %d, but %d whole frames reached the sockets", sent, all)
	}
	checkIdentities(t, srv, driven{publishes: published})

	// Truth: every frame a healthy client received is the published row
	// of its seq, projected through the client's own filter, in order.
	for i, c := range clients {
		if c.role != "healthy" {
			continue
		}
		var tracker wire.DeltaTracker
		lastSeq := make(map[uint64]uint64)
		for _, f := range c.got {
			if f.Op == wire.OpDerived {
				continue
			}
			sub, ok := c.subs[f.Session]
			if !ok {
				t.Fatalf("client %d: %s for session %d it never subscribed to", i, f.Op, f.Session)
			}
			if f.Op == wire.OpDelta && !sub.delta {
				t.Fatalf("client %d session %d: DELTA on a non-delta subscription", i, f.Session)
			}
			row, err := tracker.Apply(f)
			if errors.Is(err, wire.ErrDeltaGap) || errors.Is(err, wire.ErrNoKeyframe) {
				continue // its keyframe was dropped; the re-key follows
			}
			if err != nil {
				t.Fatalf("client %d session %d seq %d: %v", i, f.Session, f.Seq, err)
			}
			if row.Seq <= lastSeq[f.Session] {
				t.Fatalf("client %d session %d: seq %d after %d", i, f.Session, row.Seq, lastSeq[f.Session])
			}
			lastSeq[f.Session] = row.Seq
			want, ok := truth[f.Session][row.Seq]
			if !ok {
				t.Fatalf("client %d session %d: seq %d was never published", i, f.Session, row.Seq)
			}
			var wantEvents []string
			var wantVals []int64
			for j, ev := range events {
				if sub.events == nil || slices.Contains(sub.events, ev) {
					wantEvents, wantVals = append(wantEvents, ev), append(wantVals, want[j])
				}
			}
			if !slices.Equal(row.Events, wantEvents) || !slices.Equal(row.Values, wantVals) {
				t.Fatalf("client %d session %d seq %d (%s): got %v=%v, truth %v=%v",
					i, f.Session, row.Seq, f.Op, row.Events, row.Values, wantEvents, wantVals)
			}
		}
		if len(c.subs) > 0 && len(lastSeq) == 0 {
			t.Errorf("client %d: healthy, subscribed, and received nothing", i)
		}
	}
}

// TestLostReplyIsCounted: a reply is in the ledger too. The peer's
// connection is cut one byte into the server's first write, so the
// HELLO reply queued for it never reaches the socket whole; the writer
// drops it, replies_dropped counts it, and the frames written still
// equal the fan-out frames and replies kept.
func TestLostReplyIsCounted(t *testing.T) {
	srv, addr := serveFaults(t, Config{TickInterval: time.Hour},
		func(int, net.Conn) faultnet.Faults { return faultnet.Faults{CutAfter: 1} })
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := fmt.Fprintln(nc, `{"op":"HELLO"}`); err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(nc) // until the cut closes the connection
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if len(got) > 1 {
		t.Errorf("the peer read %q, more than the one byte before the cut", got)
	}
	if n := stat(t, srv, "replies_dropped"); n != 1 {
		t.Errorf("replies_dropped = %d, want the lost HELLO reply", n)
	}
	checked := checkIdentities(t, srv, driven{})
	if _, ok := checked["frames written are fan-out frames and replies kept"]; !ok {
		t.Error("the frames-written identity was not checked")
	}
}
