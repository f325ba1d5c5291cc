// papid's one seeded runner and its one reference model. Each seed
// draws a schedule and runs it twice, sweeping at width 1 and at width
// 8, against a real Server on a clock.Fake whose connections are
// faultnet pipes on the same clock; the runner calls tick(), the WAL's
// Sync and Compact, and a clean restart by hand. The schedule has
// PUBLISHes from several connections at once to the same sessions (and
// PUBLISHes that must be refused), SUBSCRIBEs of every shape on both
// codecs, before the traffic and while a PUBLISH burst is in flight,
// hand ticks, QUERYs at every step, READs and CLOSE_SESSIONs of
// followed sessions, faced by healthy subscribers (some of them held
// back, so their queues overflow), stalled ones and ones that hang up.
//
// The model is plain maps with no clock and no goroutines: session →
// seq → acked row, and each subscription's view of it. On every seed:
//   - a healthy subscriber's rows rise in seq, reassemble (DeltaTracker)
//     to the model's row projected through its filter, and miss nothing
//     the server did not count dropped; once the pressure ends its next
//     row reassembles, so a delta view re-keys after a drop;
//   - a SUBSCRIBE that races a burst gets its ack before any frame of
//     its streams, each stream opens between two rows, and every row
//     PUBLISHed after the subscriber read its ack is delivered or
//     counted dropped; no row acked before it sent the SUBSCRIBE is;
//   - no frame of a closed session carries a seq past its last row, and
//     a PUBLISH to it is refused;
//   - each DERIVED frame sits behind its own row and carries the
//     model's ipc;
//   - a refused PUBLISH uses up no seq, and READ answers the last acked
//     row;
//   - QUERY equals bruteBuckets over the model's rows, raw and at 1 s,
//     10 s and 60 s steps;
//   - per kind, sent − dropped equals the frames the server's ends of
//     the pipes took — the single drop ledger;
//   - width 1 and width 8 put byte-identical tick-row streams on the
//     wire;
//   - after a durable server's clean shutdown, the restart replays
//     nothing and serves every QUERY view unchanged;
//   - at quiescence papid's identities (identity_test.go) hold with the
//     runner's exact counts.
package server

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/faultnet"
	"repro/internal/tsdb"
	"repro/internal/wire"
)

// ledgerSeeds is how many schedules TestLedgerBalances explores; each is
// a subtest named by its seed, so `-run 'TestLedgerBalances/seed=7$'`
// replays one, and a failing seed logs its schedule.
const ledgerSeeds = 50

func TestLedgerBalances(t *testing.T) {
	seeds := ledgerSeeds
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			serial, wide := driveSeed(t, seed, 1), driveSeed(t, seed, 8)
			for id, want := range serial {
				if got := wide[id]; !slices.Equal(got, want) {
					i := 0
					for i < min(len(got), len(want)) && got[i] == want[i] {
						i++
					}
					t.Errorf("session %d: the tick-row streams of widths 1 and 8 part at frame %d (of %d and %d)",
						id, i, len(want), len(got))
				}
			}
		})
	}
}

// ledgerEvents are a session's events: a ticked session counts the
// first two, and a published row of k holds k², k, 3k+1 and 5k+2. Every
// value rises with k, so two published rows differ in every value (a
// DELTA is never empty), and the ipc between the rows of j and k is
// exactly j+k.
var ledgerEvents = []string{"PAPI_TOT_INS", "PAPI_TOT_CYC", "EV_X", "EV_Y"}

func rowOf(k int64) []int64 { return []int64{k * k, k, 3*k + 1, 5*k + 2} }

// queryStep is QUERY's steps in µs: raw, raw-decoded windows, and the
// two rollups.
var queryStep = []int64{0, 1_000_000, 10_000_000, 60_000_000}

// deepQueue is a write queue no healthy peer of a schedule can fill.
const deepQueue = 1 << 13

type modelRow struct {
	ts   int64
	vals []int64
}

// modelSession is one session as the server must hold it.
type modelSession struct {
	names  []string
	rows   []modelRow // seq 1 first
	source string     // what its SNAPSHOT frames say they are
	// primed is the seq of the row that primed its ipc group: the first
	// row after the first SUBSCRIBE that asked for ipc (0: none did).
	primed uint64
	lastK  atomic.Int64 // publish-only: the last k a publisher drew
}

// ipc is the DERIVED value row seq must carry, and whether it has one:
// the engine emits nothing for the priming row nor across a counter
// that steps back.
func (s *modelSession) ipc(seq uint64) (float64, bool) {
	if s.primed == 0 || seq <= s.primed {
		return 0, false
	}
	cur, prev := s.rows[seq-1].vals, s.rows[seq-2].vals
	for i := range cur {
		if cur[i] < prev[i] {
			return 0, false
		}
	}
	return float64(cur[0]-prev[0]) / float64(cur[1]-prev[1]), true
}

// view is row seq as a subscription with filter (nil: every event) must
// see it: in the session's order, whatever order the filter named.
func (s *modelSession) view(seq uint64, filter []string) (events []string, vals []int64) {
	for i, ev := range s.names {
		if filter == nil || slices.Contains(filter, ev) {
			events, vals = append(events, ev), append(vals, s.rows[seq-1].vals[i])
		}
	}
	return events, vals
}

// query is QUERY's answer: one bucket per sample at step 0,
// bruteBuckets' windows otherwise, series by event name.
func (s *modelSession) query(from, to, step int64) []tsdb.Series {
	var out []tsdb.Series
	names := slices.Clone(s.names)
	slices.Sort(names)
	for _, ev := range names {
		j := slices.Index(s.names, ev)
		var ts, vs []int64
		for _, r := range s.rows {
			if step > 0 || (r.ts >= from && r.ts < to) {
				ts, vs = append(ts, r.ts), append(vs, r.vals[j])
			}
		}
		var bks []tsdb.Bucket
		if step > 0 {
			bks = bruteBuckets(ts, vs, from, to, step)
		} else {
			for i, v := range vs {
				bks = append(bks, tsdb.Bucket{Start: ts[i], Count: 1, Min: v, Max: v, Sum: v, Last: v})
			}
		}
		if len(bks) > 0 {
			out = append(out, tsdb.Series{Event: ev, Buckets: bks})
		}
	}
	return out
}

// modelSub is one subscription of a peer: the filter it asked for and
// how many rows its session had when the stream opened. One opened
// while a burst was in flight knows only bounds, until checkPeer finds
// its first row: the stream must open after row lo, whose ack was read
// before the SUBSCRIBE was sent, and at or before row hi, the first
// PUBLISHed after the subscriber read its ack.
type modelSub struct {
	events        []string // nil = every event
	delta, derive bool
	after         uint64
	join          int32 // which of its joiner's SUBSCRIBEs opened it, from 1; 0: none
	lo, hi        uint64
}

// peer is one subscriber connection and how it behaves.
type peer struct {
	cl         *Client
	rec        *recConn // the server's end of the pipe
	c          *conn    // the server's conn behind it
	role       string   // "healthy", "stalled" or "closer"
	closeAfter int      // closer: frames read before it hangs up
	subs       map[uint64]modelSub
	// hold, locked by the runner, stops a healthy reader: a subscriber
	// under pressure, whose queue fills and drops while it waits.
	hold sync.Mutex
	held bool
	done chan struct{}
	mu   sync.Mutex
	got  []wire.Response // every frame after its SUBSCRIBE replies
}

// read is the peer's reader goroutine. A stalled peer drains what its
// stall lets through, as a kernel buffer would; a closer hangs up after
// closeAfter frames; a healthy peer reads until its BYE reply.
func (p *peer) read() {
	defer close(p.done)
	if p.role == "stalled" {
		io.Copy(io.Discard, p.cl.nc)
		return
	}
	for n := 0; p.role != "closer" || n < p.closeAfter; n++ {
		p.hold.Lock()
		p.hold.Unlock()
		resp, err := p.cl.Next()
		if err != nil || resp.Op == wire.OpBye {
			return
		}
		p.mu.Lock()
		p.got = append(p.got, resp)
		p.mu.Unlock()
	}
	p.cl.Close()
}

func (p *peer) setHeld(held bool) {
	if held && !p.held {
		p.hold.Lock()
	} else if !held && p.held {
		p.hold.Unlock()
	}
	p.held = held
}

func (p *peer) frames() []wire.Response {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clone(p.got)
}

// runner runs one seed's schedule against one server.
type runner struct {
	t       *testing.T
	rng     *rand.Rand
	fk      *clock.Fake
	cfg     Config
	srv     *Server
	stopped bool
	m       map[uint64]*modelSession

	ctl     *Client   // CREATE, START, READ, QUERY, STATS
	pubs    []*Client // the concurrent publishers
	peers   []*peer
	witness *peer // follows every ticked session plainly, never held
	wseen   int   // the witness frames the model has taken in

	ticked, published []uint64
	closed            []uint64
	driven            driven
	sched             []string
}

func (d *runner) note(format string, args ...any) {
	d.sched = append(d.sched, fmt.Sprintf(format, args...))
}

func (d *runner) do(cl *Client, req wire.Request) wire.Response {
	d.t.Helper()
	resp, err := cl.Do(req)
	if err != nil {
		d.t.Fatalf("%s: %v", req.Op, err)
	}
	return resp
}

// waitFor spins until cond holds: a reader goroutine catching up with
// what the server already queued for it.
func (d *runner) waitFor(what string, cond func() bool) {
	d.t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			d.t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// dial connects a client to the server over a faultnet pipe on its
// clock, the server's end carrying f and recorded, and says HELLO. A
// steady end ignores write deadlines: its reader always drains, and a
// virtual deadline passing while that goroutine waits to be scheduled
// is no stall.
func (d *runner) dial(f faultnet.Faults, steady, binary bool) (*Client, *recConn) {
	d.t.Helper()
	f.Clock = d.fk
	cend, send := faultnet.Pipe(faultnet.Faults{Clock: d.fk}, f)
	rec := &recConn{Conn: send, steady: steady}
	d.srv.wg.Add(1)
	go d.srv.handle(rec)
	cl := &Client{nc: cend, enc: wire.NewEncoder(cend), dec: wire.NewDecoder(cend), PreferBinary: binary}
	d.t.Cleanup(func() { cl.Close() })
	if _, err := cl.Hello(); err != nil {
		d.t.Fatal(err)
	}
	return cl, rec
}

// subscribe opens a peer and registers each of its subscriptions before
// any traffic, so each reply is the only frame in flight.
func (d *runner) subscribe(role string, f faultnet.Faults, binary bool, subs map[uint64]modelSub) *peer {
	p := &peer{role: role, subs: subs, done: make(chan struct{})}
	p.cl, p.rec = d.dial(f, role != "stalled", binary)
	for id, sub := range subs {
		s := d.m[id]
		req := wire.Request{Op: wire.OpSubscribe, Session: id, Events: sub.events, Delta: sub.delta}
		if sub.derive {
			req.Derive = []string{"ipc"}
			if s.primed == 0 {
				s.primed = uint64(len(s.rows)) + 1
			}
		}
		d.do(p.cl, req)
		sub.events, sub.after = canonEvents(sub.events), uint64(len(s.rows))
		subs[id] = sub
	}
	d.addPeer(p)
	return p
}

// addPeer files p with the runner, and with the server's conn behind it.
func (d *runner) addPeer(p *peer) {
	d.srv.connsMu.Lock()
	for c := range d.srv.conns {
		if c.nc == net.Conn(p.rec) {
			p.c = c
		}
	}
	d.srv.connsMu.Unlock()
	d.peers = append(d.peers, p)
}

// joiner is a peer whose SUBSCRIBEs race a PUBLISH burst. Which rows
// its streams owe is known only against the order in which the two
// sides saw their replies: sent counts the SUBSCRIBEs it has sent,
// acked those whose ack it has read.
type joiner struct {
	p           *peer
	reqs        []wire.Request
	sent, acked atomic.Int32
	done        chan struct{} // every ack read
}

// join draws the peer for the next burst: a healthy reader, on either
// codec, subscribing to a random set of the open sessions in every
// shape — a wildcard over some of them among them, and derive groups
// where the row that primes them is known: on a ticked session, which
// the burst leaves alone, or one already primed.
func (d *runner) join() *joiner {
	rng := d.rng
	f := faultnet.Faults{}
	if rng.Intn(3) == 0 {
		f.ChunkSize = 16 + rng.Intn(200)
	}
	p := &peer{role: "healthy", subs: make(map[uint64]modelSub), done: make(chan struct{})}
	p.cl, p.rec = d.dial(f, true, rng.Intn(3) == 0)
	j := &joiner{p: p, done: make(chan struct{})}
	wild := wire.Request{Op: wire.OpSubscribe, Delta: rng.Intn(2) == 0}
	if rng.Intn(2) == 0 { // a filter every session can match
		wild.Events = ledgerEvents[rng.Intn(2):2]
	}
	for _, id := range slices.Concat(d.ticked, d.published) {
		shape := rng.Intn(6) // plain, events, delta, events+delta, derive, wildcard
		if rng.Intn(3) == 0 && id != d.published[0] {
			continue
		}
		s := d.m[id]
		if shape == 5 {
			wild.Sessions = append(wild.Sessions, id)
			continue
		}
		req := wire.Request{Op: wire.OpSubscribe, Session: id, Delta: shape == 2 || shape == 3}
		if shape == 1 || shape == 3 {
			for _, k := range rng.Perm(len(s.names))[:1+rng.Intn(len(s.names))] {
				req.Events = append(req.Events, s.names[k])
			}
		}
		if shape == 4 && (s.primed != 0 || slices.Contains(d.ticked, id)) {
			req.Derive = []string{"ipc"}
			if s.primed == 0 {
				s.primed = uint64(len(s.rows)) + 1
			}
		}
		j.reqs = append(j.reqs, req)
	}
	if len(wild.Sessions) > 0 {
		j.reqs = append(j.reqs, wild)
	}
	for i, req := range j.reqs {
		sub := modelSub{events: canonEvents(req.Events), delta: req.Delta, derive: req.Derive != nil, join: int32(i + 1)}
		for _, id := range append(req.Sessions, req.Session) {
			if id != 0 {
				p.subs[id] = sub
			}
		}
	}
	d.addPeer(p)
	d.note("peer %d joins: binary %v, faults %+v, %+v", len(d.peers)-1, p.cl.PreferBinary, f, j.reqs)
	return j
}

// subscribe sends the joiner's SUBSCRIBEs one by one, each while the
// burst flows, and then reads its streams as any healthy peer does. A
// frame that reaches it before the ack of its subscription overtook
// the ack.
func (j *joiner) subscribe(t *testing.T) {
	p, acked := j.p, make(map[uint64]bool)
	early := func(f wire.Response) {
		if !acked[f.Session] {
			t.Errorf("joiner: %s seq %d of session %d overtook its SUBSCRIBE ack", f.Op, f.Seq, f.Session)
		}
		p.mu.Lock()
		p.got = append(p.got, f)
		p.mu.Unlock()
	}
	p.cl.OnSnapshot, p.cl.OnDelta, p.cl.OnDerived = early, early, early
	for _, req := range j.reqs {
		j.sent.Add(1)
		resp, err := p.cl.Do(req)
		j.acked.Add(1)
		if err != nil {
			t.Errorf("joiner SUBSCRIBE %+v: %v", req, err)
		}
		for _, id := range append(resp.Sessions, resp.Session) {
			acked[id] = true
		}
	}
	close(j.done)
	p.read()
}

// shutdown lets every held reader go and stops the server, once.
func (d *runner) shutdown() {
	if d.stopped {
		return
	}
	d.stopped = true
	for _, p := range d.peers {
		p.setHeld(false)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		d.t.Errorf("shutdown: %v", err)
	}
}

// driveSeed runs seed's schedule on a sweep of the given width and
// returns the witness's frames by session, as the server wrote them.
func driveSeed(t *testing.T, seed int64, width int) map[uint64][]string {
	rng := rand.New(rand.NewSource(seed))
	d := &runner{t: t, rng: rng, fk: clock.NewFake(time.Unix(1_700_000_000, 0)), m: map[uint64]*modelSession{}}
	defer func() {
		if t.Failed() {
			t.Logf("width %d, schedule:\n\t%s", width, strings.Join(d.sched, "\n\t"))
		}
	}()
	// No read-idle eviction and no retention: virtual minutes pass
	// between a publisher's requests and over the model's rows.
	d.cfg = Config{TickInterval: time.Hour, tickWorkers: width, ReadIdleTimeout: -1, TSDBRetention: -1,
		WriteQueueDepth: 24 + rng.Intn(40), KeyframeEvery: 2 + rng.Intn(6),
		WriteTimeout: time.Duration(100+rng.Intn(900)) * time.Millisecond, clock: d.fk}
	if rng.Intn(2) == 0 {
		d.cfg.WriteQueueDepth = deepQueue
	}
	if rng.Intn(2) == 0 {
		d.cfg.KeyframeEvery = 1 << 20 // only a drop re-keys a delta view
	}
	durable := rng.Intn(3) == 0
	if durable {
		d.cfg.DataDir, d.cfg.Fsync = t.TempDir(), "off"
	}
	d.note("queue %d, keyframe every %d, write timeout %v, durable %v",
		d.cfg.WriteQueueDepth, d.cfg.KeyframeEvery, d.cfg.WriteTimeout, durable)
	d.srv = New(d.cfg)
	if d.srv.walErr != nil {
		t.Fatal(d.srv.walErr)
	}
	defer d.shutdown()
	d.setup()

	d.tick()
	d.publish(nil)
	if durable {
		d.bulk()
	}
	for n := 20 + rng.Intn(20); n > 0; n-- {
		step := time.Duration(1+rng.Intn(50)) * time.Millisecond
		if rng.Intn(8) == 0 {
			step = time.Duration(1+rng.Intn(20)) * time.Second
		}
		d.fk.Advance(step)
		switch r := rng.Intn(21); {
		case r < 6:
			d.tick()
		case r < 10:
			d.publish(nil)
		case r < 12:
			d.publish(d.join())
		case r < 13 && len(d.ticked)+len(d.published) > 3:
			d.closeOne()
		case r < 16 || (r >= 19 && !durable):
			d.query()
		case r < 17:
			d.read(d.published[rng.Intn(len(d.published))])
		case r < 19:
			i, held := 1+rng.Intn(len(d.peers)-1), rng.Intn(2) == 0 // not the witness
			if p := d.peers[i]; p.role == "healthy" {
				d.note("hold peer %d: %v", i, held)
				p.setHeld(held)
			}
		case r == 19:
			d.note("Sync")
			d.srv.wal.Sync()
		default:
			d.note("Compact")
			if _, err := d.srv.wal.Compact(d.fk.Now().UnixMicro()); err != nil {
				t.Errorf("Compact: %v", err)
			}
		}
	}
	d.finish()
	d.check()
	if durable {
		d.restart()
	}
	lines := make(map[uint64][]string)
	for _, line := range bytes.SplitAfter(d.witness.rec.wrote, []byte("\n")) {
		var f struct{ Session uint64 }
		json.Unmarshal(line, &f)
		lines[f.Session] = append(lines[f.Session], string(line))
	}
	return lines
}

// setup creates 2–4 ticked sessions, 2–3 publish-only ones with one row
// each, 2–4 publishers, the witness and 2–5 more peers, every
// subscription in place before the first tick or PUBLISH. The first of
// those peers is healthy and follows the first ticked session's ipc and
// the first publish-only session in delta mode, so every seed has both;
// the second follows that session's ipc, so each of its rows, which the
// publishers race on, is a SNAPSHOT and a DERIVED frame.
func (d *runner) setup() {
	rng := d.rng
	d.ctl, _ = d.dial(faultnet.Faults{}, true, rng.Intn(2) == 0)
	for range 2 + rng.Intn(3) {
		id := d.do(d.ctl, wire.Request{Op: wire.OpCreate, Events: ledgerEvents[:2], Workload: "dot", N: 8}).Session
		d.ticked = append(d.ticked, id)
		d.m[id] = &modelSession{names: ledgerEvents[:2], source: "live"}
	}
	for range 2 + rng.Intn(2) {
		id := d.do(d.ctl, wire.Request{Op: wire.OpCreate, Workload: "none"}).Session
		d.published = append(d.published, id)
		d.m[id] = &modelSession{names: ledgerEvents, source: "published"}
		d.publishOne(id)
	}
	for range 2 + rng.Intn(3) {
		pub, _ := d.dial(faultnet.Faults{}, true, false)
		d.pubs = append(d.pubs, pub)
	}

	witness := make(map[uint64]modelSub)
	for _, id := range d.ticked {
		witness[id] = modelSub{}
	}
	d.witness = d.subscribe("healthy", faultnet.Faults{}, false, witness)
	roles := []string{"healthy", "healthy", "stalled", "closer"}
	for i := range 2 + rng.Intn(4) {
		role, f := roles[rng.Intn(len(roles))], faultnet.Faults{}
		if i == 0 {
			role = "healthy"
		}
		if rng.Intn(3) == 0 {
			f.ChunkSize = 16 + rng.Intn(200) // a frame crosses in pieces
		}
		if role == "stalled" {
			// Past every SUBSCRIBE reply: the stall comes with the traffic.
			f.StallAfter, f.ChunkSize = 2048+rng.Int63n(4096), 64+rng.Intn(448)
		}
		subs := make(map[uint64]modelSub)
		for j, id := range slices.Concat(d.ticked, d.published) {
			shape := rng.Intn(5) // plain, events, delta, events+delta, derive
			if (i == 0 && j == 0) || (i == 1 && id == d.published[0]) {
				shape = 4
			} else if i == 0 && id == d.published[0] {
				shape = 2
			} else if rng.Intn(3) == 0 {
				continue
			}
			var sub modelSub
			if shape == 1 || shape == 3 {
				names := d.m[id].names
				for _, k := range rng.Perm(len(names))[:1+rng.Intn(len(names))] {
					sub.events = append(sub.events, names[k])
				}
			}
			sub.delta, sub.derive = shape == 2 || shape == 3, shape == 4
			subs[id] = sub
		}
		p := d.subscribe(role, f, rng.Intn(3) == 0, subs)
		p.closeAfter = rng.Intn(40)
		p.setHeld(role == "healthy" && rng.Intn(3) == 0)
		d.note("peer %d: %s, binary %v, faults %+v, close after %d, held %v, subs %+v",
			len(d.peers)-1, role, p.cl.PreferBinary, f, p.closeAfter, p.held, p.subs)
	}
	for _, p := range d.peers {
		go p.read()
	}
	for _, id := range d.ticked {
		d.do(d.ctl, wire.Request{Op: wire.OpStart, Session: id})
	}
}

// tick runs one sweep and takes the rows it made into the model from
// the witness, which is never held and is sent at most two frames per
// ticked session: however late its reader, nothing it is sent drops.
func (d *runner) tick() {
	d.note("tick at %d", d.fk.Now().UnixMicro())
	d.srv.tick()
	d.driven.ticks++
	d.driven.tickRows += uint64(len(d.ticked))
	var rows []wire.Response
	d.waitFor("the witness's rows", func() bool {
		rows = rows[:0]
		for _, f := range d.witness.frames()[d.wseen:] {
			if f.Op == wire.OpSnapshot {
				rows = append(rows, f)
			}
		}
		return len(rows) >= len(d.ticked)
	})
	for _, f := range rows {
		s := d.m[f.Session]
		if n := len(s.rows); f.Seq != uint64(n)+1 {
			d.t.Fatalf("session %d: tick row seq %d where %d was due", f.Session, f.Seq, n+1)
		} else if n > 0 && (f.Values[0] < s.rows[n-1].vals[0] || f.Values[1] < s.rows[n-1].vals[1]) {
			d.t.Errorf("session %d: a running session's counters stepped back: %v after %v",
				f.Session, f.Values, s.rows[n-1].vals)
		}
		s.rows = append(s.rows, modelRow{d.fk.Now().UnixMicro(), f.Values})
		d.wseen++
		if _, ok := s.ipc(f.Seq); ok {
			d.wseen++
		}
	}
	d.waitFor("the witness's DERIVED frames", func() bool { return len(d.witness.frames()) >= d.wseen })
}

// publishOne publishes the session's next row from the control
// connection.
func (d *runner) publishOne(id uint64) {
	s := d.m[id]
	k := s.lastK.Add(1)
	if seq := d.do(d.ctl, wire.Request{Op: wire.OpPublish, Session: id, Events: ledgerEvents,
		Values: rowOf(k)}).Seq; seq != uint64(len(s.rows))+1 {
		d.t.Errorf("session %d: PUBLISH acked seq %d where %d was due", id, seq, len(s.rows)+1)
	}
	s.rows = append(s.rows, modelRow{d.fk.Now().UnixMicro(), rowOf(k)})
	d.driven.publishes++
}

// publish is one burst: every publisher sends 2–13 PUBLISHes at once,
// half of them to the first publish-only session, so the connections
// race on it, and some refused — a value short, or no such session.
// The acks' seqs must number each session's new rows with no gap. j,
// when not nil, subscribes while the burst is in flight; each ack
// notes how many of j's SUBSCRIBE acks were read before its PUBLISH was
// sent, and how many SUBSCRIBEs were sent before it was read.
func (d *runner) publish(j *joiner) {
	type ack struct {
		id, seq     uint64
		k           int64
		acked, sent int32
	}
	if j == nil {
		j = &joiner{} // no one joins: its counts stay 0
	} else {
		go j.subscribe(d.t)
	}
	var mu sync.Mutex
	var acks []ack
	var wg sync.WaitGroup
	for _, pub := range d.pubs {
		n, seed := 2+d.rng.Intn(12), d.rng.Int63()
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for range n {
				id := d.published[rng.Intn(len(d.published))]
				if rng.Intn(2) == 0 {
					id = d.published[0]
				}
				req := wire.Request{Op: wire.OpPublish, Session: id, Events: ledgerEvents}
				var k int64
				switch rng.Intn(8) {
				case 0: // a value short, named or not
					req.Values = rowOf(1)[:3]
					if rng.Intn(2) == 0 {
						req.Events = nil
					}
				case 1:
					req.Session, req.Values = math.MaxUint32, rowOf(1)
				default:
					k = d.m[id].lastK.Add(1)
					req.Values = rowOf(k)
				}
				acked := j.acked.Load()
				resp, err := pub.Do(req)
				sent := j.sent.Load()
				if (err == nil) != (k != 0) {
					d.t.Errorf("PUBLISH %+v: %+v, %v", req, resp, err)
					return
				}
				if k == 0 {
					continue // refused, as it must be
				}
				mu.Lock()
				acks = append(acks, ack{id, resp.Seq, k, acked, sent})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if j.p != nil {
		<-j.done
	}
	d.note("publish burst at %d: %d acked", d.fk.Now().UnixMicro(), len(acks))
	slices.SortFunc(acks, func(a, b ack) int { return cmp.Or(cmp.Compare(a.id, b.id), cmp.Compare(a.seq, b.seq)) })
	if j.p != nil {
		// Rows are owed from the first PUBLISHed after the ack was read,
		// and from the next row after the burst at the latest.
		for id, sub := range j.p.subs {
			end := uint64(len(d.m[id].rows))
			sub.lo, sub.hi = end, math.MaxUint64
			for _, a := range acks {
				if a.id != id {
					continue
				}
				end++
				if a.sent < sub.join {
					sub.lo = a.seq
				}
				if a.acked >= sub.join {
					sub.hi = min(sub.hi, a.seq)
				}
			}
			sub.hi = min(sub.hi, end+1)
			j.p.subs[id] = sub
		}
	}
	for _, a := range acks {
		s := d.m[a.id]
		if a.seq != uint64(len(s.rows))+1 {
			d.t.Fatalf("session %d: PUBLISH acked seq %d where %d was due", a.id, a.seq, len(s.rows)+1)
		}
		s.rows = append(s.rows, modelRow{d.fk.Now().UnixMicro(), rowOf(a.k)})
		d.driven.publishes++
	}
}

// bulk creates one more publish-only session, which no one follows,
// and publishes more rows to it than a tsdb block holds, eight in
// flight at a time from the control connection: a durable server seals
// a block and persists it while it runs.
func (d *runner) bulk() {
	id := d.do(d.ctl, wire.Request{Op: wire.OpCreate, Workload: "none"}).Session
	d.note("bulk PUBLISH to session %d", id)
	s := &modelSession{names: ledgerEvents, source: "published"}
	d.m[id], d.published = s, append(d.published, id)
	d.publishOne(id)
	for range 65 {
		d.fk.Advance(time.Millisecond)
		for range 8 {
			k := s.lastK.Add(1)
			if err := d.ctl.enc.Encode(&wire.Request{Op: wire.OpPublish, Session: id, Values: rowOf(k)}); err != nil {
				d.t.Fatal(err)
			}
			s.rows = append(s.rows, modelRow{d.fk.Now().UnixMicro(), rowOf(k)})
		}
		for i := 8; i > 0; i-- {
			if resp, err := d.ctl.Next(); err != nil || resp.Seq != uint64(len(s.rows)-i+1) {
				d.t.Fatalf("bulk PUBLISH: %+v (%v), want seq %d", resp, err, len(s.rows)-i+1)
			}
		}
	}
	d.driven.publishes += 65 * 8
}

// closeOne closes one session other than the first ticked and the
// first two publish-only ones, which every seed keeps: its subscribers'
// connections forget it, its streams end at its last row, and a PUBLISH
// to it is refused with no seq used. Its history stays queryable.
func (d *runner) closeOne() {
	open := slices.Concat(d.ticked[1:], d.published[2:])
	id := open[d.rng.Intn(len(open))]
	d.note("CLOSE_SESSION %d", id)
	d.do(d.ctl, wire.Request{Op: wire.OpCloseSession, Session: id})
	if resp, err := d.ctl.Do(wire.Request{Op: wire.OpPublish, Session: id, Events: ledgerEvents,
		Values: rowOf(1)}); err == nil {
		d.t.Errorf("PUBLISH to closed session %d acked: %+v", id, resp)
	}
	isID := func(x uint64) bool { return x == id }
	d.ticked, d.published = slices.DeleteFunc(d.ticked, isID), slices.DeleteFunc(d.published, isID)
	d.closed = append(d.closed, id)
}

// sessions is every session the schedule created, closed ones too.
func (d *runner) sessions() []uint64 { return slices.Concat(d.ticked, d.published, d.closed) }

// query asks for one session's history over a window whose edges sit
// on or beside row timestamps, where an off-by-one shows, or over all
// of it.
func (d *runner) query() {
	all := d.sessions()
	id := all[d.rng.Intn(len(all))]
	step := queryStep[d.rng.Intn(len(queryStep))]
	from, to := int64(0), int64(1<<62)
	if rows := d.m[id].rows; len(rows) > 0 && d.rng.Intn(4) != 0 {
		edge := func() int64 { return rows[d.rng.Intn(len(rows))].ts + int64(d.rng.Intn(3)-1) }
		from, to = edge(), edge()
		from, to = min(from, to), max(from, to+1)
	}
	d.note("QUERY session %d [%d, %d) step %d", id, from, to, step)
	d.checkQuery(d.ctl, id, from, to, step)
}

// checkQuery asks cl's server one QUERY and compares the answer with the
// model's.
func (d *runner) checkQuery(cl *Client, id uint64, from, to, step int64) {
	d.t.Helper()
	got := d.do(cl, wire.Request{Op: wire.OpQuery, Session: id, From: from, To: to, Step: step}).Series
	for i := range got {
		got[i].Width = 0 // which source served it is not the answer
	}
	if want := d.m[id].query(from, to, step); !slices.EqualFunc(got, want, func(a, b tsdb.Series) bool {
		return a.Event == b.Event && slices.Equal(a.Buckets, b.Buckets)
	}) {
		d.t.Errorf("session %d QUERY [%d, %d) step %d:\ngot  %+v\nwant %+v", id, from, to, step, got, want)
	}
}

func (d *runner) read(id uint64) {
	d.note("READ session %d", id)
	resp, s := d.do(d.ctl, wire.Request{Op: wire.OpRead, Session: id}), d.m[id]
	if last := s.rows[len(s.rows)-1]; resp.Seq != uint64(len(s.rows)) || !slices.Equal(resp.Values, last.vals) ||
		!slices.Equal(resp.Events, s.names) {
		d.t.Errorf("session %d READ seq %d %v=%v, last acked seq %d %v", id, resp.Seq, resp.Events, resp.Values,
			len(s.rows), last.vals)
	}
}

// finish ends the pressure and lets the clock pass every stalled write's
// deadline; once every healthy queue is empty it runs one more tick and
// one more PUBLISH per session, which no queue can drop, and checks READ,
// every QUERY view and STATS. Then the healthy peers say BYE and the
// closers hang up, and the server shuts down.
func (d *runner) finish() {
	for _, p := range d.peers {
		p.setHeld(false)
	}
	d.fk.Advance(d.cfg.WriteTimeout + time.Millisecond)
	for _, p := range d.peers {
		if p.role == "healthy" {
			d.waitFor("a healthy queue to drain", func() bool { return p.c.q.len() == 0 })
		}
	}
	d.tick()
	for _, id := range d.published {
		d.publishOne(id)
		d.read(id)
	}
	var series, samples int
	for _, id := range d.sessions() {
		for _, step := range queryStep {
			d.checkQuery(d.ctl, id, 0, 1<<62, step)
		}
		series += len(d.m[id].names)
		samples += len(d.m[id].names) * len(d.m[id].rows)
	}
	st := d.do(d.ctl, wire.Request{Op: wire.OpStats}).Stats
	if st["tsdb_series"] != uint64(series) || st["tsdb_samples"] != uint64(samples) || st["tsdb_bytes"] == 0 {
		d.t.Errorf("STATS tsdb_series %d tsdb_samples %d tsdb_bytes %d, the model holds %d series of %d samples",
			st["tsdb_series"], st["tsdb_samples"], st["tsdb_bytes"], series, samples)
	}
	if d.cfg.DataDir != "" && (st["wal_clean_start"] != 0 || st["wal_sealed_blocks"] < uint64(len(ledgerEvents))) {
		d.t.Errorf("a first boot reported wal_clean_start %d and persisted %d sealed blocks, want 0 and the bulk session's",
			st["wal_clean_start"], st["wal_sealed_blocks"])
	}

	for _, p := range d.peers {
		if p.role == "healthy" {
			if err := p.cl.enc.Encode(&wire.Request{Op: wire.OpBye}); err != nil {
				d.t.Fatalf("BYE: %v", err)
			}
		} else if p.role == "closer" {
			p.cl.Close()
		}
	}
	// A BYE reply queues behind every frame fanned out before it, so a
	// reader that sees it has seen everything its queue kept.
	timeout := time.After(10 * time.Second)
	for _, p := range d.peers {
		if p.role != "stalled" {
			select {
			case <-p.done:
			case <-timeout:
				d.t.Fatal("a reader never saw its BYE reply")
			}
		}
	}
	d.shutdown()
	for _, p := range d.peers {
		<-p.done
	}
}

// check audits the quiet server: the drop ledger, the identities, and
// every healthy peer's frames against the model. Only the peers
// subscribe, so theirs are the sockets that took fan-out frames.
func (d *runner) check() {
	t := d.t
	written := make(map[string]uint64)
	var dropped, missed uint64
	for _, p := range d.peers {
		for _, f := range p.rec.frames() {
			written[f.Op]++
		}
	}
	for op, kind := range map[string]string{wire.OpSnapshot: "snapshots", wire.OpDelta: "deltas", wire.OpDerived: "derived"} {
		sent, lost := stat(t, d.srv, kind+"_sent"), stat(t, d.srv, kind+"_dropped")
		if sent-lost != written[op] {
			t.Errorf("%s: sent %d − dropped %d = %d, but %d reached the sockets", kind, sent, lost, sent-lost, written[op])
		}
		if sent == 0 {
			t.Errorf("%s: none sent; the schedule never exercised the kind", kind)
		}
		dropped += lost
	}
	checkIdentities(t, d.srv, d.driven)
	for i, p := range d.peers {
		if p.role == "healthy" {
			missed += d.checkPeer(i, p)
		}
	}
	if missed > dropped {
		t.Errorf("healthy peers missed %d frames, but the server dropped only %d", missed, dropped)
	}
}

// checkPeer checks one healthy peer's frames against the model and
// returns how many it was owed and never got. A peer that lost nothing
// — any peer of a deep queue, and the witness — holds every row and
// every DERIVED frame, each DERIVED straight behind its row; one under
// pressure holds a rising subsequence whose delta frames reassemble
// once a keyframe anchors them. Either ends with the last row of each
// session it follows, but one under pressure need not reach a closed
// session's. A stream opened during a burst starts at its first row,
// which must lie in the bounds the burst set (modelSub).
func (d *runner) checkPeer(i int, p *peer) uint64 {
	t := d.t
	type stream struct {
		row, derived        uint64 // the last seqs received
		rowLast, unanchored bool   // the session's last frame was a row; its last row frame did not reassemble
	}
	streams := make(map[uint64]*stream)
	var owed uint64
	got := p.frames()
	for id, sub := range p.subs {
		if sub.join != 0 {
			first := uint64(len(d.m[id].rows)) + 1
			if k := slices.IndexFunc(got, func(f wire.Response) bool {
				return f.Session == id && f.Op != wire.OpDerived
			}); k >= 0 {
				first = got[k].Seq
			}
			if first <= sub.lo {
				t.Errorf("peer %d session %d: the stream opens at row %d, acked before the SUBSCRIBE was sent (after %d)",
					i, id, first, sub.lo)
			}
			sub.after = min(first, sub.hi) - 1
		}
		streams[id] = &stream{row: sub.after}
		for seq := sub.after + 1; seq <= uint64(len(d.m[id].rows)); seq++ {
			if _, ok := d.m[id].ipc(seq); ok {
				owed++
			}
			owed++
		}
	}
	lossless := uint64(len(got)) == owed
	if !lossless && (p == d.witness || d.cfg.WriteQueueDepth == deepQueue) {
		t.Errorf("peer %d: %d frames, owed %d, and nothing could drop", i, len(got), owed)
	}
	var tracker wire.DeltaTracker
	for _, f := range got {
		sub, ok := p.subs[f.Session]
		if !ok {
			t.Fatalf("peer %d: %s for session %d it never subscribed to", i, f.Op, f.Session)
		}
		s, st := d.m[f.Session], streams[f.Session]
		if f.Seq > uint64(len(s.rows)) {
			t.Fatalf("peer %d session %d: %s seq %d, but the session has %d rows", i, f.Session, f.Op, f.Seq, len(s.rows))
		}
		if f.Op == wire.OpDerived {
			want, ok := s.ipc(f.Seq)
			behind := f.Seq > st.derived && f.Seq >= st.row && (!lossless || st.rowLast && f.Seq == st.row)
			if j := slices.Index(f.Metrics, "ipc"); !ok || !behind || j < 0 || f.DValues[j] != want {
				t.Errorf("peer %d session %d: DERIVED seq %d %v=%v behind row seq %d; the model's ipc %v (%v)",
					i, f.Session, f.Seq, f.Metrics, f.DValues, st.row, want, ok)
			}
			st.derived, st.rowLast = f.Seq, false
			continue
		}
		if f.Op == wire.OpDelta && !sub.delta || f.Op == wire.OpSnapshot && f.Source != s.source {
			t.Errorf("peer %d session %d seq %d: %s from %q on a subscription %+v", i, f.Session, f.Seq, f.Op, f.Source, sub)
		}
		st.rowLast = true
		row, err := tracker.Apply(f)
		if st.unanchored = errors.Is(err, wire.ErrDeltaGap) || errors.Is(err, wire.ErrNoKeyframe); st.unanchored {
			if lossless {
				t.Errorf("peer %d session %d seq %d: %v with nothing lost", i, f.Session, f.Seq, err)
			}
			continue // its keyframe was dropped; the re-key follows
		}
		if err != nil || row.Seq <= st.row || row.Seq > uint64(len(s.rows)) || (lossless && row.Seq != st.row+1) {
			t.Fatalf("peer %d session %d: seq %d after %d, of %d rows (%v)", i, f.Session, row.Seq, st.row, len(s.rows), err)
		}
		st.row = row.Seq
		if events, vals := s.view(row.Seq, sub.events); !slices.Equal(row.Events, events) || !slices.Equal(row.Values, vals) {
			t.Errorf("peer %d session %d seq %d (%s): got %v=%v, want %v=%v", i, f.Session, row.Seq, f.Op,
				row.Events, row.Values, events, vals)
		}
	}
	for id, st := range streams {
		// A closed session has no last row after the pressure to catch
		// a lossy stream up with; the ledger holds it to what it lost.
		closed := slices.Contains(d.closed, id)
		if (!closed || lossless) && (st.unanchored || st.row != uint64(len(d.m[id].rows))) {
			t.Errorf("peer %d session %d: the stream ends at seq %d (unanchored %v), the last row is %d",
				i, id, st.row, st.unanchored, len(d.m[id].rows))
		}
	}
	return owed - min(owed, uint64(len(got)))
}

// restart opens the durable server's directory again after the clean
// shutdown: it must take the fast path, replay no row, and serve every
// QUERY view the model does, as it did before.
func (d *runner) restart() {
	d.srv, d.stopped = New(d.cfg), false
	if d.srv.walErr != nil {
		d.t.Fatalf("wal reopen: %v", d.srv.walErr)
	}
	defer d.shutdown()
	if rs := d.srv.Replay(); !rs.CleanStart || rs.Rows != 0 || stat(d.t, d.srv, "wal_clean_start") != 1 {
		d.t.Errorf("restart after a clean shutdown: %+v, wal_clean_start %d", rs, stat(d.t, d.srv, "wal_clean_start"))
	}
	cl, _ := d.dial(faultnet.Faults{}, true, false)
	for _, id := range d.sessions() {
		for _, step := range queryStep {
			d.checkQuery(cl, id, 0, 1<<62, step)
		}
	}
}

// recConn records every byte the server's writer got onto the socket.
// A steady one ignores write deadlines (see runner.dial).
type recConn struct {
	net.Conn
	steady bool
	mu     sync.Mutex
	wrote  []byte
}

func (c *recConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.wrote = append(c.wrote, p[:n]...)
	c.mu.Unlock()
	return n, err
}

func (c *recConn) SetWriteDeadline(t time.Time) error {
	if c.steady {
		return nil
	}
	return c.Conn.SetWriteDeadline(t)
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
