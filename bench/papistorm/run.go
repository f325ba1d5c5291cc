package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/tsdb"
	"repro/internal/wire"
)

// metric is one reported number. Spread is how far the rounds of the
// run disagreed about it (largest minus smallest per-round value), as a
// share of the value; -compare reads it.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread,omitempty"`
}

// result is one workload's run.
type result struct {
	Workload  string            `json:"workload"`
	Flags     []string          `json:"papid_flags"`
	Requests  int               `json:"requests_per_round"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Invalid   string            `json:"invalid,omitempty"` // why the generator's own run does not count
	Failure   string            `json:"first_failure,omitempty"`
	Metrics   map[string]metric `json:"end_to_end"`
	Layers    map[string]metric `json:"per_layer"`

	// pool holds, for each time-based end-to-end metric, every value of
	// the run at reference host speed (report.go): each latency sample, or
	// papid's CPU in each slice.
	pool map[string][]float64
}

// A run is nRounds rounds. Each starts with a warm-up that is
// discarded: the first ticks after START pay page faults and pool fills
// that no later tick does. The measured window is cut into slices of
// sliceLen, each with its own reading of the host gauge (report.go).
const (
	nRounds  = 3
	warmup   = 1500 * time.Millisecond
	sliceLen = time.Second
)

var (
	rawQueryEvents = []string{"PAPI_TOT_INS", "PAPI_TOT_CYC"}
	deriveGroups   = []string{"ipc"} // what a derive-mode QUERY asks for
)

// wholeRange is a QUERY window that covers every timestamp papid can
// have written.
const wholeRangeTo = math.MaxInt64

// oneBucketStep is a step so wide (2^50 µs, ~35 years) that the whole
// history of a session falls into one window: its Count is the row
// count and its Last the final value.
const oneBucketStep = 1 << 50

// runner drives one workload against one papid process.
type runner struct {
	sp     *spec
	seed   int64
	bin    string
	outDir string
	rounds int
	warmup time.Duration
	window time.Duration // per round

	rec     *recorder
	p       *papid
	c       [2]*client
	dataDir string
	liveIDs []uint64
	pubIDs  []uint64
	sent    []uint64 // per publish session, seq of the last row sent
	lastDue []int64  // per publish session, due time carried by that row
}

// setup execs papid and brings it to the state the warm-up starts
// from: sessions created and started, history preloaded and acked,
// subscriptions acked.
func (r *runner) setup() error {
	flags := append(slices.Clone(commonFlags), r.sp.flags...)
	if r.sp.durable {
		dir, err := os.MkdirTemp(r.outDir, "wal-")
		if err != nil {
			return err
		}
		r.dataDir = dir
		flags = append(flags, "-data-dir", dir)
	}
	p, err := startPapid(r.bin, flags)
	if err != nil {
		return err
	}
	r.p = p
	r.rec = newRecorder(r.sp, r.seed)
	if err := r.dial(); err != nil {
		return err
	}
	return r.populate()
}

// dial opens both connections to the running papid.
func (r *runner) dial() error {
	for i := range r.c {
		c, err := dial(i, r.p.addr, r.sp.codec[i], r.rec)
		if err != nil {
			return err
		}
		r.c[i] = c
	}
	return nil
}

// populate creates and starts the sessions, preloads and subscribes.
func (r *runner) populate() error {
	r.liveIDs, r.pubIDs = nil, nil
	for i := 0; i < r.sp.live; i++ {
		resp, err := r.c[0].call(wire.Request{Op: wire.OpCreate, Platform: "aix-power3", Events: liveEvents,
			Workload: r.sp.liveWorkload, N: 8, Label: fmt.Sprintf("live-%03d", i)})
		if err != nil {
			return err
		}
		if _, err := r.c[0].call(wire.Request{Op: wire.OpStart, Session: resp.Session}); err != nil {
			return err
		}
		r.rec.liveIdx[resp.Session] = i
		r.liveIDs = append(r.liveIDs, resp.Session)
	}
	for i, label := range r.sp.pubLabels {
		resp, err := r.c[0].call(wire.Request{Op: wire.OpCreate, Workload: "none", Label: label})
		if err != nil {
			return err
		}
		r.rec.pubIdx[resp.Session] = i
		r.pubIDs = append(r.pubIDs, resp.Session)
	}
	if err := r.preload(); err != nil {
		return err
	}
	for i, sub := range r.sp.subs {
		cr := &r.rec.conns[sub.conn]
		_, err := r.c[sub.conn].callFirst(wire.Request{Op: wire.OpSubscribe, Labels: sub.labels,
			Events: sub.events, Delta: sub.delta}, func(resp *wire.Response) {
			cr.mu.Lock()
			for _, id := range resp.Sessions {
				cr.streams[id] = &stream{sub: i}
			}
			cr.mu.Unlock()
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// preloadChunk bounds the preload's pipelining: papid does not stop
// reading requests while replies queue up, and evicts a connection whose
// reply queue (-write-queue 1024) jams, so at most two chunks are ever
// unanswered.
const preloadChunk = 256

// preload publishes the set-up rows, pipelined: at least one per
// publish session, which also names the session's events, so that
// every later PUBLISH carries values only.
func (r *runner) preload() error {
	rows := max(r.sp.preload, 1)
	r.sent = make([]uint64, len(r.pubIDs))
	r.lastDue = make([]int64, len(r.pubIDs))
	vals := make([]int64, len(pubEvents))
	n := 0
	for k := 1; k <= rows; k++ {
		for s := range r.pubIDs {
			req := wire.Request{Op: wire.OpPublish, Session: r.pubIDs[s]}
			if k == 1 {
				req.Events = pubEvents
			}
			if err := r.publish(&req, s, time.Now().UnixNano(), vals); err != nil {
				return err
			}
			if n++; n%preloadChunk == 0 {
				if err := r.c[0].flush(); err != nil {
					return err
				}
				if err := r.awaitReplies(preloadChunk); err != nil {
					return err
				}
			}
		}
	}
	if err := r.c[0].flush(); err != nil {
		return err
	}
	return r.awaitReplies(0)
}

// publish sends the next row of publish session s, due at due.
func (r *runner) publish(req *wire.Request, s int, due int64, vals []int64) error {
	r.sent[s]++
	r.lastDue[s] = due
	rowValues(r.seed, s, r.sent[s], vals)
	vals[dueIdx] = due
	req.Values = vals
	return r.c[0].send(req, pending{kind: opPublish, due: due, sess: s, seq: r.sent[s]})
}

// awaitReplies waits until at most `most` requests are unanswered.
func (r *runner) awaitReplies(most int) error {
	const limit = 30 * time.Second
	deadline := time.Now().Add(limit)
	for r.c[0].inFlight()+r.c[1].inFlight() > most {
		for _, c := range r.c {
			select {
			case <-c.readDone:
				return fmt.Errorf("connection %d lost: %v\npapid: %s", c.id, c.readErr, r.p.stderr.String())
			default:
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d requests unanswered after %v", r.c[0].inFlight()+r.c[1].inFlight(), limit)
		}
		runtime.Gosched()
	}
	return nil
}

// teardown closes the connections, kills papid and removes its data.
func (r *runner) teardown() {
	for i, c := range r.c {
		if c != nil {
			c.close()
			r.c[i] = nil
		}
	}
	if r.p != nil {
		r.p.kill()
		r.p = nil
	}
	if r.dataDir != "" {
		os.RemoveAll(r.dataDir)
		r.dataDir = ""
	}
}

// queryShape is the window of one scheduled query due at dueUS (µs):
// the whole history in one-second steps, except that a raw query reads
// two events' samples of the last two seconds.
func queryShape(kind opKind, dueUS int64) tsdb.Query {
	if kind == opQueryRaw {
		return tsdb.Query{Events: rawQueryEvents, From: dueUS - 2e6, To: wholeRangeTo}
	}
	return tsdb.Query{To: wholeRangeTo, Step: int64(time.Second / time.Microsecond)}
}

func (r *runner) queryRequest(kind opKind, sess int, due int64) wire.Request {
	id := r.liveIDs
	if !r.sp.queryLive {
		id = r.pubIDs
	}
	q := queryShape(kind, due/1e3)
	req := wire.Request{Op: wire.OpQuery, Session: id[sess], Events: q.Events, From: q.From, To: q.To, Step: q.Step}
	if kind == opQueryDerive {
		req.Derive = deriveGroups
	}
	return req
}

// edge is what the pacer samples at each boundary between slices of
// the window. CPU times are in ms since the process started.
type edge struct {
	at       time.Time
	papidCPU float64
	selfCPU  float64
	spun     float64 // of selfCPU, the part the pacer spent spinning
	backlog  int     // requests sent and not yet answered
}

// run measures the workload: r.rounds rounds, each on a papid process
// of its own, folded into one result by combine. One run therefore sets
// up several times, and a process that happened to start in a slow or
// fast state (thread placement, heap layout) is one vote among several
// instead of the whole answer.
func (r *runner) run() (*result, error) {
	var rounds []*result
	for i := 0; i < r.rounds; i++ {
		res, err := r.round()
		r.teardown()
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, res)
	}
	return combine(rounds), nil
}

// combine folds the rounds of one run into one result. Counts add up.
// Each metric is the median of its per-round values, and its Spread is
// their range as a share of that median; a pooled metric's value is
// instead the median of its pool over all rounds.
func combine(rounds []*result) *result {
	out := &result{Workload: rounds[0].Workload, Flags: rounds[0].Flags, Requests: rounds[0].Requests,
		Metrics: map[string]metric{}, Layers: map[string]metric{}}
	for _, res := range rounds {
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		if out.Invalid == "" {
			out.Invalid = res.Invalid
		}
		if out.Failure == "" {
			out.Failure = res.Failure
		}
	}
	fold := func(dst map[string]metric, pick func(*result) map[string]metric) {
		for name, m := range pick(rounds[0]) {
			vals := make([]float64, len(rounds))
			for i, res := range rounds {
				vals[i] = pick(res)[name].Value
			}
			dst[name] = metric{Value: median(vals), Unit: m.Unit, Spread: rangeOverMedian(vals)}
		}
	}
	fold(out.Metrics, func(res *result) map[string]metric { return res.Metrics })
	fold(out.Layers, func(res *result) map[string]metric { return res.Layers })
	for name := range rounds[0].pool {
		var all []float64
		for _, res := range rounds {
			all = append(all, res.pool[name]...)
		}
		m := out.Metrics[name]
		m.Value = median(all)
		out.Metrics[name] = m
	}
	out.Layers["client.failed_share"] = metric{Value: ratio(float64(out.Failed), float64(out.Attempted)), Unit: "ratio"}
	if out.Invalid == "" {
		out.Invalid = generatorVerdict(out.Layers, out.Requests)
	}
	return out
}

// round sets papid up, measures one window and verifies the outputs.
// It returns the end-to-end metrics and the per-layer numbers an
// end-to-end run can see (server.* from STATS, client.* from the
// harness). The caller tears down.
func (r *runner) round() (*result, error) {
	acts := r.sp.schedule(r.seed, r.warmup, r.window)
	t := time.Now()
	if err := r.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setup := time.Since(t).Seconds()
	res := &result{Workload: r.sp.name, Flags: r.p.flags, Requests: len(acts),
		Metrics: map[string]metric{}, Layers: map[string]metric{}}

	// One pacer slot per distinct due time.
	var offs []time.Duration
	var slots [][]action
	for _, a := range acts {
		if len(offs) == 0 || offs[len(offs)-1] != a.off {
			offs = append(offs, a.off)
			slots = append(slots, nil)
		}
		slots[len(slots)-1] = append(slots[len(slots)-1], a)
	}
	// Two ticks' grace, so that the session created last has history
	// by the time the first query reads it.
	start := time.Now().Add(100 * time.Millisecond)
	r.rec.setWindow(start.Add(r.warmup), start.Add(r.warmup+r.window))
	var edges []edge
	var sendErr error
	vals := make([]int64, len(pubEvents))
	publish := wire.Request{Op: wire.OpPublish}
	late := pace(start, offs, func(i int, spun time.Duration) {
		if sendErr != nil {
			return
		}
		var used [2]bool
		for _, a := range slots[i] {
			due := start.Add(a.off).UnixNano()
			var err error
			switch a.kind {
			case opPublish:
				used[0] = true
				publish.Session = r.pubIDs[a.sess]
				err = r.publish(&publish, a.sess, due, vals)
			case opEdge:
				e := edge{at: time.Now(), selfCPU: selfCPUMS(), spun: float64(spun) / 1e6,
					backlog: r.c[0].inFlight() + r.c[1].inFlight()}
				e.papidCPU, err = r.p.cpuMS()
				edges = append(edges, e)
				// The first and the last edge also bound the STATS deltas.
				if err == nil && (a.off == r.warmup || a.off == r.warmup+r.window) {
					used[1] = true
					err = r.c[1].send(&wire.Request{Op: wire.OpStats}, pending{kind: opStats, due: due})
				}
			default:
				used[1] = true
				req := r.queryRequest(a.kind, a.sess, due)
				err = r.c[1].send(&req, pending{kind: a.kind, due: due, sess: a.sess})
			}
			if err != nil {
				sendErr = err
				return
			}
		}
		for j, c := range r.c {
			if used[j] {
				if err := c.flush(); err != nil {
					sendErr = err
					return
				}
			}
		}
	})
	if sendErr != nil {
		return nil, fmt.Errorf("send: %w\npapid: %s", sendErr, r.p.stderr.String())
	}
	rss, err := r.p.rssPeakMB()
	if err != nil {
		return nil, err
	}
	if err := r.awaitReplies(0); err != nil {
		return nil, err
	}

	chk, err := r.verify()
	if err != nil {
		return nil, err
	}
	r.report(res, setup, edges, late, rss, chk)
	// Every scheduled action is a request except the edges, of which the
	// first and the last send one.
	res.Attempted = len(acts) - len(edges) + 2 + int(chk.owed) + chk.checks
	r.tally(res, chk)
	if r.sp.durable {
		if err := r.crashTest(res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checked is what the post-window verification established.
type checked struct {
	tickTS [][]int64 // per live session, tick timestamp (µs) by seq-1
	owed   uint64    // frames the subscriptions should have received
	got    uint64
	checks int // post-window comparisons made
	failed int
	first  string
}

func (k *checked) fail(format string, args ...any) {
	k.failed++
	if k.first == "" {
		k.first = fmt.Sprintf(format, args...)
	}
}

// verify runs the post-window output checks: it freezes the live
// sessions and reads back their tick timestamps, waits for the
// subscriptions to catch up, counts missing frames, and compares every
// publish session's stored history with what was acked.
func (r *runner) verify() (*checked, error) {
	chk := &checked{}
	final := map[uint64]uint64{} // session id → last seq
	for _, id := range r.liveIDs {
		if _, err := r.c[0].call(wire.Request{Op: wire.OpStop, Session: id}); err != nil {
			return nil, err
		}
		rd, err := r.c[0].call(wire.Request{Op: wire.OpRead, Session: id})
		if err != nil {
			return nil, err
		}
		final[id] = rd.Seq
		// Row k of the tsdb is seq k: the tick appends exactly one row per
		// snapshot. If that ever stops holding the lag numbers are
		// meaningless, so it fails the run rather than skewing it. On a
		// durable server the last rows may still be with the batched
		// appender, hence the retries.
		chk.checks++
		var ts []int64
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			q, err := r.c[1].call(wire.Request{Op: wire.OpQuery, Session: id, To: wholeRangeTo,
				Events: liveEvents[1:2]})
			if err != nil {
				return nil, err
			}
			ts = ts[:0]
			if len(q.Series) == 1 {
				for _, b := range q.Series[0].Buckets {
					ts = append(ts, b.Start)
				}
			}
			if uint64(len(ts)) >= rd.Seq || time.Now().After(deadline) {
				break
			}
		}
		if uint64(len(ts)) != rd.Seq {
			return nil, fmt.Errorf("session %d: %d history rows for %d snapshots; tick timestamps cannot be matched",
				id, len(ts), rd.Seq)
		}
		chk.tickTS = append(chk.tickTS, ts)
	}
	for s, id := range r.pubIDs {
		final[id] = r.sent[s]
	}

	// Replies can overtake subscription frames (frames cross one more
	// queue), so give the streams a moment to reach the final seq.
	deadline := time.Now().Add(3 * time.Second)
	for {
		behind := 0
		for i := range r.rec.conns {
			cr := &r.rec.conns[i]
			cr.mu.Lock()
			for id, st := range cr.streams {
				if st.last < final[id] {
					behind++
				}
			}
			cr.mu.Unlock()
		}
		if behind == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for i := range r.rec.conns {
		cr := &r.rec.conns[i]
		cr.mu.Lock()
		for id, st := range cr.streams {
			first := st.first
			if first == 0 { // never saw a frame: owed everything since subscribing
				first = final[id] + 1
				if final[id] > 0 {
					chk.fail("conn %d session %d: no frame received", i, id)
				}
			}
			chk.owed += final[id] + 1 - first
			chk.got += st.frames
		}
		cr.mu.Unlock()
	}
	if chk.got < chk.owed {
		chk.fail("%d of %d subscription frames missing", chk.owed-chk.got, chk.owed)
	}

	// The two codecs must have carried the same values for the same tick.
	if r.sp.live > 0 && len(r.sp.subs) == 2 {
		type key struct {
			sess int
			seq  uint64
		}
		sums := make(map[key]uint64, len(r.rec.conns[0].live))
		for _, lr := range r.rec.conns[0].live {
			sums[key{lr.sess, lr.seq}] = lr.sum
		}
		chk.checks++
		for _, lr := range r.rec.conns[1].live {
			if s, ok := sums[key{lr.sess, lr.seq}]; ok && s != lr.sum {
				chk.fail("live session index %d seq %d: binary and JSON subscribers saw different values", lr.sess, lr.seq)
				break
			}
		}
	}
	r.checkHistory(chk, "after the window")
	return chk, nil
}

// checkHistory compares each publish session's stored history with the
// rows acked: as many rows, ending in the last row's values.
func (r *runner) checkHistory(chk *checked, when string) {
	cr := &r.rec.conns[0]
	cr.mu.Lock()
	acked := slices.Clone(cr.acked)
	cr.mu.Unlock()
	want := make([]int64, len(pubEvents))
	for s, id := range r.pubIDs {
		chk.checks++
		if acked[s] != r.sent[s] {
			chk.fail("%s: session %s: %d rows sent, %d acked", when, r.sp.pubLabels[s], r.sent[s], acked[s])
			continue
		}
		q, err := r.c[1].call(wire.Request{Op: wire.OpQuery, Session: id, To: wholeRangeTo, Step: oneBucketStep})
		if err != nil {
			chk.fail("%s: session %s: %v", when, r.sp.pubLabels[s], err)
			continue
		}
		rowValues(r.seed, s, r.sent[s], want)
		want[dueIdx] = r.lastDue[s]
		if len(q.Series) != len(pubEvents) {
			chk.fail("%s: session %s: %d series, want %d", when, r.sp.pubLabels[s], len(q.Series), len(pubEvents))
			continue
		}
		for _, sr := range q.Series {
			k := slices.Index(pubEvents, sr.Event)
			if k < 0 || len(sr.Buckets) != 1 || sr.Buckets[0].Count != r.sent[s] || sr.Buckets[0].Last != want[k] {
				chk.fail("%s: session %s event %s: history %+v, want %d rows ending in %d", when,
					r.sp.pubLabels[s], sr.Event, sr.Buckets, r.sent[s], want[max(k, 0)])
				break
			}
		}
	}
}

// crashTest is the durability check: kill -9, restart on the same
// directory, and every acked row must be back.
func (r *runner) crashTest(res *result) error {
	for i, c := range r.c {
		c.close()
		r.c[i] = nil
	}
	r.p.kill()
	t := time.Now()
	p, err := startPapid(r.bin, r.p.flags)
	if err != nil {
		return fmt.Errorf("restart after kill -9: %w", err)
	}
	r.p = p
	if err := r.dial(); err != nil {
		return fmt.Errorf("restart after kill -9: %w", err)
	}
	res.Layers["wal.recovery_ms"] = metric{Value: float64(time.Since(t).Microseconds()) / 1e3, Unit: "ms"}
	st, err := r.c[1].call(wire.Request{Op: wire.OpStats})
	if err != nil {
		return err
	}
	res.Layers["wal.replayed_rows"] = metric{Value: float64(st.Stats["wal_replayed_rows"]), Unit: "count"}
	chk := &checked{}
	r.checkHistory(chk, "after kill -9 and restart")
	res.Attempted += chk.checks
	res.Failed += chk.failed
	if res.Failure == "" {
		res.Failure = chk.first
	}
	return nil
}

// tally folds every failure source into the result.
func (r *runner) tally(res *result, chk *checked) {
	res.Failed += chk.failed
	if res.Failure == "" {
		res.Failure = chk.first
	}
	for i := range r.rec.conns {
		cr := &r.rec.conns[i]
		cr.mu.Lock()
		res.Failed += cr.errors + cr.failures
		if res.Failure == "" {
			res.Failure = cr.first
		}
		cr.mu.Unlock()
	}
}
