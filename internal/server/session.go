package server

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/derive"
	"repro/internal/wire"
	"repro/papi"
	"repro/workload"
)

// session is one client-created measurement: a private simulated
// System/Thread/EventSet on a chosen platform, an optional workload the
// tick loop advances while the session runs, and the views its
// subscribers follow.
//
// mu is the session's one lock, and an op on the session is one
// critical section: whoever reaches a session — withSession for a
// request, tickSession for the sweep, the wildcard-SUBSCRIBE loop —
// locks it, finds it open (lockOpen) and calls the methods below under
// that hold; only removeSubscriber and close, which a closed session
// must also answer, lock for themselves. A row is numbered (snapshot,
// publish) and delivered (Server.fanout) inside one hold, so every
// subscriber, the derive engine and — for PUBLISH — the journal see a
// session's rows in seq order, whoever produced them; the same hold
// serializes every touch of the papi stack, which is not
// goroutine-safe. Lock order (DESIGN.md §8): mu comes before
// wal.Log.mu, a store shard, a derive stripe, conn.mu and conn.q.mu,
// and nothing that holds one of those takes a session's mu.
type session struct {
	id       uint64
	platform string
	// label is the client-chosen name from CREATE_SESSION, matched by
	// wildcard SUBSCRIBE label globs. Immutable after creation.
	label string

	mu  sync.Mutex
	sys *papi.System
	th  *papi.Thread
	es  *papi.EventSet
	// names are the event names, parallel to the EventSet's add order.
	// Copy-on-write: a sweep worker's history batch keeps the slice past
	// the hold, so growing or renaming installs a fresh one.
	names   []string
	prog    workload.Program
	running bool
	ahead   bool // the chunk the next row reports has run (advance)
	closed  bool
	seq     uint64
	last    []int64 // latest snapshot: live read, publish, or final stop
	// views is the one subscriber index: an entry per distinct view, in
	// the order the views were first subscribed to, each holding its
	// subscribers in subscription order, and each viewState's mutable
	// half (filter.go). Membership is edited in place: the fan-out walks
	// the list under mu like everyone else.
	views []viewSubs

	// deriveGroups are the performance groups SUBSCRIBE registered on
	// this session; tickGroups caches their union with the server-default
	// groups the event set covers (rebuilt when either input changes, so
	// the per-tick path hands the engine a stable slice).
	deriveGroups []string
	tickGroups   []string
	tickGroupsOK bool
}

// lockOpen locks the session for one op and reports whether it is still
// open; a closed session comes back unlocked.
func (sess *session) lockOpen() bool {
	sess.mu.Lock()
	if sess.closed {
		sess.mu.Unlock()
		return false
	}
	return true
}

// addEvents resolves and adds the named events — EventSet.Add is the
// admission check: it solves the grown set's counter allocation and
// refuses an event that does not fit. It returns the session's full
// event-name list.
func (sess *session) addEvents(names []string) ([]string, error) {
	if len(names) > 0 {
		grown := make([]string, len(sess.names), len(sess.names)+len(names))
		copy(grown, sess.names)
		sess.names = grown
	}
	for _, name := range names {
		ev, ok := papi.ResolveEvent(sess.sys, name)
		if !ok {
			return nil, fmt.Errorf("unknown event %q on %s", name, sess.platform)
		}
		if err := sess.es.Add(ev); err != nil {
			return nil, err
		}
		sess.names = append(sess.names, name)
		sess.tickGroupsOK = false // a grown event set may cover more groups
	}
	return sess.names, nil
}

// start transitions the session to counting.
func (sess *session) start() error {
	if sess.running {
		return fmt.Errorf("session %d already started", sess.id)
	}
	if err := sess.es.Start(); err != nil {
		return err
	}
	sess.running = true
	return nil
}

// read returns the current counter values: a live read while running,
// the last stored snapshot (final stop or publish) otherwise.
func (sess *session) read() (wire.Response, error) {
	if sess.running {
		vals := make([]int64, len(sess.names))
		if err := sess.es.Read(vals); err != nil {
			return wire.Response{}, err
		}
		sess.last = vals
		return wire.Response{OK: true, Session: sess.id, Events: sess.names,
			Values: vals, RealUsec: sess.th.RealUsec(), Seq: sess.seq, Source: "live"}, nil
	}
	if sess.last == nil {
		return wire.Response{}, fmt.Errorf("session %d has no counter values yet", sess.id)
	}
	return wire.Response{OK: true, Session: sess.id, Events: sess.names,
		Values: sess.last, Seq: sess.seq, Source: "last"}, nil
}

// stop halts counting and returns the event names and final values.
func (sess *session) stop() ([]string, []int64, error) {
	if !sess.running {
		return nil, nil, fmt.Errorf("session %d is not started", sess.id)
	}
	final := make([]int64, len(sess.names))
	if err := sess.es.Stop(final); err != nil {
		return nil, nil, err
	}
	sess.running = false
	sess.ahead = false
	sess.last = final
	return sess.names, final, nil
}

// publish numbers an externally measured snapshot (papirun -serve) and
// returns it as the row's SNAPSHOT frame. Publishing is only legal on
// sessions papid is not driving itself.
func (sess *session) publish(names []string, values []int64) (wire.Response, error) {
	if sess.running {
		return wire.Response{}, fmt.Errorf("session %d is counting; cannot publish external values", sess.id)
	}
	if len(values) == 0 {
		// History stores no row of no events, so no subscriber gets
		// one either — as START refuses an empty EventSet.
		return wire.Response{}, fmt.Errorf("publish: no values")
	}
	// Validate fully before touching session state: a rejected publish
	// must not leave renamed events behind.
	if len(names) > 0 {
		if len(values) != len(names) {
			return wire.Response{}, fmt.Errorf("publish: %d values for %d events", len(values), len(names))
		}
		if sess.es.NumEvents() > 0 {
			return wire.Response{}, fmt.Errorf("session %d counts its own events; publish values without renaming them", sess.id)
		}
		sess.names = names
		sess.tickGroupsOK = false
	} else if len(values) != len(sess.names) {
		return wire.Response{}, fmt.Errorf("publish: %d values for %d events", len(values), len(sess.names))
	}
	sess.seq++
	sess.last = values
	return wire.Response{Op: wire.OpSnapshot, OK: true, Session: sess.id,
		Events: sess.names, Values: values, Seq: sess.seq, Source: "published"}, nil
}

// snapshot is the coalesced per-tick read: read the counters once and
// number the row. The row reports one workload chunk, which the tick's
// advance pass normally ran after the previous row was read; when it
// has not (the first tick after START, or a session the advance pass
// has not reached yet) snapshot runs it first. ok is false when there
// is nothing to do.
func (sess *session) snapshot() (resp wire.Response, ok bool) {
	if !sess.running {
		return wire.Response{}, false
	}
	if !sess.ahead {
		sess.runChunk()
	}
	sess.ahead = false
	vals := make([]int64, len(sess.names))
	if err := sess.es.Read(vals); err != nil {
		return wire.Response{}, false
	}
	sess.seq++
	sess.last = vals
	return wire.Response{Op: wire.OpSnapshot, OK: true, Session: sess.id,
		Events: sess.names, Values: vals, RealUsec: sess.th.RealUsec(),
		Seq: sess.seq, Source: "live"}, true
}

// advance runs the chunk the session's next row will report, off the
// delivery path: the tick's advance pass calls it once the delivery
// pass has claimed every shard. Whichever of advance and snapshot comes
// first, the simulated core sees Run, Read, Run, Read, so no row's
// values change; what moves is that a READ or STOP between two ticks
// already sees the next row's chunk.
func (sess *session) advance() {
	if !sess.running || sess.prog == nil || sess.ahead {
		return
	}
	sess.runChunk()
	sess.ahead = true
}

// runChunk runs the session's workload once, from the top.
func (sess *session) runChunk() {
	if sess.prog != nil {
		sess.prog.Reset()
		sess.th.Run(sess.prog)
	}
}

// addSubscriber files sub under the view it asked for, creating the
// view with its first subscriber.
func (sess *session) addSubscriber(sub *subscriber) {
	i := slices.IndexFunc(sess.views, func(v viewSubs) bool {
		return v.vs.delta == sub.delta && slices.Equal(v.vs.filter, sub.events)
	})
	if i < 0 {
		i = len(sess.views)
		sess.views = append(sess.views, viewSubs{vs: &viewState{filter: sub.events, delta: sub.delta}})
	}
	sess.views[i].subs = append(sess.views[i].subs, sub)
}

// registerDerive validates and records performance groups named in a
// SUBSCRIBE request's Derive field. Each must resolve in the registry,
// and every event its formulas reference must be in the session's
// event set — a formula over events the session does not count earns a
// wire ERROR here, never an empty or silently incomplete stream.
func (sess *session) registerDerive(reg *derive.Registry, names []string) error {
	groups, err := reg.Resolve(names)
	if err != nil {
		return err
	}
	for _, g := range groups {
		for _, ev := range g.Events() {
			if !slices.Contains(sess.names, ev) {
				return fmt.Errorf("group %s needs event %s, which session %d does not count (have %v)",
					g.Name, ev, sess.id, sess.names)
			}
		}
	}
	for _, n := range names {
		if !slices.Contains(sess.deriveGroups, n) {
			sess.deriveGroups = append(sess.deriveGroups, n)
		}
	}
	sess.tickGroupsOK = false
	return nil
}

// derivedGroups returns the groups to evaluate on this session each
// tick: the SUBSCRIBE-registered set plus every server-default group
// whose event requirements the session's event set covers. Defaults a
// session cannot feed are skipped, not errors — `papid -groups ipc`
// must not break a session counting only FP events. The result is
// cached (and its identity stable) until the event set or the
// registration set changes, so the engine's layout comparison sees an
// unchanged slice on the steady-state path.
func (sess *session) derivedGroups(defaults []*derive.Group) []string {
	if !sess.tickGroupsOK {
		sess.tickGroups = append(sess.tickGroups[:0], sess.deriveGroups...)
		for _, g := range defaults {
			if slices.Contains(sess.tickGroups, g.Name) {
				continue
			}
			covered := true
			for _, ev := range g.Events() {
				if !slices.Contains(sess.names, ev) {
					covered = false
					break
				}
			}
			if covered {
				sess.tickGroups = append(sess.tickGroups, g.Name)
			}
		}
		sess.tickGroupsOK = true
	}
	return sess.tickGroups
}

// removeSubscriber takes sub out of its view; once it returns, nothing
// more is pushed for that subscription. The last leaver takes the view
// with it, so a churn of distinct filters cannot grow the index — and
// whoever subscribes with that filter next starts a fresh view,
// keyframe first.
func (sess *session) removeSubscriber(sub *subscriber) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	for i := range sess.views {
		v := &sess.views[i]
		j := slices.Index(v.subs, sub)
		if j < 0 {
			continue
		}
		if v.subs = slices.Delete(v.subs, j, j+1); len(v.subs) == 0 {
			sess.views = slices.Delete(sess.views, i, i+1)
		}
		return
	}
}

// close drains the session: folds final counts if it was running,
// detaches every subscriber from its connection — a peer that will
// never be sent another frame is no longer exempt from the read-idle
// deadline — and marks the session unusable. It returns the final
// values, if any. close is idempotent.
func (sess *session) close() []int64 {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed {
		return sess.last
	}
	sess.closed = true
	if sess.running {
		final := make([]int64, len(sess.names))
		if err := sess.es.Stop(final); err == nil {
			sess.last = final
		}
		sess.running = false
	}
	for _, v := range sess.views {
		for _, sub := range v.subs {
			sub.c.forget(sub)
		}
	}
	sess.views = nil
	return sess.last
}

// regShards is the session registry's shard count, which is also the
// tick sweep's unit of work and so the most sweep workers a tick uses.
const regShards = 16

// registry is the sharded session table: sessions hash to one of
// regShards mutex-guarded shards by ID, so thousands of concurrent
// sessions contend on a sixteenth of a lock instead of serializing on
// one.
type registry struct {
	shards [regShards]regShard
}

type regShard struct {
	mu sync.RWMutex
	m  map[uint64]*session
}

func newRegistry() *registry {
	r := &registry{}
	for i := range r.shards {
		r.shards[i].m = make(map[uint64]*session)
	}
	return r
}

// shardFor picks the shard by Fibonacci-hashing the session ID —
// sequential IDs spread across shards instead of clustering.
func (r *registry) shardFor(id uint64) *regShard {
	h := (id * 0x9e3779b97f4a7c15) >> 32
	return &r.shards[h%regShards]
}

func (r *registry) put(sess *session) {
	sh := r.shardFor(sess.id)
	sh.mu.Lock()
	sh.m[sess.id] = sess
	sh.mu.Unlock()
}

func (r *registry) get(id uint64) (*session, bool) {
	sh := r.shardFor(id)
	sh.mu.RLock()
	sess, ok := sh.m[id]
	sh.mu.RUnlock()
	return sess, ok
}

func (r *registry) remove(id uint64) (*session, bool) {
	sh := r.shardFor(id)
	sh.mu.Lock()
	sess, ok := sh.m[id]
	delete(sh.m, id)
	sh.mu.Unlock()
	return sess, ok
}

func (r *registry) count() int {
	n := 0
	for i := range r.shards {
		r.shards[i].mu.RLock()
		n += len(r.shards[i].m)
		r.shards[i].mu.RUnlock()
	}
	return n
}

// forEach visits every session. The per-shard lock is released before
// the callback runs, so callbacks may take session locks freely.
func (r *registry) forEach(f func(*session)) {
	for i := range r.shards {
		r.sweepShard(i, nil, f)
	}
}

// sweepShard visits every session of one shard — the unit of work the
// parallel tick sweep claims (tick.go). The shard's sessions are
// appended to batch (a sweep worker's scratch, so a tick does not
// allocate per shard; nil for a one-off walk) and the shard lock is
// released before any callback runs, same contract as forEach;
// distinct shards may be swept concurrently, and a session belongs to
// exactly one shard, so one sweep visits it exactly once. It returns
// the batch it visited, grown if it had to be.
func (r *registry) sweepShard(i int, batch []*session, f func(*session)) []*session {
	sh := &r.shards[i]
	sh.mu.RLock()
	for _, sess := range sh.m {
		batch = append(batch, sess)
	}
	sh.mu.RUnlock()
	for _, sess := range batch {
		f(sess)
	}
	return batch
}
