// Request dispatch: one decoded request in, one reply out. withSession
// runs an op under its session's one lock; SUBSCRIBE, QUERY in derive
// mode and CREATE_SESSION have their own handlers.
package server

import (
	"cmp"
	"errors"
	"fmt"
	"path"
	"slices"

	"repro/internal/derive"
	"repro/internal/tsdb"
	"repro/internal/tsdb/wal"
	"repro/internal/wire"
	"repro/papi"
	"repro/workload"
)

var errSessionClosed = errors.New("session closed")

func (s *Server) dispatch(c *conn, req *wire.Request) wire.Response {
	switch req.Op {
	case wire.OpHello:
		// The one place a peer's version is compared. A HELLO that names
		// none (hand-typed JSON) is served like a connection that sent no
		// HELLO at all: as the current protocol.
		if req.Version != 0 && req.Version != wire.ProtocolVersion {
			return errResp(req, fmt.Errorf("protocol version %d not supported: this papid speaks only %d",
				req.Version, wire.ProtocolVersion))
		}
		resp := wire.Response{Op: req.Op, OK: true,
			Protocol: wire.ProtocolVersion, Platform: s.cfg.DefaultPlatform}
		// Confirm the binary upgrade only before any subscription exists:
		// a snapshot encoded concurrently with the codec flip could
		// otherwise straddle the negotiation. (Clients negotiate first;
		// this enforces it.)
		if req.Codec == wire.CodecNameBinary && (c == nil || !c.subscribing()) {
			resp.Codec = wire.CodecNameBinary
		}
		return resp
	case wire.OpCreate:
		return s.createSession(req)
	case wire.OpAddEvents:
		return s.withSession(req, func(sess *session) wire.Response {
			names, err := sess.addEvents(req.Events)
			if err != nil {
				return errResp(req, err)
			}
			return wire.Response{Op: req.Op, OK: true, Session: sess.id, Events: names}
		})
	case wire.OpStart:
		return s.withSession(req, func(sess *session) wire.Response {
			if err := sess.start(); err != nil {
				return errResp(req, err)
			}
			return wire.Response{Op: req.Op, OK: true, Session: sess.id}
		})
	case wire.OpRead:
		return s.withSession(req, func(sess *session) wire.Response {
			resp, err := sess.read()
			if err != nil {
				return errResp(req, err)
			}
			resp.Op = req.Op
			return resp
		})
	case wire.OpSubscribe:
		return s.subscribe(c, req)
	case wire.OpPublish:
		return s.withSession(req, func(sess *session) wire.Response {
			snap, err := sess.publish(req.Events, req.Values)
			if err != nil {
				return errResp(req, err)
			}
			// Journaled, timestamped and delivered inside the hold that
			// numbered the row, so with several publishers the WAL, the
			// store and every subscriber see the session's rows in seq
			// order. The stage spans go on the request trace (all no-ops
			// untraced): a slow PUBLISH shows whether the WAL append, the
			// fan-out, or the derive evaluation ate the budget. One
			// reading gives the row its timestamp and starts its
			// recorder's chain, which the spans share.
			wall, mono := s.cfg.clock.Stamp()
			now, t, r := wall.UnixMicro(), c.reqTrace(), s.reqRec(mono)
			s.appendRows(t, []wal.Row{{Session: sess.id, TS: now, Events: snap.Events, Vals: snap.Values}}, &r)
			s.fanout(t, sess, &snap, now, &r)
			return wire.Response{Op: req.Op, OK: true, Session: sess.id, Seq: snap.Seq}
		})
	case wire.OpStop:
		return s.withSession(req, func(sess *session) wire.Response {
			names, final, err := sess.stop()
			if err != nil {
				return errResp(req, err)
			}
			return wire.Response{Op: req.Op, OK: true, Session: sess.id,
				Events: names, Values: final}
		})
	case wire.OpCloseSession:
		sess, ok := s.reg.remove(req.Session)
		if !ok {
			return errResp(req, fmt.Errorf("no session %d", req.Session))
		}
		final := sess.close()
		s.derive.CloseSession(req.Session)
		return wire.Response{Op: req.Op, OK: true, Session: req.Session, Values: final}
	case wire.OpQuery:
		if s.hist == nil {
			return errResp(req, errors.New("history disabled (papid -tsdb-mem 0)"))
		}
		// Validate the window before touching the store: a reversed
		// range or negative step is a client bug that deserves a loud
		// ERROR, not an empty series it might mistake for no data.
		if req.To <= req.From {
			return errResp(req, fmt.Errorf("bad range [%d, %d): from must precede to", req.From, req.To))
		}
		if req.Step < 0 {
			return errResp(req, fmt.Errorf("bad step %d: must be >= 0 (0 returns raw samples)", req.Step))
		}
		if len(req.Derive) > 0 {
			return s.queryDerived(req)
		}
		// No live-session check: history legitimately outlives its
		// session, which is half the point of keeping it.
		series := s.hist.Query(req.Session, tsdb.Query{
			Events: req.Events, From: req.From, To: req.To, Step: req.Step,
		})
		return wire.Response{Op: req.Op, OK: true, Session: req.Session, Series: series}
	case wire.OpStats:
		return wire.Response{Op: req.Op, OK: true, Stats: s.Stats(),
			Hists: s.m.reg.Summaries(), Slow: s.slowOps.samples()}
	case wire.OpBye:
		return wire.Response{Op: req.Op, OK: true}
	}
	return errResp(req, fmt.Errorf("unknown op %q", req.Op))
}

// withSession runs f as one op on the request's session: found, locked
// and found open here, once, so f and the session methods it calls run
// under the session's lock and never see a closed session.
func (s *Server) withSession(req *wire.Request, f func(*session) wire.Response) wire.Response {
	sess, ok := s.reg.get(req.Session)
	if !ok {
		return errResp(req, fmt.Errorf("no session %d", req.Session))
	}
	if !sess.lockOpen() {
		return errResp(req, errSessionClosed)
	}
	defer sess.mu.Unlock()
	return f(sess)
}

func errResp(req *wire.Request, err error) wire.Response {
	return wire.Response{Op: req.Op, OK: false, Session: req.Session, Error: err.Error()}
}

// subscribe answers an OpSubscribe: the single-session form
// (Session != 0) with optional derive groups, or the wildcard form
// (Sessions / Labels) that registers one subscriber on every matched
// session. Both forms accept the event filter and delta mode.
func (s *Server) subscribe(c *conn, req *wire.Request) wire.Response {
	if len(req.Sessions) == 0 && len(req.Labels) == 0 {
		return s.withSession(req, func(sess *session) wire.Response {
			if len(req.Derive) > 0 {
				// Validate the derive registration before the subscriber
				// exists: a rejected group must leave no half-registered
				// state and no subscription behind.
				if err := sess.registerDerive(s.derive.Registry(), req.Derive); err != nil {
					return errResp(req, err)
				}
			}
			s.addSubscriber(c, sess, req)
			return wire.Response{Op: req.Op, OK: true, Session: sess.id, Events: sess.names}
		})
	}
	// Wildcard form. Validate everything before touching any session: a
	// rejected request must leave no partial registration behind.
	if req.Session != 0 {
		return errResp(req, errors.New(
			"wildcard SUBSCRIBE: leave session 0 when listing sessions or labels"))
	}
	if len(req.Derive) > 0 {
		return errResp(req, errors.New("derive groups need a single-session SUBSCRIBE"))
	}
	for _, g := range req.Labels {
		if _, err := path.Match(g, ""); err != nil {
			return errResp(req, fmt.Errorf("bad label glob %q: %v", g, err))
		}
	}
	var matched []*session
	s.reg.forEach(func(sess *session) {
		if sess.matches(req.Sessions, req.Labels) {
			matched = append(matched, sess)
		}
	})
	slices.SortFunc(matched, func(a, b *session) int { return cmp.Compare(a.id, b.id) })
	var ids []uint64
	for _, sess := range matched {
		if !sess.lockOpen() {
			continue // closed between the registry scan and here
		}
		s.addSubscriber(c, sess, req)
		sess.mu.Unlock()
		ids = append(ids, sess.id)
	}
	if len(ids) == 0 {
		return errResp(req, errors.New("wildcard SUBSCRIBE matched no live session"))
	}
	return wire.Response{Op: req.Op, OK: true, Sessions: ids}
}

// addSubscriber registers c on sess — locked by the caller — with the
// request's filter and records the subscription on the connection for
// teardown. A delta subscriber starts with needKey set: its first frame
// must be a keyframe to anchor the stream.
func (s *Server) addSubscriber(c *conn, sess *session, req *wire.Request) *subscriber {
	sub := &subscriber{c: c, sess: sess, events: canonEvents(req.Events), delta: req.Delta}
	sub.needKey.Store(req.Delta)
	sess.addSubscriber(sub)
	c.mu.Lock()
	c.subs = append(c.subs, sub)
	c.mu.Unlock()
	return sub
}

// queryDerived answers a derive-mode QUERY: the named groups' formulas
// evaluated over the session's history window. Validation is loud on
// purpose: an unknown group or a formula referencing an event the
// session never recorded earns a wire ERROR naming the gap — never an
// empty reply a client could mistake for "no data".
func (s *Server) queryDerived(req *wire.Request) wire.Response {
	if s.hist == nil {
		// Defense in depth: dispatch already rejects QUERY on a
		// history-less server, but this path dereferences s.hist twice
		// below — a future caller must get the wire ERROR, not a panic.
		return errResp(req, errors.New("history disabled (papid -tsdb-mem 0)"))
	}
	groups, err := s.derive.Registry().Resolve(req.Derive)
	if err != nil {
		return errResp(req, err)
	}
	need := derive.EventsFor(groups)
	have := s.hist.Events(req.Session)
	for _, ev := range need {
		if !slices.Contains(have, ev) {
			return errResp(req, fmt.Errorf(
				"derive: groups %v need event %s, but session %d recorded no history for it (have %v)",
				req.Derive, ev, req.Session, have))
		}
	}
	series := s.hist.Query(req.Session, tsdb.Query{
		Events: need, From: req.From, To: req.To, Step: req.Step,
	})
	hs := derive.EvalHistory(groups, series)
	out := make([]wire.DerivedSeries, len(hs))
	for i, h := range hs {
		pts := make([]wire.DerivedPoint, len(h.Points))
		for j, p := range h.Points {
			pts[j] = wire.DerivedPoint{Start: p.Start, Value: p.Value}
		}
		out[i] = wire.DerivedSeries{Metric: h.Metric, Unit: h.Unit, Points: pts}
	}
	return wire.Response{Op: req.Op, OK: true, Session: req.Session, Derived: out}
}

// CREATE_SESSION's limits on a live session's program. A tick runs the
// whole program under the session lock, so one that cannot be ticked
// is refused at CREATE, not discovered by ticks_skipped.
const (
	// maxWorkloadN bounds n itself: building a workload allocates in
	// proportion to n (chase keeps two n-node tables). It is the
	// largest n any workload fits into maxTickInstrs with (chase, 16
	// instructions per n).
	maxWorkloadN = 1 << 16
	// maxTickInstrs is the most instructions a program may run per
	// tick: about 30 ms of simulation on the reference host.
	maxTickInstrs = 1 << 20
)

// liveProgram builds the workload a live session's tick will run; name
// and n come off the wire (empty and non-positive mean the defaults).
// n is refused before anything is built in proportion to it, then the
// built program against the per-tick budget.
func liveProgram(name string, n int) (workload.Program, error) {
	if name == "" {
		name = "dot"
	}
	if n <= 0 {
		n = 24
	}
	if n > maxWorkloadN {
		return nil, fmt.Errorf("workload %s: n %d exceeds the limit %d", name, n, maxWorkloadN)
	}
	prog, err := workload.ByName(name, n)
	if err != nil {
		return nil, err
	}
	if instrs := prog.Expected().Instrs; instrs > maxTickInstrs {
		return nil, fmt.Errorf("workload %s n=%d runs %d instructions per tick, the limit is %d",
			name, n, instrs, maxTickInstrs)
	}
	return prog, nil
}

// createSession builds a session: a private System on the requested
// platform, its events resolved and admitted by EventSet.Add's own
// allocation solve, and the workload the tick loop will advance.
func (s *Server) createSession(req *wire.Request) wire.Response {
	platform := req.Platform
	if platform == "" {
		platform = s.cfg.DefaultPlatform
	}
	sys, err := papi.Init(papi.Options{Platform: platform})
	if err != nil {
		return errResp(req, err)
	}
	th := sys.Main()
	sess := &session{
		id:       s.nextID.Add(1),
		label:    req.Label,
		platform: platform,
		sys:      sys,
		th:       th,
		es:       th.NewEventSet(),
	}
	names, err := sess.addEvents(req.Events)
	if err != nil {
		return errResp(req, err)
	}
	if req.Workload != "none" { // "none" is publish-only: papid never drives it
		if sess.prog, err = liveProgram(req.Workload, req.N); err != nil {
			return errResp(req, err)
		}
	}
	s.reg.put(sess)
	s.slog.Info("papid: session created", "session", sess.id,
		"platform", platform, "events", len(names))
	return wire.Response{Op: req.Op, OK: true, Session: sess.id,
		Platform: platform, Events: names}
}
