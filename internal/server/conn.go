// The connection lifecycle: handle is a connection's reader goroutine —
// it decodes requests under the read-idle deadline, dispatches them
// (dispatch.go), queues each reply and then opens the streams the
// request registered (goLive); evict and teardown are how a connection
// ends. Its writer goroutine is writeLoop (frame.go).
package server

import (
	"log/slog"
	"net"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry/tracing"
	"repro/internal/wire"
)

// conn is one client connection: a reader loop dispatching requests and
// a writer loop draining the bounded outbound queue — two goroutines,
// however many subscriptions it holds. All socket writes funnel through
// the writer loop, so one write deadline governs them uniformly. Frames
// are serialized at enqueue time (replies) or at fan-out time
// (snapshots, shared across subscribers); the writer only moves bytes.
type conn struct {
	srv *Server
	nc  net.Conn
	q   *writeQueue

	// id is the per-server connection number; every structured log
	// line this connection emits carries it.
	id  uint64
	log *slog.Logger

	// codec is the negotiated frame encoding (wire.Codec); it flips
	// from JSON to binary exactly once, after the HELLO reply that
	// confirmed the upgrade was enqueued.
	codec   atomic.Uint32
	evicted atomic.Bool

	// trc is the in-flight request's trace, set by handle around
	// dispatch so deep dispatch paths (PUBLISH fan-out) can hang stage
	// spans on it without changing the dispatch signature. Requests on
	// a connection are handled serially by the reader goroutine, so a
	// plain field suffices.
	trc *tracing.Trace

	mu   sync.Mutex
	subs []*subscriber
}

// codecNow reports the connection's negotiated codec.
func (c *conn) codecNow() wire.Codec { return wire.Codec(c.codec.Load()) }

// reqTrace is the in-flight request's trace. Nil-safe: tests drive
// dispatch without a conn, and tracing may be off.
func (c *conn) reqTrace() *tracing.Trace {
	if c == nil {
		return nil
	}
	return c.trc
}

func (s *Server) handle(nc net.Conn) {
	defer s.wg.Done()
	c := &conn{srv: s, nc: nc, q: newWriteQueue(s.cfg.WriteQueueDepth, s.m),
		id: s.nextConnID.Add(1)}
	c.log = s.slog.With("conn", c.id, "remote", nc.RemoteAddr().String())
	c.log.Debug("papid: connection open")
	s.connsMu.Lock()
	s.conns[c] = struct{}{}
	s.connsMu.Unlock()
	s.wg.Add(1)
	go c.writeLoop()
	defer c.teardown()

	dec := wire.NewDecoder(nc)
	for {
		if d := s.cfg.ReadIdleTimeout; d > 0 {
			nc.SetReadDeadline(s.cfg.clock.Now().Add(d))
		}
		var req wire.Request
		if err := dec.Decode(&req); err != nil {
			switch {
			case wire.IsMalformed(err):
				// One bad frame must not kill the connection: reply
				// with an error frame and resume at the next boundary.
				s.m.resyncs.Inc()
				c.log.Warn("papid: malformed frame", "err", err)
				if !c.send(wire.Response{Op: wire.OpError, Error: err.Error()}) {
					return
				}
				if wire.IsFatalMalformed(err) {
					// Binary framing with a broken length prefix has no
					// resynchronization point: answer once, then cut the
					// connection loose cleanly (teardown drains the
					// ERROR frame before the socket closes).
					if c.evicted.CompareAndSwap(false, true) {
						s.m.evictions.Inc()
					}
					return
				}
				continue
			case wire.IsTimeout(err):
				if c.subscribing() {
					// A subscriber stream legitimately sends nothing:
					// the fan-out writes are its liveness, and the
					// write deadline evicts it if it stops reading.
					continue
				}
				c.evict("read idle", err)
				return
			}
			return // EOF or closed socket
		}
		// Each valid request is a traced unit: dispatch and write spans
		// always; deep stage spans (PUBLISH history/fan-out/derive) hang
		// off c.trc. t is nil with tracing off — every call on it no-ops
		// and tid is 0. One goroutine at a time works on t (StartOwned):
		// this one until the reply frame is enqueued, then whoever
		// settles the frame, which finishes (and may recycle) the trace,
		// so only the ID is read after the enqueue.
		t := s.trc.StartOwned("request", req.Op)
		// Service latency clock: decode done → reply enqueued. The
		// socket write happens on the writer goroutine; what this
		// histogram isolates is the dispatch cost itself, per op and
		// codec, so a regressed allocator solve or tsdb query shows up
		// under its own op instead of smearing into socket noise. The
		// reading also starts the dispatch span, and one reading ends
		// dispatch and starts the write span, which the trace's finish
		// ends.
		t0 := s.cfg.clock.Mono()
		tid := t.ID()
		t.AnnotateInt(tracing.NoSpan, "conn", int64(c.id))
		if req.Session != 0 {
			t.AnnotateInt(tracing.NoSpan, "session", int64(req.Session))
		}
		c.trc = t
		dsp := s.spanStart(t, "dispatch", t0)
		resp := s.dispatch(c, &req)
		wr := t.NextSpan(dsp, tracing.NoSpan, "write")
		c.trc = nil
		if !resp.OK && resp.Error != "" {
			t.SetError(resp.Error)
		}
		resp.TraceID = tid
		ok := c.sendTraced(resp, t, wr)
		c.goLive()
		elapsed := s.cfg.clock.Mono() - t0
		s.m.observeOp(req.Op, c.codecNow(), elapsed)
		if d := s.cfg.SlowOp; d > 0 && elapsed >= d {
			attrs := []any{"op", req.Op, "session", req.Session, "dur", elapsed.String()}
			if tid != 0 {
				attrs = append(attrs, "trace", tracing.FormatID(tid))
			}
			c.log.Warn("papid: slow op", attrs...)
			s.slowOps.record(req.Op, req.Session, elapsed.Nanoseconds(), tid)
		}
		if !ok {
			return
		}
		if req.Op == wire.OpBye {
			return
		}
		if resp.Op == wire.OpHello && resp.Codec == wire.CodecNameBinary {
			// The upgrade confirmation was enqueued (in JSON, by the
			// send above); every frame from here on — ours and the
			// peer's — is binary. The peer cannot have pipelined binary
			// bytes earlier: it switches only after reading our reply.
			c.codec.Store(uint32(wire.CodecBinary))
			dec.SetCodec(wire.CodecBinary)
		}
	}
}

// subscribing reports whether the connection holds live
// subscriptions, which exempts it from the read-idle deadline.
func (c *conn) subscribing() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.subs) > 0
}

// goLive opens the streams of the subscriptions the request just
// answered registered — the not-yet-live tail of c.subs; handle calls
// it once the reply is queued. Each opens under its session's lock, so
// between two of the session's rows: a subscriber gets all of a row's
// frames or none, never a DERIVED without the SNAPSHOT before it. c.mu
// is dropped first (lock order: sess.mu before c.mu).
func (c *conn) goLive() {
	c.mu.Lock()
	i := len(c.subs)
	for i > 0 && !c.subs[i-1].live.Load() {
		i--
	}
	opening := slices.Clone(c.subs[i:])
	c.mu.Unlock()
	for _, sub := range opening {
		sub.sess.mu.Lock()
		sub.live.Store(true)
		sub.sess.mu.Unlock()
	}
}

// evict cuts the connection loose: the queue closes (stopping the
// writer), the socket closes (unblocking the reader), and the
// eviction is counted exactly once regardless of which side — reader
// deadline, writer deadline, or jammed queue — tripped first.
func (c *conn) evict(why string, err error) {
	if !c.evicted.CompareAndSwap(false, true) {
		return
	}
	c.srv.m.evictions.Inc()
	if wire.IsTimeout(err) {
		c.srv.m.deadlineTrips.Inc()
	}
	c.q.close()
	c.nc.Close()
	c.log.Warn("papid: evicting connection", "why", why, "err", err)
}

// teardown unregisters the connection and its subscribers and lets
// the writer drain its backlog (e.g. the BYE reply) before the socket
// closes.
func (c *conn) teardown() {
	c.srv.connsMu.Lock()
	delete(c.srv.conns, c)
	c.srv.connsMu.Unlock()
	c.q.close()
	c.mu.Lock()
	subs := c.subs
	c.subs = nil
	c.mu.Unlock()
	for _, sub := range subs {
		sub.sess.removeSubscriber(sub)
	}
}

// forget drops one subscription from the connection's list: its session
// closed (session.close, which holds the session's lock) and will push
// nothing more for it.
func (c *conn) forget(sub *subscriber) {
	c.mu.Lock()
	if i := slices.Index(c.subs, sub); i >= 0 {
		c.subs = slices.Delete(c.subs, i, i+1)
	}
	c.mu.Unlock()
}
