package server

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// Client is a minimal papid client: synchronous request/response over
// one connection, with asynchronous SNAPSHOT frames routed to an
// optional callback. It is what cmd/papirun's -serve flag, the stress
// tests and the throughput benchmark all speak through.
//
// A Client is not safe for concurrent Do calls; dedicate one Client
// per goroutine (subscription streams typically use a Client of their
// own and block in Next).
type Client struct {
	nc  net.Conn
	enc *wire.Encoder
	dec *wire.Decoder

	// Timeout bounds each Do round-trip (encode + reply). 0 waits
	// forever — the pre-hardening behavior, where a dead server hangs
	// the caller instead of producing the documented one-line error.
	Timeout time.Duration

	// PreferBinary asks the server for the compact binary codec during
	// Hello. The handshake itself is always JSON; if the server's reply
	// confirms the upgrade both directions switch for every subsequent
	// frame, and if it doesn't the connection transparently stays on JSON
	// lines. Set it before Hello.
	PreferBinary bool

	// OnSnapshot, when set, receives SNAPSHOT frames that arrive while
	// Do is waiting for a request's reply.
	OnSnapshot func(wire.Response)
	// OnDerived receives asynchronous DERIVED frames the same way —
	// pushed to subscribers whose session evaluates performance groups.
	// Unset, such frames are silently skipped by Do.
	OnDerived func(wire.Response)
	// OnDelta receives asynchronous DELTA frames (delta-mode
	// subscriptions). Unset, such frames are silently skipped by Do —
	// they must never be mistaken for a request's reply.
	OnDelta func(wire.Response)

	mu       sync.Mutex
	closed   bool
	firstErr error // first transport failure, re-surfaced by Close
}

// Dial connects to a papid instance.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{nc: nc, enc: wire.NewEncoder(nc), dec: wire.NewDecoder(nc)}, nil
}

// Hello performs the version handshake: it announces this client's
// protocol version (and codec preference, see PreferBinary) and
// returns the server's reply. A server speaking any other protocol
// version is an error — the one place the client compares versions, so
// no caller checks Protocol before issuing an op.
func (c *Client) Hello() (wire.Response, error) {
	req := wire.Request{Op: wire.OpHello, Version: wire.ProtocolVersion}
	if c.PreferBinary {
		req.Codec = wire.CodecNameBinary
	}
	resp, err := c.Do(req)
	if err == nil && resp.Protocol != wire.ProtocolVersion {
		err = fmt.Errorf("papid: HELLO: server speaks protocol %d, this client speaks %d",
			resp.Protocol, wire.ProtocolVersion)
	}
	if err == nil && req.Codec == wire.CodecNameBinary && resp.Codec == wire.CodecNameBinary {
		// The server confirmed the upgrade and switches right after its
		// (JSON) reply; mirror it on both halves of this connection.
		c.enc.SetCodec(wire.CodecBinary)
		c.dec.SetCodec(wire.CodecBinary)
	}
	return resp, err
}

// Codec reports the connection's negotiated frame codec.
func (c *Client) Codec() wire.Codec { return c.dec.Codec() }

// Do sends one request and waits for its reply, routing any interleaved
// snapshots to OnSnapshot. A server-side error becomes a Go error; a
// connection-level failure (including a Timeout trip) becomes a
// *TransportError.
func (c *Client) Do(req wire.Request) (wire.Response, error) {
	if c.Timeout > 0 {
		c.nc.SetDeadline(time.Now().Add(c.Timeout))
		defer c.nc.SetDeadline(time.Time{})
	}
	if err := c.enc.Encode(&req); err != nil {
		return wire.Response{}, c.transportErr(req.Op, err)
	}
	for {
		var resp wire.Response
		if err := c.dec.Decode(&resp); err != nil {
			return wire.Response{}, c.transportErr(req.Op, err)
		}
		if resp.Op == wire.OpSnapshot {
			if c.OnSnapshot != nil {
				c.OnSnapshot(resp)
			}
			continue
		}
		if resp.Op == wire.OpDerived {
			if c.OnDerived != nil {
				c.OnDerived(resp)
			}
			continue
		}
		if resp.Op == wire.OpDelta {
			if c.OnDelta != nil {
				c.OnDelta(resp)
			}
			continue
		}
		if !resp.OK {
			return resp, fmt.Errorf("papid: %s: %s", req.Op, resp.Error)
		}
		return resp, nil
	}
}

// Next returns the next frame of any kind — the read loop for
// subscription streams.
func (c *Client) Next() (wire.Response, error) {
	var resp wire.Response
	if err := c.dec.Decode(&resp); err != nil {
		return resp, c.transportErr("", err)
	}
	return resp, nil
}

// transportErr wraps and records a connection-level failure. The
// first one (clean EOF excepted) is sticky and re-surfaced by Close,
// so a deferred Close does not silently swallow an in-flight encoder
// error.
func (c *Client) transportErr(op string, err error) error {
	terr := &TransportError{Op: op, Err: err}
	c.mu.Lock()
	if c.firstErr == nil && !wire.IsEOF(err) {
		c.firstErr = terr
	}
	c.mu.Unlock()
	return terr
}

// Close closes the connection. It is idempotent — the first call
// closes and reports, every later call returns nil — and it
// propagates the first in-flight transport error when the close
// itself succeeds, so `defer cl.Close()` call sites that do check the
// error see what actually went wrong on the wire.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if err := c.nc.Close(); err != nil {
		return err
	}
	return c.firstErr
}

// TransportError marks a connection-level failure — dial loss, write
// failure, deadline trip — as opposed to a server-side error reply.
// It is what the reconnecting client keys redials off.
type TransportError struct {
	Op  string // the request op in flight, if any
	Err error
}

func (e *TransportError) Error() string {
	if e.Op == "" {
		return fmt.Sprintf("papid: %v", e.Err)
	}
	return fmt.Sprintf("papid: %s: %v", e.Op, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// Timeout reports whether the failure was a request-deadline trip.
func (e *TransportError) Timeout() bool { return wire.IsTimeout(e.Err) }

// IsTransport reports whether err is a connection-level failure
// rather than a server-side error reply.
func IsTransport(err error) bool {
	var t *TransportError
	return errors.As(err, &t)
}

// RetryConfig parameterizes DialRetry and the reconnecting client.
// The zero value selects the defaults noted per field.
type RetryConfig struct {
	// Attempts bounds dial attempts per connect (default 4).
	Attempts int
	// BaseDelay seeds the exponential backoff (default 25ms): the
	// n-th retry waits min(BaseDelay<<n, MaxDelay), scaled by a
	// uniform jitter in [0.5, 1.5) so a thundering herd of clients
	// does not re-dial in lockstep.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 1s).
	MaxDelay time.Duration
	// Timeout is installed as the dialed Client's per-request
	// deadline (default 0 = none).
	Timeout time.Duration
	// PreferBinary is installed on the dialed Client, so reconnecting
	// clients re-negotiate the binary codec on every redial.
	PreferBinary bool

	// jitter returns the backoff scale factor; tests pin it.
	jitter func() float64
}

func (rc *RetryConfig) fill() {
	if rc.Attempts <= 0 {
		rc.Attempts = 4
	}
	if rc.BaseDelay <= 0 {
		rc.BaseDelay = 25 * time.Millisecond
	}
	if rc.MaxDelay <= 0 {
		rc.MaxDelay = time.Second
	}
	if rc.jitter == nil {
		rc.jitter = func() float64 { return 0.5 + rand.Float64() }
	}
}

// backoff returns the jittered wait before retry number n (0-based):
// BaseDelay doubling per retry, capped at MaxDelay. Doubling in a
// loop rather than shifting keeps any retry count overflow-safe.
func (rc *RetryConfig) backoff(n int) time.Duration {
	d := rc.BaseDelay
	for i := 0; i < n && d < rc.MaxDelay; i++ {
		d *= 2
	}
	if d > rc.MaxDelay {
		d = rc.MaxDelay
	}
	return time.Duration(float64(d) * rc.jitter())
}

// DialRetry connects like Dial but retries refused or unreachable
// dials with exponential backoff plus jitter, and installs
// rc.Timeout on the resulting Client.
func DialRetry(addr string, rc RetryConfig) (*Client, error) {
	rc.fill()
	var err error
	for i := 0; i < rc.Attempts; i++ {
		if i > 0 {
			time.Sleep(rc.backoff(i - 1))
		}
		var cl *Client
		if cl, err = Dial(addr); err == nil {
			cl.Timeout = rc.Timeout
			cl.PreferBinary = rc.PreferBinary
			return cl, nil
		}
	}
	return nil, fmt.Errorf("papid at %s unreachable after %d attempts: %w", addr, rc.Attempts, err)
}

// replayableOps are safe to reissue on a fresh connection after a
// transport failure: they are idempotent (HELLO, READ, QUERY, STATS,
// BYE) or overwrite-last semantics makes a duplicate harmless
// (PUBLISH). Ops that mutate connection- or ordering-coupled state
// (CREATE_SESSION, START, SUBSCRIBE, ...) are not replayed: a retry
// could double-create or double-start, so their failure surfaces.
var replayableOps = map[string]bool{
	wire.OpHello:   true,
	wire.OpPublish: true,
	wire.OpRead:    true,
	wire.OpQuery:   true,
	wire.OpStats:   true,
	wire.OpBye:     true,
}

// ReconnClient is a Client that survives connection loss: a transport
// failure triggers a redial with exponential backoff + jitter, an
// automatic HELLO replay to re-handshake, and — for idempotent ops —
// one replay of the failed request. Like Client, it is not safe for
// concurrent Do calls.
type ReconnClient struct {
	addr string
	rc   RetryConfig

	cl    *Client
	hello wire.Response

	// subs are the subscriptions Subscribe/SubscribeWith recorded,
	// replayed verbatim (filters, delta mode and derive groups included)
	// on every reconnect.
	subs []SubOptions

	// Reconnects counts successful redials.
	Reconnects int
	// OnSnapshot receives interleaved SNAPSHOT frames; it survives
	// reconnects (unlike a callback set on a raw Client).
	OnSnapshot func(wire.Response)
	// OnDerived receives interleaved DERIVED frames; like OnSnapshot it
	// survives reconnects.
	OnDerived func(wire.Response)
	// OnDelta receives interleaved DELTA frames; like OnSnapshot it
	// survives reconnects.
	OnDelta func(wire.Response)
}

// SubOptions parameterizes a SUBSCRIBE: the single-session form
// (Session, optionally with Derive groups) or the wildcard form
// (Sessions and/or Labels with Session left 0), either one optionally
// narrowed to Events and switched to Delta mode.
type SubOptions struct {
	Session  uint64   // single-session form: the session to follow
	Sessions []uint64 // wildcard form: explicit session IDs
	Labels   []string // wildcard form: label globs (path.Match syntax)
	Events   []string // limit frames to these event names (nil = all)
	Delta    bool     // delta mode: keyframes + changed-counter frames
	Derive   []string // performance groups (single-session form only)
}

func (o SubOptions) req() wire.Request {
	return wire.Request{Op: wire.OpSubscribe, Session: o.Session,
		Sessions: o.Sessions, Labels: o.Labels, Events: o.Events,
		Delta: o.Delta, Derive: o.Derive}
}

// DialReconn dials addr (with retry) and performs the HELLO
// handshake, returning a client that redials and re-handshakes
// transparently on connection loss.
func DialReconn(addr string, rc RetryConfig) (*ReconnClient, error) {
	rc.fill()
	r := &ReconnClient{addr: addr, rc: rc}
	if err := r.connect(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *ReconnClient) connect() error {
	cl, err := DialRetry(r.addr, r.rc)
	if err != nil {
		return err
	}
	cl.OnSnapshot = func(resp wire.Response) {
		if r.OnSnapshot != nil {
			r.OnSnapshot(resp)
		}
	}
	cl.OnDerived = func(resp wire.Response) {
		if r.OnDerived != nil {
			r.OnDerived(resp)
		}
	}
	cl.OnDelta = func(resp wire.Response) {
		if r.OnDelta != nil {
			r.OnDelta(resp)
		}
	}
	hello, err := cl.Hello()
	if err != nil {
		cl.Close()
		return err
	}
	// Replay recorded subscriptions so the snapshot (and DERIVED)
	// stream resumes on the fresh connection without caller help. A
	// replayed delta subscription registers a fresh server-side
	// subscriber, whose first frame is always a keyframe — the redial
	// re-anchors the delta stream by construction.
	for _, o := range r.subs {
		if _, err := cl.Do(o.req()); err != nil {
			cl.Close()
			return err
		}
	}
	r.cl, r.hello = cl, hello
	return nil
}

// Subscribe issues a single-session SUBSCRIBE (with optional derive
// groups) and records it on success: every later reconnect replays the
// subscription, so a stream consumer keeps receiving frames across
// connection loss.
func (r *ReconnClient) Subscribe(session uint64, groups ...string) (wire.Response, error) {
	return r.SubscribeWith(SubOptions{Session: session,
		Derive: append([]string(nil), groups...)})
}

// SubscribeWith issues a SUBSCRIBE in any form SubOptions can express
// — wildcard, event-filtered, delta — and records it on success for
// replay across reconnects. The raw SUBSCRIBE op is not blindly
// replayable (see replayableOps); a deliberately recorded subscription
// is: re-subscribing just adds a fresh subscriber on the new
// connection, and a fresh delta subscriber's first frame is a
// keyframe, re-anchoring the stream.
func (r *ReconnClient) SubscribeWith(o SubOptions) (wire.Response, error) {
	resp, err := r.Do(o.req())
	if err == nil {
		r.subs = append(r.subs, o)
	}
	return resp, err
}

// Hello returns the most recent handshake reply — refreshed on every
// reconnect, so Protocol always describes the server actually on the
// other end.
func (r *ReconnClient) Hello() wire.Response { return r.hello }

// Do issues the request, redialing once on a transport failure. After
// a successful reconnect (which replays HELLO), a replayable request
// is reissued; a non-replayable one returns the original failure with
// the reconnect noted, leaving the retry decision to the caller.
func (r *ReconnClient) Do(req wire.Request) (wire.Response, error) {
	resp, err := r.cl.Do(req)
	if err == nil || !IsTransport(err) {
		return resp, err
	}
	r.cl.Close()
	if cerr := r.connect(); cerr != nil {
		return wire.Response{}, fmt.Errorf("%w (reconnect failed: %v)", err, cerr)
	}
	r.Reconnects++
	if !replayableOps[req.Op] {
		return wire.Response{}, fmt.Errorf("%w (reconnected, but %s is not replayable)", err, req.Op)
	}
	return r.cl.Do(req)
}

// Close closes the underlying connection; idempotent like
// Client.Close.
func (r *ReconnClient) Close() error {
	if r.cl == nil {
		return nil
	}
	return r.cl.Close()
}
