// Package faultnet wraps net.Conn and net.Listener with injectable
// transport faults — latency, chunked (partial) writes, stalls, and
// mid-frame connection cuts. The paper's position is that a counter
// interface must fail loudly and predictably rather than silently
// corrupt results (§3–§4); faultnet is how the papid test suite
// manufactures the adverse conditions that claim is checked against:
// half-dead peers, writers reset mid-JSON-frame, readers that stop
// draining, links that dribble one byte at a time.
//
// Faults are deterministic per connection (no hidden randomness): a
// test states exactly which pathology it injects, so a failure
// reproduces. Stalls honor the usual SetDeadline contract — a stalled
// Write under a write deadline returns a net.Error with Timeout()
// true, exactly like a blocked TCP send — which is what lets papid's
// deadline-based eviction be tested without filling real kernel
// buffers. Deadlines and latencies run on Faults.Clock, so on a
// clock.Fake they pass when the test advances it and never on their own.
package faultnet

import (
	"errors"
	"net"
	"sync"
	"time"

	"repro/internal/clock"
)

// Faults configures the failure modes injected into one connection.
// The zero value injects nothing and behaves as the wrapped conn.
type Faults struct {
	// WriteLatency sleeps before each underlying write (and between
	// chunks when ChunkSize splits a write).
	WriteLatency time.Duration
	// ReadLatency sleeps before each underlying read.
	ReadLatency time.Duration
	// ChunkSize caps the bytes issued per underlying write, splitting
	// one caller Write into several socket writes — a frame crosses
	// the wire in pieces, exercising the reader's reassembly.
	// 0 leaves writes whole.
	ChunkSize int
	// CutAfter hard-closes the connection once this many bytes have
	// been written, possibly mid-frame — the write that crosses the
	// threshold sends only the bytes below it, then the conn resets.
	// 0 never cuts.
	CutAfter int64
	// StallAfter makes writes block (until Close or the write
	// deadline) once this many bytes have been written — a peer whose
	// receive window went to zero. 0 never stalls.
	StallAfter int64
	// StallReads makes every read block until Close or the read
	// deadline — a peer that sends nothing, forever.
	StallReads bool
	// Clock is what deadlines and latencies are measured on (nil is the
	// wall clock). A deadline is never handed to the wrapped conn, which
	// runs on wall time: once it passes on Clock, the wrapped conn's
	// deadline is set in the past, so a Read or Write parked there
	// returns a timeout.
	Clock clock.Clock
}

// ErrCut is returned by writes after CutAfter severed the connection.
var ErrCut = errors.New("faultnet: connection cut")

// Conn is a net.Conn with fault injection layered on top.
type Conn struct {
	net.Conn
	f   Faults
	clk clock.Clock

	mu      sync.Mutex
	written int64
	rd, wd  deadline

	closed   chan struct{}
	closeOne sync.Once
}

// deadline is one direction's deadline on the conn's clock. passed is
// closed when it passes, which wakes an op faultnet parked itself (a
// stall or a latency pause); gen lets a timer firing late see that a
// newer deadline replaced the one it was armed for.
type deadline struct {
	passed chan struct{}
	timer  *clock.Timer
	gen    uint64
}

var _ net.Conn = (*Conn)(nil)

// WrapConn layers f onto nc.
func WrapConn(nc net.Conn, f Faults) *Conn {
	return &Conn{Conn: nc, f: f, clk: clock.Or(f.Clock), closed: make(chan struct{}),
		rd: deadline{passed: make(chan struct{})}, wd: deadline{passed: make(chan struct{})}}
}

// Pipe returns the two ends of an in-memory connection, each with its
// own fault set — the harness for deterministic protocol tests.
func Pipe(a, b Faults) (*Conn, *Conn) {
	ca, cb := net.Pipe()
	return WrapConn(ca, a), WrapConn(cb, b)
}

func (c *Conn) Write(p []byte) (int, error) {
	if err := c.pause(c.f.WriteLatency, &c.wd); err != nil {
		return 0, err
	}
	total := 0
	for total < len(p) {
		c.mu.Lock()
		written := c.written
		c.mu.Unlock()
		if c.f.StallAfter > 0 && written >= c.f.StallAfter {
			return total, c.block(&c.wd)
		}
		chunk := p[total:]
		if c.f.ChunkSize > 0 && len(chunk) > c.f.ChunkSize {
			chunk = chunk[:c.f.ChunkSize]
		}
		if c.f.CutAfter > 0 {
			remain := c.f.CutAfter - written
			if remain <= 0 {
				c.Close()
				return total, ErrCut
			}
			if int64(len(chunk)) > remain {
				chunk = chunk[:remain]
			}
		}
		n, err := c.Conn.Write(chunk)
		c.mu.Lock()
		c.written += int64(n)
		c.mu.Unlock()
		total += n
		if err != nil {
			return total, err
		}
		if total < len(p) {
			if err := c.pause(c.f.WriteLatency, &c.wd); err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

func (c *Conn) Read(p []byte) (int, error) {
	if c.f.StallReads {
		return 0, c.block(&c.rd)
	}
	if err := c.pause(c.f.ReadLatency, &c.rd); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

// Close unblocks any stalled operation and closes the wrapped conn.
// It is idempotent.
func (c *Conn) Close() error {
	c.closeOne.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// Written reports the bytes that reached the wrapped conn so far.
func (c *Conn) Written() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.written
}

func (c *Conn) SetDeadline(t time.Time) error {
	if err := c.SetReadDeadline(t); err != nil {
		return err
	}
	return c.SetWriteDeadline(t)
}

func (c *Conn) SetReadDeadline(t time.Time) error {
	return c.setDeadline(&c.rd, t, c.Conn.SetReadDeadline)
}

func (c *Conn) SetWriteDeadline(t time.Time) error {
	return c.setDeadline(&c.wd, t, c.Conn.SetWriteDeadline)
}

// pastDeadline is what a passed deadline hands the wrapped conn: any
// time in the past trips its parked op at once.
var pastDeadline = time.Unix(1, 0)

// setDeadline moves one direction's deadline to t (zero clears it) and
// arms a timer on the conn's clock for it; wrapped is the wrapped conn's
// setter for that direction. A deadline that has not passed keeps its
// passed channel, so an op parked on it sees the move; one that has
// passed starts afresh.
func (c *Conn) setDeadline(d *deadline, t time.Time, wrapped func(time.Time) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	d.gen++
	if d.timer != nil {
		d.timer.Stop()
		d.timer = nil
	}
	select {
	case <-d.passed:
		d.passed = make(chan struct{})
	default:
	}
	if t.IsZero() {
		return wrapped(time.Time{})
	}
	wait := t.Sub(c.clk.Now())
	if wait <= 0 {
		close(d.passed)
		return wrapped(pastDeadline)
	}
	gen := d.gen
	d.timer = c.clk.AfterFunc(wait, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if d.gen == gen {
			close(d.passed)
			wrapped(pastDeadline)
		}
	})
	return wrapped(time.Time{})
}

// passedCh returns the channel closed when d passes.
func (c *Conn) passedCh(d *deadline) <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return d.passed
}

// block parks the calling op until Close or its deadline passes.
func (c *Conn) block(d *deadline) error {
	select {
	case <-c.closed:
		return net.ErrClosed
	case <-c.passedCh(d):
		return timeoutError{}
	}
}

// pause waits lat on the conn's clock, cut short by Close or the
// deadline.
func (c *Conn) pause(lat time.Duration, d *deadline) error {
	if lat <= 0 {
		return nil
	}
	done := make(chan struct{})
	t := c.clk.AfterFunc(lat, func() { close(done) })
	defer t.Stop()
	select {
	case <-done:
		return nil
	case <-c.passedCh(d):
		return timeoutError{}
	case <-c.closed:
		return net.ErrClosed
	}
}

// timeoutError satisfies net.Error with Timeout() true, the same
// shape real sockets return on a deadline trip.
type timeoutError struct{}

var _ net.Error = timeoutError{}

func (timeoutError) Error() string   { return "faultnet: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// Listener wraps a net.Listener so every accepted connection comes
// back fault-injected. Plan chooses the faults per connection and
// receives the raw conn first, so a test can also tune the socket
// itself (e.g. (*net.TCPConn).SetWriteBuffer to make a stalled reader
// back-pressure quickly).
type Listener struct {
	net.Listener

	mu   sync.Mutex
	n    int
	plan func(i int, nc net.Conn) Faults
}

// Wrap layers plan onto ln; a nil plan injects nothing anywhere.
func Wrap(ln net.Listener, plan func(i int, nc net.Conn) Faults) *Listener {
	return &Listener{Listener: ln, plan: plan}
}

func (l *Listener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	i := l.n
	l.n++
	l.mu.Unlock()
	var f Faults
	if l.plan != nil {
		f = l.plan(i, nc)
	}
	return WrapConn(nc, f), nil
}
