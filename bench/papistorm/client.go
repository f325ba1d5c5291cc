package main

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// opKind labels a pipelined request so its reply can be filed.
type opKind uint8

const (
	opPublish opKind = iota
	opQueryRange
	opQueryRaw
	opQueryDerive
	opStats
	opEdge // a slice boundary of the window: the pacer samples CPU times there
	opCall // synchronous set-up or check request; the reply goes to done
)

// pending is one request in flight. Replies on a papid connection come
// back in request order (one dispatch goroutine per connection), so a
// FIFO of these is all the correlation the harness needs.
type pending struct {
	kind opKind
	due  int64 // unix ns the request was due to be sent
	sess int   // index into the workload's publish or query sessions
	seq  uint64
	done chan wire.Response
	// first, when set, sees the reply on the reader goroutine before
	// done does: what it records is in place before the next frame is
	// read, which a SUBSCRIBE needs (its frames follow its reply at once).
	first func(*wire.Response)
}

// sink receives everything a client reads. Both methods run on the
// client's reader goroutine.
type sink interface {
	frame(c *client, resp *wire.Response, recv time.Time)
	reply(c *client, p pending, resp *wire.Response, recv time.Time)
}

// client is one raw, pipelined papid connection: requests are encoded
// into a buffered writer and flushed by the sender, and a reader
// goroutine timestamps and routes every frame that comes back.
type client struct {
	id  int
	nc  net.Conn
	bw  *bufio.Writer
	enc *wire.Encoder
	dec *wire.Decoder
	out sink

	mu   sync.Mutex
	pend []pending
	head int

	readDone chan struct{}
	readErr  error
}

func dial(id int, addr string, codec wire.Codec, out sink) (*client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &client{id: id, nc: nc, bw: bufio.NewWriterSize(nc, 64<<10), out: out,
		readDone: make(chan struct{})}
	c.enc = wire.NewEncoder(c.bw)
	c.dec = wire.NewDecoder(nc)
	// The handshake is always JSON; both halves switch after the reply.
	hello := wire.Request{Op: wire.OpHello, Version: wire.ProtocolVersion}
	if codec == wire.CodecBinary {
		hello.Codec = wire.CodecNameBinary
	}
	var resp wire.Response
	if err := c.enc.Encode(&hello); err == nil {
		err = c.bw.Flush()
	}
	if err == nil {
		err = c.dec.Decode(&resp)
	}
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("HELLO: %w", err)
	}
	if !resp.OK || resp.Protocol != wire.ProtocolVersion ||
		(codec == wire.CodecBinary) != (resp.Codec == wire.CodecNameBinary) {
		nc.Close()
		return nil, fmt.Errorf("HELLO: unexpected reply %+v", resp)
	}
	c.enc.SetCodec(codec)
	c.dec.SetCodec(codec)
	go c.readLoop()
	return c, nil
}

func (c *client) readLoop() {
	defer close(c.readDone)
	for {
		var resp wire.Response
		if err := c.dec.Decode(&resp); err != nil {
			c.readErr = err
			return
		}
		recv := time.Now()
		switch resp.Op {
		case wire.OpSnapshot, wire.OpDelta, wire.OpDerived:
			c.out.frame(c, &resp, recv)
			continue
		}
		c.mu.Lock()
		if c.head == len(c.pend) {
			c.mu.Unlock()
			c.readErr = fmt.Errorf("reply %s with no request pending", resp.Op)
			return
		}
		p := c.pend[c.head]
		c.head++
		if c.head == len(c.pend) {
			c.pend, c.head = c.pend[:0], 0
		}
		c.mu.Unlock()
		if p.done != nil {
			if p.first != nil {
				p.first(&resp)
			}
			p.done <- resp
			continue
		}
		c.out.reply(c, p, &resp, recv)
	}
}

// send queues one request behind whatever is already buffered; the
// caller flushes once per batch.
func (c *client) send(req *wire.Request, p pending) error {
	c.mu.Lock()
	c.pend = append(c.pend, p)
	c.mu.Unlock()
	return c.enc.Encode(req)
}

func (c *client) flush() error { return c.bw.Flush() }

// inFlight is the number of requests sent and not yet answered.
func (c *client) inFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pend) - c.head
}

// call is a synchronous round trip, for set-up and the post-window
// checks. An ERROR reply is returned as an error.
func (c *client) call(req wire.Request) (wire.Response, error) {
	return c.callFirst(req, nil)
}

// callFirst is call with a hook that sees the reply first (see pending).
func (c *client) callFirst(req wire.Request, first func(*wire.Response)) (wire.Response, error) {
	done := make(chan wire.Response, 1)
	if err := c.send(&req, pending{kind: opCall, done: done, first: first}); err != nil {
		return wire.Response{}, err
	}
	if err := c.flush(); err != nil {
		return wire.Response{}, err
	}
	select {
	case resp := <-done:
		if !resp.OK {
			return resp, fmt.Errorf("%s: %s", req.Op, resp.Error)
		}
		return resp, nil
	case <-c.readDone:
		return wire.Response{}, fmt.Errorf("%s: connection lost: %v", req.Op, c.readErr)
	case <-time.After(30 * time.Second):
		return wire.Response{}, fmt.Errorf("%s: no reply in 30s", req.Op)
	}
}

// close shuts the socket and waits for the reader to exit.
func (c *client) close() {
	c.nc.Close()
	<-c.readDone
}
