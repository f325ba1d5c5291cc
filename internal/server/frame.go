// Outbound frames: every byte papid writes to a connection is a frame
// in that connection's one bounded writeQueue, queued by send (a reply)
// or deliver (fan-out, fanout.go) and taken off by writeLoop, the
// connection's only socket writer. frame.drop is the one drop ledger.
package server

import (
	"sync"

	"repro/internal/telemetry/tracing"
	"repro/internal/wire"
)

// frameKind names what a queued frame is, so whoever discards it knows
// which ledger to charge: a request reply (never dropped under
// pressure) or one of the four fan-out kinds.
type frameKind uint8

const (
	kindReply frameKind = iota
	kindSnapshot
	kindKeyframe // a delta view's anchoring SNAPSHOT
	kindDelta
	kindDerived
	numKinds
)

var kindNames = [numKinds]string{"reply", "snapshot", "keyframe", "delta", "derived"}

// frame is one pre-serialized outbound frame: the bytes on the wire,
// ready for a plain socket write. Fan-out frames are droppable and
// share their payload with other connections' queues; request replies
// are not droppable — a client must never miss the answer to a request
// it is waiting on.
type frame struct {
	payload []byte
	codec   wire.Codec
	kind    frameKind
	// sub, on a fan-out frame, is the subscription the frame was for —
	// one subscriber on one session — which is all drop needs to charge
	// the right counter and re-key the right delta view.
	sub *subscriber
	// shared is the reference-counted pooled buffer backing payload —
	// a fan-out encode shared with other connections' frames, or a
	// reply's own; this frame holds one reference and release drops it.
	shared *sharedBuf
	// trace, when non-nil, is a request trace whose "write" span stays
	// open until this frame is settled: release finishes the trace,
	// which ends the span, so a traced reply's duration includes its
	// queue wait and socket write. Whoever settles the frame owns the
	// trace from then on; the producing goroutine must not touch it
	// again.
	trace *tracing.Trace
}

func (f *frame) droppable() bool { return f.kind != kindReply }

// release drops the frame's buffer reference and finishes a riding
// trace. Every frame ends here exactly once: directly after its socket
// write, or through drop on every path that discards it unwritten.
func (f *frame) release() {
	if f.shared != nil {
		f.shared.release()
		f.shared = nil
	}
	if f.trace != nil {
		f.trace.Finish()
		f.trace = nil
	}
}

// drop discards a frame that will never reach the socket. It is the
// single drop ledger: every frame is charged to its own kind's dropped
// counter — a reply lost to an eviction or a failed write included,
// and for a fan-out frame whichever frame the queue chose to evict, not
// whichever push triggered the eviction — and any lost frame of a delta
// subscription marks exactly that subscription's view for a fresh
// keyframe, since the lost frame may have been the one it anchors on.
func (f *frame) drop(m *metrics) {
	m.dropped[f.kind].Inc()
	if f.sub != nil && f.sub.delta {
		f.sub.needKey.Store(true)
	}
	f.release()
}

// writeQueue is the bounded per-connection outbound frame queue — the
// only queue between fan-out and the socket — filled by the reader
// (replies), the tick workers and PUBLISH handlers (fan-out), and
// drained by the connection's one writer goroutine. When it is full the
// oldest droppable frame is evicted first, and a queue jammed with
// undroppable reply frames reports failure so the connection is
// evicted instead of wedging the server.
//
// It is a ring that grows on demand up to max, so an idle connection
// costs a few slots however deep the bound, and eviction costs the few
// (usually zero) reply frames queued ahead of the oldest droppable one,
// never the queue's depth.
type writeQueue struct {
	mu   sync.Mutex
	cond *sync.Cond
	ring []frame
	head int // index of the oldest frame
	n    int // frames queued
	// droppable counts the queued fan-out frames, so a queue holding
	// only replies is recognized without scanning it.
	droppable int
	max       int
	closed    bool
	// m is the server's ledgers, which every frame the queue drops is
	// charged to.
	m *metrics
}

func newWriteQueue(depth int, m *metrics) *writeQueue {
	q := &writeQueue{max: depth, m: m}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// slot returns the i-th queued frame's ring slot, counting from the
// oldest; callers hold mu.
func (q *writeQueue) slot(i int) *frame {
	i += q.head
	if i >= len(q.ring) {
		i -= len(q.ring)
	}
	return &q.ring[i]
}

// push enqueues one frame, evicting (frame.drop) the oldest droppable
// one if the queue is at its bound. A droppable frame that finds the
// queue full of replies is itself the one dropped — every queued frame
// outranks it. ok is false only when f was a reply that could not be
// queued: the queue is closed, or jammed with undroppable frames.
func (q *writeQueue) push(f frame) (ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || (q.n >= q.max && q.droppable == 0) {
		f.drop(q.m)
		return !q.closed && f.droppable()
	}
	if q.n >= q.max {
		q.evictOldest()
	}
	if q.n == len(q.ring) {
		q.grow()
	}
	*q.slot(q.n) = f
	q.n++
	if f.droppable() {
		q.droppable++
	}
	q.cond.Signal()
	return true
}

// evictOldest drops the oldest droppable frame: the replies queued
// ahead of it each move up one slot, over it, and the head advances.
// FIFO order of everything kept is preserved. Callers hold mu and have
// checked droppable > 0.
func (q *writeQueue) evictOldest() {
	i := 0
	for !q.slot(i).droppable() {
		i++
	}
	q.slot(i).drop(q.m)
	for ; i > 0; i-- {
		*q.slot(i) = *q.slot(i - 1)
	}
	q.popLocked()
	q.droppable--
}

// grow doubles the ring (bounded by max), unrolling it to start at 0.
func (q *writeQueue) grow() {
	ring := make([]frame, min(max(2*len(q.ring), 8), q.max))
	for i := range q.n {
		ring[i] = *q.slot(i)
	}
	q.ring, q.head = ring, 0
}

// popLocked removes the oldest frame, zeroing its slot so the ring
// pins no released buffer. Callers hold mu and have checked n > 0.
func (q *writeQueue) popLocked() frame {
	s := q.slot(0)
	f := *s
	*s = frame{}
	q.head++
	if q.head == len(q.ring) {
		q.head = 0
	}
	q.n--
	return f
}

// pop dequeues the oldest frame. With wait set it blocks until a frame
// arrives or the queue closes — after close it still hands out the
// backlog, then reports done; without, it returns at once, which is how
// the writer batches every already-queued frame into one socket write.
func (q *writeQueue) pop(wait bool) (frame, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for wait && q.n == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.n == 0 {
		return frame{}, false
	}
	f := q.popLocked()
	if f.droppable() {
		q.droppable--
	}
	return f, true
}

// close stops accepting frames and wakes the writer; already-queued
// frames still drain.
func (q *writeQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

func (q *writeQueue) isClosed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

// len reports the frames currently queued — the scrape-time depth
// gauge's view.
func (q *writeQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// writeBatchBytes is how many payload bytes the writer gathers from
// already-queued frames before it goes to the socket.
const writeBatchBytes = 4096

// writeLoop is the connection's single socket writer: it drains the
// outbound queue of pre-serialized frames, gathering every
// already-queued frame (up to writeBatchBytes) into one socket write
// bounded by WriteTimeout, so a burst of snapshots costs one syscall,
// not one per frame. A deadline trip or write error evicts the
// connection — a peer that stopped reading is cut loose rather than
// wedging a goroutine and unbounded memory behind it. Closing the
// socket on exit also unblocks the reader.
//
// The writer settles every frame it takes: written whole, it is counted
// sent and released; cut short by a failed write, or still queued when
// the writer gives up, it goes through frame.drop like a queue
// eviction — buffers return to the pool, a riding request trace
// finishes, and the sent−dropped ledger equals what the socket took.
func (c *conn) writeLoop() {
	defer c.srv.wg.Done()
	defer c.nc.Close()
	var (
		batch []frame
		buf   []byte
	)
	for {
		f, ok := c.q.pop(true)
		if !ok {
			return
		}
		// A lone large frame (a QUERY reply) is written from its own
		// buffer; small frames are copied together.
		batch = append(batch[:0], f)
		out := f.payload
		if len(out) < writeBatchBytes {
			buf = append(buf[:0], out...)
			for len(buf) < writeBatchBytes {
				if f, ok = c.q.pop(false); !ok {
					break
				}
				batch, buf = append(batch, f), append(buf, f.payload...)
			}
			out = buf
		}
		if d := c.srv.cfg.WriteTimeout; d > 0 {
			c.nc.SetWriteDeadline(c.srv.cfg.clock.Now().Add(d))
		}
		n, err := c.nc.Write(out)
		c.settle(batch, n)
		if cap(buf) > maxPooledFrame {
			buf = nil
		}
		if err != nil {
			c.evict("write", err)
			for {
				f, ok := c.q.pop(false)
				if !ok {
					return
				}
				f.drop(c.srv.m)
			}
		}
	}
}

// settle settles the frames of one socket write that took n bytes:
// each the socket took whole is released, the rest dropped, and the
// frames and bytes written are counted once per codec for the write.
// The batch's slots are cleared.
func (c *conn) settle(batch []frame, n int) {
	var frames, bytes [2]uint64
	for i := range batch {
		f := &batch[i]
		if n -= len(f.payload); n >= 0 {
			frames[f.codec]++
			bytes[f.codec] += uint64(len(f.payload))
			f.release()
		} else {
			f.drop(c.srv.m)
		}
		*f = frame{}
	}
	for codec, k := range frames {
		if k > 0 {
			c.srv.m.framesSent[codec].Add(k)
			c.srv.m.bytesSent[codec].Add(bytes[codec])
		}
	}
}

// send serializes a reply frame with the connection's codec and
// enqueues it; replies are never dropped under pressure. false means
// the connection is closed or was evicted for jamming. The encode
// buffer is a sharedBuf the frame holds the one reference to: whoever
// settles the frame returns it to the pool.
func (c *conn) send(resp wire.Response) bool {
	return c.sendTraced(resp, nil, tracing.NoSpan)
}

// sendTraced is send carrying a request trace: the trace, its write
// span wr open, rides the frame, and whoever settles the frame
// finishes it. The caller must not touch t after this returns — the
// writer goroutine may already have finished and recycled it. A nil t
// is plain send.
func (c *conn) sendTraced(resp wire.Response, t *tracing.Trace, wr tracing.SpanRef) bool {
	codec := c.codecNow()
	sb := newSharedBuf()
	payload, err := wire.AppendResponse(sb.buf[:0], codec, &resp)
	if err != nil {
		sb.release()
		c.srv.m.dropped[kindReply].Inc()
		if t != nil {
			t.SetError("reply encode: " + err.Error())
			t.Finish()
		}
		c.evict("reply encode", err)
		return false
	}
	sb.buf = payload
	f := frame{payload: payload, codec: codec, shared: sb, trace: t}
	t.AnnotateInt(wr, "bytes", int64(len(payload)))
	if c.q.push(f) {
		return true
	}
	if !c.q.isClosed() {
		c.evict("reply queue jammed", nil)
	}
	return false
}
