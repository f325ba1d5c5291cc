// Parallel tick pipeline (DESIGN.md S31). Two independent pieces live
// here:
//
//   - the sharded parallel sweep — the per-tick walk over the session
//     registry partitioned across a fixed pool of workers
//     (Config.TickWorkers), each running the full per-session unit
//     (snapshot → history → derive → encode → fan-out) for the
//     sessions of the shards it claims;
//   - the async WAL handoff — on a durable server, tick rows go to a
//     bounded queue drained by one dedicated appender goroutine that
//     batches each drain into a single wal.AppendRows call, taking
//     journal writes (and under -fsync always, fsyncs) off the tick's
//     critical path.
//
// Why partitioning by shard is enough for correctness: every ordering
// guarantee the fan-out makes is per-session (per-subscriber seq
// monotonicity, delta keyframe chaining, DERIVED-follows-SNAPSHOT),
// and a session lives in exactly one registry shard, so one worker
// owns all of a session's tick work for the whole tick. State shared
// across sessions is concurrency-safe on its own: the tsdb store and
// WAL take their own locks, the derive engine stripes its session
// state, telemetry counters are striped atomics, and the shared
// encode-buffer pool is reference-counted.
package server

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry/tracing"
	"repro/internal/tsdb/wal"
)

// tickJob is one tick's sweep, shared by every worker helping with it.
// Workers claim registry shards through the atomic cursor until none
// remain — work-stealing granularity of one shard, so a shard heavy
// with sessions never pins the sweep behind a static partition.
type tickJob struct {
	now    int64
	cursor atomic.Int64
	wg     sync.WaitGroup
	// trc is the tick's trace (nil untraced). Workers hang one "shard"
	// span per claimed shard off its root; the Trace is internally
	// locked, so concurrent workers append safely.
	trc *tracing.Trace
}

// runSweep claims and sweeps shards until the job is exhausted.
// worker identifies the sweeping goroutine (0 is the tick goroutine)
// in shard-span annotations — the Perfetto export maps it to a thread
// track, making the sweep's actual parallelism visible.
func (s *Server) runSweep(job *tickJob, worker int) {
	n := int64(len(s.reg.shards))
	for {
		i := job.cursor.Add(1) - 1
		if i >= n {
			return
		}
		sp := job.trc.StartSpan(tracing.NoSpan, "shard")
		queued := false
		swept := s.reg.sweepShard(int(i), func(sess *session) {
			if s.tickSession(sess, job.now, job.trc, sp) {
				queued = true
			}
		})
		if job.trc != nil {
			job.trc.AnnotateInt(sp, "shard", i)
			job.trc.AnnotateInt(sp, "worker", int64(worker))
			job.trc.AnnotateInt(sp, "sessions", int64(swept))
			job.trc.EndSpan(sp)
		}
		if queued {
			// The sweep holds every P for the whole tick, so the
			// connection writers this shard's fan-out just woke would
			// otherwise wait for the sweep to end. Yielding lets them
			// put the shard's frames on their sockets, one batched
			// write each, while the next shard simulates (DESIGN.md
			// S31). A shard nobody subscribes to does not yield: that
			// would only cut the WAL appender's per-tick batch up.
			runtime.Gosched()
		}
	}
}

// tickWorker is one pool worker, started by Serve: it waits for tick
// jobs and helps sweep them, exiting on shutdown. A worker that has
// taken a job always finishes it before re-checking the context, so a
// tick's WaitGroup cannot be left hanging by a racing cancel.
func (s *Server) tickWorker(worker int) {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case job := <-s.tickWork:
			s.runSweep(job, worker)
			job.wg.Done()
		}
	}
}

// sweep runs one tick's sweep of the registry, TickWorkers wide. The
// tick goroutine always participates as worker zero — at TickWorkers 1
// it is the whole sweep, shards in order on one goroutine — and up to
// TickWorkers-1 pool workers join via the unbuffered handoff channel.
// A helper slot whose pool worker is not immediately ready — or the
// pool is not running at all, as when tests and benchmarks drive
// tick() directly without Serve — is filled by an ephemeral goroutine,
// so the sweep width is TickWorkers either way.
func (s *Server) sweep(now int64, t *tracing.Trace) {
	job := &tickJob{now: now, trc: t}
	helpers := s.cfg.TickWorkers - 1
	job.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		select {
		case s.tickWork <- job:
		default:
			// Worker IDs only label trace spans; an ephemeral helper
			// reuses its slot number (i+1), which can collide with a
			// pool worker's spawn index — two tracks sharing a lane in
			// the export, never a correctness issue.
			go func(worker int) {
				defer job.wg.Done()
				s.runSweep(job, worker)
			}(i + 1)
		}
	}
	s.runSweep(job, 0)
	job.wg.Wait()
}

// tickSession is the per-session tick unit: snapshot → history append
// → snapshot fan-out → derived fan-out, the loop body of every sweep
// worker. It reports whether the session had subscribers to fan out
// to, i.e. whether connection writers now have frames waiting.
//
// Stage spans hang on d, which is the trace only when it is detailed
// (head-sampled) and nil — every span call a no-op — otherwise: with
// thousands of sessions, per-session spans on every tail-candidate tick
// would dwarf the work they measure. Coarse shard spans (runSweep) and
// the WAL-stall and alert error marks, which take t, stay
// unconditional.
func (s *Server) tickSession(sess *session, now int64, t *tracing.Trace, parent tracing.SpanRef) bool {
	var d *tracing.Trace
	if t.Detailed() {
		d = t
	}
	ss := d.StartSpan(parent, "session")
	defer d.EndSpan(ss)
	d.AnnotateInt(ss, "session", int64(sess.id))
	sp := d.StartSpan(ss, "snapshot")
	resp, views, ok := sess.snapshot()
	d.EndSpan(sp)
	if !ok {
		return false
	}
	hs := d.StartSpan(ss, "tsdb.append")
	s.appendTickHistory(t, resp.Session, now, resp.Events, resp.Values)
	d.EndSpan(hs)
	fs := d.StartSpan(ss, "fanout")
	d.AnnotateInt(fs, "views", int64(len(views)))
	s.fanout(t, fs, sess, resp, views)
	d.EndSpan(fs)
	ds := d.StartSpan(ss, "derive")
	s.fanoutDerived(t, ds, sess, resp, views, now)
	d.EndSpan(ds)
	return len(views) > 0
}

// histRow is one tick row in flight to the WAL appender. Both slices
// are safe to retain past the tick: Events is the session's
// copy-on-write name slice and Vals the tick's freshly allocated
// snapshot values — nothing reuses either after the handoff.
type histRow struct {
	session uint64
	ts      int64
	events  []string
	vals    []int64
}

// appendTickHistory records one tick row. On a durable server with the
// appender running, the row goes to the bounded handoff queue and the
// journal write leaves the tick's critical path; a full queue blocks
// the tick (counted in tick_stalls) rather than dropping the row —
// backpressure, never silent data loss. PUBLISH rows and non-durable
// history keep the synchronous path: a PUBLISH ack must continue to
// imply the row was journaled, and RAM-only appends are too cheap to
// be worth a queue.
func (s *Server) appendTickHistory(t *tracing.Trace, session uint64, ts int64, events []string, vals []int64) {
	if s.histOn.Load() {
		row := histRow{session: session, ts: ts, events: events, vals: vals}
		select {
		case s.histCh <- row:
			return
		default:
		}
		s.m.tickStalls.Inc()
		// A stall marks the tick's trace as errored, so the flight
		// recorder always keeps the evidence of a disk that cannot keep
		// up — the span measures exactly the blocked handoff.
		sp := t.StartSpan(tracing.NoSpan, "wal.stall")
		s.histCh <- row
		if t != nil {
			t.EndSpan(sp)
			t.SetError("tick stalled on full WAL handoff queue")
		}
		return
	}
	s.appendHistory(session, ts, events, vals)
}

// histBatchMax bounds how many rows one appender drain coalesces into
// a single wal.AppendRows call.
const histBatchMax = 256

// histLoop is the dedicated WAL appender: it drains the handoff queue,
// coalescing every immediately available row into one batched
// AppendRows call — one WAL lock acquisition and (under -fsync always)
// one fsync per drained batch, which in steady state is one tick's
// rows. Write-ahead ordering relative to seal/truncate is untouched:
// batching sits above wal.Log, and inside AppendRows every row still
// hits the journal before the store sees it. A WAL write failure
// degrades exactly as the synchronous path did — that row stays
// RAM-only, counted and logged by the WAL itself.
//
// Shutdown protocol: Shutdown closes histQuit only after the tick loop
// and workers have joined, so no new rows can arrive; histLoop then
// drains what is queued, journals it, and closes histDone — the signal
// that wal.Close may run without abandoning acked-to-the-queue rows.
func (s *Server) histLoop() {
	defer close(s.histDone)
	batch := make([]wal.Row, 0, histBatchMax)
	for {
		var row histRow
		select {
		case row = <-s.histCh:
		case <-s.histQuit:
			s.histOn.Store(false)
			for {
				select {
				case row = <-s.histCh:
					s.wal.AppendBatch(row.session, row.ts, row.events, row.vals)
				default:
					return
				}
			}
		}
		batch = append(batch[:0], wal.Row{Session: row.session, TS: row.ts,
			Events: row.events, Vals: row.vals})
		for len(batch) < histBatchMax {
			select {
			case row = <-s.histCh:
				batch = append(batch, wal.Row{Session: row.session, TS: row.ts,
					Events: row.events, Vals: row.vals})
				continue
			default:
			}
			break
		}
		// Each drained batch is its own traced unit ("wal" kind): the
		// journal-write and fsync spans live inside AppendRowsTraced,
		// and a write error tail-retains the batch's trace.
		t := s.trc.Start("wal", "wal.batch")
		t.AnnotateInt(tracing.NoSpan, "rows", int64(len(batch)))
		if err := s.wal.AppendRowsTraced(batch, t); err != nil && t != nil {
			t.SetError(err.Error())
		}
		s.trc.Finish(t)
	}
}

// maxPooledFrame bounds what the frame-buffer pools retain; a rare
// oversized frame is left to the GC instead of pinning its array.
const maxPooledFrame = 1 << 16

// sharedBuf is a reference-counted, pooled encode buffer for fan-out
// frames. A fan-out serializes each distinct frame once per codec and
// shares the bytes across every subscriber's connection queue; the
// refcount is one for the encCache that owns the encode plus one per
// enqueued frame, and whoever drops the last reference returns the
// buffer to the pool. Every frame is settled exactly once — the socket
// write, or frame.drop on eviction, jam, closed queue and writer exit —
// so no reference is left behind.
type sharedBuf struct {
	buf  []byte
	refs atomic.Int32
}

var sharedBufPool = sync.Pool{New: func() any { return new(sharedBuf) }}

// newSharedBuf takes a pooled buffer with one reference (the encoding
// cache's own).
func newSharedBuf() *sharedBuf {
	sb := sharedBufPool.Get().(*sharedBuf)
	sb.refs.Store(1)
	return sb
}

// ref takes one more reference, for a frame about to be enqueued.
func (sb *sharedBuf) ref() { sb.refs.Add(1) }

func (sb *sharedBuf) release() {
	if sb.refs.Add(-1) == 0 {
		if cap(sb.buf) <= maxPooledFrame {
			sb.buf = sb.buf[:0]
			sharedBufPool.Put(sb)
		}
	}
}
