// Parallel tick pipeline (DESIGN.md S31): the per-tick walk over the
// session registry, partitioned by registry shard across min(GOMAXPROCS,
// regShards) sweep workers, in two passes. The delivery pass reads each
// session's row and delivers it (snapshot → derive → encode → fan-out)
// for the sessions of the shards a worker claims, keeps the row each
// session read, and writes those rows to history itself — one batch
// per worker — before tick() returns. The advance pass then runs
// each session's next workload chunk, so the simulation that row will
// report is off the path every frame waits on.
//
// Why partitioning by shard is enough for correctness: every ordering
// guarantee the fan-out makes is per-session (per-subscriber seq
// monotonicity, delta keyframe chaining, DERIVED-follows-SNAPSHOT),
// and a session lives in exactly one registry shard, so one worker
// owns all of a session's delivery work for the whole tick — done under
// the session's one lock (session.go), which is what orders it against
// requests on the same session. The passes need no barrier between
// them: session.ahead makes advance and snapshot commute, since
// whichever reaches a session first, its chunk runs once and is read
// after it. State shared
// across sessions is concurrency-safe on its own: the tsdb store and
// WAL take their own locks, the derive engine stripes its session
// state, telemetry counters are striped atomics, and the shared
// encode-buffer pool is reference-counted.
package server

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry/tracing"
	"repro/internal/tsdb/wal"
)

// tickJob is one tick's sweep, shared by every worker helping with it.
// Workers claim registry shards through an atomic cursor until none
// remain — work-stealing granularity of one shard, so a shard heavy
// with sessions never pins the sweep behind a static partition — once
// for the delivery pass (cursor) and once for the advance pass
// (advanceCursor).
type tickJob struct {
	now           int64         // the tick's start in Unix microseconds, the rows' timestamp
	mono          time.Duration // the tick's start on the clock's Mono
	cursor        atomic.Int64
	advanceCursor atomic.Int64
	// delivering counts the workers still in the delivery pass; the
	// last one out observes the tick/deliver histogram.
	delivering atomic.Int64
	wg         sync.WaitGroup
	// trc is the tick's trace (nil untraced). Workers hang one "shard"
	// span per shard they deliver and one "advance" span per shard they
	// advance off its root; the Trace is internally locked, so
	// concurrent workers append safely.
	trc *tracing.Trace
}

// runSweep runs both passes of the tick as one worker. The delivery
// pass claims and sweeps shards until the job is exhausted, then writes
// the rows it read to history in one batch: on a durable server one WAL
// lock round and at most one fsync per worker per tick. The advance
// pass then claims shards afresh and runs each session's next chunk.
// worker identifies the sweeping goroutine (0 is the tick goroutine)
// in shard-span annotations — the Perfetto export maps it to a thread
// track, making the sweep's actual parallelism visible.
func (s *Server) runSweep(job *tickJob, worker int) {
	n := int64(len(s.reg.shards))
	var rows []wal.Row
	var swept []*session // one shard's sessions at a time
	for {
		i := job.cursor.Add(1) - 1
		if i >= n {
			break
		}
		sp := job.trc.StartSpan(tracing.NoSpan, "shard")
		queued, f := false, faults{}
		swept = s.reg.sweepShard(int(i), swept[:0], func(sess *session) {
			subscribed, row := s.tickSession(sess, job.now, &rows)
			queued = queued || subscribed
			f.add(row)
		})
		f.mark(job.trc, sp)
		job.endShardSpan(sp, i, worker, len(swept))
		if queued {
			// The sweep holds every P for the whole tick, so the
			// connection writers this shard's fan-out just woke would
			// otherwise wait for the sweep to end. Yielding lets them
			// put the shard's frames on their sockets, one batched
			// write each, while the next shard runs (DESIGN.md
			// S31). A shard nobody subscribes to woke no writer, so
			// there is nothing to yield to.
			runtime.Gosched()
		}
	}
	s.appendRows(job.trc, rows)
	if job.delivering.Add(-1) == 0 {
		s.m.tickDeliver.Observe(int64(s.cfg.clock.Mono() - job.mono))
	}
	for {
		i := job.advanceCursor.Add(1) - 1
		if i >= n {
			break
		}
		sp := job.trc.StartSpan(tracing.NoSpan, "advance")
		swept = s.reg.sweepShard(int(i), swept[:0], func(sess *session) {
			// prog is set before the session is registered and never
			// again, so a publish-only session is skipped unlocked.
			if sess.prog == nil || !sess.lockOpen() {
				return
			}
			sess.advance()
			sess.mu.Unlock()
		})
		job.endShardSpan(sp, i, worker, len(swept))
	}
}

// endShardSpan annotates and ends one claimed shard's span.
func (job *tickJob) endShardSpan(sp tracing.SpanRef, shard int64, worker, sessions int) {
	job.trc.AnnotateInt(sp, "shard", shard)
	job.trc.AnnotateInt(sp, "worker", int64(worker))
	job.trc.AnnotateInt(sp, "sessions", int64(sessions))
	job.trc.EndSpan(sp)
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

// sweep runs one tick's sweep of the registry, tickWorkers wide. The
// tick goroutine always participates as worker zero — at one worker
// (GOMAXPROCS=1) it is the whole sweep, shards in order on one
// goroutine — and up to tickWorkers-1 pool workers join via the
// unbuffered handoff channel.
// A helper slot whose pool worker is not immediately ready — or the
// pool is not running at all, as when tests and benchmarks drive
// tick() directly without Serve — is filled by an ephemeral goroutine,
// so the sweep width is tickWorkers either way. The pool stays because
// it measures: starting the helpers afresh each tick instead read
// live_fanout delivery lag +4.2% (worse in 9 of 10 pairs, CHANGES.md
// PR 18).
func (s *Server) sweep(now int64, mono time.Duration, t *tracing.Trace) {
	job := &tickJob{now: now, mono: mono, trc: t}
	helpers := s.cfg.tickWorkers - 1
	job.delivering.Store(int64(s.cfg.tickWorkers))
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

// tickSession is the per-session tick unit, the loop body of every sweep
// worker and one hold of the session lock: number the row (snapshot),
// then deliver it (fanout). It adds the row to rows, the worker's
// history batch — both slices are safe to keep past the hold: Events is
// the session's copy-on-write name slice and Vals the snapshot's
// freshly allocated values — and reports whether the session had
// subscribers to fan out to, i.e. whether connection writers now have
// frames waiting, and what the row's fan-out went wrong with. Its
// stages are timed on the stage histograms, not in the tick's trace: a
// span per session would grow the trace with the session count.
func (s *Server) tickSession(sess *session, now int64, rows *[]wal.Row) (subscribed bool, f faults) {
	if !sess.lockOpen() {
		return false, faults{}
	}
	defer sess.mu.Unlock()
	if !sess.running {
		return false, faults{} // no row to number or time
	}
	start := s.cfg.clock.Mono()
	resp, ok := sess.snapshot()
	if !ok {
		return false, faults{}
	}
	start = s.stageDone(stageSnapshot, start)
	*rows = append(*rows, wal.Row{Session: resp.Session, TS: now, Events: resp.Events, Vals: resp.Values})
	f = s.fanout(nil, sess, &resp, now, start)
	return len(sess.views) > 0, f
}

// appendRows is the server's one history write: the sweep workers hand
// it what they read in a tick once the sweep has released every
// session, PUBLISH its one row from inside the session's hold, so that
// concurrent publishers journal and timestamp a session's rows in seq
// order. On a durable server
// the rows go through the WAL as one batch — journaled before the store
// sees them and, under -fsync always, synced before this returns, which
// is what a PUBLISH ack and a returned tick() both promise; a row whose
// journal write failed stays RAM-only, counted and logged by the WAL,
// and marks the trace. Otherwise they go straight into the store.
func (s *Server) appendRows(t *tracing.Trace, rows []wal.Row) {
	if s.hist == nil || len(rows) == 0 {
		return
	}
	sp := t.StartSpan(tracing.NoSpan, "tsdb.append")
	defer t.EndSpan(sp)
	if s.wal == nil {
		for i := range rows {
			s.hist.AppendBatch(rows[i].Session, rows[i].TS, rows[i].Events, rows[i].Vals)
		}
		return
	}
	if err := s.wal.AppendRowsTraced(rows, t); err != nil && t != nil {
		t.SetError(err.Error())
	}
}
