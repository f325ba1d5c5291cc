package server

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/tracing"
	"repro/internal/wire"
)

// slowRingSize bounds the recent slow-op sample ring.
const slowRingSize = 16

// slowRing keeps the most recent SlowOp-threshold breaches — op,
// session, duration, and (when tracing is on) the trace ID the warn
// line carried — so an operator reading STATS or /statusz can jump
// from a slow sample straight to its retained flight-recorder trace.
type slowRing struct {
	mu   sync.Mutex
	buf  []wire.SlowSample
	head int
	n    int
}

func (r *slowRing) record(op string, session uint64, ns int64, trace uint64) {
	r.mu.Lock()
	if r.buf == nil {
		r.buf = make([]wire.SlowSample, slowRingSize)
	}
	r.buf[r.head] = wire.SlowSample{Op: op, Session: session, NS: ns, TraceID: trace}
	r.head = (r.head + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// samples returns the recorded breaches, newest first (nil when none).
func (r *slowRing) samples() []wire.SlowSample {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return nil
	}
	out := make([]wire.SlowSample, 0, r.n)
	for i := 0; i < r.n; i++ {
		idx := (r.head - 1 - i + len(r.buf)) % len(r.buf)
		out = append(out, r.buf[idx])
	}
	return out
}

// metrics is the server's instrument set, registry-backed so one
// increment feeds the STATS reply, Stats(), /statusz and the Prometheus
// /metrics exposition alike: the registry is the only ledger, and a new
// number is one registration here.
type metrics struct {
	reg *telemetry.Registry

	evictions     *telemetry.Counter
	deadlineTrips *telemetry.Counter
	resyncs       *telemetry.Counter
	// ticksSkipped counts ticker firings no sweep answered: a sweep
	// that outlasts TickInterval — slow simulation, slow fan-out or a
	// disk slower than the tick's journal write — makes time.Ticker drop
	// them silently.
	ticksSkipped *telemetry.Counter

	// sent and dropped are the fan-out ledgers, indexed by frameKind for
	// deliver and frame.drop. Each kind reads the same way: sent counts
	// frames handed to a connection's write queue, dropped those that
	// then never reached the socket or could not be encoded, each
	// charged once, so sent − dropped is what sockets took. SNAPSHOT,
	// DELTA and DERIVED frames keep their own pairs; keyframes share the
	// snapshot pair and are tallied again in keyframes. encodeFailures
	// counts fan-out frames that could not be serialized at all — each
	// costs every subscriber on that codec its frame, which the matching
	// dropped counter also records. Replies have a dropped counter and
	// no sent one: every request decoded (its op histogram's count) and
	// every malformed frame (resyncs) is answered by one reply.
	sent, dropped  [numKinds]*telemetry.Counter
	keyframes      *telemetry.Counter
	encodeFailures *telemetry.Counter

	// Per-codec outbound traffic, indexed by wire.Codec.
	framesSent [2]*telemetry.Counter
	bytesSent  [2]*telemetry.Counter

	// tickDur tracks one fan-out tick end to end: counter reads,
	// snapshot encodes, the history write — on a durable server the
	// journal and its fsync — and the workload advances, for every
	// running session. tickDeliver is its delivery pass alone: from
	// tick start until the last sweep worker has delivered and
	// journaled its rows, before the advance pass's share of the tick.
	// Each observes once per tick, so their counts are the ticks run.
	tickDur     *telemetry.Histogram
	tickDeliver *telemetry.Histogram
	// stage times each per-row stage of the delivery path, indexed by
	// stage: always on, where a trace holds only a unit's coarse spans.
	// Each has a cell per sweep worker and one for requests (rec).
	stage [numStages]*telemetry.Histogram

	// opLat holds one wire-latency histogram per (request op, codec):
	// decode-to-enqueue time for each request the dispatcher answers.
	// Unknown ops fall into the "other" pair.
	opLat   map[string]*[2]*telemetry.Histogram
	otherOp [2]*telemetry.Histogram
}

// stage names one per-row stage of the delivery path, a tick's or a
// PUBLISH's: reading a session's row, fanning it out to the views,
// evaluating its derived groups, and encoding one frame per codec.
type stage int

const (
	stageSnapshot stage = iota
	stageFanout
	stageDerive
	stageEncode // + wire.Codec
	numStages   = stageEncode + 2
)

// stageNames is the one table of stages: the stage label of
// papid_stage_seconds, and the STATS hists key "stage/<name>".
var stageNames = [numStages]string{
	stageSnapshot:                         "snapshot",
	stageFanout:                           "fanout",
	stageDerive:                           "derive",
	stageEncode + stage(wire.CodecJSON):   "encode/json",
	stageEncode + stage(wire.CodecBinary): "encode/binary",
}

// opLatencyOps is every request op that gets its own latency
// histogram pair.
var opLatencyOps = []string{
	wire.OpHello, wire.OpCreate, wire.OpAddEvents, wire.OpStart,
	wire.OpRead, wire.OpSubscribe, wire.OpPublish, wire.OpStop,
	wire.OpCloseSession, wire.OpQuery, wire.OpStats, wire.OpBye,
}

// newMetrics registers the server's instruments; the stage histograms
// get tickWorkers+1 cells, one per rec.
func newMetrics(reg *telemetry.Registry, tickWorkers int) *metrics {
	m := &metrics{reg: reg}
	m.sent[kindSnapshot] = reg.NewCounter(telemetry.Opts{Name: "papid_snapshots_sent_total",
		Help: "Snapshot frames enqueued to subscribers."})
	m.dropped[kindSnapshot] = reg.NewCounter(telemetry.Opts{Name: "papid_snapshots_dropped_total",
		Help: "Snapshot frames (keyframes included) that never reached the socket: evicted from a full connection write queue, unwritten when the connection went away, or failed encodes."})
	m.sent[kindKeyframe], m.dropped[kindKeyframe] = m.sent[kindSnapshot], m.dropped[kindSnapshot]
	m.evictions = reg.NewCounter(telemetry.Opts{Name: "papid_evictions_total",
		Help: "Connections the server cut loose (idle, deadline trips, jammed queues)."})
	m.deadlineTrips = reg.NewCounter(telemetry.Opts{Name: "papid_deadline_trips_total",
		Help: "Read/write deadline expirations that led to an eviction."})
	m.resyncs = reg.NewCounter(telemetry.Opts{Name: "papid_resyncs_total",
		Help: "Malformed frames answered with an ERROR frame and skipped."})
	m.ticksSkipped = reg.NewCounter(telemetry.Opts{Name: "papid_ticks_skipped_total",
		Help: "Tick intervals that passed without a sweep starting (the previous sweep overran)."})
	m.sent[kindDerived] = reg.NewCounter(telemetry.Opts{Name: "papid_derived_sent_total",
		Help: "DERIVED frames enqueued to subscribers."})
	m.dropped[kindDerived] = reg.NewCounter(telemetry.Opts{Name: "papid_derived_dropped_total",
		Help: "DERIVED frames that never reached the socket (write-queue eviction, connection gone, failed encodes)."})
	m.sent[kindDelta] = reg.NewCounter(telemetry.Opts{Name: "papid_deltas_sent_total",
		Help: "DELTA frames enqueued to delta-mode subscribers."})
	m.dropped[kindDelta] = reg.NewCounter(telemetry.Opts{Name: "papid_deltas_dropped_total",
		Help: "DELTA frames that never reached the socket (write-queue eviction, connection gone, failed encodes)."})
	m.dropped[kindReply] = reg.NewCounter(telemetry.Opts{Name: "papid_replies_dropped_total",
		Help: "Request replies that never reached the socket: unwritten when the connection was evicted or its write failed, or not encoded."})
	m.keyframes = reg.NewCounter(telemetry.Opts{Name: "papid_keyframes_sent_total",
		Help: "Keyframe snapshots enqueued to delta-mode subscribers (cadence, subscribe, or drop resync)."})
	m.encodeFailures = reg.NewCounter(telemetry.Opts{Name: "papid_encode_failures_total",
		Help: "Fan-out frames that failed to serialize (logged once, dropped for every subscriber on the codec)."})
	for _, codec := range []wire.Codec{wire.CodecJSON, wire.CodecBinary} {
		label := telemetry.Label{Name: "codec", Value: codec.String()}
		m.framesSent[codec] = reg.NewCounter(telemetry.Opts{
			Name: "papid_frames_sent_total", Help: "Outbound frames written, by codec.",
			Labels: []telemetry.Label{label}})
		m.bytesSent[codec] = reg.NewCounter(telemetry.Opts{
			Name: "papid_bytes_sent_total", Help: "Outbound payload bytes written, by codec.",
			Labels: []telemetry.Label{label}})
	}
	m.tickDur = reg.NewLatencyHistogram(telemetry.Opts{
		Name: "papid_tick_duration_seconds",
		Help: "Snapshot fan-out tick duration (read + encode + history append, journal and fsync included, then the workload advance).",
		Key:  "tick"})
	m.tickDeliver = reg.NewLatencyHistogram(telemetry.Opts{
		Name: "papid_tick_deliver_seconds",
		Help: "Tick start until every sweep worker has read, fanned out and journaled its rows (the tick before its workload advance).",
		Key:  "tick/deliver"})
	for st, name := range stageNames {
		m.stage[st] = reg.NewLatencyHistogramCells(telemetry.Opts{
			Name:   "papid_stage_seconds",
			Help:   "Per-row delivery stage duration: snapshot read, view fan-out, derive evaluation, and encode per codec.",
			Labels: []telemetry.Label{{Name: "stage", Value: name}},
			Key:    "stage/" + name}, tickWorkers+1)
	}
	m.opLat = make(map[string]*[2]*telemetry.Histogram, len(opLatencyOps))
	for _, op := range opLatencyOps {
		m.opLat[op] = m.newOpPair(op)
	}
	m.otherOp = *m.newOpPair("OTHER")
	return m
}

func (m *metrics) newOpPair(op string) *[2]*telemetry.Histogram {
	var pair [2]*telemetry.Histogram
	for _, codec := range []wire.Codec{wire.CodecJSON, wire.CodecBinary} {
		pair[codec] = m.reg.NewLatencyHistogram(telemetry.Opts{
			Name: "papid_op_latency_seconds",
			Help: "Wire request latency, decode to reply enqueue, by op and codec.",
			Labels: []telemetry.Label{
				{Name: "op", Value: op},
				{Name: "codec", Value: codec.String()},
			},
			Key: "op/" + op + "/" + codec.String(),
		})
	}
	return &pair
}

// observeOp records one request's service latency.
func (m *metrics) observeOp(op string, codec wire.Codec, d time.Duration) {
	pair, ok := m.opLat[op]
	if !ok {
		pair = &m.otherOp
	}
	pair[codec].Observe(int64(d))
}

// rec is one recorder of the delivery path: a sweep worker, by its
// slot in the tick (0 to tickWorkers-1), or a request. Its stage
// observations go to its own cell of each stage histogram — the
// requests' cell is the last — so no two sweep workers, and no request,
// write the same bucket lines. A worker adds its frame counts to its
// own counter stripe; requests, which run on any number of
// goroutines, draw one at random (stripe < 0).
//
// last is the recorder's latest reading of the server clock's Mono.
// The path reads the clock once per boundary: each reading ends one
// interval and starts the next, so a stage's interval absorbs whatever
// ran since the reading before it. A worker's chain starts when it
// claims a shard and runs through the shard's rows, so a row's snapshot
// stage also holds taking the session's lock (and the end of the row
// before); an encode holds what ran since the previous reading of the
// row, a filtered view's projection included; and a frame's encodes run
// back to back before its pushes, which the fanout and derive stages
// hold.
type rec struct {
	cell, stripe int
	last         time.Duration
}

// sweepRec is the recorder of the sweep worker in slot.
func sweepRec(slot int) rec { return rec{cell: slot, stripe: slot} }

// reqRec is a request's recorder, its chain starting at the reading at.
func (s *Server) reqRec(at time.Duration) rec {
	return rec{cell: s.cfg.tickWorkers, stripe: -1, last: at}
}

// add counts n on c, on the recorder's stripe.
func (r *rec) add(c *telemetry.Counter, n uint64) {
	if r.stripe < 0 {
		c.Add(n)
		return
	}
	c.AddAt(r.stripe, n)
}

// lap ends stage st at a fresh reading, timed from r's latest, and
// makes it r's latest.
func (s *Server) lap(r *rec, st stage) { s.stageFrom(r, st, r.last) }

// stageFrom ends stage st at a fresh reading, timed from start — an
// earlier reading of r's chain — and makes it r's latest.
func (s *Server) stageFrom(r *rec, st stage, start time.Duration) {
	now := s.cfg.clock.Mono()
	s.m.stage[st].ObserveAt(r.cell, int64(now-start))
	r.last = now
}

// spanStart opens span name of t at at, a reading of the server's
// clock, when the flight recorder reads the same clock; otherwise (a
// test server on a Fake, Config.traceClock) the recorder reads its
// own. spanEnd and spanNext end a span, and end one and open the next,
// the same way: papid's recorder and server both read the wall clock,
// so a span boundary costs no reading of its own.
func (s *Server) spanStart(t *tracing.Trace, name string, at time.Duration) tracing.SpanRef {
	if s.sharedClock {
		return t.StartSpanAt(tracing.NoSpan, name, at)
	}
	return t.StartSpan(tracing.NoSpan, name)
}

func (s *Server) spanEnd(t *tracing.Trace, sp tracing.SpanRef, at time.Duration) {
	if s.sharedClock {
		t.EndSpanAt(sp, at)
		return
	}
	t.EndSpan(sp)
}

func (s *Server) spanNext(t *tracing.Trace, end tracing.SpanRef, name string, at time.Duration) tracing.SpanRef {
	if s.sharedClock {
		t.EndSpanAt(end, at)
		return t.StartSpanAt(tracing.NoSpan, name, at)
	}
	return t.NextSpan(end, tracing.NoSpan, name)
}

// registerServerFuncs wires the scrape-time views of state that lives
// outside the instrument set: registry size, live connections, queued
// frames, and process-level gauges. Called once from New, after the
// server's components exist.
func (s *Server) registerServerFuncs() {
	reg := s.m.reg
	reg.NewGaugeFunc(telemetry.Opts{Name: "papid_sessions",
		Help: "Live sessions."}, func() float64 {
		return float64(s.reg.count())
	})
	reg.NewGaugeFunc(telemetry.Opts{Name: "papid_connections",
		Help: "Open client connections."}, func() float64 {
		s.connsMu.Lock()
		n := len(s.conns)
		s.connsMu.Unlock()
		return float64(n)
	})
	reg.NewGaugeFunc(telemetry.Opts{Name: "papid_write_queue_frames",
		Help: "Frames currently queued across all per-connection write queues."},
		func() float64 {
			s.connsMu.Lock()
			conns := make([]*conn, 0, len(s.conns))
			for c := range s.conns {
				conns = append(conns, c)
			}
			s.connsMu.Unlock()
			total := 0
			for _, c := range conns {
				total += c.q.len()
			}
			return float64(total)
		})
	reg.NewGaugeFunc(telemetry.Opts{Name: "papid_tick_workers",
		Help: "Parallel tick sweep width: min(GOMAXPROCS, 16 registry shards)."}, func() float64 {
		return float64(s.cfg.tickWorkers)
	})
	reg.NewGaugeFunc(telemetry.Opts{Name: "papid_goroutines",
		Help: "Goroutines in the papid process."}, func() float64 {
		return float64(runtime.NumGoroutine())
	})
	start := s.cfg.clock.Now()
	reg.NewGaugeFunc(telemetry.Opts{Name: "papid_uptime_seconds",
		Help: "Seconds since the server was built."}, func() float64 {
		return s.cfg.clock.Now().Sub(start).Seconds()
	})
	// Flight-recorder counters read straight from the tracer; with
	// tracing off (nil tracer) TracerStats is zero, so the series
	// simply read 0 rather than disappearing between configs. papid
	// keeps a trace only when slow or errored, so the traces retained
	// are kept_slow + kept_err, and it traces every tick and decoded
	// request, so the traces started are the tick and op/* histogram
	// counts: neither has a family of its own (/tracez shows both).
	reg.NewCounterFunc(telemetry.Opts{Name: "papid_traces_kept_slow_total",
		Help: "Traces tail-retained for exceeding the slow threshold."}, func() uint64 {
		return s.trc.TracerStats().KeptSlow
	})
	reg.NewCounterFunc(telemetry.Opts{Name: "papid_traces_kept_err_total",
		Help: "Traces tail-retained for carrying an error."}, func() uint64 {
		return s.trc.TracerStats().KeptErr
	})
}
