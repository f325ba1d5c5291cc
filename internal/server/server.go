// Package server implements papid, a concurrent counter-collection
// service: the natural next step after perfometer's one-process,
// one-viewer stream (§3–§4 of the paper) is a long-running daemon that
// many tools share. Clients speak a JSON-lines protocol (internal/wire)
// over TCP; each session owns an EventSet on a private simulated
// machine of any supported architecture.
//
// The scaling machinery, in one place:
//
//   - a sharded session registry — sessions hash to one of N
//     mutex-guarded shards, so session lookup never serializes on a
//     single lock;
//   - coalesced periodic reads — the tick snapshots each running
//     session's counters once and fans the frame out to all of the
//     session's subscribers, instead of every subscriber polling;
//   - one lock per session — a request or a tick takes it once, and a
//     row is numbered, journaled (PUBLISH), fanned out and handed to the
//     derive engine under that one hold, so subscribers, history and
//     derived metrics see a session's rows in seq order however many
//     connections publish to it (session.go has the lock order);
//   - encode-once fan-out — each tick's snapshot is serialized to
//     bytes exactly once per codec in use and the shared immutable
//     []byte flows through every subscriber and write queue, so frame
//     serialization is a per-tick cost instead of a per-subscriber
//     cost (the paper's 1–2%-overhead lesson applied to the serving
//     path);
//   - an opt-in binary wire codec (internal/wire) cutting frame bytes
//     and encode/decode allocations for clients that negotiate it, with
//     JSON lines as the transparent fallback;
//   - an embedded time-series store (internal/tsdb) recording every
//     tick's snapshot, so late subscribers and offline tools can QUERY
//     downsampled history instead of getting nothing;
//   - a hardened connection lifecycle — per-connection read-idle and
//     write deadlines, and exactly one bounded outbound queue per
//     connection, filled directly by fan-out and drained by the
//     connection's writer goroutine (subscriber frames dropped
//     oldest-first under pressure, each drop counted against its own
//     kind; the connection evicted when even reply frames cannot make
//     progress), so one slow consumer can neither block the tick loop
//     nor grow memory without bound — evictions, deadline trips and
//     protocol resyncs all counted in STATS;
//   - context-based graceful shutdown that stops accepting, folds final
//     counts into every running session, and drains all connections.
package server

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"path"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/derive"
	"repro/internal/telemetry"
	"repro/internal/telemetry/tracing"
	"repro/internal/tsdb"
	"repro/internal/tsdb/wal"
	"repro/internal/wire"
	"repro/papi"
	"repro/workload"
)

var errSessionClosed = errors.New("session closed")

// Config parameterizes a Server. The zero value selects sensible
// defaults throughout.
type Config struct {
	// DefaultPlatform is used by CREATE_SESSION requests that do not
	// name one (default linux-x86).
	DefaultPlatform string
	// Shards is the session-registry shard count (default 16).
	Shards int
	// TickInterval is the coalesced snapshot/advance period
	// (default 50ms).
	TickInterval time.Duration
	// TickWorkers is the parallel tick sweep width (papid
	// -tick-workers): registry shards are partitioned across this many
	// workers each tick, every worker running the full
	// snapshot→encode→fan-out unit for its shards' sessions and then
	// writing their rows to history as one batch.
	// Default min(GOMAXPROCS, Shards); 1 runs the exact serial
	// pipeline. See tick.go and DESIGN.md S31.
	TickWorkers int
	// KeyframeEvery is the delta-subscription keyframe cadence: every
	// Nth fan-out of a delta view is a full SNAPSHOT keyframe even
	// without drops, bounding both delta growth within an epoch and how
	// long a desynced subscriber waits to re-anchor (default 10).
	KeyframeEvery int
	// ReadIdleTimeout evicts a connection that sends no request for
	// this long and holds no subscription — a half-dead client cannot
	// pin a goroutine forever (default 2m; negative disables).
	// Connections subscribed to an open session are exempt: snapshot
	// fan-out is their traffic. A subscription ends with its session.
	ReadIdleTimeout time.Duration
	// WriteTimeout bounds each outbound frame write; a trip means the
	// peer stopped reading and the connection is evicted
	// (default 10s; negative disables).
	WriteTimeout time.Duration
	// WriteQueueDepth bounds each connection's outbound frame queue —
	// the only queue between fan-out and the socket (default 64).
	// Subscriber frames are dropped oldest-first when the queue is
	// full; a queue jammed with undroppable reply frames evicts the
	// connection instead of blocking the server.
	WriteQueueDepth int
	// TSDBMaxBytes bounds the embedded history store's memory
	// (default 8 MiB); negative disables history entirely.
	TSDBMaxBytes int64
	// TSDBRetention expires history older than this (default 15m);
	// negative keeps history until the byte budget evicts it.
	TSDBRetention time.Duration
	// TSDBRollups lists the pre-computed downsampling widths
	// (default 10s and 60s).
	TSDBRollups []time.Duration
	// DataDir, when set, makes history durable: every tick row is
	// journaled to a write-ahead log under this directory, sealed
	// blocks are persisted into memory-mapped segment files, and a
	// restart replays them (see internal/tsdb/wal). Empty keeps
	// history RAM-only.
	DataDir string
	// Fsync selects the WAL fsync policy: "always", "interval"
	// (default) or "off". Only meaningful with DataDir.
	Fsync string
	// FsyncInterval is the period of the "interval" policy
	// (default 100ms).
	FsyncInterval time.Duration
	// WALSegmentBytes is the WAL/segment rotation size (default 4 MiB).
	WALSegmentBytes int64
	// WALDiskBytes bounds raw segment bytes before compaction folds old
	// segments into rollup resolution (default 64 MiB; negative
	// disables compaction by budget).
	WALDiskBytes int64
	// WALRetainAge deletes segments wholly older than this
	// (default 0 = keep until compacted/evicted by budget).
	WALRetainAge time.Duration
	// WALCompactAfter compacts raw segments older than this into
	// rollup-resolution segments (default 0 = budget-driven only).
	WALCompactAfter time.Duration
	// SlowOp is the request-latency threshold above which a warn line
	// is logged with the op, session and duration (default 250ms;
	// negative disables).
	SlowOp time.Duration
	// TraceSample enables the pipeline flight recorder (papid
	// -trace-sample): 1 in TraceSample ticks and requests is
	// head-sampled into the /tracez ring with detailed per-session
	// stage spans. 0 disables tracing entirely — unlike the other
	// knobs, the zero value is off, so embedders and tests get exactly
	// the untraced pipeline unless they opt in. See DESIGN.md S32.
	TraceSample int
	// TraceSlow tail-retains any trace at least this slow regardless of
	// sampling (default: SlowOp; negative disables latency-based
	// retention — errors still retain). Only meaningful with
	// TraceSample > 0.
	TraceSlow time.Duration
	// TraceRing is the number of retained traces the flight recorder
	// keeps (default 64).
	TraceRing int
	// Groups names performance groups from the internal/derive library
	// (papid -groups). Each tick, every session whose event set covers a
	// named group's requirements gets that group evaluated and the
	// derived values fanned out to its subscribers as DERIVED frames.
	// Sessions may register further groups via SUBSCRIBE. Unknown names
	// are a startup error, surfaced by Listen.
	Groups []string
	// DeriveRules are threshold alert specs ("metric<bound[:N]", see
	// derive.ParseRule) armed on every evaluated session: N consecutive
	// breaches fire one structured warning and increment
	// papid_derive_alerts_total. Bad specs are a startup error.
	DeriveRules []string
	// Logger, when set, receives the structured log stream
	// (per-connection IDs, ops, durations). Nil silences logging.
	Logger *slog.Logger

	// now is the tick clock in µs, injectable by tests for
	// deterministic history timestamps.
	now func() int64
}

func (c *Config) fill() {
	if c.DefaultPlatform == "" {
		c.DefaultPlatform = papi.PlatformLinuxX86
	}
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.TickInterval <= 0 {
		c.TickInterval = 50 * time.Millisecond
	}
	if c.TickWorkers == 0 {
		c.TickWorkers = min(runtime.GOMAXPROCS(0), c.Shards)
	}
	if c.TickWorkers < 1 {
		c.TickWorkers = 1
	}
	if c.KeyframeEvery <= 0 {
		c.KeyframeEvery = 10
	}
	if c.ReadIdleTimeout == 0 {
		c.ReadIdleTimeout = 2 * time.Minute
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.WriteQueueDepth <= 0 {
		c.WriteQueueDepth = 64
	}
	if c.TSDBMaxBytes == 0 {
		c.TSDBMaxBytes = 8 << 20
	}
	if c.TSDBRetention == 0 {
		c.TSDBRetention = 15 * time.Minute
	}
	if c.SlowOp == 0 {
		c.SlowOp = 250 * time.Millisecond
	}
	if c.TraceSample > 0 {
		if c.TraceSlow == 0 {
			c.TraceSlow = c.SlowOp // may itself be negative = disabled
		}
		if c.TraceRing <= 0 {
			c.TraceRing = 64
		}
	}
	if c.now == nil {
		c.now = func() int64 { return time.Now().UnixMicro() }
	}
}

// Server is one papid instance.
type Server struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc
	ln     net.Listener
	wg     sync.WaitGroup

	reg    *registry
	hist   *tsdb.Store // nil when history is disabled
	wal    *wal.Log    // nil unless DataDir is set (and hist != nil)
	walErr error       // deferred Open/Start failure, surfaced by Listen
	replay wal.ReplayStats
	nextID atomic.Uint64

	// derive is the derived-metric engine (never nil); defGroups are the
	// resolved Config.Groups defaults, deriveErr a deferred config
	// failure surfaced by Listen like walErr.
	derive    *derive.Engine
	defGroups []*derive.Group
	deriveErr error

	// m holds every registry-backed instrument; slog is the structured
	// log stream (never nil — a discard logger when unconfigured).
	m          *metrics
	slog       *slog.Logger
	nextConnID atomic.Uint64

	// trc is the pipeline flight recorder (nil unless
	// Config.TraceSample > 0); slowOps keeps the most recent SlowOp
	// breaches with their trace IDs for STATS and /statusz.
	trc     *tracing.Tracer
	slowOps slowRing

	connsMu sync.Mutex
	conns   map[*conn]struct{}

	// admin is the optional observability HTTP server (ServeAdmin); it
	// participates in the graceful drain.
	adminMu sync.Mutex
	admin   *http.Server

	// tickWork hands tick jobs to the pool of persistent sweep workers
	// (tick.go); unbuffered, so a worker either takes a job now or the
	// tick spawns an ephemeral helper instead.
	tickWork chan *tickJob
	// tickDue is when the latest tick was due, in cfg.now microseconds
	// (countSkipped); only the tick goroutine touches it.
	tickDue int64
}

// New builds a Server; call Listen to start serving.
func New(cfg Config) *Server {
	cfg.fill()
	ctx, cancel := context.WithCancel(context.Background())
	treg := telemetry.NewRegistry()
	s := &Server{
		cfg:    cfg,
		ctx:    ctx,
		cancel: cancel,
		reg:    newRegistry(cfg.Shards),
		conns:  make(map[*conn]struct{}),
		m:      newMetrics(treg),
	}
	if cfg.TraceSample > 0 {
		slow := cfg.TraceSlow
		if slow < 0 {
			slow = 0 // tracing.Config treats 0 as "no latency retention"
		}
		s.trc = tracing.NewTracer(tracing.Config{
			Sample: cfg.TraceSample, Slow: slow, Ring: cfg.TraceRing})
	}
	s.slog = cfg.Logger
	if s.slog == nil {
		s.slog = telemetry.Discard()
	}
	// The derived-metric engine is always live — SUBSCRIBE can register
	// groups on any session — but default groups and threshold rules
	// come from the config. A bad group name or rule spec is deferred to
	// Listen, like walErr: New stays infallible, startup fails loudly.
	dreg := derive.NewRegistry()
	var rules []derive.Rule
	for _, spec := range cfg.DeriveRules {
		r, err := derive.ParseRule(spec)
		if err != nil {
			s.deriveErr = err
			break
		}
		rules = append(rules, r)
	}
	s.derive = derive.NewEngine(dreg, rules, s.slog, treg)
	if s.deriveErr == nil {
		if s.defGroups, s.deriveErr = dreg.Resolve(cfg.Groups); s.deriveErr == nil && len(cfg.Groups) > 0 {
			s.slog.Info("papid: derived groups armed",
				"groups", cfg.Groups, "rules", len(rules))
		}
	}
	if cfg.TSDBMaxBytes > 0 {
		histCfg := tsdb.Config{
			MaxBytes: cfg.TSDBMaxBytes,
			MaxAge:   cfg.TSDBRetention,
			Rollups:  cfg.TSDBRollups,
			Registry: treg,
		}
		if cfg.DataDir != "" {
			// Durable history: the WAL opens first (it is the store's
			// Storage hook), the store builds against it, then Start
			// replays persisted state before anything can append.
			log, err := wal.Open(cfg.DataDir, wal.Options{
				Fsync:         cfg.Fsync,
				FsyncInterval: cfg.FsyncInterval,
				SegmentBytes:  cfg.WALSegmentBytes,
				DiskBytes:     cfg.WALDiskBytes,
				RetainAge:     cfg.WALRetainAge,
				CompactAfter:  cfg.WALCompactAfter,
				Registry:      treg,
				Logger:        s.slog,
				Now:           cfg.now,
			})
			if err != nil {
				s.walErr = err
			} else {
				histCfg.Storage = log
				s.hist = tsdb.New(histCfg)
				replay, err := log.Start(s.hist)
				if err != nil {
					s.walErr = err
				} else {
					s.wal = log
					s.replay = replay
					s.slog.Info("papid: durable history ready",
						"dir", cfg.DataDir, "clean_start", replay.CleanStart,
						"segments", replay.Segments, "blocks", replay.Blocks,
						"replayed_rows", replay.Rows, "torn_records", replay.TornRecords)
				}
			}
		}
		if s.hist == nil && s.walErr == nil {
			s.hist = tsdb.New(histCfg)
		}
	}
	s.tickWork = make(chan *tickJob)
	s.registerServerFuncs()
	return s
}

// Replay reports what the durability layer reconstructed at startup
// (zero without a DataDir).
func (s *Server) Replay() wal.ReplayStats { return s.replay }

// Telemetry returns the server's metrics registry — what ServeAdmin
// exposes and embedders can scrape or extend.
func (s *Server) Telemetry() *telemetry.Registry { return s.m.reg }

// Listen binds addr (e.g. "127.0.0.1:0") and starts the accept and
// tick loops. It returns the bound address immediately.
func (s *Server) Listen(addr string) (net.Addr, error) {
	if s.walErr != nil {
		// A server that was asked for durability but could not get it
		// must not serve as if it had: fail loudly at startup.
		return nil, fmt.Errorf("durable history unavailable: %w", s.walErr)
	}
	if s.deriveErr != nil {
		// Same policy for derived metrics: a misspelled group or rule
		// must not silently serve without them.
		return nil, fmt.Errorf("derived-metric config invalid: %w", s.deriveErr)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return s.Serve(ln), nil
}

// Serve starts the accept and tick loops on a caller-provided
// listener and returns its address — the hook the fault-injection
// tests use to interpose internal/faultnet between papid and its
// peers. Listen is Serve on a fresh TCP listener.
func (s *Server) Serve(ln net.Listener) net.Addr {
	s.ln = ln
	for i := 1; i < s.cfg.TickWorkers; i++ {
		s.wg.Add(1)
		go s.tickWorker(i)
	}
	s.wg.Add(2)
	go s.acceptLoop()
	go s.tickLoop()
	s.slog.Info("papid: listening", "addr", ln.Addr().String(),
		"tick_workers", s.cfg.TickWorkers)
	return ln.Addr()
}

// ListenAdmin binds addr and serves the observability endpoints —
// Prometheus /metrics, JSON /statusz, and /debug/pprof — returning the
// bound address. The admin server participates in the graceful drain:
// Shutdown closes it and waits for its goroutine.
func (s *Server) ListenAdmin(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return s.ServeAdmin(ln), nil
}

// ServeAdmin starts the observability HTTP server on a caller-provided
// listener (the testing hook, mirroring Serve). When the flight
// recorder is enabled, /tracez (the retained-trace list) and
// /debug/trace (single-trace export, native or Chrome trace-event
// JSON) join the mux.
func (s *Server) ServeAdmin(ln net.Listener) net.Addr {
	var extra map[string]http.Handler
	if s.trc != nil {
		extra = map[string]http.Handler{
			"/tracez":      tracing.TracezHandler(s.trc),
			"/debug/trace": tracing.TraceHandler(s.trc),
		}
	}
	hs := &http.Server{Handler: telemetry.HandlerWith(s.m.reg, s.statusz, extra),
		ReadHeaderTimeout: 5 * time.Second}
	s.adminMu.Lock()
	s.admin = hs
	s.adminMu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		hs.Serve(ln) // returns on Close during the drain
	}()
	s.slog.Info("papid: admin listening", "addr", ln.Addr().String())
	return ln.Addr()
}

// statusz builds the /statusz document: build identity (what binary is
// actually deployed, since when), the Stats map, every latency-histogram
// summary (nanoseconds, keyed like the wire STATS hists — "op/READ/json",
// "tick", "tsdb/append") and the recent slow-op samples with their
// trace IDs — a STATS reply plus the build.
func (s *Server) statusz() any {
	return struct {
		Build   telemetry.BuildInfo          `json:"build"`
		Stats   map[string]uint64            `json:"stats"`
		Hists   map[string]telemetry.Summary `json:"hists"`
		SlowOps []wire.SlowSample            `json:"slow_ops,omitempty"`
	}{telemetry.ReadBuild(), s.Stats(), s.m.reg.Summaries(), s.slowOps.samples()}
}

// Addr returns the bound address, or nil before Listen.
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Stats returns every counter and gauge in the telemetry registry under
// the name telemetry.Registry.Stats gives it ("snapshots_sent",
// "frames_sent_json", "tsdb_bytes", on a durable server "wal_rows", …)
// — the same map a STATS reply and /statusz carry, and value for value
// what /metrics exposes.
func (s *Server) Stats() map[string]uint64 { return s.m.reg.Stats() }

// Shutdown gracefully stops the server: no new connections, every
// running session's final counts folded, every connection closed, the
// admin HTTP listener torn down, all goroutines joined. ctx bounds the
// drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.cancel()
	if s.ln != nil {
		s.ln.Close()
	}
	// The admin HTTP server joins the drain: Close (not Shutdown) so a
	// scraper mid-request cannot hold the drain past its deadline.
	s.adminMu.Lock()
	admin := s.admin
	s.adminMu.Unlock()
	if admin != nil {
		admin.Close()
	}
	// Drain sessions first so no EventSet is abandoned mid-count.
	s.reg.forEach(func(sess *session) { sess.close() })
	// Closing queues and sockets unblocks every reader and writer.
	s.connsMu.Lock()
	for c := range s.conns {
		c.q.close()
		c.nc.Close()
	}
	s.connsMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
		s.slog.Info("papid: drained")
	case <-ctx.Done():
		err = ctx.Err()
	}
	// The durability layer closes last, after the tick loop has joined
	// (clean drain) so no append races the final flush: every active
	// block is sealed into the current segment, the segment finalized,
	// the WAL deleted and the clean-shutdown marker written — the next
	// start takes the sealed-marker fast path and replays nothing. On a
	// drain timeout the close still runs: a best-effort seal beats
	// leaving the WAL as the only copy.
	if s.wal != nil {
		if cerr := s.wal.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.ctx.Done():
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		s.wg.Add(1)
		go s.handle(nc)
	}
}

// tickLoop drives the coalesced reads: every TickInterval each running
// session advances its workload one chunk, its counters are read once,
// and the single snapshot fans out to all of its subscribers.
func (s *Server) tickLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.TickInterval)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
			s.tick()
		}
	}
}

func (s *Server) tick() {
	t0 := time.Now()
	defer func() { s.m.tickDur.Observe(telemetry.Since(t0)) }()
	s.m.ticks.Inc()
	// Every tick is a traced unit while the recorder is on: coarse
	// shard spans always, per-session stage spans when head-sampled,
	// tail retention when the tick was slow or errored (WAL write
	// failure, derive alert). t is nil with tracing off — every span call
	// no-ops.
	t := s.trc.Start("tick", "tick")
	now := s.cfg.now()
	s.countSkipped(now)
	s.sweep(now, t)
	if s.hist != nil {
		// Age out history of idle and closed sessions too — appends
		// only sweep the series they touch.
		sw := t.StartSpan(tracing.NoSpan, "tsdb.sweep")
		evicted := s.hist.Sweep(now)
		if t != nil {
			t.AnnotateInt(sw, "evicted", evicted)
			t.EndSpan(sw)
		}
	}
	s.trc.Finish(t)
}

// countSkipped keeps the grid of times ticks were due (tickDue, one
// TickInterval apart) and counts the grid points a late tick passed
// over: the ticker holds one firing for a busy receiver and silently
// drops the rest. A tick arriving before its due time re-anchors the
// grid, so it follows the ticker's phase and hand-driven ticks count
// nothing.
func (s *Server) countSkipped(now int64) {
	iv := max(s.cfg.TickInterval.Microseconds(), 1)
	due := s.tickDue + iv
	if s.tickDue == 0 || now < due {
		due = now
	} else if n := (now - due) / iv; n > 0 {
		s.m.ticksSkipped.Add(uint64(n))
		due += n * iv
	}
	s.tickDue = due
}

// encodeFault, when a test sets it, is the error every fan-out encode
// fails with — the seam that pins the negative-cache behavior. It is a
// value, not a func variable standing in for the encoder: a call through
// one leaks its argument, and every frame would escape to the heap.
var encodeFault error

// encCache lazily serializes one response at most once per codec and
// hands out the shared bytes — the encode-once fan-out path. The
// buffers are pooled, reference-counted sharedBufs (tick.go): the
// cache holds one reference across the fan-out, each enqueued frame
// takes its own, and done() drops the cache's when the fan-out ends.
// A failed encode is negative-cached for the rest of the fan-out:
// logged and counted once, with every later subscriber on that codec
// just recording its dropped frame instead of re-attempting the
// encode and re-logging each tick.
//
// The response is not a field: every get of one cache passes the same
// one. Escape analysis does not tell one field of a struct from
// another, and the buffers reach the pool, so a response held here
// would be moved to the heap — one allocation per frame.
type encCache struct {
	shared [2]*sharedBuf // indexed by wire.Codec
	failed [2]bool

	// trc/parent, when trc is non-nil, wrap each first-per-codec encode
	// in an "encode" span (codec + byte count). Set only for detailed
	// (head-sampled) traces — encode spans on every tail-candidate tick
	// would be waste.
	trc    *tracing.Trace
	parent tracing.SpanRef
}

// get returns the encoded frame for codec, serializing on first use.
// ok is false when the encode failed (now or earlier this fan-out);
// deliver counts the drop for its frame kind. An ok buffer stays valid
// until done(); a caller enqueuing it must sb.ref() first.
func (e *encCache) get(s *Server, resp *wire.Response, what string, codec wire.Codec) (sb *sharedBuf, ok bool) {
	if e.failed[codec] {
		return nil, false
	}
	if sb := e.shared[codec]; sb != nil {
		return sb, true
	}
	sb = newSharedBuf()
	var sp tracing.SpanRef = tracing.NoSpan
	if e.trc != nil {
		sp = e.trc.StartSpan(e.parent, "encode")
		e.trc.Annotate(sp, "codec", codec.String())
	}
	p, err := sb.buf[:0], encodeFault
	if err == nil {
		p, err = wire.AppendResponse(p, codec, resp)
	}
	if err != nil {
		if e.trc != nil {
			e.trc.Annotate(sp, "error", err.Error())
			e.trc.EndSpan(sp)
			e.trc.SetError(what + " encode failed")
		}
		sb.release()
		e.failed[codec] = true
		s.m.encodeFailures.Inc()
		s.slog.Error("papid: "+what+" encode failed",
			"codec", codec.String(), "session", resp.Session, "err", err)
		return nil, false
	}
	if e.trc != nil {
		e.trc.AnnotateInt(sp, "bytes", int64(len(p)))
		e.trc.EndSpan(sp)
	}
	sb.buf = p
	e.shared[codec] = sb
	return sb, true
}

// done drops the cache's own reference on every buffer it encoded.
// Call exactly once, after the fan-out loop that used the cache — a
// buffer no connection queue took goes straight back to the pool.
func (e *encCache) done() {
	for i, sb := range e.shared {
		if sb != nil {
			sb.release()
			e.shared[i] = nil
		}
	}
}

// deliver is the one fan-out push site: it hands sub its frame of the
// encode-once payload by pushing straight into the owning connection's
// write queue, and counts the frame sent. Every way the frame can then
// fail to reach the socket — an encode failure here, eviction from the
// full queue, a closed or abandoned queue — ends in frame.drop, which
// counts it against the same kind and marks a delta view for re-key.
func (s *Server) deliver(enc *encCache, resp *wire.Response, kind frameKind, sub *subscriber) {
	if !sub.live.Load() {
		return // not acked yet: the stream starts after its SUBSCRIBE reply
	}
	codec := sub.c.codecNow()
	f := frame{codec: codec, kind: kind, sub: sub}
	sb, ok := enc.get(s, resp, kindNames[kind], codec)
	if !ok {
		f.drop()
		return
	}
	s.m.sent[kind].Inc()
	if kind == kindKeyframe {
		s.m.keyframes.Inc()
		// Cleared before the push, never after: a concurrent eviction of
		// this very keyframe sets the flag again, and a clear landing
		// after that set would lose the resync.
		sub.needKey.Store(false)
	}
	sb.ref()
	f.payload, f.shared = sb.buf, sb
	sub.c.q.push(f)
}

// fanoutDerived is fanout's second half: it evaluates the session's
// performance groups over the row and pushes the resulting DERIVED frame
// to every subscriber of every view, encode-once like the views'
// frames. Evaluation runs even with no subscriber — threshold rules
// alert server-side regardless of who is watching.
func (s *Server) fanoutDerived(t *tracing.Trace, parent tracing.SpanRef, sess *session, snap *wire.Response, ts int64) {
	groups := sess.derivedGroups(s.defGroups)
	if len(groups) == 0 {
		return
	}
	alerts := s.derive.Tick(sess.id, snap.Events, snap.Values, ts, groups,
		func(metrics, units []string, vals []float64) {
			// The emit slices are engine-owned and reused next tick;
			// the frame is encoded before this callback returns, so
			// nothing engine-owned escapes, and resp stays on the stack.
			resp := wire.Response{Op: wire.OpDerived, OK: true, Session: snap.Session,
				Seq: snap.Seq, Metrics: metrics, Units: units, DValues: vals}
			var enc encCache
			if t.Detailed() {
				enc.trc, enc.parent = t, parent
			}
			for _, v := range sess.views {
				for _, sub := range v.subs {
					s.deliver(&enc, &resp, kindDerived, sub)
				}
			}
			enc.done()
		})
	if alerts > 0 && t != nil {
		// A fired threshold alert makes the surrounding tick/request
		// trace an error — tail retention keeps the flight-recorder
		// evidence of what the pipeline was doing when it fired.
		t.AnnotateInt(parent, "alerts", int64(alerts))
		t.SetError(fmt.Sprintf("derive: %d threshold alert(s) fired", alerts))
	}
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
	// trace, when non-nil, carries a request trace whose "write" span
	// stays open until this frame is consumed: release ends the span
	// and finishes the trace, so a traced reply's duration includes
	// its queue wait and socket write.
	trace *traceDone
}

func (f *frame) droppable() bool { return f.kind != kindReply }

// traceDone defers a request trace's completion to whoever consumes
// its reply frame — the writer after the socket write, or any discard
// path (jam, closed queue, writer exit). After handing one to a frame,
// the producing goroutine must not touch the trace again: the writer
// may finish and recycle it concurrently.
type traceDone struct {
	tr *tracing.Tracer
	t  *tracing.Trace
	sp tracing.SpanRef
}

func (td *traceDone) done() {
	td.t.EndSpan(td.sp)
	td.tr.Finish(td.t)
}

// release drops the frame's buffer reference and finishes a riding
// trace. Every frame ends here exactly once: directly after its socket
// write, or through drop on every path that discards it unwritten.
func (f *frame) release() {
	if f.shared != nil {
		f.shared.release()
		f.shared = nil
	}
	if f.trace != nil {
		f.trace.done()
		f.trace = nil
	}
}

// drop discards a frame that will never reach the socket. It is the
// single drop ledger: a fan-out frame is charged to its own kind's
// dropped counter — whichever frame the queue chose to evict, not
// whichever push triggered the eviction — and any lost frame of a delta
// subscription marks exactly that subscription's view for a fresh
// keyframe, since the lost frame may have been the one it anchors on.
func (f *frame) drop() {
	if f.sub != nil {
		f.sub.c.srv.m.dropped[f.kind].Inc()
		if f.sub.delta {
			f.sub.needKey.Store(true)
		}
	}
	f.release()
}

// subscriber is one SUBSCRIBE registration on one session: the filter
// it asked for and the connection whose write queue its frames go to.
// It owns no queue and no goroutine. A wildcard SUBSCRIBE registers one
// subscriber per matched session.
type subscriber struct {
	c    *conn
	sess *session

	// The view it follows, immutable after subscribe: events is the
	// canonical event-name filter (nil = all), delta requests delta
	// frames. See filter.go.
	events []string
	delta  bool
	// needKey, on a delta subscriber, requests a keyframe at this
	// session's next fan-out: set at subscribe (the first frame anchors
	// the stream) and by frame.drop on any lost frame.
	needKey atomic.Bool
	// live opens the stream: fan-out skips the subscription until its
	// SUBSCRIBE reply is queued, so with fan-out pushing straight into
	// the connection's queue no frame can overtake the ack that tells
	// the client which sessions it now follows. goLive sets it under the
	// session's lock, so the stream opens between two rows.
	live atomic.Bool
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
}

func newWriteQueue(depth int) *writeQueue {
	q := &writeQueue{max: depth}
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
		f.drop()
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
	q.slot(i).drop()
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
	c := &conn{srv: s, nc: nc, q: newWriteQueue(s.cfg.WriteQueueDepth),
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
			nc.SetReadDeadline(time.Now().Add(d))
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
		// Service latency clock: decode done → reply enqueued. The
		// socket write happens on the writer goroutine; what this
		// histogram isolates is the dispatch cost itself, per op and
		// codec, so a regressed allocator solve or tsdb query shows up
		// under its own op instead of smearing into socket noise.
		t0 := time.Now()
		// Each valid request is a traced unit: dispatch and write spans
		// always; deep stage spans (PUBLISH history/fan-out/derive) hang
		// off c.trc. t is nil with tracing off — every call on it no-ops
		// and tid is 0. Only the ID is read after the frame is enqueued:
		// the writer goroutine finishes (and may recycle) the trace.
		t := s.trc.Start("request", req.Op)
		tid := t.ID()
		t.AnnotateInt(tracing.NoSpan, "conn", int64(c.id))
		if req.Session != 0 {
			t.AnnotateInt(tracing.NoSpan, "session", int64(req.Session))
		}
		c.trc = t
		dsp := t.StartSpan(tracing.NoSpan, "dispatch")
		resp := s.dispatch(c, &req)
		t.EndSpan(dsp)
		c.trc = nil
		if !resp.OK && resp.Error != "" {
			t.SetError(resp.Error)
		}
		resp.TraceID = tid
		ok := c.sendTraced(resp, t, t.StartSpan(tracing.NoSpan, "write"))
		c.goLive()
		s.m.observeOp(req.Op, c.codecNow(), t0)
		if d := s.cfg.SlowOp; d > 0 {
			if elapsed := time.Since(t0); elapsed >= d {
				attrs := []any{"op", req.Op, "session", req.Session, "dur", elapsed.String()}
				if tid != 0 {
					attrs = append(attrs, "trace", tracing.FormatID(tid))
				}
				c.log.Warn("papid: slow op", attrs...)
				s.slowOps.record(req.Op, req.Session, elapsed.Nanoseconds(), tid)
			}
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
			c.nc.SetWriteDeadline(time.Now().Add(d))
		}
		n, err := c.nc.Write(out)
		for i := range batch {
			f := &batch[i]
			if n -= len(f.payload); n >= 0 {
				c.srv.m.framesSent[f.codec].Inc()
				c.srv.m.bytesSent[f.codec].Add(uint64(len(f.payload)))
				f.release()
			} else {
				f.drop()
			}
			*f = frame{}
		}
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
				f.drop()
			}
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

// sendTraced is send carrying a request trace: the open write span wr
// rides the frame (traceDone) and whoever consumes the frame ends it
// and finishes the trace. The caller must not touch t after this
// returns — the writer goroutine may already have finished and
// recycled it. A nil t is plain send.
func (c *conn) sendTraced(resp wire.Response, t *tracing.Trace, wr tracing.SpanRef) bool {
	codec := c.codecNow()
	sb := newSharedBuf()
	payload, err := wire.AppendResponse(sb.buf[:0], codec, &resp)
	if err != nil {
		sb.release()
		if t != nil {
			t.SetError("reply encode: " + err.Error())
			c.srv.trc.Finish(t)
		}
		c.evict("reply encode", err)
		return false
	}
	sb.buf = payload
	f := frame{payload: payload, codec: codec, shared: sb}
	if t != nil {
		t.AnnotateInt(wr, "bytes", int64(len(payload)))
		f.trace = &traceDone{tr: c.srv.trc, t: t, sp: wr}
	}
	if c.q.push(f) {
		return true
	}
	if !c.q.isClosed() {
		c.evict("reply queue jammed", nil)
	}
	return false
}

// subscribing reports whether the connection holds live
// subscriptions, which exempts it from the read-idle deadline.
func (c *conn) subscribing() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.subs) > 0
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
			// fan-out encodes, or the derive evaluation ate the budget.
			now := s.cfg.now()
			t := c.reqTrace()
			s.appendRows(t, []wal.Row{{Session: sess.id, TS: now, Events: snap.Events, Vals: snap.Values}})
			s.fanout(t, t, tracing.NoSpan, sess, &snap, now)
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
