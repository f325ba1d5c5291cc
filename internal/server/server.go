// Package server implements papid, a concurrent counter-collection
// service: the natural next step after perfometer's one-process,
// one-viewer stream (§3–§4 of the paper) is a long-running daemon that
// many tools share. Clients speak a JSON-lines protocol (internal/wire)
// over TCP; each session owns an EventSet on a private simulated
// machine of any supported architecture.
//
// The scaling machinery, and the file that holds each piece:
//
//   - a sharded session registry (session.go) — sessions hash to one of
//     16 mutex-guarded shards, so session lookup never serializes on a
//     single lock;
//   - coalesced periodic reads (the tick loop here, the sweep in
//     tick.go) — the tick snapshots each running session's counters
//     once and fans the frame out to all of the session's subscribers,
//     instead of every subscriber polling;
//   - one lock per session (session.go) — a request (dispatch.go) or a
//     tick takes it once, and a row is numbered, journaled (PUBLISH),
//     fanned out and handed to the derive engine under that one hold, so
//     subscribers, history and derived metrics see a session's rows in
//     seq order however many connections publish to it (session.go has
//     the lock order);
//   - encode-once fan-out (fanout.go, the views in filter.go) — each
//     tick's snapshot is serialized to bytes exactly once per codec in
//     use and the shared immutable []byte flows through every
//     subscriber and write queue, so frame serialization is a per-tick
//     cost instead of a per-subscriber cost (the paper's 1–2%-overhead
//     lesson applied to the serving path);
//   - an opt-in binary wire codec (internal/wire) cutting frame bytes
//     and encode/decode allocations for clients that negotiate it, with
//     JSON lines as the transparent fallback;
//   - an embedded time-series store (internal/tsdb, written by tick.go's
//     appendRows) recording every tick's snapshot, so late subscribers
//     and offline tools can QUERY downsampled history instead of
//     getting nothing;
//   - a hardened connection lifecycle (conn.go, frame.go) —
//     per-connection read-idle and write deadlines, and exactly one
//     bounded outbound queue per connection, filled directly by fan-out
//     and drained by the connection's writer goroutine (subscriber
//     frames dropped oldest-first under pressure, each drop counted
//     against its own kind; the connection evicted when even reply
//     frames cannot make progress), so one slow consumer can neither
//     block the tick loop nor grow memory without bound — evictions,
//     deadline trips and protocol resyncs all counted in STATS;
//   - context-based graceful shutdown (here) that stops accepting,
//     folds final counts into every running session, and drains all
//     connections;
//   - one clock (Config.clock, an internal/clock.Clock) behind every
//     timestamp, ticker, deadline and duration the server reads, so a
//     test can run it on virtual time (DESIGN.md §11).
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/derive"
	"repro/internal/telemetry"
	"repro/internal/telemetry/tracing"
	"repro/internal/tsdb"
	"repro/internal/tsdb/wal"
	"repro/internal/wire"
	"repro/papi"
)

// Config parameterizes a Server. The zero value selects sensible
// defaults throughout.
type Config struct {
	// DefaultPlatform is used by CREATE_SESSION requests that do not
	// name one (default linux-x86).
	DefaultPlatform string
	// TickInterval is the coalesced snapshot/advance period
	// (default 50ms).
	TickInterval time.Duration
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
	// TSDBMaxBytes bounds the embedded history store (default 8 MiB);
	// negative disables history entirely. It is the one byte budget:
	// on a durable server disk keeps raw only what the store still
	// holds raw, and a restart serves no more.
	TSDBMaxBytes int64
	// TSDBRetention expires history older than this (default 15m);
	// negative keeps history until the byte budget evicts it. It is the
	// one retention: on a durable server the WAL keeps on disk what the
	// store still serves and deletes the rest, and a restart serves
	// nothing older.
	TSDBRetention time.Duration
	// DataDir, when set, makes history durable: every tick row is
	// journaled to a write-ahead log under this directory, sealed
	// blocks are persisted into segment files, and a restart replays
	// them (see internal/tsdb/wal). Empty keeps history RAM-only.
	DataDir string
	// Fsync selects the WAL fsync policy: "always", "interval"
	// (default) or "off". Only meaningful with DataDir.
	Fsync string
	// FsyncInterval is the period of the "interval" policy
	// (default 100ms).
	FsyncInterval time.Duration
	// SlowOp is papid's one slow threshold: a request that takes this
	// long logs a warn line with the op, session and duration, and with
	// TraceRing > 0 any trace at least this slow is retained (default
	// 250ms; negative disables both — errored traces still retain).
	SlowOp time.Duration
	// TraceRing is the number of slow or errored traces the pipeline
	// flight recorder keeps for /tracez (papid -trace-ring). A ring
	// turns the recorder on; 0 leaves it off — unlike the other knobs,
	// the zero value is off, so embedders and tests get exactly the
	// untraced pipeline unless they opt in. See DESIGN.md S32.
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

	// clock is everything the server reads time from: row timestamps,
	// the tick ticker, read and write deadlines, op and tick timing,
	// uptime, and on a durable server the WAL's. Nil is the wall clock.
	// Tests set a clock.Fake, and serve through internal/faultnet on the
	// same clock: a socket would take its deadlines for wall time.
	clock clock.Clock
	// tickWorkers is the parallel tick sweep width: registry shards are
	// partitioned across this many workers each tick, every worker
	// running the full snapshot→encode→fan-out unit for its shards'
	// sessions and then writing their rows to history as one batch.
	// Zero is min(GOMAXPROCS, regShards), papid's only width; 1 runs the
	// exact serial pipeline. Tests set it to compare widths. See tick.go
	// and DESIGN.md S31.
	tickWorkers int
}

func (c *Config) fill() {
	if c.DefaultPlatform == "" {
		c.DefaultPlatform = papi.PlatformLinuxX86
	}
	if c.TickInterval <= 0 {
		c.TickInterval = 50 * time.Millisecond
	}
	if c.tickWorkers <= 0 {
		c.tickWorkers = min(runtime.GOMAXPROCS(0), regShards)
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
	c.clock = clock.Or(c.clock)
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
	// Config.TraceRing > 0); slowOps keeps the most recent SlowOp
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
	// tickDue is when the latest tick was due, in the clock's
	// microseconds (countSkipped); only the tick goroutine touches it.
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
		reg:    newRegistry(),
		conns:  make(map[*conn]struct{}),
		m:      newMetrics(treg),
	}
	s.trc = tracing.NewTracer(tracing.Config{
		Slow: max(cfg.SlowOp, 0), // 0: no latency retention
		Ring: cfg.TraceRing})
	s.slog = cfg.Logger
	if s.slog == nil {
		s.slog = telemetry.Discard()
	}
	// The derived-metric engine is always live — SUBSCRIBE can register
	// groups on any session — but default groups and threshold rules
	// come from the config. A bad group name or rule spec is deferred to
	// Listen, like walErr: New stays infallible, startup fails loudly. A
	// rule must watch a metric some group defines; SUBSCRIBE only names
	// registry groups, so the set of metrics is fixed here.
	dreg := derive.NewRegistry()
	var rules []derive.Rule
	for _, spec := range cfg.DeriveRules {
		r, err := derive.ParseRule(spec)
		if err == nil && !dreg.Defines(r.Metric) {
			err = fmt.Errorf("derive: rule %q: no group defines metric %q", spec, r.Metric)
		}
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
			Registry: treg,
		}
		if cfg.DataDir != "" {
			// Durable history: the WAL opens first, then the store,
			// then Start attaches the log to it and replays persisted
			// state before anything can append.
			log, err := wal.Open(cfg.DataDir, wal.Options{
				Fsync:         cfg.Fsync,
				FsyncInterval: cfg.FsyncInterval,
				Registry:      treg,
				Logger:        s.slog,
				Clock:         cfg.clock,
			})
			if err != nil {
				s.walErr = err
			} else {
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
	for i := 1; i < s.cfg.tickWorkers; i++ {
		s.wg.Add(1)
		go s.tickWorker(i)
	}
	s.wg.Add(2)
	go s.acceptLoop()
	// The ticker is armed before Serve returns, so the tick grid starts
	// here: a test on a fake clock may advance it at once.
	go s.tickLoop(s.cfg.clock.NewTicker(s.cfg.TickInterval))
	s.slog.Info("papid: listening", "addr", ln.Addr().String(),
		"tick_workers", s.cfg.tickWorkers)
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
// listener (the testing hook, mirroring Serve). /tracez (the
// retained-trace list) and /debug/trace (single-trace export, native
// or Chrome trace-event JSON) are always on the mux: with the flight
// recorder off the tracer is nil, /tracez says tracing is disabled and
// /debug/trace finds no trace.
func (s *Server) ServeAdmin(ln net.Listener) net.Addr {
	hs := &http.Server{Handler: telemetry.HandlerWith(s.m.reg, s.statusz, map[string]http.Handler{
		"/tracez":      tracing.TracezHandler(s.trc),
		"/debug/trace": tracing.TraceHandler(s.trc),
	}), ReadHeaderTimeout: 5 * time.Second}
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
// session's counters are read once and the single snapshot fans out to
// all of its subscribers; then every session advances its workload the
// chunk its next snapshot will report.
func (s *Server) tickLoop(t *clock.Ticker) {
	defer s.wg.Done()
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
	// One Now read, for the rows' timestamp; durations are Mono's.
	now, mono := s.cfg.clock.Now().UnixMicro(), s.cfg.clock.Mono()
	defer func() { s.m.tickDur.Observe(int64(s.cfg.clock.Mono() - mono)) }()
	// Every tick is a traced unit while the recorder is on: shard,
	// advance and history spans, kept when the tick was slow or errored
	// (WAL write failure, derive alert). Per-row stages are on the
	// papid_stage_seconds histograms instead. t is nil with tracing off
	// — every span call no-ops.
	t := s.trc.Start("tick", "tick")
	s.countSkipped(now)
	s.sweep(now, mono, t)
	if s.hist != nil {
		// Age out history of idle and closed sessions too — appends
		// only sweep the series they touch.
		sw := t.StartSpan(tracing.NoSpan, "tsdb.sweep")
		t.AnnotateInt(sw, "evicted", s.hist.Sweep(now))
		t.EndSpan(sw)
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
