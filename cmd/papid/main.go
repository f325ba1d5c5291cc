// papid is the counter-collection daemon: a long-running service that
// accepts many concurrent TCP clients speaking the wire protocol of
// internal/wire — JSON lines by default, the compact binary codec for
// clients that negotiate it at HELLO — each session owning an
// EventSet on a simulated machine of any supported architecture. It is the serving-scale
// successor to the one-process perfometer pipeline of §2 — many tools,
// one shared monitoring surface.
//
//	papid -addr 127.0.0.1:6117 &
//	printf '%s\n' '{"op":"HELLO"}' | nc 127.0.0.1 6117
//
// Every tick's snapshot is also recorded in an embedded time-series
// store (internal/tsdb), bounded by -tsdb-mem bytes and -retention
// age, and served back through the QUERY op as downsampled
// min/max/sum/count windows.
//
// With -groups papid evaluates derived-metric performance groups
// (internal/derive) on every tick of each session whose event set
// covers them, streaming the values to its subscribers as DERIVED
// frames; -derive-rules arms threshold alerts on the derived
// values:
//
//	papid -groups ipc,l2miss -derive-rules 'ipc<0.5:3'
//
// With -http papid additionally serves an admin endpoint: Prometheus
// text at /metrics, a JSON status dump at /statusz, and the standard
// pprof profiles under /debug/pprof/:
//
//	papid -addr 127.0.0.1:6117 -http 127.0.0.1:6118 &
//	curl -s 127.0.0.1:6118/metrics | grep papid_op_latency
//
// A pipeline flight recorder (-trace-sample, on by default at 1/64)
// traces sampled ticks and requests with per-stage spans,
// always retains slow or errored units, and serves the ring on the
// admin endpoint: /tracez lists retained traces slowest-first and
// /debug/trace?id=<hex>&format=chrome exports one as Chrome
// trace-event JSON loadable in Perfetto. -trace-sample 0 turns the
// recorder off entirely.
//
// SIGINT/SIGTERM trigger a graceful drain: running sessions fold their
// final counts, subscribers are detached, and the process exits after
// reporting its lifetime stats and per-op latency quantiles.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/papi"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:6117", "listen address")
	platform := flag.String("platform", papi.PlatformLinuxX86, "default platform for sessions that do not name one")
	shards := flag.Int("shards", 16, "session-registry shard count")
	tick := flag.Duration("tick", 50*time.Millisecond, "snapshot fan-out interval")
	queue := flag.Int("queue", 0, "deprecated: the per-subscriber queue is gone (one queue per connection remains); the value is added to -write-queue so a two-queue command line keeps the buffering it asked for")
	tickWorkers := flag.Int("tick-workers", 0, "parallel tick sweep width; 0 picks min(GOMAXPROCS, shards), 1 runs the serial pipeline")
	keyframeEvery := flag.Int("keyframe-every", 10, "full keyframe cadence for delta-mode subscribers, in fan-outs per view")
	readIdle := flag.Duration("read-idle", 2*time.Minute, "evict a connection idle this long with no subscription (0 disables)")
	writeTimeout := flag.Duration("write-timeout", 10*time.Second, "per-frame write deadline; a trip evicts the connection (0 disables)")
	writeQueue := flag.Int("write-queue", 64, "per-connection outbound frame queue depth, the only queue between fan-out and the socket (subscriber frames dropped oldest-first when full)")
	retention := flag.Duration("retention", 15*time.Minute, "history age limit, in memory and on disk (0 keeps until -tsdb-mem evicts)")
	tsdbMem := flag.Int64("tsdb-mem", 8<<20, "history store byte budget: how much raw history is kept, in memory and, with -data-dir, on disk (older raw history is kept as 10s/60s rollups; 0 disables QUERY history)")
	dataDir := flag.String("data-dir", "", "directory for durable history (WAL + sealed segments); empty keeps history RAM-only")
	fsync := flag.String("fsync", "interval", "WAL fsync policy: always, interval or off")
	fsyncInterval := flag.Duration("fsync-interval", 100*time.Millisecond, "period of the interval fsync policy")
	walSegBytes := flag.Int64("wal-segment-bytes", 4<<20, "WAL/segment file rotation size in bytes")
	groups := flag.String("groups", "", "comma-separated derived-metric groups evaluated on every session whose events cover them (see papi-avail -groups)")
	deriveRules := flag.String("derive-rules", "", "comma-separated threshold rules metric<bound[:N] or metric>bound[:N] firing a warning after N consecutive breaches")
	httpAddr := flag.String("http", "", "admin listen address serving /metrics, /statusz, /tracez and /debug/pprof/ (empty disables)")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	slowOp := flag.Duration("slow-op", 250*time.Millisecond, "warn when handling one request takes this long (0 disables)")
	traceSample := flag.Int("trace-sample", 64, "flight recorder: head-sample 1 in N ticks/requests into /tracez with detailed stage spans (0 disables tracing)")
	traceSlow := flag.Duration("trace-slow", 0, "flight recorder: tail-retain any trace at least this slow regardless of sampling (0 inherits -slow-op, negative disables latency retention)")
	traceRing := flag.Int("trace-ring", 64, "flight recorder: retained-trace ring size")
	quiet := flag.Bool("quiet", false, "log warnings only (suppress per-session and per-connection lines)")
	flag.Parse()

	level := slog.LevelInfo
	if *quiet {
		level = slog.LevelWarn
	}
	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level})
	case "text":
		handler = slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})
	default:
		fmt.Fprintf(os.Stderr, "papid: unknown -log-format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)
	// The Config zero values mean "default", so the flag's explicit
	// zeros map to the negative "disabled" sentinels.
	mem, age := *tsdbMem, *retention
	if mem == 0 {
		mem = -1
	}
	if age == 0 {
		age = -1
	}
	idle, wt := *readIdle, *writeTimeout
	if idle == 0 {
		idle = -1
	}
	if wt == 0 {
		wt = -1
	}
	slow := *slowOp
	if slow == 0 {
		slow = -1
	}
	srv := server.New(server.Config{
		DefaultPlatform: *platform,
		Groups:          splitList(*groups),
		DeriveRules:     splitList(*deriveRules),
		Shards:          *shards,
		TickInterval:    *tick,
		TickWorkers:     *tickWorkers,
		KeyframeEvery:   *keyframeEvery,
		ReadIdleTimeout: idle,
		WriteTimeout:    wt,
		WriteQueueDepth: *writeQueue + *queue,
		TSDBMaxBytes:    mem,
		TSDBRetention:   age,
		DataDir:         *dataDir,
		Fsync:           *fsync,
		FsyncInterval:   *fsyncInterval,
		WALSegmentBytes: *walSegBytes,
		SlowOp:          slow,
		TraceSample:     *traceSample,
		TraceSlow:       *traceSlow,
		TraceRing:       *traceRing,
		Logger:          logger,
	})
	if _, err := srv.Listen(*addr); err != nil {
		fmt.Fprintln(os.Stderr, "papid:", err)
		os.Exit(1)
	}
	if *httpAddr != "" {
		aaddr, err := srv.ListenAdmin(*httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "papid: admin:", err)
			os.Exit(1)
		}
		logger.Info("papid: admin endpoint up", "addr", aaddr.String())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()

	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		fmt.Fprintln(os.Stderr, "papid: shutdown:", err)
		os.Exit(1)
	}
	st := srv.Stats()
	log.Printf("papid: %d ticks (%d skipped), %d snapshots sent (%d dropped)",
		st["ticks"], st["ticks_skipped"], st["snapshots_sent"], st["snapshots_dropped"])
	log.Printf("papid: %d evictions (%d deadline trips), %d resyncs",
		st["evictions"], st["deadline_trips"], st["resyncs"])
	log.Printf("papid: %d keyframes, %d deltas sent (%d dropped), %d derived sent (%d dropped), %d encode failures",
		st["keyframes_sent"], st["deltas_sent"], st["deltas_dropped"], st["derived_sent"], st["derived_dropped"], st["encode_failures"])
	log.Printf("papid: wire json %d frames / %d bytes, binary %d frames / %d bytes",
		st["frames_sent_json"], st["bytes_sent_json"], st["frames_sent_binary"], st["bytes_sent_binary"])
	log.Printf("papid: tsdb %d bytes across %d series, %d samples, %d evictions",
		st["tsdb_bytes"], st["tsdb_series"], st["tsdb_samples"], st["tsdb_evictions"])
	if *dataDir != "" {
		// The WAL closed inside Shutdown, before this report: the active
		// segment is sealed and the clean marker written by now.
		log.Printf("papid: wal %d rows, %d sealed blocks, %d fsyncs, %d segments, %d bytes on disk, %d compactions",
			st["wal_rows"], st["wal_sealed_blocks"], st["wal_fsyncs"], st["wal_segments"],
			st["wal_disk_bytes"], st["wal_compactions"])
	}
	if table := telemetry.FormatSummaryTable(srv.Telemetry().Summaries(), nil); table != "" {
		log.Printf("papid: latency quantiles:\n%s", strings.TrimRight(table, "\n"))
	}
}

// splitList splits a comma-separated flag value, trimming blanks, so
// `-groups "ipc, l2miss"` and `-groups ""` both do the obvious thing.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
