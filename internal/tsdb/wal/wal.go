// Package wal makes the tsdb store crash-safe. It journals every
// appended tick row into an append-only, CRC-framed write-ahead log,
// persists blocks the store seals into segment files whose payload is
// the delta-of-delta encoding verbatim, replays both on startup
// (tolerating a torn final record), and compacts raw segments the store
// no longer serves raw into rollup-resolution segments. How much raw history exists and how long
// history lives are the store's byte budget and retention alone: disk
// keeps what the store serves, and a restart serves nothing the store
// had evicted or expired.
//
// The store knows nothing about files: it holds every sealed block
// until this package pulls it (Store.Unpersisted) and exposes
// replay-side install APIs. Wiring order matters — Open the log, build
// the store, then call Start(store) to replay before the first append:
//
//	log, _ := wal.Open(dir, wal.Options{...})
//	store := tsdb.New(tsdb.Config{...})
//	replay, _ := log.Start(store)
package wal

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/telemetry"
	"repro/internal/telemetry/tracing"
	"repro/internal/tsdb"
)

// Fsync policies.
const (
	// FsyncAlways syncs the WAL on every append — every acked row
	// survives machine crash; slowest.
	FsyncAlways = "always"
	// FsyncInterval syncs on a timer (Options.FsyncInterval) — bounded
	// loss window on machine crash, no loss on process crash.
	FsyncInterval = "interval"
	// FsyncOff never syncs explicitly — still survives SIGKILL (the
	// kernel has the writes), loses the page cache on machine crash.
	FsyncOff = "off"
)

// Options configures a Log. Zero values select the defaults noted. How
// much history lives is not among them: the log keeps on disk what its
// store still serves (tsdb.Config.MaxBytes raw, tsdb.Config.MaxAge in
// every view), and nothing older.
type Options struct {
	Fsync         string        // fsync policy; default FsyncInterval
	FsyncInterval time.Duration // interval policy period; default 100ms
	SegmentBytes  int64         // WAL/segment rotation size; default 4 MiB
	Registry      *telemetry.Registry
	Logger        *slog.Logger
	// Clock times fsyncs and drives the fsync and compaction tickers,
	// and compaction and replay age history against its Now. Nil is the
	// wall clock; on a clock.Fake no background pass runs until the
	// clock is advanced.
	Clock clock.Clock

	// wrap, when set (tests), wraps the writer of every file the log
	// writes — WAL files, segments and compaction outputs, named by
	// their base name — the one seam for injecting write faults.
	wrap func(name string, w io.Writer) io.Writer
}

// compactEvery is the period of the background retention and
// compaction pass.
const compactEvery = 30 * time.Second

func (o *Options) fill() {
	if o.Fsync == "" {
		o.Fsync = FsyncInterval
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.Logger == nil {
		o.Logger = telemetry.Discard()
	}
	o.Clock = clock.Or(o.Clock)
}

// ValidFsync reports whether s names a known fsync policy.
func ValidFsync(s string) bool {
	return s == FsyncAlways || s == FsyncInterval || s == FsyncOff
}

// ErrClosed is returned by appends after Close.
var ErrClosed = errors.New("wal: closed")

const cleanMarker = "CLEAN"

type walFileMeta struct {
	path   string
	seq    uint64
	maxSeq uint64 // newest row sequence the file holds
	size   int64
	// unreadable marks a file replay could not read (bad header, IO
	// error). Its contents are unknown, so truncation must never treat
	// its maxSeq of 0 as "older than every unpersisted row" and delete
	// what might become readable again; it is kept for manual recovery.
	unreadable bool
}

// ReplayStats describes what Start reconstructed.
type ReplayStats struct {
	CleanStart  bool   `json:"clean_start"` // sealed-marker fast path, nothing replayed
	Blocks      int    `json:"blocks"`      // raw blocks installed from segments
	RollupRuns  int    `json:"rollup_runs"` // rollup runs installed from segments
	Rows        uint64 `json:"rows"`        // WAL rows re-appended
	Samples     uint64 `json:"samples"`     // samples from re-appended rows
	TornRecords int    `json:"torn_records"`
	WALFiles    int    `json:"wal_files"`
	Segments    int    `json:"segments"`
}

// Log is the durability layer: the WAL writer, and the persist pass
// that writes the store's sealed blocks into segment files. One Log
// owns one data directory. It keeps no per-series state and no queue:
// the store's blocks say which are on disk and which rows they cover.
type Log struct {
	dir   string
	opts  Options
	store *tsdb.Store

	// mu serializes WAL appends end-to-end, including the store append
	// inside AppendRowsTraced — row sequence order is store insertion
	// order, which replay relies on — and WAL truncation, so every row a
	// truncation weighs has reached the store. Lock order: mu → segMu,
	// mu → store shard locks; segMu → shard locks (the persist pass).
	mu       sync.Mutex
	wf       *os.File
	wwr      io.Writer // wf through l.writer
	wfSeq    uint64
	wfBytes  int64
	wfMaxSeq uint64
	walDirty bool
	lastSeq  uint64
	oldWALs  []walFileMeta
	scratch  []byte
	seqs     []uint64 // a batch's row numbers, handed to the store

	segMu      sync.Mutex // held across a whole persist pass
	sw         *segmentWriter
	segs       []*segment
	nextSegSeq uint64
	compactMu  sync.Mutex // serializes compaction passes

	closed  atomic.Bool
	started atomic.Bool
	stopCh  chan struct{}
	bg      sync.WaitGroup

	rows         atomic.Uint64
	fsyncs       atomic.Uint64
	sealed       atomic.Uint64
	compactions  atomic.Uint64
	truncated    atomic.Uint64
	writeErrs    atomic.Uint64
	replay       ReplayStats
	fsyncHist    *telemetry.Histogram
	logger       *slog.Logger
	hadClean     bool // CLEAN marker present at Open
	loadedWALs   []walFileMeta
	loadErrs     []string
	totalSegTorn int
}

// Open scans dir (creating it if needed), reads every existing segment
// and parses its records, and lists existing WAL files. No store
// interaction happens until Start.
func Open(dir string, opts Options) (*Log, error) {
	opts.fill()
	if !ValidFsync(opts.Fsync) {
		return nil, fmt.Errorf("wal: unknown fsync policy %q", opts.Fsync)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{
		dir:        dir,
		opts:       opts,
		stopCh:     make(chan struct{}),
		logger:     opts.Logger.With("component", "wal"),
		nextSegSeq: 1, // seq 0 is reserved so "replaced through 0" means none
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if name == cleanMarker {
			l.hadClean = true
			continue
		}
		if seq, ok := parseSeq(name, "seg-", ".seg"); ok {
			seg, err := loadSegment(filepath.Join(dir, name), seq)
			if err != nil {
				// A segment that cannot even be opened or read is
				// skipped, not fatal: the data it held is lost either
				// way, and refusing to start would lose everything else.
				l.loadErrs = append(l.loadErrs, fmt.Sprintf("%s: %v", name, err))
				continue
			}
			l.totalSegTorn += seg.torn
			l.segs = append(l.segs, seg)
			if seq >= l.nextSegSeq {
				l.nextSegSeq = seq + 1
			}
			continue
		}
		if seq, ok := parseSeq(name, "wal-", ".log"); ok {
			info, err := e.Info()
			var size int64
			if err == nil {
				size = info.Size()
			}
			l.loadedWALs = append(l.loadedWALs, walFileMeta{
				path: filepath.Join(dir, name), seq: seq, size: size,
			})
		}
	}
	sortSegments(l.segs)
	l.pruneStaleSegments()
	slices.SortFunc(l.loadedWALs, func(a, b walFileMeta) int { return cmp.Compare(a.seq, b.seq) })
	l.registerTelemetry(opts.Registry)
	return l, nil
}

// pruneStaleSegments discards segments superseded by a finalized
// compaction output, and torn compaction outputs themselves (their
// inputs are still live). Runs at Open, before any install.
//
// A compaction output that ends in a footer yet did not load whole was
// finalized once — its inputs may be gone — and has lost a record
// since. It may be the only copy of what it still holds, so the file
// stays for manual recovery; it is not served, because a damaged file's
// word on which inputs it replaces is not taken and they may survive.
func (l *Log) pruneStaleSegments() {
	var maxReplaced uint64
	for _, s := range l.segs {
		if s.finalized && s.replacedThrough > maxReplaced {
			maxReplaced = s.replacedThrough
		}
	}
	keep := l.segs[:0]
	for _, s := range l.segs {
		stale := maxReplaced > 0 && s.seq <= maxReplaced
		tornCompact := s.replacedThrough != 0 && !s.finalized
		if tornCompact && s.footer {
			l.logger.Error("corrupt compaction output kept, not served", "path", s.path)
			continue
		}
		if !stale && !tornCompact {
			keep = append(keep, s)
			continue
		}
		if err := os.Remove(s.path); err != nil {
			l.logger.Error("stale segment remove failed", "err", err, "path", s.path)
		}
	}
	l.segs = append([]*segment(nil), keep...)
}

func (l *Log) registerTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	l.fsyncHist = reg.NewLatencyHistogram(telemetry.Opts{
		Name: "papid_wal_fsync_seconds",
		Help: "Latency of WAL and segment fsync calls.",
		Key:  "wal/fsync",
	})
	reg.NewCounterFunc(telemetry.Opts{
		Name: "papid_wal_rows_total",
		Help: "Rows journaled to the write-ahead log (tick and PUBLISH rows).",
	}, l.rows.Load)
	reg.NewCounterFunc(telemetry.Opts{
		Name: "papid_wal_fsyncs_total",
		Help: "fsync calls issued by the durability layer.",
	}, l.fsyncs.Load)
	reg.NewCounterFunc(telemetry.Opts{
		Name: "papid_wal_sealed_blocks_total",
		Help: "Sealed blocks persisted into segment files.",
	}, l.sealed.Load)
	reg.NewCounterFunc(telemetry.Opts{
		Name: "papid_wal_compactions_total",
		Help: "Segment compaction passes that rewrote data.",
	}, l.compactions.Load)
	reg.NewCounterFunc(telemetry.Opts{
		Name: "papid_wal_truncated_files_total",
		Help: "WAL files deleted after their rows were sealed.",
	}, l.truncated.Load)
	reg.NewCounterFunc(telemetry.Opts{
		Name: "papid_wal_write_errors_total",
		Help: "WAL or segment write failures and failed compaction passes (appends continue in RAM).",
	}, l.writeErrs.Load)
	reg.NewCounterFunc(telemetry.Opts{
		Name: "papid_wal_replayed_rows_total",
		Help: "WAL rows re-appended during startup replay.",
	}, func() uint64 { return l.replay.Rows })
	reg.NewCounterFunc(telemetry.Opts{
		Name: "papid_wal_replayed_blocks_total",
		Help: "Sealed blocks loaded from segment files at startup.",
	}, func() uint64 { return uint64(l.replay.Blocks) })
	reg.NewCounterFunc(telemetry.Opts{
		Name: "papid_wal_torn_records_total",
		Help: "Records discarded as torn or corrupt during replay.",
	}, func() uint64 { return uint64(l.replay.TornRecords) })
	reg.NewGaugeFunc(telemetry.Opts{
		Name: "papid_wal_clean_start",
		Help: "1 when startup found the clean-shutdown marker and replayed nothing.",
	}, func() float64 {
		if l.replay.CleanStart {
			return 1
		}
		return 0
	})
	reg.NewGaugeFunc(telemetry.Opts{
		Name: "papid_wal_files",
		Help: "Live write-ahead log files, the active one included.",
	}, func() float64 { return float64(l.walFiles()) })
	reg.NewGaugeFunc(telemetry.Opts{
		Name: "papid_wal_segments",
		Help: "Live sealed segment files.",
	}, func() float64 {
		l.segMu.Lock()
		defer l.segMu.Unlock()
		n := len(l.segs)
		if l.sw != nil {
			n++
		}
		return float64(n)
	})
	reg.NewGaugeFunc(telemetry.Opts{
		Name: "papid_wal_pending_blocks",
		Help: "Sealed blocks the store holds that no persist pass has written yet.",
	}, func() float64 {
		if l.store == nil {
			return 0
		}
		return float64(len(l.store.Unpersisted()))
	})
	reg.NewGaugeFunc(telemetry.Opts{
		Name: "papid_wal_disk_bytes",
		Help: "Bytes on disk across WAL and segment files.",
	}, func() float64 { return float64(l.diskBytes()) })
}

// Row is one tick row: every event of one session at one timestamp.
type Row = tsdb.Row

// AppendBatch journals one row and applies it to the store: the one-row
// AppendRows, so under FsyncAlways the row is synced before it returns
// — what a PUBLISH ack promises.
func (l *Log) AppendBatch(session uint64, ts int64, events []string, vals []int64) error {
	return l.AppendRowsTraced([]Row{{Session: session, TS: ts, Events: events, Vals: vals}}, nil)
}

// AppendRows is AppendRowsTraced without a trace.
func (l *Log) AppendRows(rows []Row) error { return l.AppendRowsTraced(rows, nil) }

// AppendRowsTraced is the log's one append: it journals a batch of rows
// and applies them to the store under one lock acquisition and — under
// FsyncAlways — one fsync for the whole batch, so what a papid sweep
// worker read in one tick costs one lock/fsync round regardless of
// session count. Every row hits the journal before the store sees it
// (write-ahead order: the batch is journaled, numbering its rows, then
// applied as one store batch with the numbers), and the store append
// runs under the same lock, so sequence order equals store insertion
// order and a truncation, which holds that lock too, finds every
// journaled row in the store. A failed journal write leaves exactly that row RAM-only —
// availability over durability — counted and logged, and the first
// such error is returned. Rows early in a batch are synced with the
// batch, not individually; the call returns only after the sync.
//
// t, when non-nil, gets flight-recorder spans: "wal.append" over the
// journal writes and store applies, and — when the batch syncs —
// "wal.fsync" over the sync itself, so a retained trace shows whether
// a slow batch spent its time writing or waiting on the disk.
func (l *Log) AppendRowsTraced(rows []Row, t *tracing.Trace) error {
	if l.closed.Load() {
		return ErrClosed
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	sp := t.StartSpan(tracing.NoSpan, "wal.append")
	var firstErr error
	wrote := false
	seqs := l.seqs[:0]
	for i := range rows {
		r := &rows[i]
		events, vals := r.Events, r.Vals
		if len(events) > len(vals) {
			events = events[:len(vals)]
		}
		if len(events) == 0 {
			seqs = append(seqs, 0)
			continue
		}
		l.lastSeq++
		seq := l.lastSeq
		seqs = append(seqs, seq)
		payload := appendRow(l.scratch[:0], seq, r.Session, r.TS, events, vals)
		rec := appendFrame(payload[len(payload):], payload)
		l.scratch = payload[:0]
		if l.wf != nil {
			if _, werr := l.wwr.Write(rec); werr == nil {
				l.wfBytes += int64(len(rec))
				l.wfMaxSeq = seq
				l.rows.Add(1)
				wrote = true
			} else {
				l.writeErrs.Add(1)
				l.logger.Error("wal append failed; row is RAM-only", "err", werr, "seq", seq)
				if firstErr == nil {
					firstErr = werr
				}
			}
		}
	}
	l.seqs = seqs
	if l.store.AppendRows(rows, seqs) {
		l.persist()
	}
	if t != nil {
		t.AnnotateInt(sp, "rows", int64(len(rows)))
		t.EndSpan(sp)
	}
	if wrote {
		if l.opts.Fsync == FsyncAlways {
			fs := t.StartSpan(tracing.NoSpan, "wal.fsync")
			l.fsyncWALLocked()
			t.EndSpan(fs)
		} else {
			l.walDirty = true
		}
		if firstErr == nil && l.wfBytes >= l.opts.SegmentBytes {
			l.rotateWALLocked()
		}
	}
	return firstErr
}

// persist is the one way sealed blocks reach disk: under segMu, it asks
// the store for every sealed block not yet persisted, each series'
// oldest first, and writes them to the active segment, rotating and
// finalizing it when full. Each block is marked persisted in the store
// as its write succeeds, before segMu is released, so no pass writes a
// block another has written. It runs after an append that sealed, on
// the interval fsync tick, at the top of Compact, at the end of Start
// and in Close.
//
// A failed write ends the pass: the writer is retired without a footer
// (partial bytes may sit behind its last whole record), and the block
// and every newer block of its series stay unpersisted. The store keeps
// them, so truncation keeps their WAL rows, and the next pass retries
// them in order — a series' persisted blocks never develop a gap that
// replay's watermark would silently skip over.
func (l *Log) persist() {
	l.segMu.Lock()
	for _, sb := range l.store.Unpersisted() {
		err := l.ensureWriterLocked()
		if err == nil {
			if err = l.sw.writeBlock(sb); err != nil {
				l.retireWriterLocked(false)
			}
		}
		if err != nil {
			l.writeErrs.Add(1)
			l.logger.Error("segment write failed; sealed blocks wait for the next pass", "err", err)
			break
		}
		l.store.MarkPersisted(sb)
		l.sealed.Add(1)
	}
	if l.sw != nil && l.opts.Fsync == FsyncAlways {
		l.fsyncSegLocked()
	}
	if l.sw != nil && l.sw.size >= l.opts.SegmentBytes {
		l.retireWriterLocked(true)
	}
	l.segMu.Unlock()
}

// ensureWriterLocked opens the active segment writer; segMu held.
func (l *Log) ensureWriterLocked() error {
	if l.sw != nil {
		return nil
	}
	sw, err := l.createSegment(l.nextSegSeq)
	if err != nil {
		return err
	}
	l.nextSegSeq++
	l.sw = sw
	return nil
}

// retireWriterLocked is the one way a segment writer ends; segMu held.
// The file is closed — behind a footer when finalize is set; without
// one after a record write error, when partial bytes may sit behind the
// last whole record — and loaded like any file Open finds, so the live
// list holds what a restart would: the whole segment, or the intact
// prefix of one whose footer never made it to disk. The next seal
// starts a fresh file.
func (l *Log) retireWriterLocked(finalize bool) {
	sw := l.sw
	l.sw = nil
	if err := sw.close(finalize, l.syncFile); err != nil {
		l.writeErrs.Add(1)
		l.logger.Error("segment close failed", "err", err, "path", sw.path, "finalize", finalize)
	}
	seg, err := loadSegment(sw.path, sw.seq)
	if err != nil {
		l.logger.Error("segment reload failed", "err", err, "path", sw.path)
		return
	}
	seg.dropBytes()
	l.segs = append(l.segs, seg)
	sortSegments(l.segs)
}

// rotateWALLocked starts a fresh WAL file and deletes any rotated
// files whose rows are all sealed. mu held.
func (l *Log) rotateWALLocked() {
	f, err := createWAL(l.dir, l.wfSeq+1)
	if err != nil {
		l.writeErrs.Add(1)
		l.logger.Error("wal rotate failed; continuing on current file", "err", err)
		return
	}
	if l.opts.Fsync != FsyncOff {
		l.fsyncWALLocked() // old file is complete and durable before we move on
	}
	old := l.wf
	l.oldWALs = append(l.oldWALs, walFileMeta{
		path: walPath(l.dir, l.wfSeq), seq: l.wfSeq, maxSeq: l.wfMaxSeq, size: l.wfBytes,
	})
	l.useWALLocked(f, l.wfSeq+1)
	old.Close()
	l.truncateWALsLocked()
}

// useWALLocked makes f, fresh from createWAL, the active WAL file. mu
// held — or the caller is Start, before anything else can reach the log.
func (l *Log) useWALLocked(f *os.File, seq uint64) {
	l.wf, l.wwr = f, l.writer(f)
	l.wfSeq = seq
	l.wfBytes = int64(len(walMagic))
	l.wfMaxSeq = 0
	l.walDirty = true
}

// truncateWALsLocked deletes rotated WAL files whose newest row is
// older than the oldest row the store holds outside a persisted block.
// mu held, so every journaled row has reached the store. Before
// deleting anything it syncs the active segment so the sealed blocks
// that supersede those rows are actually on disk.
func (l *Log) truncateWALsLocked() {
	if len(l.oldWALs) == 0 {
		return
	}
	oldest := l.store.OldestUnpersisted()
	keep := l.oldWALs[:0]
	synced := false
	for _, m := range l.oldWALs {
		if m.unreadable || (oldest != 0 && m.maxSeq >= oldest) {
			keep = append(keep, m)
			continue
		}
		if !synced {
			l.segMu.Lock()
			l.fsyncSegLocked()
			l.segMu.Unlock()
			synced = true
		}
		if err := os.Remove(m.path); err != nil {
			l.logger.Error("wal truncate failed", "err", err, "path", m.path)
			keep = append(keep, m)
			continue
		}
		l.truncated.Add(1)
	}
	l.oldWALs = append([]walFileMeta(nil), keep...)
}

// syncFile is the log's one fsync call: every file or directory sync
// goes through it, and each that succeeds is counted on wal_fsyncs and
// timed on wal/fsync. The caller handles the error.
func (l *Log) syncFile(f *os.File) error {
	t0 := l.opts.Clock.Now()
	if err := f.Sync(); err != nil {
		return err
	}
	l.fsyncs.Add(1)
	if l.fsyncHist != nil {
		l.fsyncHist.Observe(int64(l.opts.Clock.Now().Sub(t0)))
	}
	return nil
}

// fsync syncs one of the log's files and clears its dirty flag; a
// failure is counted and logged and leaves the flag set.
func (l *Log) fsync(f *os.File, dirty *bool, what string) {
	if err := l.syncFile(f); err != nil {
		l.writeErrs.Add(1)
		l.logger.Error(what+" fsync failed", "err", err)
		return
	}
	*dirty = false
}

// fsyncWALLocked syncs the active WAL file; mu held.
func (l *Log) fsyncWALLocked() {
	if l.wf != nil {
		l.fsync(l.wf, &l.walDirty, "wal")
	}
}

// fsyncSegLocked syncs the active segment writer; segMu held.
func (l *Log) fsyncSegLocked() {
	if l.sw != nil && l.sw.dirty {
		l.fsync(l.sw.f, &l.sw.dirty, "segment")
	}
}

// Sync forces WAL and segment data to disk now, regardless of policy.
func (l *Log) Sync() {
	l.mu.Lock()
	if l.walDirty {
		l.fsyncWALLocked()
	}
	l.mu.Unlock()
	l.segMu.Lock()
	l.fsyncSegLocked()
	l.segMu.Unlock()
}

// run is the background loop: interval fsync and periodic compaction.
func (l *Log) run() {
	defer l.bg.Done()
	var syncC <-chan time.Time
	if l.opts.Fsync == FsyncInterval {
		t := l.opts.Clock.NewTicker(l.opts.FsyncInterval)
		defer t.Stop()
		syncC = t.C
	}
	compact := l.opts.Clock.NewTicker(compactEvery)
	defer compact.Stop()
	for {
		select {
		case <-l.stopCh:
			return
		case <-syncC:
			l.persist() // retry blocks an earlier pass could not write
			l.Sync()
		case <-compact.C:
			l.Compact(l.opts.Clock.Now().UnixMicro()) // a failed pass logs and counts itself
		}
	}
}

// diskBytes totals every live file.
func (l *Log) diskBytes() int64 {
	var n int64
	l.mu.Lock()
	n += l.wfBytes
	for _, m := range l.oldWALs {
		n += m.size
	}
	l.mu.Unlock()
	l.segMu.Lock()
	for _, s := range l.segs {
		n += s.size
	}
	if l.sw != nil {
		n += l.sw.size
	}
	l.segMu.Unlock()
	return n
}

// walFiles counts the live WAL files, the active one included.
func (l *Log) walFiles() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.oldWALs)
	if l.wf != nil {
		n++
	}
	return n
}

// Close drains the log gracefully: every active block is sealed and
// persisted, the active segment is finalized, the WAL (now fully
// superseded) is deleted, and a clean-shutdown marker is written so
// the next start replays nothing.
func (l *Log) Close() error {
	if !l.closed.CompareAndSwap(false, true) {
		return nil
	}
	if l.started.Load() {
		close(l.stopCh)
		l.bg.Wait()
	}
	if l.store != nil {
		l.store.SealAllActive()
		l.persist()
	}
	l.segMu.Lock()
	if l.sw != nil {
		l.retireWriterLocked(true)
	}
	l.segMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	// All rows are sealed now, so every WAL file is deletable — unless
	// some write failed along the way, in which case keep the WAL (the
	// next start replays it; replay is self-deduplicating).
	l.truncateWALsLocked()
	clean := len(l.oldWALs) == 0 && l.writeErrs.Load() == 0
	if l.wf != nil {
		err := l.syncFile(l.wf)
		l.wf.Close()
		if err == nil && clean {
			if rmErr := os.Remove(walPath(l.dir, l.wfSeq)); rmErr != nil {
				clean = false
			}
		} else {
			clean = false
		}
		l.wf = nil
		l.wwr = nil
	}
	if clean {
		if err := os.WriteFile(filepath.Join(l.dir, cleanMarker),
			[]byte(fmt.Sprintf("clean shutdown, last seq %d\n", l.lastSeq)), 0o644); err != nil {
			l.logger.Error("clean marker write failed", "err", err)
		} else if d, err := os.Open(l.dir); err == nil {
			l.syncFile(d)
			d.Close()
		}
	}
	return nil
}

// Abandon closes file handles without sealing, truncating or marking
// clean — the moral equivalent of kill -9, for crash-recovery tests.
func (l *Log) Abandon() {
	if !l.closed.CompareAndSwap(false, true) {
		return
	}
	if l.started.Load() {
		close(l.stopCh)
		l.bg.Wait()
	}
	l.mu.Lock()
	if l.wf != nil {
		l.wf.Close()
		l.wf = nil
		l.wwr = nil
	}
	l.mu.Unlock()
	l.segMu.Lock()
	if l.sw != nil {
		l.sw.f.Close()
		l.sw = nil
	}
	l.segMu.Unlock()
}
