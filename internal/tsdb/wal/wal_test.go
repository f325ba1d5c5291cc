package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

// openPair builds a Log+Store wired the way the server wires them,
// telemetry registry included: stat reads the log's counters from it.
func openPair(t *testing.T, dir string, opts Options, cfg tsdb.Config) (*Log, *tsdb.Store, ReplayStats) {
	t.Helper()
	if opts.Registry == nil {
		opts.Registry = telemetry.NewRegistry()
	}
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if cfg.MaxBytes == 0 {
		cfg.MaxBytes = 256 << 20
	}
	if cfg.MaxAge == 0 {
		cfg.MaxAge = -1
	}
	store := tsdb.New(cfg)
	rs, err := l.Start(store)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	return l, store, rs
}

// stat reads one of the log's counters or gauges under the key a STATS
// reply serves it by, and fails the test on a key the registry lacks.
func stat(t *testing.T, l *Log, key string) uint64 {
	t.Helper()
	v, ok := l.opts.Registry.Stats()[key]
	if !ok {
		t.Fatalf("registry has no key %q", key)
	}
	return v
}

// noCompact turns the log's background work off so tests control every
// mutation: on a clock.Fake its fsync and compaction tickers never fire
// until the test advances the clock.
func noCompact(opts Options) Options {
	opts.Clock = clock.NewFake(time.UnixMicro(0))
	return opts
}

// onFiles is an Options.wrap that puts wrap in front of the writer of
// every file whose name starts with prefix ("wal-" or "seg-").
func onFiles(prefix string, wrap func(io.Writer) io.Writer) func(string, io.Writer) io.Writer {
	return func(name string, w io.Writer) io.Writer {
		if strings.HasPrefix(name, prefix) {
			return wrap(w)
		}
		return w
	}
}

// appendTicks writes n tick rows of the given events, one row per
// tick, timestamps stepping by stepUS from startUS. Values are a
// deterministic function of (event index, tick).
func appendTicks(t *testing.T, l *Log, session uint64, events []string, n int, startUS, stepUS int64) {
	t.Helper()
	vals := make([]int64, len(events))
	for i := 0; i < n; i++ {
		ts := startUS + int64(i)*stepUS
		for j := range events {
			vals[j] = int64(i)*10 + int64(j) // monotone-ish counters
		}
		if err := l.AppendBatch(session, ts, events, vals); err != nil {
			t.Fatalf("AppendBatch tick %d: %v", i, err)
		}
	}
}

// TestCloseFsyncsAreCounted: under -fsync off the log syncs nothing
// while it runs, but Close still syncs the finalized segment, the WAL
// file and, after the clean marker, the directory. Those are fsyncs
// like any other: each is counted on wal_fsyncs and timed on wal/fsync.
func TestCloseFsyncsAreCounted(t *testing.T) {
	l, _, _ := openPair(t, t.TempDir(), noCompact(Options{Fsync: FsyncOff}), tsdb.Config{})
	appendTicks(t, l, 7, []string{"PAPI_TOT_CYC", "PAPI_TOT_INS"}, 100, 0, 50_000)
	if n := stat(t, l, "wal_fsyncs"); n != 0 {
		t.Fatalf("%d fsyncs before Close under -fsync off, want 0", n)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := stat(t, l, "wal_fsyncs"); n != 3 {
		t.Errorf("Close counted %d fsyncs, want 3: segment, WAL file and directory", n)
	}
	if n, h := stat(t, l, "wal_fsyncs"), l.opts.Registry.Summaries()["wal/fsync"].Count; n != h {
		t.Errorf("wal_fsyncs %d, but wal/fsync timed %d", n, h)
	}
}

// queryAll captures every view of a session the server can serve: raw
// plus each rollup step, JSON-encoded for exact comparison.
func queryAll(t *testing.T, store *tsdb.Store, session uint64, from, to int64) string {
	t.Helper()
	return queryViews(t, store, session, from, to, 0, 10_000_000, 60_000_000)
}

// queryViews JSON-encodes the session's answer at each step, one line
// per step.
func queryViews(t *testing.T, store *tsdb.Store, session uint64, from, to int64, steps ...int64) string {
	t.Helper()
	var sb strings.Builder
	for _, step := range steps {
		res := store.Query(session, tsdb.Query{From: from, To: to, Step: step})
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		fmt.Fprintf(&sb, "step=%d %s\n", step, b)
	}
	return sb.String()
}

func TestRoundTripAfterCleanShutdown(t *testing.T) {
	dir := t.TempDir()
	events := []string{"PAPI_TOT_CYC", "PAPI_TOT_INS"}
	opts := noCompact(Options{Fsync: FsyncOff})

	l, store, _ := openPair(t, dir, opts, tsdb.Config{BlockSamples: 64})
	appendTicks(t, l, 7, events, 1000, 0, 50_000)
	want := queryAll(t, store, 7, 0, 1<<60)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Clean shutdown leaves no WAL and a CLEAN marker.
	walFiles, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(walFiles) != 0 {
		t.Fatalf("wal files survive clean shutdown: %v", walFiles)
	}
	if _, err := os.Stat(filepath.Join(dir, cleanMarker)); err != nil {
		t.Fatalf("no CLEAN marker after clean shutdown: %v", err)
	}

	l2, store2, rs := openPair(t, dir, opts, tsdb.Config{BlockSamples: 64})
	defer l2.Close()
	if !rs.CleanStart {
		t.Errorf("restart after clean shutdown: CleanStart=false, stats %+v", rs)
	}
	if rs.Rows != 0 {
		t.Errorf("clean restart replayed %d rows, want 0", rs.Rows)
	}
	if got := queryAll(t, store2, 7, 0, 1<<60); got != want {
		t.Errorf("query mismatch after clean restart:\nbefore: %s\nafter:  %s", want, got)
	}
}

func TestCrashRecoveryReplaysWAL(t *testing.T) {
	for _, policy := range []string{FsyncAlways, FsyncInterval, FsyncOff} {
		t.Run(policy, func(t *testing.T) {
			dir := t.TempDir()
			events := []string{"PAPI_TOT_CYC", "PAPI_L1_DCM"}
			opts := noCompact(Options{Fsync: policy})

			l, store, _ := openPair(t, dir, opts, tsdb.Config{BlockSamples: 128})
			appendTicks(t, l, 3, events, 700, 1_000_000, 25_000)
			want := queryAll(t, store, 3, 0, 1<<60)
			l.Abandon() // kill -9: no seal, no truncate, no marker

			l2, store2, rs := openPair(t, dir, opts, tsdb.Config{BlockSamples: 128})
			defer l2.Close()
			if rs.CleanStart {
				t.Fatal("crash restart took the clean fast path")
			}
			if rs.Rows == 0 && rs.Blocks == 0 {
				t.Fatalf("nothing recovered: %+v", rs)
			}
			if got := queryAll(t, store2, 3, 0, 1<<60); got != want {
				t.Errorf("query mismatch after crash recovery:\nbefore: %s\nafter:  %s", want, got)
			}
		})
	}
}

// TestAppendRowsMatchesSequentialAppendBatch: a batch through
// AppendRows leaves log and store exactly as the same rows appended one
// AppendBatch at a time — same sequence numbers, same row count, same
// answer to every QUERY, and the same again after a crash and replay —
// however the rows are cut into batches, under every fsync policy. The
// seeded rows include the awkward ones: empty rows, rows with more
// names than values and the reverse, one wider than the store's
// 64-event grouping, repeated timestamps, and enough samples to seal
// blocks and rotate the WAL mid-batch.
func TestAppendRowsMatchesSequentialAppendBatch(t *testing.T) {
	names := []string{"PAPI_TOT_CYC", "PAPI_TOT_INS", "PAPI_FP_OPS", "PAPI_L1_DCM", "PAPI_BR_MSP", "PAPI_TLB_DM"}
	wide := make([]string, 70)
	for i := range wide {
		wide[i] = fmt.Sprintf("WIDE_%02d", i)
	}
	const sessions = 3
	for pi, policy := range []string{FsyncAlways, FsyncInterval, FsyncOff} {
		t.Run(policy, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(17 + pi)))
			var rows []Row
			ts := int64(1_000_000)
			for i := 0; i < 600; i++ {
				if rng.Intn(5) > 0 { // one row in five repeats the timestamp before it
					ts += 50_000 + rng.Int63n(31)
				}
				events := names[:rng.Intn(len(names)+1)]
				if i == 300 {
					events = wide
				}
				vals := make([]int64, max(0, len(events)+rng.Intn(3)-1))
				for j := range vals {
					vals[j] = int64(i)*1000 + int64(j)
				}
				rows = append(rows, Row{Session: uint64(1 + rng.Intn(sessions)), TS: ts, Events: events, Vals: vals})
			}

			opts := noCompact(Options{Fsync: policy, SegmentBytes: 16 << 10})
			cfg := tsdb.Config{BlockSamples: 32}
			dirA, dirB := t.TempDir(), t.TempDir()
			batched, storeA, _ := openPair(t, dirA, opts, cfg)
			serial, storeB, _ := openPair(t, dirB, opts, cfg)
			for rest := rows; len(rest) > 0; {
				n := min(1+rng.Intn(40), len(rest))
				if err := batched.AppendRows(rest[:n]); err != nil {
					t.Fatalf("AppendRows: %v", err)
				}
				rest = rest[n:]
			}
			for _, r := range rows {
				if err := serial.AppendBatch(r.Session, r.TS, r.Events, r.Vals); err != nil {
					t.Fatalf("AppendBatch: %v", err)
				}
			}

			same := func(when string, a, b *tsdb.Store) {
				t.Helper()
				for sess := uint64(1); sess <= sessions; sess++ {
					if got, want := queryAll(t, a, sess, 0, 1<<60), queryAll(t, b, sess, 0, 1<<60); got != want {
						t.Errorf("%s: session %d answers differ:\nbatched: %s\nserial:  %s", when, sess, got, want)
					}
				}
			}
			same("live", storeA, storeB)
			if batched.lastSeq != serial.lastSeq || batched.lastSeq == 0 {
				t.Errorf("last sequence: batched %d, serial %d", batched.lastSeq, serial.lastSeq)
			}
			for _, key := range []string{"wal_rows", "wal_sealed_blocks"} {
				if a, b := stat(t, batched, key), stat(t, serial, key); a != b || a == 0 {
					t.Errorf("%s: batched %d, serial %d (want equal and some)", key, a, b)
				}
			}
			if n := stat(t, batched, "wal_truncated_files") + stat(t, batched, "wal_files"); n < 2 {
				t.Errorf("no WAL rotation: %d files written", n)
			}
			batched.Abandon()
			serial.Abandon()

			batched2, storeA2, rsA := openPair(t, dirA, opts, cfg)
			defer batched2.Close()
			serial2, storeB2, rsB := openPair(t, dirB, opts, cfg)
			defer serial2.Close()
			if rsA.Rows != rsB.Rows || rsA.Samples != rsB.Samples || rsA.Rows == 0 {
				t.Errorf("replay: batched %+v, serial %+v", rsA, rsB)
			}
			same("after replay", storeA2, storeB2)
			same("across the crash", storeA2, storeB)
		})
	}
}

func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	events := []string{"PAPI_TOT_CYC"}
	opts := noCompact(Options{Fsync: FsyncOff})

	l, store, _ := openPair(t, dir, opts, tsdb.Config{BlockSamples: 1 << 20})
	appendTicks(t, l, 1, events, 100, 0, 1_000_000)
	// Compare only windows strictly before the torn row's: a window
	// starting before To is aggregated whole, so To must stop at the
	// widest rollup boundary (60s) below the final row's timestamp.
	want := queryAll(t, store, 1, 0, 60_000_000)
	l.Abandon()

	// Tear the newest WAL file mid-record: chop half of the last
	// record's bytes off, the shape an interrupted write leaves.
	walFiles, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(walFiles) == 0 {
		t.Fatal("no wal files")
	}
	path := walFiles[len(walFiles)-1]
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	l2, store2, rs := openPair(t, dir, opts, tsdb.Config{BlockSamples: 1 << 20})
	defer l2.Close()
	if rs.TornRecords == 0 {
		t.Error("torn tail not detected")
	}
	if rs.Rows != 99 {
		t.Errorf("replayed %d rows, want 99 (final row torn)", rs.Rows)
	}
	if got := queryAll(t, store2, 1, 0, 60_000_000); got != want {
		t.Errorf("surviving rows mismatch:\nbefore: %s\nafter:  %s", want, got)
	}
}

// failAfterWriter passes writes through until limit bytes, then fails
// everything — an injected disk-full/yanked-disk fault.
type failAfterWriter struct {
	w     io.Writer
	limit int
	n     int
}

var errInjected = errors.New("injected write failure")

func (f *failAfterWriter) Write(p []byte) (int, error) {
	if f.n+len(p) > f.limit {
		// Tear the write: commit a prefix, then fail.
		keep := f.limit - f.n
		if keep > 0 {
			f.w.Write(p[:keep])
			f.n += keep
		}
		return keep, errInjected
	}
	n, err := f.w.Write(p)
	f.n += n
	return n, err
}

func TestFailingWriterDegradesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	events := []string{"PAPI_TOT_CYC"}
	opts := noCompact(Options{Fsync: FsyncOff})
	opts.wrap = onFiles("wal-", func(w io.Writer) io.Writer { return &failAfterWriter{w: w, limit: 2048} })

	l, store, _ := openPair(t, dir, opts, tsdb.Config{BlockSamples: 1 << 20})
	sawErr := false
	for i := 0; i < 200; i++ {
		err := l.AppendBatch(9, int64(i)*1_000_000, events, []int64{int64(i)})
		if err != nil && errors.Is(err, errInjected) {
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("fault never fired")
	}
	if stat(t, l, "wal_write_errors") == 0 {
		t.Fatal("write errors not counted")
	}
	// Degraded rows still landed in RAM.
	if res := store.Query(9, tsdb.Query{From: 0, To: 1 << 60}); len(res) != 1 || len(res[0].Buckets) != 200 {
		t.Fatalf("degraded rows missing from store: %+v", res)
	}
	l.Abandon()

	// Recovery: the journaled prefix replays (the torn final record is
	// dropped), with zero decode errors.
	opts.wrap = nil
	l2, store2, rs := openPair(t, dir, opts, tsdb.Config{BlockSamples: 1 << 20})
	defer l2.Close()
	if rs.TornRecords == 0 {
		t.Error("torn record from failed write not detected")
	}
	if rs.Rows == 0 {
		t.Fatal("no rows recovered from journaled prefix")
	}
	res := store2.Query(9, tsdb.Query{From: 0, To: 1 << 60})
	if len(res) != 1 || uint64(len(res[0].Buckets)) != rs.Rows {
		t.Fatalf("recovered %d rows but query returned %+v", rs.Rows, res)
	}
	for i, bk := range res[0].Buckets {
		if bk.Last != int64(i) {
			t.Fatalf("bucket %d holds %d — decode corruption", i, bk.Last)
		}
	}
}

func TestRestartEquivalenceLargeHistory(t *testing.T) {
	// Satellite 3: ~100k ticks, crash, restart; raw and rollup queries
	// must be byte-identical. Small blocks force many seals, small
	// segments force rotation and WAL truncation along the way.
	n := 100_000
	if testing.Short() {
		n = 10_000
	}
	dir := t.TempDir()
	events := []string{"PAPI_TOT_CYC", "PAPI_TOT_INS", "PAPI_L2_TCM"}
	opts := noCompact(Options{Fsync: FsyncOff, SegmentBytes: 64 << 10})

	cfg := tsdb.Config{BlockSamples: 256}
	l, store, _ := openPair(t, dir, opts, cfg)
	appendTicks(t, l, 42, events, n, 0, 10_000) // 100Hz ticks
	want := queryAll(t, store, 42, 0, 1<<60)
	if stat(t, l, "wal_sealed_blocks") == 0 || stat(t, l, "wal_truncated_files") == 0 {
		t.Fatalf("test did not exercise sealing+truncation: %v", l.opts.Registry.Stats())
	}
	l.Abandon()

	l2, store2, rs := openPair(t, dir, opts, cfg)
	defer l2.Close()
	if rs.Blocks == 0 {
		t.Fatalf("no blocks reinstalled: %+v", rs)
	}
	if got := queryAll(t, store2, 42, 0, 1<<60); got != want {
		t.Errorf("restart changed query results (replay %+v)", rs)
	}
}

func TestCompactionEquivalenceAcrossRestart(t *testing.T) {
	// Rollup queries must answer identically before compaction, after
	// compaction, and after a restart that replays the compacted
	// segments — including windows split across the compaction edge.
	dir := t.TempDir()
	events := []string{"PAPI_TOT_CYC", "PAPI_FP_OPS"}
	opts := noCompact(Options{Fsync: FsyncOff, SegmentBytes: 4 << 10})

	// The budget keeps the newest raw blocks; compaction folds the
	// segments whose blocks it evicted.
	cfg := tsdb.Config{BlockSamples: 128, MaxBytes: 16 << 10}
	l, store, _ := openPair(t, dir, opts, cfg)
	// 4000 ticks at 100ms = 400s of history; timestamps start at an
	// offset so windows don't align trivially with zero.
	appendTicks(t, l, 5, events, 4000, 3_333_333, 100_000)
	lastTS := int64(3_333_333 + 3999*100_000)

	rollupsBefore := func(s *tsdb.Store) string {
		var sb strings.Builder
		for _, step := range []int64{10_000_000, 60_000_000} {
			b, _ := json.Marshal(s.Query(5, tsdb.Query{From: 0, To: 1 << 60, Step: step}))
			fmt.Fprintf(&sb, "step=%d %s\n", step, b)
		}
		return sb.String()
	}
	want := rollupsBefore(store)

	now := lastTS + time.Minute.Microseconds() + 1
	cs, err := l.Compact(now)
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if cs.Compacted == 0 || cs.RawBlocks == 0 {
		t.Fatalf("compaction did nothing: %+v", cs)
	}
	if got := rollupsBefore(store); got != want {
		t.Errorf("compaction changed live rollup answers:\nbefore: %s\nafter:  %s", want, got)
	}

	// Crash and replay the compacted state.
	l.Abandon()
	l2, store2, rs := openPair(t, dir, opts, cfg)
	defer l2.Close()
	if rs.RollupRuns == 0 {
		t.Fatalf("no rollup runs replayed: %+v", rs)
	}
	if got := rollupsBefore(store2); got != want {
		t.Errorf("restart after compaction changed rollup answers:\nbefore: %s\nafter:  %s", want, got)
	}

	// Raw queries agree too: both stores hold the raw blocks the budget
	// kept.
	wantRaw, _ := json.Marshal(store.Query(5, tsdb.Query{From: 0, To: 1 << 60}))
	gotRaw, _ := json.Marshal(store2.Query(5, tsdb.Query{From: 0, To: 1 << 60}))
	if string(wantRaw) != string(gotRaw) {
		t.Errorf("raw coverage diverged after compaction restart:\nlive:    %s\nreplayed: %s",
			wantRaw, gotRaw)
	}
}

func TestCompactionRetainsReplayDedup(t *testing.T) {
	// After compaction discards raw blocks, the watermarks must still
	// prevent WAL rows from replaying on top of the rollups.
	dir := t.TempDir()
	events := []string{"PAPI_TOT_CYC"}
	opts := noCompact(Options{Fsync: FsyncOff, SegmentBytes: 512})

	cfg := tsdb.Config{BlockSamples: 64, MaxBytes: 1 << 10}
	l, store, _ := openPair(t, dir, opts, cfg)
	appendTicks(t, l, 2, events, 640, 0, 100_000) // exactly 10 sealed blocks
	cs, err := l.Compact(64_000_000 + time.Second.Microseconds() + 1)
	if err != nil {
		t.Fatal(err)
	}
	if cs.RawBlocks == 0 {
		t.Fatalf("compaction folded no raw blocks: %+v", cs)
	}
	// The post-compaction store (rollups, and the raw blocks the budget
	// kept) is the state replay must reproduce.
	want := queryAll(t, store, 2, 0, 1<<60)
	l.Abandon() // WAL still holds every row; replay must dedup them all

	l2, store2, rs := openPair(t, dir, opts, cfg)
	defer l2.Close()
	if got := queryAll(t, store2, 2, 0, 1<<60); got != want {
		t.Errorf("replay after compaction double-counted or lost rows (replay %+v)", rs)
	}
}

// TestRetentionDeletesExpiredSegments: the store's retention is the
// disk's. A pass deletes every segment the store's MaxAge has wholly
// expired, the one being written included.
func TestRetentionDeletesExpiredSegments(t *testing.T) {
	dir := t.TempDir()
	opts := noCompact(Options{Fsync: FsyncOff, SegmentBytes: 16 << 10})
	l, _, _ := openPair(t, dir, opts, tsdb.Config{BlockSamples: 64, MaxAge: time.Minute})
	appendTicks(t, l, 1, []string{"PAPI_TOT_CYC"}, 2000, 0, 10_000) // 20s of data
	if stat(t, l, "wal_segments") == 0 {
		t.Fatal("no segments written")
	}
	cs, err := l.Compact(20_000_000 + 2*time.Minute.Microseconds())
	if err != nil {
		t.Fatal(err)
	}
	if cs.Deleted == 0 {
		t.Fatalf("retention deleted nothing: %+v", cs)
	}
	if n := stat(t, l, "wal_segments"); n != 0 {
		t.Errorf("%d segments survive a pass two minutes past the last sample", n)
	}
	l.Close()
}

func TestSegmentIndexRoundTrip(t *testing.T) {
	// A finalized segment reloads as finalized; the same file with
	// exactly the footer torn off reloads as an interrupted one; both
	// see every record.
	dir := t.TempDir()
	w, err := (&Log{dir: dir}).createSegment(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		sb := tsdb.SealedBlock{
			Key: tsdb.SeriesKey{Session: 1, Event: "E"},
			Buf: []byte{byte(i), 1, 2, 3},
			N:   4, MinTS: int64(i) * 100, MaxTS: int64(i)*100 + 99, LastSeq: uint64(i + 1),
		}
		if err := w.writeBlock(sb); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(true, (*os.File).Sync); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadSegment(w.path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.finalized || loaded.torn != 0 || len(loaded.blocks) != 10 || loaded.size != w.size+footerLen {
		t.Fatalf("finalized load: finalized=%v torn=%d blocks=%d size=%d (writer wrote %d)",
			loaded.finalized, loaded.torn, len(loaded.blocks), loaded.size, w.size)
	}
	for i, sb := range loaded.blocks {
		if sb.LastSeq != uint64(i+1) || sb.Buf[0] != byte(i) {
			t.Fatalf("block %d corrupted: %+v", i, sb)
		}
	}

	if err := os.Truncate(w.path, w.size); err != nil {
		t.Fatal(err)
	}
	scanned, err := loadSegment(w.path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if scanned.finalized || scanned.torn != 0 {
		t.Fatalf("footerless segment: finalized=%v torn=%d, want an unfinalized file with no torn record",
			scanned.finalized, scanned.torn)
	}
	if len(scanned.blocks) != 10 {
		t.Fatalf("scan found %d blocks, want 10", len(scanned.blocks))
	}
}

func TestRecordFrameTornShapes(t *testing.T) {
	payload := appendRow(nil, 1, 2, 3, []string{"X"}, []int64{4})
	rec := appendFrame(nil, payload)
	if _, next, err := readFrame(rec, 0); err != nil || next != len(rec) {
		t.Fatalf("intact frame rejected: %v", err)
	}
	for cut := 1; cut < len(rec); cut++ {
		if _, _, err := readFrame(rec[:cut], 0); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for i := range rec {
		mut := append([]byte(nil), rec...)
		mut[i] ^= 0x40
		if payload2, _, err := readFrame(mut, 0); err == nil {
			// A flip in the length field could still frame a valid
			// record only if the CRC matches — effectively impossible;
			// a flip elsewhere must fail the CRC.
			if string(payload2) == string(payload) {
				t.Fatalf("bit flip at %d undetected", i)
			}
		}
	}
}

func TestSegmentDiskDeathKeepsWALPinned(t *testing.T) {
	// Segment writes start failing permanently partway through (a disk
	// gone read-only). Every block sealed after that point is RAM-only:
	// its WAL rows must stay pinned — truncation deleting them would
	// destroy the only durable copy — so a crash at any later moment
	// still recovers every row.
	dir := t.TempDir()
	events := []string{"PAPI_TOT_CYC"}
	opts := noCompact(Options{Fsync: FsyncOff, SegmentBytes: 16 << 10})
	// One shared byte budget across all segment writers: once spent,
	// every later segment write fails forever.
	shared := &failAfterWriter{limit: 2 << 10}
	opts.wrap = onFiles("seg-", func(w io.Writer) io.Writer { shared.w = w; return shared })

	cfg := tsdb.Config{BlockSamples: 64}
	l, store, _ := openPair(t, dir, opts, cfg)
	appendTicks(t, l, 13, events, 5000, 0, 100_000)
	if stat(t, l, "wal_write_errors") == 0 {
		t.Fatal("segment fault never fired")
	}
	if stat(t, l, "wal_pending_blocks") == 0 {
		t.Fatalf("no blocks left awaiting retry: %v", l.opts.Registry.Stats())
	}
	want := queryAll(t, store, 13, 0, 1<<60)
	l.Abandon()

	opts.wrap = nil
	l2, store2, rs := openPair(t, dir, opts, cfg)
	defer l2.Close()
	if got := queryAll(t, store2, 13, 0, 1<<60); got != want {
		t.Errorf("rows lost after segment disk death + crash (replay %+v)", rs)
	}
}

// tearWriter passes writes through except the nth (1-based), which
// commits a partial prefix and fails — a single transient IO error.
type tearWriter struct {
	w    io.Writer
	n    int
	fail int
}

func (t *tearWriter) Write(p []byte) (int, error) {
	t.n++
	if t.n == t.fail {
		keep := len(p) / 2
		t.w.Write(p[:keep])
		return keep, errInjected
	}
	return t.w.Write(p)
}

func TestSegmentTornWriteAbandonsWriter(t *testing.T) {
	// One segment write tears (partial bytes on disk) and later writes
	// succeed. The damaged writer must be retired: records appended
	// behind the partial bytes could never be reached by a load, which
	// stops at the first torn record — every later block would be lost,
	// not just the torn one. The failed block is retried in a fresh
	// segment, and a crash afterwards loses nothing.
	dir := t.TempDir()
	events := []string{"PAPI_TOT_CYC"}
	opts := noCompact(Options{Fsync: FsyncOff, SegmentBytes: 16 << 10})
	shared := &tearWriter{fail: 5} // shared across writers: tears once, globally
	opts.wrap = onFiles("seg-", func(w io.Writer) io.Writer { shared.w = w; return shared })

	cfg := tsdb.Config{BlockSamples: 64}
	l, store, _ := openPair(t, dir, opts, cfg)
	appendTicks(t, l, 13, events, 5000, 0, 100_000)
	if stat(t, l, "wal_write_errors") == 0 {
		t.Fatal("segment tear never fired")
	}
	if stat(t, l, "wal_truncated_files") == 0 {
		t.Fatalf("test did not exercise WAL truncation: %v", l.opts.Registry.Stats())
	}
	want := queryAll(t, store, 13, 0, 1<<60)
	l.Abandon()

	opts.wrap = nil
	l2, store2, rs := openPair(t, dir, opts, cfg)
	defer l2.Close()
	if got := queryAll(t, store2, 13, 0, 1<<60); got != want {
		t.Errorf("rows lost after torn segment write + crash (replay %+v)", rs)
	}
}

func TestUnreadableWALFileKeptForRecovery(t *testing.T) {
	// A WAL file replay cannot read must survive truncation — its
	// maxSeq of 0 must not read as "older than every unpersisted row" — so a
	// transient IO error never turns into silent deletion of rows that
	// were never replayed. Its survival also blocks the CLEAN marker.
	dir := t.TempDir()
	bad := walPath(dir, 1)
	if err := os.WriteFile(bad, []byte("garbage, not a wal header"), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := noCompact(Options{Fsync: FsyncOff})
	l, _, rs := openPair(t, dir, opts, tsdb.Config{BlockSamples: 64})
	if rs.WALFiles != 1 {
		t.Fatalf("planted wal file not seen at startup: %+v", rs)
	}
	appendTicks(t, l, 4, []string{"PAPI_TOT_CYC"}, 640, 0, 50_000)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(bad); err != nil {
		t.Errorf("unreadable wal file deleted at shutdown: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, cleanMarker)); err == nil {
		t.Error("CLEAN marker written despite an unreadable wal file surviving")
	}
}
