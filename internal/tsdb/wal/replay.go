package wal

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/tsdb"
)

// Start attaches the log to its store and reconstructs the store's
// state from disk: rollup runs first (coarsest history), then raw
// sealed blocks (folded into the rollup levels exactly as live appends
// would have), then any WAL rows newer than each series' persisted
// sealed-through sequence. It must be called exactly once, after
// tsdb.New and before the first append; only then does the background
// fsync/compaction loop start.
//
// A clean shutdown leaves no WAL files and a CLEAN marker, so restart
// installs segments and replays nothing — the fast path.
func (l *Log) Start(store *tsdb.Store) (ReplayStats, error) {
	if !l.started.CompareAndSwap(false, true) {
		return ReplayStats{}, fmt.Errorf("wal: Start called twice")
	}
	l.store = store
	rs := ReplayStats{
		Segments:    len(l.segs),
		WALFiles:    len(l.loadedWALs),
		TornRecords: l.totalSegTorn,
	}
	for _, msg := range l.loadErrs {
		l.logger.Error("segment skipped at startup", "detail", msg)
	}
	rs.CleanStart = l.hadClean && len(l.loadedWALs) == 0 && l.totalSegTorn == 0 &&
		len(l.loadErrs) == 0
	// The marker only ever vouches for the state it was written over;
	// remove it before any new writes.
	os.Remove(filepath.Join(l.dir, cleanMarker))

	// sealed is replay's dedup watermark: per series, the newest row
	// sequence already inside a persisted block or compacted rollup.
	sealed := make(map[tsdb.SeriesKey]uint64)
	seen := func(key tsdb.SeriesKey, seq uint64) {
		sealed[key] = max(sealed[key], seq)
		l.lastSeq = max(l.lastSeq, seq)
	}

	// Pass 1: rollup runs and watermarks. Segments are in file-sequence
	// order, which is oldest-data-first for rollup outputs.
	for _, seg := range l.segs {
		for _, rr := range seg.rollups {
			if !store.InstallRollup(rr.key, rr.width, rr.buckets) {
				l.logger.Warn("rollup width no longer configured; run skipped",
					"width_us", rr.width, "event", rr.key.Event)
				continue
			}
			rs.RollupRuns++
		}
		for _, w := range seg.marks {
			seen(w.key, w.seq)
		}
	}
	// Pass 2: raw blocks, folded into rollup levels on top of the
	// installed runs.
	for _, seg := range l.segs {
		for _, sb := range seg.blocks {
			store.InstallSealed(sb, seg.mapped)
			rs.Blocks++
			seen(sb.Key, sb.LastSeq)
		}
	}
	// Pass 3: WAL rows not yet inside a sealed block.
	for i := range l.loadedWALs {
		m := &l.loadedWALs[i]
		torn, err := l.replayWALFile(m, sealed, &rs)
		if err != nil {
			// Never replayed, so never safe to truncate: keep the file
			// (marked so truncation skips it) for manual recovery — a
			// transient IO error would otherwise get its rows deleted.
			m.unreadable = true
			l.logger.Error("wal file unreadable; kept for manual recovery", "err", err, "path", m.path)
			continue
		}
		if torn && i < len(l.loadedWALs)-1 {
			// A torn tail is expected only in the newest file; anywhere
			// else means real corruption, not a crash artifact.
			l.logger.Warn("torn record in non-final wal file", "path", m.path)
		}
	}
	l.replay = rs
	l.oldWALs = append(l.oldWALs, l.loadedWALs...)
	l.loadedWALs = nil

	// Fresh WAL file for new rows.
	next := uint64(1)
	if n := len(l.oldWALs); n > 0 {
		next = l.oldWALs[n-1].seq + 1
	}
	f, err := createWAL(l.dir, next)
	if err != nil {
		return rs, err
	}
	l.useWALLocked(f, next)

	// Replay installed whatever the files hold. The store serves only
	// what its retention keeps as of the log's clock, from the first
	// query on rather than from the first sweep; then, once, what its
	// byte budget keeps of that (Store.InstallRow).
	store.Sweep(l.opts.Clock.Now().UnixMicro())
	store.EnforceBudget()
	// Replayed rows can seal blocks; write what the store still holds.
	l.persist()
	l.bg.Add(1)
	go l.run()
	return rs, nil
}

// replayWALFile re-appends every row of one WAL file whose samples are
// not already inside persisted sealed blocks — above their series'
// sealed watermark. Returns whether the file ended in a torn record.
func (l *Log) replayWALFile(m *walFileMeta, sealed map[tsdb.SeriesKey]uint64, rs *ReplayStats) (torn bool, err error) {
	data, err := os.ReadFile(m.path)
	if err != nil {
		return false, err
	}
	if err := checkHeader(data, walMagic); err != nil {
		return false, err
	}
	var keepEv []string
	var keepVals []int64
	off := len(walMagic)
	for off < len(data) {
		payload, next, ferr := readFrame(data, off)
		if ferr != nil {
			rs.TornRecords++
			return true, nil
		}
		off = next
		row, derr := decodeRow(payload)
		if derr != nil {
			rs.TornRecords++
			return true, nil
		}
		if row.seq > l.lastSeq {
			l.lastSeq = row.seq
		}
		if row.seq > m.maxSeq {
			m.maxSeq = row.seq
		}
		keepEv = keepEv[:0]
		keepVals = keepVals[:0]
		for i, ev := range row.events {
			if i >= len(row.vals) {
				break
			}
			if row.seq <= sealed[tsdb.SeriesKey{Session: row.session, Event: ev}] {
				continue // already inside a persisted sealed block
			}
			keepEv = append(keepEv, ev)
			keepVals = append(keepVals, row.vals[i])
		}
		if len(keepEv) == 0 {
			continue
		}
		// Can seal blocks mid-replay; the persist pass at the end of
		// Start writes them to a fresh segment. Rows arrive in sequence
		// order, so no such seal covers a row still to come.
		l.store.InstallRow(row.session, row.ts, keepEv, keepVals, row.seq)
		rs.Rows++
		rs.Samples += uint64(len(keepEv))
	}
	return false, nil
}
