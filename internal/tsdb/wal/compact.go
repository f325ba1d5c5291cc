package wal

import (
	"fmt"
	"math"
	"os"
	"slices"
	"sort"

	"repro/internal/tsdb"
)

// Compaction keeps disk to what the store serves without losing
// queryable history: the oldest raw segments, once the store holds none
// of their blocks raw any more (its byte budget or retention evicted
// them), are folded with earlier compaction outputs into a single
// rollup-resolution segment — the exact buckets the store's live rollup
// levels hold for those samples — plus per-series watermarks preserving
// replay dedup. The output declares its inputs via a 'C' record, so a
// crash anywhere in the sequence either keeps the inputs (output torn →
// discarded) or keeps the output (inputs stale → pruned at Open); never
// both, never neither. A compaction evicts nothing from memory: it
// folds only what the store has already let go.
//
// How long history lives is the store's decision alone. A pass deletes
// every segment the store serves nothing of any more (its Expired), and
// an output keeps no rollup bucket the store has expired (its
// RetentionCutoff, applied by the store's own rule through
// Folder.EvictBefore), so disk holds what the store serves and nothing
// older.

// CompactStats describes one compaction pass.
type CompactStats struct {
	Deleted    int   // segments removed by retention age
	Compacted  int   // segments folded into the rollup output
	RawBlocks  int   // raw blocks folded
	BytesFreed int64 // input bytes removed from disk
}

// Compact runs one retention + compaction pass against the given
// current time (µs). Safe to call concurrently with appends; passes
// themselves are serialized. The store Start attached decides the
// output's rollup widths and how long history lives, so a pass before
// Start is an error.
func (l *Log) Compact(now int64) (CompactStats, error) {
	var cs CompactStats
	if l.store == nil {
		return cs, fmt.Errorf("wal: Compact before Start")
	}
	// Write the sealed blocks still waiting first, so the segments the
	// selection weighs hold every block the store has sealed.
	l.persist()
	l.compactMu.Lock()
	defer l.compactMu.Unlock()
	expiry := l.expiry(now)

	// An active segment whose entire content the store has expired
	// would otherwise never become eligible — low-traffic servers might
	// not fill it for hours. Finalize it so the passes below can see it.
	var retired *segment
	l.segMu.Lock()
	if l.sw != nil && l.sw.size > int64(len(segMagic)) && l.sw.maxTS < expiry {
		retired = l.retireWriterLocked(true)
	}
	l.segMu.Unlock()
	l.remap(retired)

	// Retention: drop the segments the store serves nothing of — not
	// every segment older than its cutoff, since an older sample still
	// counts in a rollup bucket that has not ended. The store's own
	// sweep drops the same data from memory.
	var expired []*segment
	l.segMu.Lock()
	keep := l.segs[:0]
	for _, s := range l.segs {
		if l.store.Expired(s.maxTS, now) {
			expired = append(expired, s)
		} else {
			keep = append(keep, s)
		}
	}
	l.segs = append([]*segment(nil), keep...)
	l.segMu.Unlock()
	for _, s := range expired {
		cs.Deleted++
		cs.BytesFreed += s.size
		if err := os.Remove(s.path); err != nil {
			l.logger.Error("retention remove failed", "err", err, "path", s.path)
		}
	}

	// Selection: the longest prefix (in file-sequence order) of
	// segments holding no raw block the store still holds. Prefix-only
	// keeps the replaced-through invariant exact. The store is asked
	// under segMu (segMu → shard locks, as in persist).
	l.segMu.Lock()
	n := 0
	for n < len(l.segs) && !l.store.HoldsRaw(l.segs[n].blocks) {
		n++
	}
	// Outputs hold the oldest history, and a restart installs their
	// rollups in file order, dropping any bucket older than one already
	// installed. The new output is the newest file, so it must take in
	// every earlier output: until eviction brings the prefix there, the
	// pass waits.
	if slices.ContainsFunc(l.segs[n:], func(s *segment) bool { return !s.raw }) {
		n = 0
	}
	sel := slices.Clone(l.segs[:n])
	l.segMu.Unlock()
	anyRaw := false
	for _, s := range sel {
		anyRaw = anyRaw || s.raw
	}
	if len(sel) == 0 || (!anyRaw && len(sel) < 2) {
		// Nothing to fold, or re-writing a single rollup segment would
		// churn bytes without shrinking anything.
		return cs, nil
	}

	out, err := l.buildCompacted(sel, expiry)
	if err != nil {
		return cs, err
	}

	l.segMu.Lock()
	selSet := make(map[*segment]bool, len(sel))
	for _, s := range sel {
		selSet[s] = true
	}
	kept := make([]*segment, 0, len(l.segs))
	for _, s := range l.segs {
		if !selSet[s] {
			kept = append(kept, s)
		}
	}
	l.segs = append(kept, out)
	sortSegments(l.segs)
	l.segMu.Unlock()

	for _, s := range sel {
		cs.Compacted++
		cs.BytesFreed += s.size
		cs.RawBlocks += len(s.blocks)
		if err := os.Remove(s.path); err != nil {
			l.logger.Error("compacted input remove failed", "err", err, "path", s.path)
		}
	}
	cs.BytesFreed -= out.size
	l.compactions.Add(1)
	return cs, nil
}

// expiry is the store's retention cutoff as of now, or math.MinInt64
// when the store keeps history of any age.
func (l *Log) expiry(now int64) int64 {
	if cutoff, ok := l.store.RetentionCutoff(now); ok {
		return cutoff
	}
	return math.MinInt64
}

// buildCompacted folds the selected segments into one finalized
// rollup segment, returning it as loaded back from its file. Every raw
// sample is folded, since an expired sample may share a bucket with
// live ones; then the buckets the store has expired as of expiry are
// dropped, so an output holds what the store serves and expired
// history does not ride along from one output into the next.
func (l *Log) buildCompacted(sel []*segment, expiry int64) (*segment, error) {
	// The store's widths: compaction output matches its live levels.
	widths := l.store.RollupWidths()
	type perKey struct {
		folders map[int64]*tsdb.Folder
		water   uint64
	}
	acc := make(map[tsdb.SeriesKey]*perKey)
	keyOrder := []tsdb.SeriesKey{}
	at := func(key tsdb.SeriesKey) *perKey {
		pk := acc[key]
		if pk == nil {
			pk = &perKey{folders: make(map[int64]*tsdb.Folder, len(widths))}
			for _, w := range widths {
				pk.folders[w] = tsdb.NewFolder(w)
			}
			acc[key] = pk
			keyOrder = append(keyOrder, key)
		}
		return pk
	}
	// Prior rollup runs first (they hold the oldest data), then raw
	// blocks — segment order within each pass is time order per series.
	for _, s := range sel {
		for _, rr := range s.rollups {
			pk := at(rr.key)
			if f := pk.folders[rr.width]; f != nil {
				f.Install(rr.buckets)
			}
		}
		for _, w := range s.marks {
			pk := at(w.key)
			if w.seq > pk.water {
				pk.water = w.seq
			}
		}
	}
	for _, s := range sel {
		for _, sb := range s.blocks {
			pk := at(sb.Key)
			tsdb.IterBlock(sb.Buf, sb.N, func(ts, v int64) bool {
				for _, f := range pk.folders {
					f.Add(ts, v)
				}
				return true
			})
			if sb.LastSeq > pk.water {
				pk.water = sb.LastSeq
			}
		}
	}
	sort.Slice(keyOrder, func(i, j int) bool {
		a, b := keyOrder[i], keyOrder[j]
		if a.Session != b.Session {
			return a.Session < b.Session
		}
		return a.Event < b.Event
	})

	l.segMu.Lock()
	seq := l.nextSegSeq
	l.nextSegSeq++
	l.segMu.Unlock()
	w, err := l.createSegment(seq)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*segment, error) {
		w.f.Close()
		os.Remove(w.path)
		return nil, err
	}
	replacedThrough := sel[len(sel)-1].seq
	if err := w.writeRecord(appendCompactMeta(nil, replacedThrough)); err != nil {
		return fail(err)
	}
	const bucketsPerRecord = 4096
	for _, key := range keyOrder {
		pk := acc[key]
		for _, width := range widths {
			pk.folders[width].EvictBefore(expiry)
			buckets := pk.folders[width].Buckets()
			for len(buckets) > 0 {
				n := min(len(buckets), bucketsPerRecord)
				rec := rollupRecord{key: key, width: width, buckets: buckets[:n]}
				if err := w.writeRecord(appendRollup(nil, rec)); err != nil {
					return fail(err)
				}
				buckets = buckets[n:]
			}
		}
		if pk.water > 0 {
			if err := w.writeRecord(appendWatermark(nil, watermarkRecord{key: key, seq: pk.water})); err != nil {
				return fail(err)
			}
		}
	}
	if err := w.close(true); err != nil {
		os.Remove(w.path)
		return nil, err
	}
	out, err := loadSegment(w.path, seq)
	if err == nil && !out.finalized {
		// A restart would discard this output and keep its inputs; so
		// must the live log.
		err = fmt.Errorf("wal: %s: compaction output did not load whole", w.path)
	}
	if err != nil {
		os.Remove(w.path)
		return nil, err
	}
	return out, nil
}
