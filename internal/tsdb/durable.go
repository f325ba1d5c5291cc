package tsdb

import (
	"bytes"
	"math"
	"slices"
)

// This file is the store's durability surface: the persist queue a
// persistence layer (internal/tsdb/wal) drains, and the ingestion APIs
// replay uses to rebuild in-memory state from disk. The store itself
// stays storage-agnostic — it holds every sealed block until one is
// written (Unpersisted), answers which of its samples are not yet on
// disk, and accepts reconstructed blocks and rollup buckets; everything
// about files, fsync and mmap lives in the layer that pulls.

// SealedBlock is one immutable sealed block handed to the storage
// layer (and handed back at replay): the delta-of-delta encoded buffer
// exactly as the in-memory block holds it, which is also exactly what
// goes on disk — sealing persists bytes, it never re-encodes.
type SealedBlock struct {
	Key          SeriesKey
	Buf          []byte // delta-of-delta encoding, immutable
	N            int    // samples encoded
	MinTS, MaxTS int64  // inclusive sample time range
	// LastSeq is the WAL row sequence of the newest sample the block
	// covers (0 without a durability layer). Replay skips WAL rows at
	// or below a series' highest persisted LastSeq — they are already
	// inside sealed segments.
	LastSeq uint64

	b *block // the store's block, for MarkPersisted; nil once read back from disk
}

func sealedBlockOf(key SeriesKey, b *block) SealedBlock {
	return SealedBlock{Key: key, Buf: b.buf[:len(b.buf):len(b.buf)], N: b.n,
		MinTS: b.minTS, MaxTS: b.maxTS, LastSeq: b.lastSeq, b: b}
}

// SealAllActive seals every non-empty active block. It is the
// graceful-shutdown flush: once the storage layer has written them
// (Unpersisted, MarkPersisted) and synced, every sample the store holds
// is inside a sealed, persisted block and a restart replays no WAL at
// all.
func (s *Store) SealAllActive() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, e := range sh.m {
			for _, sr := range e.series {
				if sr.active != nil && sr.active.n > 0 {
					sr.seal()
				}
			}
		}
		sh.mu.Unlock()
	}
}

// Unpersisted is the store's persist queue: every sealed block not yet
// marked persisted, each series' oldest first. A storage layer writes
// them in that order and marks each one it wrote (MarkPersisted); at
// the first write that fails it stops, so the block and every newer
// block of its series stay queued for its next pass, and a series'
// persisted blocks stay a gap-free prefix — what lets replay treat its
// newest persisted LastSeq as a watermark. The store keeps a queued
// block until it is written or evicted; nothing caps the queue.
func (s *Store) Unpersisted() []SealedBlock {
	var out []SealedBlock
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, e := range sh.m {
			for _, sr := range e.series {
				for _, b := range sr.unpersisted() {
					out = append(out, sealedBlockOf(sr.key, b))
				}
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

// MarkPersisted records that sb, as Unpersisted handed it out, is on
// disk: the block it was taken from is marked — by identity, not by
// what it holds — so truncation may let its WAL rows go. A block
// evicted since is marked harmlessly.
func (s *Store) MarkPersisted(sb SealedBlock) {
	if sb.b == nil {
		return
	}
	sh := s.shardFor(sb.Key.Session)
	sh.mu.Lock()
	sb.b.persisted = true
	sh.mu.Unlock()
}

// InstallSealed inserts a persisted sealed block during replay. Blocks
// of one series must arrive in time order. mapped marks a buffer that
// aliases a memory-mapped segment file, which is never written. The
// block's samples are folded into the series' rollup levels as live
// appends would have folded them, and its value summary is rebuilt.
func (s *Store) InstallSealed(sb SealedBlock, mapped bool) {
	sh := s.shardFor(sb.Key.Session)
	sh.mu.Lock()
	sr := s.seriesFor(sh.entryFor(sb.Key.Session), sb.Key)
	before := sr.mutableBytes()
	// Replay installs only blocks read back from segment files, so by
	// construction every installed block is persisted.
	b := &block{buf: sb.Buf, n: sb.N, minTS: sb.MinTS, maxTS: sb.MaxTS, mapped: mapped, persisted: true, lastSeq: sb.LastSeq,
		min: math.MaxInt64, max: math.MinInt64}
	sr.sealed = append(sr.sealed, b)
	sr.samples += uint64(sb.N)
	if sb.MaxTS > sr.lastTS {
		sr.lastTS = sb.MaxTS
	}
	// The one decode pass folds the rollups and rebuilds the block's
	// value summary, which segments do not store.
	IterBlock(sb.Buf, sb.N, func(ts, v int64) bool {
		for i := range sr.levels {
			sr.levels[i].append(ts, v)
		}
		b.min, b.max, b.sum, b.lastV = min(b.min, v), max(b.max, v), b.sum+v, v
		return true
	})
	delta := b.bytes() + sr.mutableBytes() - before
	sh.mu.Unlock()
	s.samples.Add(uint64(sb.N))
	s.bytes.Add(delta)
}

// InstallRow re-appends a journaled row during replay: AppendBatchSeq
// without the byte budget, which replay applies once, after its
// retention sweep (EnforceBudget), as it does to installed blocks.
// Applied row by row, it would let rows the sweep is about to expire
// push out blocks the live store kept.
func (s *Store) InstallRow(session uint64, ts int64, events []string, vals []int64, seq uint64) {
	s.appendRow(session, ts, events, vals, seq)
}

// InstallRollup pre-populates one rollup level with persisted buckets
// during replay (the product of segment compaction). Buckets must be
// in time order and older than any raw sample folded afterwards. It
// reports false when the store has no level of that width — persisted
// rollups of a width no longer configured are skipped, not misfiled.
func (s *Store) InstallRollup(key SeriesKey, width int64, buckets []Bucket) bool {
	if len(buckets) == 0 {
		return true
	}
	// The width is looked up before the series: a run nobody can file
	// must not leave an empty series behind.
	i := slices.Index(s.widths, width)
	if i < 0 {
		return false
	}
	sh := s.shardFor(key.Session)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sr := s.seriesFor(sh.entryFor(key.Session), key)
	lv := &sr.levels[i]
	before := lv.bytes()
	lv.install(buckets)
	if last := buckets[len(buckets)-1]; last.Start > sr.lastTS {
		// Rollup-only history still positions the series in time so
		// retention sweeps age it correctly.
		sr.lastTS = last.Start
	}
	s.bytes.Add(lv.bytes() - before)
	return true
}

// Remap swaps a sealed block's heap buffer for a memory-mapped one
// holding identical bytes — the storage layer calls it after a segment
// file is finalized and mapped, releasing the heap copy. The budget
// charge does not change: a block costs the same mapped or not. The
// block is matched by (minTS, n) and verified byte-equal; a block already
// evicted, already mapped, not matching, or not persisted (a file holds
// only persisted blocks, and a queued one's identity must hold until
// MarkPersisted) is left alone.
func (s *Store) Remap(key SeriesKey, minTS int64, n int, buf []byte) bool {
	sh := s.shardFor(key.Session)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sr := sh.lookup(key)
	if sr == nil {
		return false
	}
	for i, b := range sr.sealed {
		if b.mapped || !b.persisted || b.minTS != minTS || b.n != n || !bytes.Equal(b.buf, buf) {
			continue
		}
		// A sealed block is immutable — a Query may be decoding it with
		// no lock held — so the mapped bytes go into a new block, value
		// summary and all, that takes its place in the ring.
		mapped := *b
		mapped.buf, mapped.mapped = buf, true
		sr.sealed[i] = &mapped
		return true
	}
	return false
}

// OldestUnpersisted returns the WAL row sequence of the oldest sample
// the store holds outside a persisted block — the first sequence of an
// active block, or of a sealed block whose segment write has not
// succeeded — or 0 when every sample it holds is on disk (or came with
// sequence 0, from no durability layer). A WAL file whose rows are all
// older holds nothing the store still needs it for: each of its
// samples is in a persisted block, or the store no longer serves it.
func (s *Store) OldestUnpersisted() uint64 {
	var oldest uint64
	note := func(b *block) {
		if b.firstSeq != 0 && (oldest == 0 || b.firstSeq < oldest) {
			oldest = b.firstSeq
		}
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, e := range sh.m {
			for _, sr := range e.series {
				// A series' sequences rise block by block, so its first
				// unpersisted block holds its oldest such sample.
				if j := slices.IndexFunc(sr.sealed, func(b *block) bool { return !b.persisted }); j >= 0 {
					note(sr.sealed[j])
				} else if sr.active != nil {
					note(sr.active)
				}
			}
		}
		sh.mu.RUnlock()
	}
	return oldest
}

// HoldsRaw reports whether the store still serves any of blocks raw,
// blocks as a segment read back from disk holds them. A series' sealed
// ring is oldest first and leaves only from its front, so a block is
// gone once its series holds no sealed block, or its oldest sealed
// block ends at a later row sequence than the block does — sequences,
// not timestamps, since many rows can share one. A gone block never
// comes back: a storage layer may fold the segment into rollups.
func (s *Store) HoldsRaw(blocks []SealedBlock) bool {
	for _, sb := range blocks {
		sh := s.shardFor(sb.Key.Session)
		sh.mu.RLock()
		sr := sh.lookup(sb.Key)
		held := sr != nil && len(sr.sealed) > 0 && sr.sealed[0].lastSeq <= sb.LastSeq
		sh.mu.RUnlock()
		if held {
			return true
		}
	}
	return false
}

// EnforceBudget applies the byte budget once — replay calls it after
// bulk installs instead of checking per block.
func (s *Store) EnforceBudget() {
	if s.bytes.Load() > s.cfg.MaxBytes {
		s.evictToBudget()
	}
}

// RollupWidths returns the configured rollup bucket widths in µs,
// coarsest last — the resolutions a compacting storage layer must
// reproduce.
func (s *Store) RollupWidths() []int64 {
	return append([]int64(nil), s.widths...)
}

// RetentionCutoff returns where Sweep(now) cuts history: raw blocks
// whose newest sample is older than cutoff, and rollup buckets whose
// window ends at or before it, are expired. ok is false when the store
// has no age limit.
func (s *Store) RetentionCutoff(now int64) (cutoff int64, ok bool) {
	return now - s.cfg.MaxAge.Microseconds(), s.cfg.MaxAge > 0
}

// Expired reports whether Sweep(now) leaves nothing of a sample at ts
// in any view: it is older than RetentionCutoff, and the bucket it
// falls in has ended by then at every rollup width. A storage layer
// may delete a file once its newest sample is expired, and not before:
// an older sample still counts in a bucket that has not ended.
func (s *Store) Expired(ts, now int64) bool {
	cutoff, ok := s.RetentionCutoff(now)
	expired := ok && ts < cutoff
	for _, w := range s.widths {
		expired = expired && bucketEnded(ts-mod(ts, w), w, cutoff)
	}
	return expired
}

// Folder incrementally folds time-ordered raw samples into
// grid-aligned buckets of one width — the same arithmetic the store's
// rollup levels apply on the hot path, exported so compaction produces
// buckets that are bit-identical to what replaying the raw samples
// would have built.
type Folder struct {
	level rollupLevel
}

// NewFolder returns a Folder producing width-µs buckets.
func NewFolder(width int64) *Folder {
	return &Folder{level: rollupLevel{width: width}}
}

// Add folds one sample; samples must arrive in non-decreasing time
// order.
func (f *Folder) Add(ts, v int64) { f.level.append(ts, v) }

// Install seeds the folder with already-folded buckets (the rollup
// runs of an earlier compaction) before newer runs or raw samples are
// added — the same continuation logic replay applies live.
func (f *Folder) Install(buckets []Bucket) { f.level.install(buckets) }

// EvictBefore drops every bucket folded so far whose window ends at or
// before cutoff — the rule the store's retention applies to its own
// rollup levels, so a compaction output keeps exactly what the store
// still serves.
func (f *Folder) EvictBefore(cutoff int64) { f.level.evictBefore(cutoff) }

// Buckets returns every bucket folded so far, including the partial
// trailing one.
func (f *Folder) Buckets() []Bucket {
	out := append([]Bucket(nil), f.level.buckets...)
	if f.level.curSet {
		out = append(out, f.level.cur)
	}
	return out
}
