package tsdb

import "sync/atomic"

// series holds one (session, event) stream: an active append block,
// the time-ordered ring of sealed blocks behind it, and one rollupLevel
// per configured resolution. It lives in its session's entry
// (sessionSeries, tsdb.go), beside the session's other series and
// under the one shard lock that guards them all: a tick row is
// appended to every series it touches, and a Query captures every
// series it reads, under a single hold of that lock. Sealed blocks, and
// the prefix of the active block a Query captures, are immutable and
// safe to decode after the lock is released.
type series struct {
	key     SeriesKey
	active  *block
	sealed  []*block
	levels  []rollupLevel
	lastTS  int64
	samples uint64
}

func newSeries(key SeriesKey, widths []int64) *series {
	sr := &series{key: key, levels: make([]rollupLevel, len(widths))}
	for i, w := range widths {
		sr.levels[i].width = w
	}
	return sr
}

// append adds one sample, sealing the active block at blockSamples. It
// returns the change in the series' budget charge and, when this
// sample filled the active block, the newly sealed block. Timestamps
// are monotonized: a sample older than the last one is clamped
// forward, so a clock step backwards degrades resolution instead of
// corrupting the delta chain.
func (sr *series) append(ts, v int64, blockSamples int, seq uint64) (deltaBytes int64, sealed *block) {
	if sr.samples > 0 && ts < sr.lastTS {
		ts = sr.lastTS
	}
	before := sr.mutableBytes()
	if sr.active == nil {
		sr.active = &block{firstSeq: seq, memo: new(atomic.Pointer[foldMemo])}
	}
	sr.active.appendSample(ts, v)
	sr.active.lastSeq = max(sr.active.lastSeq, seq)
	if sr.active.n >= blockSamples {
		sealed = sr.seal()
	}
	for i := range sr.levels {
		sr.levels[i].append(ts, v)
	}
	sr.lastTS = ts
	sr.samples++
	deltaBytes = sr.mutableBytes() - before
	if sealed != nil {
		deltaBytes += sealed.bytes() // left the mutable part, still charged
	}
	return deltaBytes, sealed
}

// seal moves the active block to the end of the sealed ring, where it
// waits, unpersisted, for the storage layer's next pass (Unpersisted),
// and returns it. The budget charge is unchanged.
func (sr *series) seal() *block {
	b := sr.active
	sr.sealed = append(sr.sealed, b)
	sr.active = nil
	return b
}

// unpersisted returns the sealed blocks no storage pass has written, in
// ring order. They are the ring's tail: a pass persists each series'
// blocks oldest first and stops at the first it cannot write, and
// blocks leave the ring only from its front, so the walk from the back
// costs the blocks waiting, not the ones on disk.
func (sr *series) unpersisted() []*block {
	i := len(sr.sealed)
	for i > 0 && !sr.sealed[i-1].persisted {
		i--
	}
	return sr.sealed[i:]
}

// mutableBytes is the budget charge of the parts an append can grow:
// the active block and the rollup levels. Budget deltas are taken
// around it, so their cost does not depend on how many sealed blocks
// the series retains.
func (sr *series) mutableBytes() int64 {
	var n int64
	if sr.active != nil {
		n += sr.active.bytes()
	}
	for i := range sr.levels {
		n += sr.levels[i].bytes()
	}
	return n
}

// bytes is the series' total budget charge, recounted from scratch.
func (sr *series) bytes() int64 {
	n := sr.mutableBytes()
	for _, b := range sr.sealed {
		n += b.bytes()
	}
	return n
}

// oldestSealedTS returns the minimum timestamp of the oldest sealed
// block, or ok=false when none exists.
func (sr *series) oldestSealedTS() (int64, bool) {
	if len(sr.sealed) == 0 {
		return 0, false
	}
	return sr.sealed[0].minTS, true
}

// evictOldestSealed drops the oldest sealed block, returning the bytes
// freed.
func (sr *series) evictOldestSealed() int64 {
	if len(sr.sealed) == 0 {
		return 0
	}
	freed := sr.sealed[0].bytes()
	sr.sealed = append(sr.sealed[:0:0], sr.sealed[1:]...)
	return freed
}

// evictExpired drops raw blocks and rollup buckets that end at or
// before cutoff. It returns bytes freed and the number of eviction
// events (each dropped block, and each level that lost buckets).
func (sr *series) evictExpired(cutoff int64) (freed int64, events uint64) {
	for len(sr.sealed) > 0 && sr.sealed[0].maxTS < cutoff {
		freed += sr.evictOldestSealed()
		events++
	}
	for i := range sr.levels {
		before := sr.levels[i].bytes()
		if sr.levels[i].evictBefore(cutoff) > 0 {
			freed += before - sr.levels[i].bytes()
			events++
		}
	}
	return freed, events
}
