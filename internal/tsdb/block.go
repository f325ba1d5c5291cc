package tsdb

import "encoding/binary"

// block is one append-only compressed run of (timestamp, value) samples
// for a single series. The layout is Gorilla-inspired, adapted to
// integer counters:
//
//   - timestamps: the first is a zigzag varint, the second a zigzag
//     varint delta, and every later one a zigzag varint
//     delta-of-delta — ticks arrive at a near-constant period, so the
//     double delta is almost always 0 or ±1 and costs one byte;
//   - values: the first is a zigzag varint, the second a zigzag varint
//     delta, and every later one a zigzag varint delta-of-delta — the
//     integer analogue of Gorilla's XOR float packing. Cumulative
//     counters grow by a near-constant amount per tick, so the double
//     delta is again small.
//
// Beside the encoding a block keeps the aggregate of its values: min,
// max and sum here, with n as the count and lastV as the last. A step
// query folds a block that lies inside one window of its range from
// that summary instead of decoding it (capture.fold). The summary is
// exact: an integer sum wraps the same way in any order, and min, max
// and the last value need only the time order the samples arrive in.
// It is not encoded — a block read back from disk recomputes it
// (InstallSealed). It adds 24 bytes to the block struct; blockOverhead,
// an approximation, does not change, so every budget keeps the blocks
// it kept.
//
// A block is mutable only through append; once sealed (capacity
// reached) it is immutable and may be read without any lock by anyone
// holding a reference.
type block struct {
	buf []byte
	n   int // samples encoded

	minTS, maxTS int64 // inclusive sample time range

	// persisted marks a sealed block known to exist on disk — its
	// segment write succeeded (MarkPersisted) or it was installed from
	// a segment at replay. Until it is, the WAL keeps its rows.
	persisted bool

	// firstSeq and lastSeq are the WAL row sequences of the block's
	// first and newest samples (0 without a durability layer). Until the
	// block is persisted, the WAL must keep every row from firstSeq on
	// (Store.OldestUnpersisted); once it is, replay skips the series'
	// rows up to lastSeq. Both are the block's own: lastSeq stops moving
	// when the block seals, whatever the series appends next.
	firstSeq, lastSeq uint64

	// Encoder state for the next append; lastV is also the summary's
	// last value.
	lastTS, lastTSDelta int64
	lastV, lastVDelta   int64

	// The summary of the samples' values.
	min, max, sum int64
}

// appendSample encodes one sample. Timestamps must be non-decreasing;
// the caller (series.append) enforces ordering.
func (b *block) appendSample(ts, v int64) {
	switch b.n {
	case 0:
		b.buf = appendZigzag(b.buf, ts)
		b.buf = appendZigzag(b.buf, v)
		b.minTS = ts
		b.min, b.max = v, v
	case 1:
		b.lastTSDelta = ts - b.lastTS
		b.lastVDelta = v - b.lastV
		b.buf = appendZigzag(b.buf, b.lastTSDelta)
		b.buf = appendZigzag(b.buf, b.lastVDelta)
	default:
		tsDelta := ts - b.lastTS
		vDelta := v - b.lastV
		b.buf = appendZigzag(b.buf, tsDelta-b.lastTSDelta)
		b.buf = appendZigzag(b.buf, vDelta-b.lastVDelta)
		b.lastTSDelta = tsDelta
		b.lastVDelta = vDelta
	}
	b.lastTS, b.lastV = ts, v
	b.maxTS = ts
	b.min, b.max = min(b.min, v), max(b.max, v)
	b.sum += v
	b.n++
}

// summary is the block's samples folded into one bucket, as merging
// each of them in time order would fold them; Start is left 0.
func (b *block) summary() Bucket {
	return Bucket{Count: uint64(b.n), Min: b.min, Max: b.max, Sum: b.sum, Last: b.lastV}
}

// inWindow reports whether every sample of b lies in [from, to) and in
// one step window, so that folding b's summary into that window is
// folding its samples. Windows are floor-aligned, as Query aligns them.
func (b *block) inWindow(from, to, step int64) bool {
	return b.minTS >= from && b.maxTS < to &&
		b.minTS-mod(b.minTS, step) == b.maxTS-mod(b.maxTS, step)
}

// bytes reports the block's charge against the store's budget: its
// encoded length plus the fixed overhead, one price whether the block
// was appended live or installed at replay, so a live store and one
// replayed from disk fit the same blocks.
func (b *block) bytes() int64 {
	return int64(len(b.buf)) + blockOverhead
}

// blockOverhead approximates the fixed per-block header cost (struct
// fields + slice header) charged against the memory budget.
const blockOverhead = 96

// blockIter decodes a block sequentially. Decoding state mirrors the
// encoder exactly; a sealed block can be iterated concurrently by any
// number of iterators.
type blockIter struct {
	buf []byte
	n   int // samples remaining
	i   int // decoded so far

	ts, tsDelta int64
	v, vDelta   int64
}

func (b *block) iter() blockIter {
	return blockIter{buf: b.buf, n: b.n}
}

// next returns the next sample; ok is false when the block is
// exhausted, or when its bytes run out or hold an overlong varint —
// IterBlock is fed segment bytes read back from disk, so corrupt input
// must end the iteration, not panic or invent samples.
func (it *blockIter) next() (ts, v int64, ok bool) {
	if it.i >= it.n {
		return 0, 0, false
	}
	switch it.i {
	case 0:
		it.ts = it.readZigzag()
		it.v = it.readZigzag()
	case 1:
		it.tsDelta = it.readZigzag()
		it.vDelta = it.readZigzag()
		it.ts += it.tsDelta
		it.v += it.vDelta
	default:
		it.tsDelta += it.readZigzag()
		it.vDelta += it.readZigzag()
		it.ts += it.tsDelta
		it.v += it.vDelta
	}
	if it.n == 0 { // readZigzag hit bad bytes
		return 0, 0, false
	}
	it.i++
	return it.ts, it.v, true
}

// readZigzag decodes one varint. On a truncated buffer (n == 0) or an
// overlong varint (n < 0) it stops the iterator by zeroing it.n.
func (it *blockIter) readZigzag() int64 {
	u, n := binary.Uvarint(it.buf)
	if n <= 0 {
		it.n = 0
		return 0
	}
	it.buf = it.buf[n:]
	return unzigzag(u)
}

func appendZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, zigzag(v))
}

// IterBlock decodes a delta-of-delta encoded block buffer (the exact
// bytes a sealed block holds and the wal layer persists verbatim) and
// calls yield for each of the n samples in time order, stopping early
// if yield returns false. It is the exported twin of blockIter for the
// durability layer, which re-folds persisted blocks into rollups at
// replay and compaction time.
func IterBlock(buf []byte, n int, yield func(ts, v int64) bool) {
	it := blockIter{buf: buf, n: n}
	for {
		ts, v, ok := it.next()
		if !ok || !yield(ts, v) {
			return
		}
	}
}

// zigzag maps signed to unsigned so small negatives stay small on the
// varint wire: 0,-1,1,-2,2 → 0,1,2,3,4.
func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
