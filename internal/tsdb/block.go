package tsdb

import (
	"encoding/binary"
	"math"
	"sync/atomic"
)

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
// A block is mutable only through appendSample, and appendSample only
// ever appends: no write touches buf below its current length. So the
// prefix buf[:len:len], taken under the shard lock with the n, bounds
// and summary beside it, is an immutable block of its own. A Query
// captures the active block that way, sharing its bytes instead of
// copying them (series.capture); the capped capacity keeps any append
// to the prefix from writing into the live buffer, and the writer's
// next append either writes past the prefix or moves to a new array.
// Once sealed (capacity reached) the whole block is immutable and may
// be read without any lock by anyone holding a reference.
//
// The same argument makes a fold of a block's first samples final: no
// append changes them, so their step windows can be kept and reused
// (foldMemo). memo points at the block's one memo slot, which the live
// block and every prefix a Query captures of it share.
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

	// memo holds the block's last step fold (foldMemo), or nil before
	// the first. Every block the store holds has the slot.
	memo *atomic.Pointer[foldMemo]
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

// inWindow reports whether b holds samples, every one of them in
// [from, to) and in one step window, so that folding b's summary into
// that window is folding its samples. (A block replay read back from
// damaged bytes may hold none.) Windows are floor-aligned, as Query
// aligns them.
func (b *block) inWindow(from, to, step int64) bool {
	return b.n > 0 && b.minTS >= from && b.maxTS < to &&
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

func appendZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, zigzag(v))
}

// fold is the store's one block decoder and the sink it decodes into.
// block decodes a block's samples in one loop and hands each to one of
// three sinks:
//
//   - yield, when given: every sample, in the order it decodes
//     (IterBlock, which replay's summary rebuild and compaction's
//     re-fold run on);
//   - step 0: each sample in [from, to) appended to out as a raw bucket;
//   - step > 0: each sample in [from, to) merged in place into its step
//     window: the open window, which is out's last bucket, or a new one
//     opened after it.
//
// For a step, from and to lie on the step grid (Query.grid), so a sample
// inside the open window is inside the range. A window opens whenever
// a sample falls outside the open one, earlier or later, so the fold
// gives what merging the samples one at a time would give, in whatever
// order they decode. A Query fills out with windows and raw buckets
// only, so what it allocates follows what it returns, not the samples
// it decodes.
type fold struct {
	from, to, step int64
	out            []Bucket
	start, end     int64 // the open window [start, end); empty until one opens
}

// cursor is where the decoder stands in a block: the index and byte
// offset of the next sample, and the delta chain as the sample before
// it left it. The zero cursor is the block's start.
type cursor struct {
	i, p                   int
	ts, tsDelta, v, vDelta int64
}

// block decodes samples c.i to n-1 of buf, the first of them c.p
// bytes in, into yield, or into f's buckets when yield is nil; the zero
// cursor decodes the whole block, and a cursor block returned resumes
// where it stopped. (yield is a parameter, not a field, so that a
// closure handed to IterBlock stays on its caller's stack.) Bytes that
// run out or hold an overlong varint end the block, as if it held only
// the samples before them; the caller goes on with its next block.
// block returns the cursor after the last sample it decoded — at n
// unless the bytes ended first or yield asked to stop — and reports
// false when yield asked to stop. It is the store's one decode loop:
// short varints, the one- and two-byte forms a steady counter stream is
// made of, are decoded inline, and longer ones go through
// binary.Uvarint.
func (f *fold) block(buf []byte, n int, c cursor, yield func(ts, v int64) bool) (cursor, bool) {
	out, start, end, step := f.out, f.start, f.end, f.step
	ts, tsDelta, v, vDelta := c.ts, c.tsDelta, c.v, c.vDelta
	i, p, more := c.i, c.p, true
samples:
	for ; i < n; i++ {
		var d [2]int64 // the sample's time and value fields
		for k := range d {
			var u uint64
			switch {
			case p < len(buf) && buf[p] < 0x80:
				u = uint64(buf[p])
				p++
			case p+1 < len(buf) && buf[p+1] < 0x80:
				u = uint64(buf[p]&0x7f) | uint64(buf[p+1])<<7
				p += 2
			default:
				var m int
				if u, m = binary.Uvarint(buf[p:]); m <= 0 {
					break samples
				}
				p += m
			}
			d[k] = unzigzag(u)
		}
		if i == 0 {
			ts, v = d[0], d[1]
		} else {
			tsDelta += d[0]
			vDelta += d[1]
			ts += tsDelta
			v += vDelta
		}
		switch {
		case ts >= start && ts < end:
			bk := &out[len(out)-1]
			bk.Min, bk.Max = min(bk.Min, v), max(bk.Max, v)
			bk.Sum += v
			bk.Last = v
			bk.Count++
		case yield != nil:
			if !yield(ts, v) {
				more = false
				break samples
			}
		case ts < f.from || ts >= f.to:
		default:
			w := ts
			if step > 0 {
				start, end = window(ts, step)
				w = start
			}
			out = append(out, Bucket{Start: w, Count: 1, Min: v, Max: v, Sum: v, Last: v})
		}
	}
	f.out, f.start, f.end = out, start, end
	return cursor{i: i, p: p, ts: ts, tsDelta: tsDelta, v: v, vDelta: vDelta}, more
}

// summary folds b whole from its value summary into the step window
// holding it; b.inWindow(f.from, f.to, f.step) must hold.
func (f *fold) summary(b *block) { f.merge(b.minTS, b.summary()) }

// merge folds bk, whose samples lie in the step window holding ts, into
// that window: the open one, or a new one opened after it.
func (f *fold) merge(ts int64, bk Bucket) {
	if ts < f.start || ts >= f.end {
		f.start, f.end = window(ts, f.step)
		f.out = append(f.out, Bucket{Start: f.start})
	}
	f.out[len(f.out)-1].mergeBucket(bk)
}

// foldMemo is a block's first at.i samples folded into the windows of
// one step on the unbounded grid, as a fold with no range bounds folds
// them, and the decoder's cursor after them. No append changes those
// samples (block), so the memo stays exact for as long as its block
// lives: it is published whole through the block's memo slot, never
// written after, and dropped with the block. A raw step fold takes a
// memoized block's windows instead of decoding it, and decodes on from
// the memo's cursor when the block (the active one) has grown since
// (fold.memo).
type foldMemo struct {
	step int64
	at   cursor
	out  []Bucket // time order, each Start on the step grid
}

// memoWindows reports how many windows of step b's samples span, the
// most buckets a memo of b at step holds, and whether b may keep such a
// memo: it has samples, and those windows cost no more than the encoded
// bytes they stand for, so memos never hold more than the blocks they
// fold. A block whose first window would start below the beginning of
// time is not memoized.
func (b *block) memoWindows(step int64) (int, bool) {
	lo := b.minTS - mod(b.minTS, step)
	if b.n == 0 || lo > b.minTS {
		return 0, false
	}
	w := (uint64(b.maxTS)-uint64(lo))/uint64(step) + 1
	if w > uint64(len(b.buf))/bucketBytes {
		return 0, false
	}
	return int(w), true
}

// memoBytes is what b's memo holds, its windows' bytes.
func (b *block) memoBytes() int64 {
	if m := b.memo.Load(); m != nil {
		return int64(cap(m.out)) * bucketBytes
	}
	return 0
}

// memo folds b into f through b's memo: the memo's windows that lie in
// f's range, merged as decoding their samples would merge them, after
// the samples b holds past the memo are decoded into them. A memo at
// another step, or of more samples than b holds (published by a Query
// that captured more of the active block), is not used, and b is
// decoded whole. What was decoded becomes b's memo, unless another
// Query published one meanwhile or b holds fewer samples than its
// memo. f's from and to must lie on its step grid (to may be
// math.MaxInt64), so every window lies wholly inside the range or
// wholly outside it, and b.memoWindows(f.step) must hold, giving
// windows. memo reports whether a memo was used and how many samples it
// decoded.
func (f *fold) memo(b *block, windows int) (hit bool, decoded int) {
	old := b.memo.Load()
	hit = old != nil && old.step == f.step && old.at.i <= b.n
	if hit && old.at.i == b.n {
		f.windows(old.out)
		return true, 0
	}
	g := fold{from: math.MinInt64, to: math.MaxInt64, step: f.step, out: make([]Bucket, 0, windows)}
	var at cursor
	if hit {
		g.out = append(g.out, old.out...)
		if len(g.out) > 0 {
			g.start, g.end = window(g.out[len(g.out)-1].Start, f.step)
		}
		at = old.at
	}
	end, _ := g.block(b.buf, b.n, at, nil)
	decoded = end.i - at.i
	if end.i < b.n || !ascending(g.out) {
		// Bytes that end early, or samples out of time order: a damaged
		// block read back from disk. Fold it as if it had no memo.
		end, _ = f.block(b.buf, b.n, cursor{}, nil)
		return hit, decoded + end.i
	}
	if old == nil || old.at.i <= b.n {
		b.memo.CompareAndSwap(old, &foldMemo{step: f.step, at: end, out: g.out})
	}
	f.windows(g.out)
	return hit, decoded
}

// windows folds the windows of a memo that lie in f's range into f.
func (f *fold) windows(ws []Bucket) {
	for _, w := range ws {
		if w.Start >= f.from && w.Start < f.to {
			f.merge(w.Start, w)
		}
	}
}

// ascending reports whether the windows' starts strictly increase, as
// the windows of samples in time order do.
func ascending(ws []Bucket) bool {
	for i := 1; i < len(ws); i++ {
		if ws[i].Start <= ws[i-1].Start {
			return false
		}
	}
	return true
}

// window returns the bounds of the step window holding ts; the end is
// math.MaxInt64 when the window runs past the end of time, since every
// sample folded is below a range's end.
func window(ts, step int64) (start, end int64) {
	start = ts - mod(ts, step)
	end = start + step
	if end < start {
		end = math.MaxInt64
	}
	return start, end
}

// IterBlock decodes a delta-of-delta encoded block buffer (the exact
// bytes a sealed block holds and the wal layer persists verbatim) and
// calls yield for each of the n samples in time order, stopping early
// if yield returns false. The durability layer re-folds persisted
// blocks into rollups with it at replay and compaction time. It runs on
// the store's one decoder (fold.block), so bytes read back from disk
// that run out or hold an overlong varint end the iteration; they
// never panic or invent samples.
func IterBlock(buf []byte, n int, yield func(ts, v int64) bool) {
	var f fold
	f.block(buf, n, cursor{}, yield)
}

// zigzag maps signed to unsigned so small negatives stay small on the
// varint wire: 0,-1,1,-2,2 → 0,1,2,3,4.
func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
