package tsdb

// Bucket is one pre-aggregated window of a series: the min/max/sum/
// count of the raw samples whose timestamps fall in
// [Start, Start+width), plus the last sample (cumulative counters are
// monotone, so Last is what rate computations want). Buckets are
// aligned to the absolute grid — Start is always a multiple of the
// level width — so coarser steps that are multiples of the width
// aggregate buckets exactly, with no partial overlap.
type Bucket struct {
	Start int64  `json:"start"` // window start, series time units (µs)
	Count uint64 `json:"count"`
	Min   int64  `json:"min"`
	Max   int64  `json:"max"`
	Sum   int64  `json:"sum"`
	Last  int64  `json:"last"`
}

// merge folds a raw sample into the bucket.
func (bk *Bucket) merge(v int64) {
	if bk.Count == 0 {
		bk.Min, bk.Max = v, v
	} else {
		if v < bk.Min {
			bk.Min = v
		}
		if v > bk.Max {
			bk.Max = v
		}
	}
	bk.Sum += v
	bk.Last = v
	bk.Count++
}

// mergeBucket folds a finer-grained bucket into a coarser one; callers
// guarantee other arrives in time order, so Last is simply overwritten.
func (bk *Bucket) mergeBucket(other Bucket) {
	if bk.Count == 0 {
		bk.Min, bk.Max = other.Min, other.Max
	} else {
		if other.Min < bk.Min {
			bk.Min = other.Min
		}
		if other.Max > bk.Max {
			bk.Max = other.Max
		}
	}
	bk.Sum += other.Sum
	bk.Last = other.Last
	bk.Count += other.Count
}

const bucketBytes = 48 // sizeof(Bucket), charged against the budget

// rollupLevel maintains one pre-computed downsampling resolution for a
// series: sealed buckets in time order plus the in-progress current
// bucket. Appends are O(1); a range query copies only the buckets it
// returns.
type rollupLevel struct {
	width   int64 // bucket width in series time units (µs)
	buckets []Bucket
	cur     Bucket
	curSet  bool
}

// append folds one raw sample into the level, sealing the current
// bucket when the sample crosses into a new window.
func (rl *rollupLevel) append(ts, v int64) {
	start := ts - mod(ts, rl.width)
	if rl.curSet && start != rl.cur.Start {
		rl.buckets = append(rl.buckets, rl.cur)
		rl.cur = Bucket{}
		rl.curSet = false
	}
	if !rl.curSet {
		rl.cur = Bucket{Start: start}
		rl.curSet = true
	}
	rl.cur.merge(v)
}

// install pre-populates the level with persisted buckets (replay of a
// compacted rollup segment). Buckets arrive in time order and strictly
// precede any raw sample folded afterwards, except that the newest
// installed bucket may share its window with samples still to come —
// so it becomes the in-progress bucket, and a boundary window split
// across a compaction edge reassembles exactly. A bucket landing on
// the current window merges (two compactions may split one window).
func (rl *rollupLevel) install(buckets []Bucket) {
	for _, bk := range buckets {
		switch {
		case rl.curSet && bk.Start == rl.cur.Start:
			rl.cur.mergeBucket(bk)
		case rl.curSet && bk.Start > rl.cur.Start:
			rl.buckets = append(rl.buckets, rl.cur)
			rl.cur = bk
		case rl.curSet:
			// Out of order — persisted state predates the current
			// window. Drop rather than corrupt the time order.
		default:
			rl.cur, rl.curSet = bk, true
		}
	}
}

// snapshotRange copies the level's buckets overlapping [from, to),
// including the in-progress one.
func (rl *rollupLevel) snapshotRange(from, to int64) []Bucket {
	// Binary search would work; levels hold few buckets relative to raw
	// samples, and the scan is branch-predictable, so keep it simple.
	var out []Bucket
	for _, bk := range rl.buckets {
		if bk.Start+rl.width <= from {
			continue
		}
		if bk.Start >= to {
			break
		}
		out = append(out, bk)
	}
	if rl.curSet && rl.cur.Start+rl.width > from && rl.cur.Start < to {
		out = append(out, rl.cur)
	}
	return out
}

// bytes is the level's budget charge.
func (rl *rollupLevel) bytes() int64 {
	return int64(cap(rl.buckets)+1) * bucketBytes
}

// bucketEnded is retention's rule for a rollup bucket: it expires once
// its window ends at or before the cutoff.
func bucketEnded(start, width, cutoff int64) bool { return start+width <= cutoff }

// evictBefore drops buckets whose window ends at or before cutoff,
// returning how many were dropped. That takes the in-progress bucket
// too once its window has ended: a series with nothing newer is
// expired whole, and a compaction output must not carry it forever.
func (rl *rollupLevel) evictBefore(cutoff int64) int {
	i := 0
	for i < len(rl.buckets) && bucketEnded(rl.buckets[i].Start, rl.width, cutoff) {
		i++
	}
	n := i
	if i == len(rl.buckets) && rl.curSet && bucketEnded(rl.cur.Start, rl.width, cutoff) {
		rl.cur, rl.curSet = Bucket{}, false
		n++
	}
	if i > 0 {
		rl.buckets = append(rl.buckets[:0:0], rl.buckets[i:]...)
	}
	return n
}
