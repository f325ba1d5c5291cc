package tsdb

import (
	"math"
	"slices"
	"sort"
	"time"
)

// Query selects a downsampled range of one session's series.
//
// Window semantics: the output is a sequence of buckets on the
// absolute step grid (Start is a multiple of Step). Every window W
// with W+Step > From and W < To is eligible, and an eligible window
// aggregates ALL raw samples whose timestamp floors into it — i.e.
// From/To select windows, and a window is always aggregated whole.
// Grid alignment is what lets a window be answered exactly from
// pre-computed rollup buckets whose width divides Step.
type Query struct {
	Events []string // event filter; nil selects every series of the session
	From   int64    // µs, inclusive (window-aligned down)
	To     int64    // µs, exclusive
	Step   int64    // output window width in µs; 0 returns raw samples
}

// Series is one event's query result.
type Series struct {
	Event   string   `json:"event"`
	Width   int64    `json:"width"`   // source resolution used: 0 = raw decode
	Buckets []Bucket `json:"buckets"` // time order; empty windows omitted
}

// Valid reports whether q describes a well-formed window: From must
// precede To and Step must be non-negative (0 selects raw samples).
// Query refuses invalid windows, and papid's QUERY op turns them into
// wire ERROR frames rather than empty replies a client could mistake
// for "no data".
func (q Query) Valid() bool {
	return q.To > q.From && q.Step >= 0
}

// grid returns q's range aligned to its step grid: From down to its
// window's start, and To up to the end of the window it falls in, so a
// window starting before To is aggregated whole, even past To. Step 0
// leaves the range as it is.
func (q Query) grid() (from, to int64) {
	if q.Step <= 0 {
		return q.From, q.To
	}
	from = q.From - mod(q.From, q.Step)
	to = q.To + (q.Step-mod(q.To, q.Step))%q.Step
	if to < q.To { // alignment overflowed (To near MaxInt64)
		to = math.MaxInt64
	}
	return from, to
}

// Query answers q against one session's series. Results are sorted by
// event name (in filter order when q.Events is set); windows with no
// samples are omitted. An invalid q (see Query.Valid) yields nil
// without scanning.
//
// Every series the reply draws on is captured under one hold of the
// session's shard read lock, so the reply holds all of an appended row
// or none of it. Decoding and folding happen after the lock is
// released.
func (s *Store) Query(session uint64, q Query) []Series {
	if !q.Valid() {
		return nil
	}
	if s.queryLat != nil {
		defer func(t0 time.Duration) { s.queryLat.Observe(int64(s.clock.Mono() - t0)) }(s.clock.Mono())
	}
	from, to := q.grid()
	var width int64
	if q.Step > 0 {
		width = s.pickWidth(q.Step)
	}
	level := slices.Index(s.widths, width) // -1: no rollup serves q, decode raw

	var caps []capture
	sh := s.shardFor(session)
	sh.mu.RLock()
	if e := sh.m[session]; e != nil {
		if len(q.Events) == 0 {
			caps = make([]capture, len(e.series))
			for i, sr := range e.series {
				caps[i] = sr.capture(level, from, to)
			}
		} else {
			caps = make([]capture, 0, len(q.Events))
			for _, ev := range q.Events {
				if i, found := e.find(ev); found {
					caps = append(caps, e.series[i].capture(level, from, to))
				}
			}
		}
	}
	sh.mu.RUnlock()

	out := make([]Series, 0, len(caps))
	var n foldCount
	for i := range caps {
		if bks := caps[i].fold(q, width, from, to, &n); len(bks) > 0 {
			out = append(out, Series{Event: caps[i].event, Width: width, Buckets: bks})
		}
	}
	s.count(n)
	return out
}

// foldCount is what a Query's raw folds did: the samples they decoded,
// and the blocks they could fold through a memo (fold.memo) that found
// one at the query's step (hits) or found none (misses).
type foldCount struct{ decoded, hits, misses uint64 }

// count adds a Query's foldCount to the store's counters.
func (s *Store) count(n foldCount) {
	if n.decoded > 0 {
		s.decoded.Add(n.decoded)
	}
	if n.hits > 0 {
		s.memoHits.Add(n.hits)
	}
	if n.misses > 0 {
		s.memoMisses.Add(n.misses)
	}
}

// Events lists the event names the store holds history for under the
// session, sorted. papid's derive-mode QUERY uses it to reject — with
// a wire ERROR naming the gap — groups whose formulas reference events
// the session never recorded, instead of returning an empty reply the
// client could mistake for "no data".
func (s *Store) Events(session uint64) []string {
	sh := s.shardFor(session)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e := sh.m[session]
	if e == nil {
		return nil
	}
	names := make([]string, len(e.series))
	for i, sr := range e.series {
		names[i] = sr.key.Event
	}
	return names
}

// pickWidth chooses the coarsest rollup width that divides step; 0
// means decode raw samples.
func (s *Store) pickWidth(step int64) int64 {
	var best int64
	for _, w := range s.widths {
		if w <= step && step%w == 0 && w > best {
			best = w
		}
	}
	return best
}

// capture is what Query takes of one series under the shard read lock:
// either immutable refs to the sealed blocks overlapping the range
// plus the active block's prefix and summary, or a copy of one rollup
// level's buckets in range. It copies no block bytes and nothing that
// grows with the samples stored.
type capture struct {
	event  string
	blocks []*block // raw path, time-ordered
	n      int      // samples blocks hold: an upper bound on what a fold yields
	lo, hi int64    // the span the blocks cover inside the range, inclusive
	src    []Bucket // rollup path
}

// capture snapshots sr for [from, to): rollup level `level`, or the
// raw blocks when level is negative. The caller holds the shard's read
// lock. sealed is time-ordered: the first overlap is binary-searched
// and the walk stops at the first block past to. The active block is
// taken as its prefix, which no append writes to (block).
func (sr *series) capture(level int, from, to int64) capture {
	c := capture{event: sr.key.Event}
	if level >= 0 {
		c.src = sr.levels[level].snapshotRange(from, to)
		return c
	}
	lo := sort.Search(len(sr.sealed), func(i int) bool { return sr.sealed[i].maxTS >= from })
	hi := lo
	for ; hi < len(sr.sealed) && sr.sealed[hi].minTS < to; hi++ {
		c.n += sr.sealed[hi].n
	}
	c.blocks = append(make([]*block, 0, hi-lo+1), sr.sealed[lo:hi]...)
	if a := sr.active; a != nil && a.n > 0 && a.maxTS >= from && a.minTS < to {
		cp := *a // n, bounds and value summary, as of the prefix below
		cp.buf = a.buf[:len(a.buf):len(a.buf)]
		c.blocks = append(c.blocks, &cp)
		c.n += a.n
	}
	if len(c.blocks) > 0 {
		c.lo, c.hi = max(from, c.blocks[0].minTS), min(to-1, c.blocks[len(c.blocks)-1].maxTS)
	}
	return c
}

// size bounds the buckets a raw fold of c returns, so the fold
// allocates its output once: one per sample for step 0; for a step, one
// per window the captured span crosses, and never more than the
// samples.
func (c *capture) size(step int64) int {
	if step <= 0 || c.hi < c.lo {
		return c.n
	}
	windows := (uint64(c.hi)-uint64(c.lo))/uint64(step) + 2
	return int(min(windows, uint64(c.n)))
}

// fold turns a capture into q's buckets, with no lock held; width is
// the rollup width captured (0: raw blocks) and from and to are q's
// range aligned to its step grid, as capture was given them. A raw fold
// adds what it did to n.
func (c *capture) fold(q Query, width, from, to int64, n *foldCount) []Bucket {
	if width > 0 {
		// Fold grid-aligned source buckets into step windows. Source
		// buckets arrive in time order and each lies wholly inside one
		// window, so this is a single merge pass.
		var out []Bucket
		for _, bk := range c.src {
			w := bk.Start - mod(bk.Start, q.Step)
			if w < from || w >= q.To {
				continue
			}
			if n := len(out); n > 0 && out[n-1].Start == w {
				out[n-1].mergeBucket(bk)
			} else {
				win := Bucket{Start: w}
				win.mergeBucket(bk)
				out = append(out, win)
			}
		}
		return out
	}
	// No rollup divides the step, or there is none: raw samples, one
	// bucket each, or step windows folded from them. A block that lies
	// inside one window of the range folds whole from its value
	// summary. Any other block folds through its memo when it may keep
	// one and the range lies on the step grid, which it does unless its
	// alignment wrapped; every other block goes through the decoder,
	// each sample merged into its window as it decodes.
	f := fold{from: from, to: to, step: q.Step, out: make([]Bucket, 0, c.size(q.Step))}
	memo := q.Step > 0 && mod(from, q.Step) == 0 && (mod(to, q.Step) == 0 || to == math.MaxInt64)
	for _, b := range c.blocks {
		if q.Step > 0 && b.inWindow(from, to, q.Step) {
			f.summary(b)
			continue
		}
		if memo {
			if windows, ok := b.memoWindows(q.Step); ok {
				hit, decoded := f.memo(b, windows)
				n.decoded += uint64(decoded)
				if hit {
					n.hits++
				} else {
					n.misses++
				}
				continue
			}
		}
		end, _ := f.block(b.buf, b.n, cursor{}, nil)
		n.decoded += uint64(end.i)
	}
	return f.out
}

// mod is a floor modulo for window alignment that behaves for negative
// timestamps too.
func mod(v, m int64) int64 {
	r := v % m
	if r < 0 {
		r += m
	}
	return r
}
