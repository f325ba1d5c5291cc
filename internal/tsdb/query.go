package tsdb

import (
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/telemetry"
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

// Query answers q against one session's series. Results are sorted by
// event name; windows with no samples are omitted. An invalid q (see
// Query.Valid) yields nil without scanning.
func (s *Store) Query(session uint64, q Query) []Series {
	if !q.Valid() {
		return nil
	}
	if s.queryLat != nil {
		defer func(t0 time.Time) { s.queryLat.Observe(telemetry.Since(t0)) }(time.Now())
	}
	events := q.Events
	if len(events) == 0 {
		events = s.sessionEvents(session)
	}
	out := make([]Series, 0, len(events))
	for _, ev := range events {
		if sr, ok := s.querySeries(SeriesKey{Session: session, Event: ev}, q); ok {
			out = append(out, sr)
		}
	}
	return out
}

// Events lists the event names the store holds history for under the
// session, sorted. papid's derive-mode QUERY uses it to reject — with
// a wire ERROR naming the gap — groups whose formulas reference events
// the session never recorded, instead of returning an empty reply the
// client could mistake for "no data".
func (s *Store) Events(session uint64) []string {
	return slices.Clone(s.sessionEvents(session))
}

// sessionEvents lists the session's series names, sorted, straight
// from the copy-on-write session index — one RLock, no shard locks, no
// sort. This used to scan all shards under exclusive locks per query,
// which is what made papid's filterless QUERY path *slower* with more
// concurrent queriers. The returned slice is shared and must not be
// mutated; Events clones for external callers.
func (s *Store) sessionEvents(session uint64) []string {
	s.sessMu.RLock()
	names := s.sessions[session]
	s.sessMu.RUnlock()
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

func (s *Store) querySeries(key SeriesKey, q Query) (Series, bool) {
	sh := s.shardFor(key)

	if q.Step <= 0 {
		// Raw samples, no windowing: one bucket per sample, allocated
		// once at the overlapping blocks' sample count.
		sc, n := s.snapshotBlocks(sh, key, q.From, q.To)
		out := make([]Bucket, 0, n)
		for ts, v, ok := sc.next(); ok; ts, v, ok = sc.next() {
			out = append(out, Bucket{Start: ts, Count: 1, Min: v, Max: v, Sum: v, Last: v})
		}
		return Series{Event: key.Event, Buckets: out}, len(out) > 0
	}

	effFrom := q.From - mod(q.From, q.Step)           // align the first window down
	effTo := q.To + (q.Step-mod(q.To, q.Step))%q.Step // align the last window up:
	// a window starting before To is aggregated whole, even past To
	if effTo < q.To { // alignment overflowed (To near MaxInt64)
		effTo = math.MaxInt64
	}
	width := s.pickWidth(q.Step)

	var out []Bucket
	if width == 0 {
		// No rollup divides the step: fold each raw sample into its
		// window as it decodes. Samples arrive in time order, so only
		// the last window is open and memory is O(windows).
		sc, _ := s.snapshotBlocks(sh, key, effFrom, effTo)
		var end int64 // exclusive end of the open window
		for ts, v, ok := sc.next(); ok; ts, v, ok = sc.next() {
			if len(out) == 0 || ts >= end {
				w := ts - mod(ts, q.Step)
				if end = w + q.Step; end < w { // the window runs past MaxInt64,
					end = math.MaxInt64 // and every scanned ts is below effTo
				}
				out = append(out, Bucket{Start: w})
			}
			out[len(out)-1].merge(v)
		}
		return Series{Event: key.Event, Buckets: out}, len(out) > 0
	}

	var src []Bucket
	sh.mu.RLock()
	sr := sh.m[key]
	if sr == nil {
		sh.mu.RUnlock()
		return Series{}, false
	}
	for i := range sr.levels {
		if sr.levels[i].width == width {
			src = sr.levels[i].snapshotRange(effFrom, effTo)
			break
		}
	}
	sh.mu.RUnlock()

	// Fold grid-aligned source buckets into step windows. Source
	// buckets arrive in time order and each lies wholly inside one
	// window, so this is a single merge pass.
	for _, bk := range src {
		w := bk.Start - mod(bk.Start, q.Step)
		if w < effFrom || w >= q.To {
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
	return Series{Event: key.Event, Width: width, Buckets: out}, len(out) > 0
}

// snapshotBlocks captures, under the shard read lock, immutable refs to
// the series' sealed blocks overlapping [from, to) and a copy of its
// active block, and returns a scanner over them — decoding then
// happens lock-free — with the sample count they hold, an upper bound
// on what the scan yields. sealed is time-ordered: the first overlap
// is binary-searched and the walk stops at the first block past to.
func (s *Store) snapshotBlocks(sh *storeShard, key SeriesKey, from, to int64) (sc blockScan, n int) {
	sc.from, sc.to = from, to
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	sr := sh.m[key]
	if sr == nil {
		return sc, 0
	}
	lo := sort.Search(len(sr.sealed), func(i int) bool { return sr.sealed[i].maxTS >= from })
	hi := lo
	for ; hi < len(sr.sealed) && sr.sealed[hi].minTS < to; hi++ {
		n += sr.sealed[hi].n
	}
	sc.blocks = append(make([]*block, 0, hi-lo+1), sr.sealed[lo:hi]...)
	if a := sr.active; a != nil && a.n > 0 && a.maxTS >= from && a.minTS < to {
		sc.blocks = append(sc.blocks, &block{
			buf:   append([]byte(nil), a.buf...),
			n:     a.n,
			minTS: a.minTS,
			maxTS: a.maxTS,
		})
		n += a.n
	}
	return sc, n
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
