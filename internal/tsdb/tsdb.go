// Package tsdb is an embedded, dependency-free time-series store for
// counter samples — the layer that turns papid from a live fan-out
// service into an observability backend with history. The paper's
// end-user tools (perfometer §2, hpcview §3) exist to look at counter
// data over time; tsdb is where that time axis lives.
//
// Design, in one paragraph: each (session, event) pair is a series;
// samples append into Gorilla-style compressed blocks (delta-of-delta
// timestamps, double-delta zigzag-varint values — see block.go) that
// seal at a fixed sample count and form a time-ordered ring; every
// append also folds into pre-computed rollup levels (default 10s and
// 60s windows of min/max/sum/count/last), so a long-range query reads
// O(points returned) pre-aggregated buckets instead of decoding
// O(points stored) raw samples. A fixed byte budget is enforced by
// evicting the globally oldest sealed block (ring-buffer semantics),
// and a retention age expires both raw blocks and rollup buckets.
//
// The unit of the store is the tick row, as the unit of the paper's
// interface is the EventSet: the store is sharded by session, a
// session's series live side by side in one entry sorted by event name
// (the entry is the event index — there is no other), a row is
// appended under one hold of its shard's lock and a Query captures
// every series it answers from under one hold of the read lock. A
// reply therefore holds all of a row or none of it, which is what a
// metric derived from two counters needs.
package tsdb

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/telemetry"
)

// SeriesKey identifies one series: a papid session plus one of its
// event names.
type SeriesKey struct {
	Session uint64
	Event   string
}

// Config parameterizes a Store; the zero value selects the defaults.
type Config struct {
	// MaxBytes bounds the store's total memory charge (blocks + rollup
	// buckets). Default 8 MiB.
	MaxBytes int64
	// MaxAge expires samples older than this relative to the series'
	// newest timestamp (and to Sweep's now). Default 15 minutes;
	// negative disables age-based retention.
	MaxAge time.Duration
	// BlockSamples is the sealing threshold per block. Default 512.
	BlockSamples int
	// Rollups lists the pre-computed downsampling widths, finest first.
	// Default {10s, 60s}.
	Rollups []time.Duration
	// Registry, when set, receives the store's self-telemetry: append
	// and query latency histograms plus byte/series/sample gauges. Nil
	// keeps the store entirely uninstrumented (zero overhead).
	Registry *telemetry.Registry
	// Storage is ignored. The store pushes nothing to a storage layer: a
	// durability layer pulls sealed blocks with Unpersisted (wal.Log
	// does, once Start attaches it). The field stays for callers that
	// still assign the log here.
	Storage any
}

func (c *Config) fill() {
	if c.MaxBytes <= 0 {
		c.MaxBytes = 8 << 20
	}
	if c.MaxAge == 0 {
		c.MaxAge = 15 * time.Minute
	}
	if c.BlockSamples <= 0 {
		c.BlockSamples = 512
	}
	if c.Rollups == nil {
		c.Rollups = []time.Duration{10 * time.Second, time.Minute}
	}
}

// Stats is a point-in-time view of the store.
type Stats struct {
	Bytes     int64  // current budget charge
	Series    int    // live series count
	Samples   uint64 // samples ever appended
	Evictions uint64 // eviction events (budget + retention)
}

const storeShards = 16

// Store is the embedded time-series database. All methods are safe for
// concurrent use.
type Store struct {
	cfg    Config
	widths []int64 // rollup widths in µs, ascending

	shards [storeShards]storeShard

	bytes     atomic.Int64
	samples   atomic.Uint64
	evictions atomic.Uint64

	// What raw QUERY folds did (foldCount): samples decoded, and blocks
	// folded through a memo at the query's step or without one.
	decoded, memoHits, memoMisses atomic.Uint64

	// appendLat/queryLat, when non-nil, record per-call latency
	// (appendLat once per row, not per sample), read from clock.
	appendLat *telemetry.Histogram
	queryLat  *telemetry.Histogram
	clock     clock.Clock

	// evictMu serializes budget-eviction scans so concurrent appenders
	// don't stampede the same candidate.
	evictMu sync.Mutex
}

// storeShard holds the sessions that hash onto it. mu guards m, every
// entry in it and every series of those entries.
type storeShard struct {
	mu sync.RWMutex
	m  map[uint64]*sessionSeries
}

// sessionSeries is one session's entry: its series, sorted by event
// name. An entry is never empty — it is made for its first series and
// leaves the map with its last.
type sessionSeries struct {
	series []*series
}

// find returns where event's series is, or would be inserted, in e.
func (e *sessionSeries) find(event string) (int, bool) {
	return slices.BinarySearchFunc(e.series, event, func(sr *series, event string) int {
		return strings.Compare(sr.key.Event, event)
	})
}

// lookup returns the key's series, or nil when the store holds none.
// The caller holds sh.mu.
func (sh *storeShard) lookup(key SeriesKey) *series {
	if e := sh.m[key.Session]; e != nil {
		if i, found := e.find(key.Event); found {
			return e.series[i]
		}
	}
	return nil
}

// New builds a Store that times itself on the wall clock.
func New(cfg Config) *Store { return NewOn(clock.Real{}, cfg) }

// NewOn is New timing appends and queries on c — papid's store reads
// the server's one clock.
func NewOn(c clock.Clock, cfg Config) *Store {
	cfg.fill()
	s := &Store{cfg: cfg, clock: c}
	s.widths = make([]int64, len(cfg.Rollups))
	for i, d := range cfg.Rollups {
		s.widths[i] = d.Microseconds()
	}
	for i := range s.shards {
		s.shards[i].m = make(map[uint64]*sessionSeries)
	}
	if reg := cfg.Registry; reg != nil {
		s.appendLat = reg.NewLatencyHistogram(telemetry.Opts{
			Name: "papid_tsdb_append_seconds",
			Help: "History append latency per call (one call covers a whole tick row).",
			Key:  "tsdb/append"})
		s.queryLat = reg.NewLatencyHistogram(telemetry.Opts{
			Name: "papid_tsdb_query_seconds",
			Help: "History query latency per QUERY.",
			Key:  "tsdb/query"})
		reg.NewGaugeFunc(telemetry.Opts{Name: "papid_tsdb_bytes",
			Help: "History store budget charge in bytes."}, func() float64 {
			return float64(s.bytes.Load())
		})
		reg.NewGaugeFunc(telemetry.Opts{Name: "papid_tsdb_series",
			Help: "Live history series."}, func() float64 {
			return float64(s.Stats().Series)
		})
		reg.NewCounterFunc(telemetry.Opts{Name: "papid_tsdb_samples_total",
			Help: "Samples ever appended to the history store."}, func() uint64 {
			return s.samples.Load()
		})
		reg.NewCounterFunc(telemetry.Opts{Name: "papid_tsdb_evictions_total",
			Help: "History eviction events (budget and retention)."}, func() uint64 {
			return s.evictions.Load()
		})
		reg.NewCounterFunc(telemetry.Opts{Name: "papid_tsdb_query_decoded_samples_total",
			Help: "Samples raw history queries decoded."}, func() uint64 {
			return s.decoded.Load()
		})
		reg.NewCounterFunc(telemetry.Opts{Name: "papid_tsdb_memo_hits_total",
			Help: "Blocks a step query folded from their memo at its step."}, func() uint64 {
			return s.memoHits.Load()
		})
		reg.NewCounterFunc(telemetry.Opts{Name: "papid_tsdb_memo_misses_total",
			Help: "Blocks a step query could fold from a memo and found none at its step."}, func() uint64 {
			return s.memoMisses.Load()
		})
		reg.NewGaugeFunc(telemetry.Opts{Name: "papid_tsdb_memo_bytes",
			Help: "Bytes the history blocks' step-fold memos hold."}, func() float64 {
			return float64(s.memoBytes())
		})
	}
	return s
}

// memoBytes sums what the fold memos of the blocks the store holds take
// (block.memoBytes). Memos are not charged to the budget: they are
// recounted here, from the blocks, so a memo dropped with its block is
// never counted again.
func (s *Store) memoBytes() int64 {
	var n int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, e := range sh.m {
			for _, sr := range e.series {
				for _, b := range sr.sealed {
					n += b.memoBytes()
				}
				if sr.active != nil {
					n += sr.active.memoBytes()
				}
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

// shardFor returns the shard that holds every series of the session.
func (s *Store) shardFor(session uint64) *storeShard {
	return &s.shards[(session*0x9e3779b97f4a7c15)>>32%storeShards]
}

// entryFor returns the session's entry, creating it on first use; the
// caller holds sh.mu and goes on to seriesFor, so no empty entry is
// left behind.
func (sh *storeShard) entryFor(session uint64) *sessionSeries {
	e := sh.m[session]
	if e == nil {
		e = &sessionSeries{}
		sh.m[session] = e
	}
	return e
}

// seriesFor returns the key's series in its session's entry e,
// creating it on first use and charging its fixed footprint (the
// levels' in-progress buckets), so the running total always equals a
// recount of series.bytes(). The caller holds the shard's lock.
func (s *Store) seriesFor(e *sessionSeries, key SeriesKey) *series {
	i, found := e.find(key.Event)
	if !found {
		sr := newSeries(key, s.widths)
		e.series = slices.Insert(e.series, i, sr)
		s.bytes.Add(sr.bytes())
	}
	return e.series[i]
}

// Row is one timestamp's values for several events of one session.
type Row struct {
	Session uint64
	TS      int64
	Events  []string
	Vals    []int64
}

// AppendBatch records one timestamp's values for several events of one
// session. The batch is equivalent to E one-event batches at the same
// timestamp, in order, except that no Query sees part of it.
func (s *Store) AppendBatch(session uint64, ts int64, events []string, vals []int64) {
	s.AppendRows([]Row{{Session: session, TS: ts, Events: events, Vals: vals}}, nil)
}

// AppendRows is the store's one append: each row as AppendBatch, in
// order — papid appends a sweep worker's rows of a tick, or a
// PUBLISH's one row, through here. seqs, when not nil, holds each
// row's WAL row sequence number, as internal/tsdb/wal assigned it when
// it journaled the row (0 for a row it did not journal); nil means "no
// durability layer", and every row's is 0. Each block records the
// sequences of the rows it covers, which is what lets replay skip
// exactly the WAL rows already persisted inside sealed segments.
// It reports whether a row sealed a block, so a durability layer knows
// when its persist pass has something to write.
//
// The append histogram observes each row that holds a value once, not
// each sample: it answers "what does a row cost". The batch is timed
// by consecutive readings — one before the first row and one after
// each — so a row's interval also holds the skip over any empty row
// before it.
func (s *Store) AppendRows(rows []Row, seqs []uint64) (sealed bool) {
	var last time.Duration
	if s.appendLat != nil {
		last = s.clock.Mono()
	}
	for i := range rows {
		r := &rows[i]
		if min(len(r.Events), len(r.Vals)) == 0 {
			continue
		}
		var seq uint64
		if seqs != nil {
			seq = seqs[i]
		}
		b, over := s.appendRow(r.Session, r.TS, r.Events, r.Vals, seq)
		if over {
			s.evictToBudget()
		}
		sealed = sealed || b
		if s.appendLat != nil {
			now := s.clock.Mono()
			s.appendLat.Observe(int64(now - last))
			last = now
		}
	}
	return sealed
}

// appendRow appends one row under its shard's lock, applying each
// series' retention as it goes, and reports whether the row sealed a
// block and whether the store is now over its byte budget.
func (s *Store) appendRow(session uint64, ts int64, events []string, vals []int64, seq uint64) (sealed, over bool) {
	n := min(len(events), len(vals))
	if n == 0 {
		return false, false
	}
	var delta int64
	var evicted uint64
	sh := s.shardFor(session)
	sh.mu.Lock()
	e := sh.entryFor(session)
	for i := 0; i < n; i++ {
		sr := s.seriesFor(e, SeriesKey{Session: session, Event: events[i]})
		d, b := sr.append(ts, vals[i], s.cfg.BlockSamples, seq)
		delta += d
		sealed = sealed || b != nil
		if s.cfg.MaxAge > 0 {
			freed, dropped := sr.evictExpired(ts - s.cfg.MaxAge.Microseconds())
			delta -= freed
			evicted += dropped
		}
	}
	sh.mu.Unlock()
	s.samples.Add(uint64(n))
	if evicted > 0 {
		s.evictions.Add(evicted)
	}
	return sealed, s.bytes.Add(delta) > s.cfg.MaxBytes
}

// evictToBudget drops globally-oldest sealed blocks until the store is
// back under MaxBytes. If no sealed block exists anywhere (pathological
// budgets), the oldest series' active block is sealed and dropped so
// the loop always terminates.
func (s *Store) evictToBudget() {
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	for s.bytes.Load() > s.cfg.MaxBytes {
		key, found := s.oldest((*series).oldestSealedTS)
		if !found {
			if !s.sealOldestActive() {
				return // nothing evictable; give up rather than spin
			}
			continue
		}
		sh := s.shardFor(key.Session)
		sh.mu.Lock()
		if sr := sh.lookup(key); sr != nil {
			if freed := sr.evictOldestSealed(); freed > 0 {
				s.bytes.Add(-freed)
				s.evictions.Add(1)
			}
		}
		sh.mu.Unlock()
	}
}

// oldest walks every series under the shards' read locks and names the
// one with the smallest age(sr), skipping those age reports !ok for.
// The series may be gone by the time the caller locks its shard to act
// on it, hence a key and not a pointer.
func (s *Store) oldest(age func(*series) (int64, bool)) (key SeriesKey, found bool) {
	var oldest int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, e := range sh.m {
			for _, sr := range e.series {
				if ts, ok := age(sr); ok && (!found || ts < oldest) {
					key, oldest, found = sr.key, ts, true
				}
			}
		}
		sh.mu.RUnlock()
	}
	return key, found
}

// sealOldestActive force-seals the active block of the series with the
// oldest data so evictToBudget has a victim. Reports whether anything
// was sealed.
func (s *Store) sealOldestActive() bool {
	key, found := s.oldest(func(sr *series) (int64, bool) {
		if sr.active == nil || sr.active.n == 0 {
			return 0, false
		}
		return sr.active.minTS, true
	})
	if !found {
		return false
	}
	sh := s.shardFor(key.Session)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sr := sh.lookup(key)
	if sr == nil || sr.active == nil || sr.active.n == 0 {
		return false
	}
	sr.seal()
	return true
}

// Sweep applies age-based retention across every series relative to
// now (µs). papid calls this from its tick loop so series of finished
// sessions still expire. It reports the number of event-series blocks
// evicted, so the tick's trace can annotate what the sweep actually
// did.
func (s *Store) Sweep(now int64) (evicted int64) {
	cutoff, ok := s.RetentionCutoff(now)
	if !ok {
		return 0
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for session, e := range sh.m {
			kept := e.series[:0]
			for _, sr := range e.series {
				if sr.active != nil && sr.active.maxTS < cutoff {
					// A finished session stops appending, so its last
					// partial block would otherwise never seal or expire.
					// Every sealed block is older, so evictExpired drops
					// them all with it, under this lock: no storage pass
					// ever sees an expired block.
					sr.seal()
				}
				freed, events := sr.evictExpired(cutoff)
				s.bytes.Add(-freed)
				s.evictions.Add(events)
				evicted += int64(events)
				if sr.lastTS >= cutoff || sr.active != nil || len(sr.sealed) > 0 {
					kept = append(kept, sr)
					continue
				}
				// Fully expired: the series leaves its entry here, under
				// the lock that decided it. A series that only ever held
				// installed rollup buckets (its raw blocks were compacted
				// away) has no samples and goes the same way.
				s.bytes.Add(-sr.bytes())
			}
			clear(e.series[len(kept):])
			e.series = kept
			if len(kept) == 0 {
				delete(sh.m, session)
			}
		}
		sh.mu.Unlock()
	}
	return evicted
}

// Stats returns current counters.
func (s *Store) Stats() Stats {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, e := range sh.m {
			n += len(e.series)
		}
		sh.mu.RUnlock()
	}
	return Stats{
		Bytes:     s.bytes.Load(),
		Series:    n,
		Samples:   s.samples.Load(),
		Evictions: s.evictions.Load(),
	}
}
