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
package tsdb

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

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
	// Storage, when set, receives durability callbacks: every sealed
	// block (so it can be persisted) and every fully-expired series.
	// Callbacks run outside all store locks, on the goroutine whose
	// append/sweep triggered them. Nil keeps the store RAM-only.
	Storage Storage
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

	// appendLat/queryLat, when non-nil, record per-call latency
	// (appendLat once per AppendBatch row, not per sample).
	appendLat *telemetry.Histogram
	queryLat  *telemetry.Histogram

	// evictMu serializes budget-eviction scans so concurrent appenders
	// don't stampede the same candidate.
	evictMu sync.Mutex

	// sessMu guards sessions, the per-session sorted event-name index.
	// Before it existed, answering "which events does session N have
	// history for" meant taking every shard lock exclusively and
	// sorting — the scan every filterless QUERY paid, and the lock
	// papid's parallel queriers serialized on. Slices are copy-on-write
	// so a reader may keep a returned slice after the lock drops.
	// sessMu is a leaf lock: it is taken (briefly) while a shard lock
	// is held at series creation, and never the other way around.
	sessMu   sync.RWMutex
	sessions map[uint64][]string
}

type storeShard struct {
	mu sync.RWMutex
	m  map[SeriesKey]*series
}

// New builds a Store.
func New(cfg Config) *Store {
	cfg.fill()
	s := &Store{cfg: cfg, sessions: make(map[uint64][]string)}
	s.widths = make([]int64, len(cfg.Rollups))
	for i, d := range cfg.Rollups {
		s.widths[i] = d.Microseconds()
	}
	for i := range s.shards {
		s.shards[i].m = make(map[SeriesKey]*series)
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
			n := 0
			for i := range s.shards {
				s.shards[i].mu.RLock()
				n += len(s.shards[i].m)
				s.shards[i].mu.RUnlock()
			}
			return float64(n)
		})
		reg.NewCounterFunc(telemetry.Opts{Name: "papid_tsdb_samples_total",
			Help: "Samples ever appended to the history store."}, func() uint64 {
			return s.samples.Load()
		})
		reg.NewCounterFunc(telemetry.Opts{Name: "papid_tsdb_evictions_total",
			Help: "History eviction events (budget and retention)."}, func() uint64 {
			return s.evictions.Load()
		})
	}
	return s
}

// shardIndex hashes a series key onto one of the storeShards.
func shardIndex(key SeriesKey) uint8 {
	h := key.Session*0x9e3779b97f4a7c15 + 1
	for i := 0; i < len(key.Event); i++ {
		h = (h ^ uint64(key.Event[i])) * 0x100000001b3
	}
	return uint8((h >> 32) % storeShards)
}

func (s *Store) shardFor(key SeriesKey) *storeShard {
	return &s.shards[shardIndex(key)]
}

// appendLocked is the per-sample core; the caller holds sh.mu. It
// returns the budget delta and the retention-eviction event count so
// AppendBatchSeq folds the atomics once per batch, and collects any
// block this sample sealed into seals — the caller fires the storage
// hook after releasing the lock.
func (s *Store) appendLocked(sh *storeShard, key SeriesKey, ts, v int64, seq uint64, seals *[]SealedBlock) (delta int64, evicted uint64) {
	sr := s.seriesFor(sh, key)
	d, sealed := sr.append(ts, v, s.cfg.BlockSamples, seq)
	delta = d
	if sealed != nil {
		*seals = append(*seals, sealedBlockOf(key, sealed, sr.lastSeq))
	}
	if s.cfg.MaxAge > 0 {
		freed, events := sr.evictExpired(ts - s.cfg.MaxAge.Microseconds())
		delta -= freed
		evicted = events
	}
	return delta, evicted
}

// seriesFor returns the key's series, creating it on first use and
// charging its fixed footprint (the levels' in-progress buckets), so
// the running total always equals a recount of series.bytes(). The
// caller holds sh.mu.
func (s *Store) seriesFor(sh *storeShard, key SeriesKey) *series {
	sr := sh.m[key]
	if sr == nil {
		sr = newSeries(key, s.widths)
		sh.m[key] = sr
		s.indexAdd(key)
		s.bytes.Add(sr.bytes())
	}
	return sr
}

// AppendBatch records one timestamp's values for several events of one
// session, taking each touched shard's lock exactly once instead of
// once per (session, event) — papid appends every session's whole row
// through here, so with E events per session the lock traffic drops
// E-fold. The batch is equivalent to E one-event batches at the same
// timestamp, in order.
func (s *Store) AppendBatch(session uint64, ts int64, events []string, vals []int64) {
	s.AppendBatchSeq(session, ts, events, vals, 0)
}

// AppendBatchSeq is the store's one append: AppendBatch carrying the
// WAL row sequence number of the batch (internal/tsdb/wal assigns it
// before handing the row down). Seal events capture the newest
// sequence a block covers, which is what lets replay skip exactly the
// WAL rows already persisted inside sealed segments. Seq 0 means "no
// durability layer".
func (s *Store) AppendBatchSeq(session uint64, ts int64, events []string, vals []int64, seq uint64) {
	n := min(len(events), len(vals))
	if n == 0 {
		return
	}
	if n > 64 {
		// The grouping bitmap below covers 64 events; a wider row (papid
		// sessions hold a handful) goes in as chunks of at most 64.
		s.AppendBatchSeq(session, ts, events[:64], vals[:64], seq)
		s.AppendBatchSeq(session, ts, events[64:n], vals[64:n], seq)
		return
	}
	if s.appendLat != nil {
		// One observation per batch call, not per sample: the
		// histogram answers "what does a tick row cost", matching how
		// papid calls in here.
		defer func(t0 time.Time) { s.appendLat.Observe(telemetry.Since(t0)) }(time.Now())
	}
	var shards [64]uint8
	for i := 0; i < n; i++ {
		shards[i] = shardIndex(SeriesKey{Session: session, Event: events[i]})
	}
	var delta int64
	var evicted uint64
	var done uint64
	var seals []SealedBlock
	for i := 0; i < n; i++ {
		if done&(1<<i) != 0 {
			continue
		}
		sh := &s.shards[shards[i]]
		sh.mu.Lock()
		for j := i; j < n; j++ {
			if done&(1<<j) != 0 || shards[j] != shards[i] {
				continue
			}
			done |= 1 << j
			d, ev := s.appendLocked(sh, SeriesKey{Session: session, Event: events[j]}, ts, vals[j], seq, &seals)
			delta += d
			evicted += ev
		}
		sh.mu.Unlock()
	}
	s.samples.Add(uint64(n))
	if evicted > 0 {
		s.evictions.Add(evicted)
	}
	// Persist before any budget eviction can run: a sealed block must
	// reach the storage layer before the store is allowed to drop it.
	s.fireSeals(seals)
	if s.bytes.Add(delta) > s.cfg.MaxBytes {
		s.evictToBudget()
	}
}

// indexAdd records a freshly created series in the session event
// index. Copy-on-write: the slice a concurrent sessionEvents reader
// already holds is never mutated.
func (s *Store) indexAdd(key SeriesKey) {
	s.sessMu.Lock()
	names := s.sessions[key.Session]
	if i, found := slices.BinarySearch(names, key.Event); !found {
		grown := make([]string, 0, len(names)+1)
		grown = append(grown, names[:i]...)
		grown = append(grown, key.Event)
		grown = append(grown, names[i:]...)
		s.sessions[key.Session] = grown
	}
	s.sessMu.Unlock()
}

// indexRemove drops fully-expired series from the session event index
// (the counterpart of Sweep's series deletion).
func (s *Store) indexRemove(keys []SeriesKey) {
	s.sessMu.Lock()
	for _, key := range keys {
		names := s.sessions[key.Session]
		i, found := slices.BinarySearch(names, key.Event)
		if !found {
			continue
		}
		if len(names) == 1 {
			delete(s.sessions, key.Session)
			continue
		}
		pruned := make([]string, 0, len(names)-1)
		pruned = append(pruned, names[:i]...)
		pruned = append(pruned, names[i+1:]...)
		s.sessions[key.Session] = pruned
	}
	s.sessMu.Unlock()
}

// evictToBudget drops globally-oldest sealed blocks until the store is
// back under MaxBytes. If no sealed block exists anywhere (pathological
// budgets), the oldest series' active block is sealed and dropped so
// the loop always terminates.
func (s *Store) evictToBudget() {
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	for s.bytes.Load() > s.cfg.MaxBytes {
		var (
			victimShard *storeShard
			victimKey   SeriesKey
			oldest      int64
			found       bool
		)
		for i := range s.shards {
			sh := &s.shards[i]
			sh.mu.RLock()
			for key, sr := range sh.m {
				if ts, ok := sr.oldestSealedTS(); ok && (!found || ts < oldest) {
					victimShard, victimKey, oldest, found = sh, key, ts, true
				}
			}
			sh.mu.RUnlock()
		}
		if !found {
			if !s.sealOldestActive() {
				return // nothing evictable; give up rather than spin
			}
			continue
		}
		victimShard.mu.Lock()
		if sr := victimShard.m[victimKey]; sr != nil {
			if freed := sr.evictOldestSealed(); freed > 0 {
				s.bytes.Add(-freed)
				s.evictions.Add(1)
			}
		}
		victimShard.mu.Unlock()
	}
}

// sealOldestActive force-seals the active block of the series with the
// oldest data so evictToBudget has a victim. Reports whether anything
// was sealed.
func (s *Store) sealOldestActive() bool {
	var (
		victimShard *storeShard
		victimKey   SeriesKey
		oldest      int64
		found       bool
	)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for key, sr := range sh.m {
			if sr.active != nil && sr.active.n > 0 && (!found || sr.active.minTS < oldest) {
				victimShard, victimKey, oldest, found = sh, key, sr.active.minTS, true
			}
		}
		sh.mu.RUnlock()
	}
	if !found {
		return false
	}
	victimShard.mu.Lock()
	sr := victimShard.m[victimKey]
	if sr == nil || sr.active == nil || sr.active.n == 0 {
		victimShard.mu.Unlock()
		return false
	}
	sealed := sr.active
	sr.sealed = append(sr.sealed, sealed)
	sr.active = nil
	sb := sealedBlockOf(victimKey, sealed, sr.lastSeq)
	victimShard.mu.Unlock()
	s.fireSeals([]SealedBlock{sb})
	return true
}

// Sweep applies age-based retention across every series relative to
// now (µs). papid calls this from its tick loop so series of finished
// sessions still expire. It reports the number of event-series blocks
// evicted, so the tick's trace can annotate what the sweep actually
// did.
func (s *Store) Sweep(now int64) (evicted int64) {
	if s.cfg.MaxAge <= 0 {
		return 0
	}
	cutoff := now - s.cfg.MaxAge.Microseconds()
	for i := range s.shards {
		sh := &s.shards[i]
		var seals []SealedBlock
		var dropped []SeriesKey
		sh.mu.Lock()
		for key, sr := range sh.m {
			if sr.active != nil && sr.active.maxTS < cutoff {
				// A finished session stops appending, so its last
				// partial block would otherwise never seal or expire.
				sealed := sr.active
				sr.sealed = append(sr.sealed, sealed)
				sr.active = nil
				seals = append(seals, sealedBlockOf(key, sealed, sr.lastSeq))
			}
			freed, events := sr.evictExpired(cutoff)
			s.bytes.Add(-freed)
			s.evictions.Add(events)
			evicted += int64(events)
			if sr.lastTS < cutoff && sr.active == nil && len(sr.sealed) == 0 {
				// Fully expired: drop the series itself. A series that
				// only ever held installed rollup buckets (its raw blocks
				// were compacted away) has no samples and goes the same
				// way.
				s.bytes.Add(-sr.bytes())
				delete(sh.m, key)
				dropped = append(dropped, key)
			}
		}
		sh.mu.Unlock()
		s.fireSeals(seals)
		if len(dropped) > 0 {
			s.indexRemove(dropped)
			if s.cfg.Storage != nil {
				s.cfg.Storage.OnDropSeries(dropped)
			}
		}
	}
	return evicted
}

// Stats returns current counters.
func (s *Store) Stats() Stats {
	n := 0
	for i := range s.shards {
		s.shards[i].mu.RLock()
		n += len(s.shards[i].m)
		s.shards[i].mu.RUnlock()
	}
	return Stats{
		Bytes:     s.bytes.Load(),
		Series:    n,
		Samples:   s.samples.Load(),
		Evictions: s.evictions.Load(),
	}
}
