// Package telemetry is papid's self-instrumentation layer: a
// dependency-free metrics registry cheap enough to live on the serving
// hot path. The paper's thesis — you cannot tune what you cannot
// measure (§1) — applies to the measurement service itself: a daemon
// that exposes everyone else's counters but observes itself through a
// handful of lifetime totals is flying blind exactly where its users
// look first when latency regresses.
//
// Three instrument kinds cover the needs of a serving daemon:
//
//   - Counter: a monotonically increasing total, striped across
//     padded atomic cells so concurrent hot-path increments from many
//     connections do not serialize on one cache line;
//   - CounterFunc/GaugeFunc: a total or a level (queue depth, live
//     sessions) that already lives elsewhere and only needs reading at
//     scrape time;
//   - Histogram: a log-linear-bucket latency distribution (bounded
//     relative error, fixed memory, lock-free recording) from which
//     p50/p90/p99/max are extracted on demand — the per-op latency
//     shape DCPI-style always-on profiling demands at near-zero
//     recording cost.
//
// A Registry owns a set of named instruments and renders them three
// ways: as Prometheus text exposition (WritePrometheus), as one flat
// map of every counter and gauge (Stats — the papid STATS reply,
// Server.Stats() and the stats object of /statusz are this map), and
// as compact quantile summaries of the histograms (Summaries) that
// ride the same STATS reply.
package telemetry

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// stripes is the cell count of a striped Counter. 16 padded cells keep
// a 64-way-concurrent increment storm off any single cache line while
// costing 1 KiB per counter.
const stripes = 16

// cell is one padded counter stripe: the value plus enough padding to
// fill a 64-byte cache line, so neighboring stripes never false-share.
type cell struct {
	v atomic.Uint64
	_ [56]byte
}

// stripeIdx picks a stripe for this increment. math/rand/v2's global
// generator is per-thread lock-free state in the runtime, so this is a
// few nanoseconds and never a synchronization point; random placement
// spreads sustained contention evenly without needing a goroutine ID.
func stripeIdx() int {
	return int(rand.Uint64() & (stripes - 1))
}

// Counter is a monotonically increasing striped atomic total.
type Counter struct {
	desc  desc
	cells [stripes]cell
}

// Inc adds 1.
func (c *Counter) Inc() { c.cells[stripeIdx()].v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.cells[stripeIdx()].v.Add(n) }

// AddAt adds n to stripe i (modulo the stripe count): a recorder that
// runs beside others on a CPU of its own, a sweep worker, names its own
// stripe instead of drawing one at random for every add.
func (c *Counter) AddAt(i int, n uint64) { c.cells[i&(stripes-1)].v.Add(n) }

// Stripe reads stripe i (modulo the stripe count) alone — how a test
// checks which recorder added to a counter.
func (c *Counter) Stripe(i int) uint64 { return c.cells[i&(stripes-1)].v.Load() }

// Value sums the stripes. The sum is not an atomic snapshot across
// stripes — fine for monitoring, where each stripe is itself monotone.
func (c *Counter) Value() uint64 {
	var sum uint64
	for i := range c.cells {
		sum += c.cells[i].v.Load()
	}
	return sum
}

// desc is an instrument's identity: metric name, help text, and an
// optional fixed label set. Instruments sharing a Name form one
// Prometheus family and must agree on kind.
type desc struct {
	name   string
	help   string
	labels []Label
	// key, when non-empty, names this instrument in Summaries() — the
	// compact identifier that rides the wire STATS op.
	key string
	// stat names a counter or gauge in Stats().
	stat string
}

// statKey is the one naming rule of Stats: the metric name minus the
// "papid_" prefix and the "_total" suffix, plus "_<value>" for each
// label in label-name order — papid_frames_sent_total{codec="json"}
// is "frames_sent_json".
func statKey(name string, labels []Label) string {
	key := strings.TrimSuffix(strings.TrimPrefix(name, "papid_"), "_total")
	for _, l := range labels {
		key += "_" + l.Value
	}
	return key
}

// Label is one fixed name="value" pair attached to an instrument.
type Label struct {
	Name, Value string
}

// labelString renders {a="x",b="y"} (sorted), or "" without labels.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", l.Name, l.Value)
	}
	sb.WriteByte('}')
	return sb.String()
}

// Opts names an instrument being registered.
type Opts struct {
	// Name is the Prometheus metric name (e.g.
	// "papid_snapshots_sent_total").
	Name string
	// Help is the one-line HELP text.
	Help string
	// Labels are fixed label pairs distinguishing this instrument from
	// others in the same family (e.g. codec="json").
	Labels []Label
	// Key, when non-empty, includes the instrument in
	// Registry.Summaries under this compact name — the identifier wire
	// STATS clients see (e.g. "op/READ/json").
	Key string
}

func (o Opts) desc() desc {
	labels := append([]Label(nil), o.Labels...)
	sort.Slice(labels, func(i, j int) bool { return labels[i].Name < labels[j].Name })
	return desc{name: o.Name, help: o.Help, labels: labels, key: o.Key,
		stat: statKey(o.Name, labels)}
}

// instrument is the registry's view of one metric.
type instrument struct {
	desc desc
	kind kind

	counter     *Counter
	hist        *Histogram
	counterFunc func() uint64
	gaugeFunc   func() float64
}

// count reads a counter instrument, striped or scrape-time.
func (inst *instrument) count() uint64 {
	if inst.counter != nil {
		return inst.counter.Value()
	}
	return inst.counterFunc()
}

type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry owns a set of instruments. Registration happens at startup
// (it takes a lock and validates uniqueness); recording on the
// returned instruments is lock-free.
type Registry struct {
	mu    sync.Mutex
	insts []*instrument
	byID  map[string]*instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]*instrument)}
}

// register validates and stores inst, panicking on a duplicate
// (name, labels) identity, a kind clash within a family, or two
// counters or gauges the naming rule gives one Stats key —
// registration is programmer-controlled startup code, where a silent
// collision would corrupt the exposition.
func (r *Registry) register(inst *instrument) {
	labels := labelString(inst.desc.labels)
	id := inst.desc.name + labels
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byID[id]; dup {
		panic(fmt.Sprintf("telemetry: duplicate instrument %s", id))
	}
	for _, other := range r.insts {
		if other.desc.name == inst.desc.name && other.kind != inst.kind {
			panic(fmt.Sprintf("telemetry: %s registered as both %s and %s",
				inst.desc.name, other.kind, inst.kind))
		}
		if inst.kind != kindHistogram && other.kind != kindHistogram && other.desc.stat == inst.desc.stat {
			panic(fmt.Sprintf("telemetry: %s and %s%s share the Stats key %s",
				id, other.desc.name, labelString(other.desc.labels), inst.desc.stat))
		}
	}
	// insts stays sorted by name, then label string: the exposition
	// order. Only a same-name neighbor's labels are rendered.
	i := sort.Search(len(r.insts), func(i int) bool {
		o := r.insts[i].desc
		return o.name > inst.desc.name || o.name == inst.desc.name && labelString(o.labels) > labels
	})
	r.byID[id] = inst
	r.insts = slices.Insert(r.insts, i, inst)
}

// NewCounter registers and returns a striped counter.
func (r *Registry) NewCounter(o Opts) *Counter {
	c := &Counter{desc: o.desc()}
	r.register(&instrument{desc: c.desc, kind: kindCounter, counter: c})
	return c
}

// NewCounterFunc registers a counter whose value is read from f at
// scrape time — for monotone totals that already live elsewhere
// (tsdb sample counts, WAL rows).
func (r *Registry) NewCounterFunc(o Opts, f func() uint64) {
	r.register(&instrument{desc: o.desc(), kind: kindCounter, counterFunc: f})
}

// NewGaugeFunc registers a gauge whose value is read from f at scrape
// time — for levels that already live elsewhere (live sessions, queue
// depths).
func (r *Registry) NewGaugeFunc(o Opts, f func() float64) {
	r.register(&instrument{desc: o.desc(), kind: kindGauge, gaugeFunc: f})
}

// NewLatencyHistogram registers a histogram recording nanosecond
// durations, exposed in Prometheus output in seconds (the convention
// for *_seconds families). Wire summaries stay in nanoseconds.
func (r *Registry) NewLatencyHistogram(o Opts) *Histogram {
	return r.NewLatencyHistogramCells(o, 1)
}

// NewLatencyHistogramCells is NewLatencyHistogram with cells bucket
// arrays instead of one: each recorder that runs beside the others
// observes into its own with ObserveAt, and every read sums them. A
// cell costs about 2 KiB.
func (r *Registry) NewLatencyHistogramCells(o Opts, cells int) *Histogram {
	h := newHistogram(o.desc(), 1e-9, cells)
	r.register(&instrument{desc: h.desc, kind: kindHistogram, hist: h})
	return h
}

// snapshot copies the instrument list for lock-free iteration during
// exposition. Instruments are append-only, so the copy stays valid.
func (r *Registry) snapshot() []*instrument {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*instrument(nil), r.insts...)
}

// Summaries returns the quantile summary of every keyed histogram with
// at least one observation — the compact per-op latency view that
// rides the wire STATS op (values in the histogram's raw unit,
// nanoseconds for latency histograms).
func (r *Registry) Summaries() map[string]Summary {
	out := make(map[string]Summary)
	for _, inst := range r.snapshot() {
		if inst.kind != kindHistogram || inst.desc.key == "" {
			continue
		}
		if sum := inst.hist.Summary(); sum.Count > 0 {
			out[inst.desc.key] = sum
		}
	}
	return out
}

// Stats returns every counter and gauge under its statKey name, gauges
// truncated to whole units (a negative level reads 0). It is a relaxed
// point-in-time read like a scrape, and holds exactly the non-histogram
// samples WritePrometheus would print.
func (r *Registry) Stats() map[string]uint64 {
	insts := r.snapshot()
	out := make(map[string]uint64, len(insts))
	for _, inst := range insts {
		switch inst.kind {
		case kindCounter:
			out[inst.desc.stat] = inst.count()
		case kindGauge:
			out[inst.desc.stat] = uint64(max(inst.gaugeFunc(), 0))
		}
	}
	return out
}
