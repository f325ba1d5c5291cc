package derive

import (
	"log/slog"
	"sync"

	"repro/internal/telemetry"
)

// Engine evaluates performance groups over live tick snapshots. It
// owns the per-session evaluation state the formulas need — previous
// counter values for deltas, previous timestamps for rates, compiled
// bindings against each session's event layout, and threshold-rule
// streaks — so the server's tick loop stays a single call:
//
//	eng.Tick(id, events, values, ts, groups, emit)
//
// Bindings are compiled once per (session, layout, group-set) and
// reused; steady-state evaluation does no parsing, no map lookups per
// instruction, and no allocation beyond the first tick's state build.
type Engine struct {
	reg   *Registry
	rules []Rule
	log   *slog.Logger

	evals  *telemetry.Counter // papid_derive_evals_total
	alerts *telemetry.Counter // papid_derive_alerts_total

	// Session state is striped by session ID so papid's parallel tick
	// workers evaluating distinct sessions never serialize on one
	// engine-wide lock. One session's Tick calls are still mutually
	// exclusive (its stripe's lock), which is all the per-session
	// delta/streak state needs.
	stripes [engineStripes]engineStripe
}

const engineStripes = 16

type engineStripe struct {
	mu       sync.Mutex
	sessions map[uint64]*sessionState
}

// stripeFor picks a session's stripe by Fibonacci-hashing its ID, like
// papid's registry shards, so sequential IDs spread out.
func (e *Engine) stripeFor(session uint64) *engineStripe {
	return &e.stripes[(session*0x9e3779b97f4a7c15)>>32%engineStripes]
}

// sessionState caches everything one session needs to evaluate its
// groups allocation-free: compiled bindings against the session's
// event layout, previous cumulative values for delta computation, and
// reusable output slices handed to the emit callback.
type sessionState struct {
	groups []string // group names the bindings were compiled for
	layout []string // event names the bindings were compiled for

	metrics []string // flattened metric names across groups
	units   []string
	bound   []Bound
	rules   []ruleBinding

	prev   []int64 // previous cumulative counter values
	prevTs int64   // previous snapshot timestamp (µs)
	have   bool    // prev is valid (at least one earlier tick seen)

	deltas []float64 // scratch: per-event deltas this interval
	vals   []float64 // scratch: per-metric outputs
}

// ruleBinding attaches one engine rule to a metric slot in this
// session's flattened metric list.
type ruleBinding struct {
	rule  Rule
	slot  int
	state ruleState
}

// NewEngine builds an engine over the given group registry (nil means
// the built-in library), threshold rules, and logger. Counters are
// registered on treg; pass nil to keep them private (tests).
func NewEngine(reg *Registry, rules []Rule, logger *slog.Logger, treg *telemetry.Registry) *Engine {
	if reg == nil {
		reg = NewRegistry()
	}
	if logger == nil {
		logger = slog.Default()
	}
	if treg == nil {
		treg = telemetry.NewRegistry()
	}
	e := &Engine{
		reg:   reg,
		rules: append([]Rule(nil), rules...),
		log:   logger,
		evals: treg.NewCounter(telemetry.Opts{Name: "papid_derive_evals_total",
			Help: "Derived-group evaluations that produced values (a session's first row, and a row after its counters went backwards, only prime the engine)."}),
		alerts: treg.NewCounter(telemetry.Opts{Name: "papid_derive_alerts_total",
			Help: "Threshold-rule alerts fired on derived metrics."}),
	}
	for i := range e.stripes {
		e.stripes[i].sessions = make(map[uint64]*sessionState)
	}
	return e
}

// Registry returns the engine's group registry.
func (e *Engine) Registry() *Registry { return e.reg }

// Rules returns a copy of the engine's threshold rules.
func (e *Engine) Rules() []Rule { return append([]Rule(nil), e.rules...) }

// Alerts returns the number of threshold alerts fired so far.
func (e *Engine) Alerts() uint64 { return e.alerts.Value() }

// Evals returns the number of completed group evaluations.
func (e *Engine) Evals() uint64 { return e.evals.Value() }

// Tick evaluates the named groups over one snapshot of a session's
// cumulative counters. events/values is the session's counter layout
// for this snapshot, tsUsec its timestamp. The first snapshot after a
// session appears (or changes layout) only primes the delta baseline;
// from the second on, emit is called with parallel metric-name, unit,
// and value slices.
//
// emit runs with the session's stripe lock held and the slices are
// reused on the next call for the same session — consume them
// synchronously (encode or copy), do not retain them.
//
// Tick reports how many threshold alerts fired during this
// evaluation, so callers (papid's flight recorder) can mark the
// surrounding tick or request as errored and tail-retain its trace.
func (e *Engine) Tick(session uint64, events []string, values []int64, tsUsec int64,
	groups []string, emit func(metrics, units []string, vals []float64)) (alerts int) {
	if len(groups) == 0 || len(events) == 0 || len(events) != len(values) {
		return 0
	}
	stripe := e.stripeFor(session)
	stripe.mu.Lock()
	defer stripe.mu.Unlock()

	st := stripe.sessions[session]
	if st == nil {
		st = &sessionState{}
		stripe.sessions[session] = st
	}
	if !sameStrings(st.layout, events) || !sameStrings(st.groups, groups) {
		if err := e.rebind(st, events, groups); err != nil {
			// Groups that reference events outside this session's set are
			// caught at subscription/registration time; this is the
			// belt-and-braces path for layouts that shrank since.
			e.log.Warn("derive: session binding failed", "session", session, "err", err)
			delete(stripe.sessions, session)
			return
		}
	}
	if len(st.bound) == 0 {
		return
	}
	if !st.have {
		copy(st.prev, values)
		st.prevTs = tsUsec
		st.have = true
		return
	}
	dtSec := float64(tsUsec-st.prevTs) / 1e6
	if dtSec < 0 {
		dtSec = 0
	}
	reset := false
	for i, v := range values {
		d := v - st.prev[i]
		if d < 0 {
			// Counter went backwards: the session's event set was reset
			// (STOP/START cycle). Re-prime rather than emit garbage.
			reset = true
		}
		st.deltas[i] = float64(d)
	}
	copy(st.prev, values)
	st.prevTs = tsUsec
	if reset {
		return
	}
	for i, b := range st.bound {
		st.vals[i] = b.Eval(st.deltas, dtSec)
	}
	// Counted on a stripe the session picks, as it picks the engine's:
	// papid's sweep workers evaluate here for every row, and draw no
	// random stripe for it.
	e.evals.AddAt(int(session), 1)
	for i := range st.rules {
		rb := &st.rules[i]
		v := st.vals[rb.slot]
		if rb.state.observe(rb.rule, v) {
			alerts++
			e.alerts.Inc()
			e.log.Warn("derive: threshold alert",
				"session", session,
				"metric", rb.rule.Metric,
				"value", v,
				"rule", rb.rule.String(),
				"streak", rb.state.streak)
		}
	}
	if emit != nil {
		emit(st.metrics, st.units, st.vals)
	}
	return alerts
}

// rebind recompiles the session's bindings for a new event layout or
// group set. Called under the session's stripe lock.
func (e *Engine) rebind(st *sessionState, events []string, groups []string) error {
	gs, err := e.reg.Resolve(groups)
	if err != nil {
		return err
	}
	index := make(map[string]int, len(events))
	for i, ev := range events {
		index[ev] = i
	}
	st.metrics = st.metrics[:0]
	st.units = st.units[:0]
	st.bound = st.bound[:0]
	for _, g := range gs {
		for i := range g.Metrics {
			m := &g.Metrics[i]
			b, err := m.expr.Bind(index)
			if err != nil {
				return err
			}
			st.metrics = append(st.metrics, m.Name)
			st.units = append(st.units, m.Unit)
			st.bound = append(st.bound, b)
		}
	}
	st.rules = st.rules[:0]
	for _, r := range e.rules {
		for slot, name := range st.metrics {
			if name == r.Metric {
				st.rules = append(st.rules, ruleBinding{rule: r, slot: slot})
			}
		}
	}
	st.layout = append(st.layout[:0], events...)
	st.groups = append(st.groups[:0], groups...)
	st.prev = resizeI64(st.prev, len(events))
	st.deltas = resizeF64(st.deltas, len(events))
	st.vals = resizeF64(st.vals, len(st.bound))
	st.have = false // deltas across a layout change are meaningless
	return nil
}

// CloseSession drops a session's evaluation state.
func (e *Engine) CloseSession(session uint64) {
	stripe := e.stripeFor(session)
	stripe.mu.Lock()
	delete(stripe.sessions, session)
	stripe.mu.Unlock()
}

// SessionCount returns the number of sessions with live state (tests,
// leak checks).
func (e *Engine) SessionCount() int {
	n := 0
	for i := range e.stripes {
		e.stripes[i].mu.Lock()
		n += len(e.stripes[i].sessions)
		e.stripes[i].mu.Unlock()
	}
	return n
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func resizeI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func resizeF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
