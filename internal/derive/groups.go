package derive

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
)

// NominalLineBytes is the cache-line size assumed by the memory
// bandwidth estimate. The simulated substrates use 32-, 64- and
// 128-byte lines depending on platform, so `membw` is an estimate in
// LIKWID's sense — a consistent, comparable figure, not a promise of
// bus-exact bytes. 64 is the dominant real-hardware line size and the
// documented nominal here.
const NominalLineBytes = 64

// Metric is one derived series inside a group: a display name, a unit
// for rendering, and the compiled formula.
type Metric struct {
	Name    string
	Unit    string
	Formula string
	expr    *Expr
}

// Expr returns the compiled formula.
func (m *Metric) Expr() *Expr { return m.expr }

// Group is a LIKWID-style performance group: a named bundle of derived
// metrics over a fixed set of counter events. Groups are immutable
// after registration.
type Group struct {
	Name    string
	Desc    string
	Metrics []Metric
	events  []string // union of metric event requirements, sorted
}

// Events returns the union of events the group's formulas need, sorted.
func (g *Group) Events() []string { return append([]string(nil), g.events...) }

// Registry maps group names to registered groups. The zero value is
// empty; NewRegistry pre-loads the built-in library.
type Registry struct {
	mu     sync.RWMutex
	groups map[string]*Group
}

// Builtin group definitions, LIKWID-style, over the validated preset
// events of internal/core. Formula semantics: bare events are
// per-interval deltas, rate() divides by interval seconds, division by
// zero yields zero.
func builtinGroups() []Group {
	return []Group{
		{
			Name: "ipc", Desc: "Instruction throughput",
			Metrics: []Metric{
				{Name: "ipc", Unit: "instr/cycle", Formula: "PAPI_TOT_INS / PAPI_TOT_CYC"},
				{Name: "mips", Unit: "Minstr/s", Formula: "rate(PAPI_TOT_INS) / 1e6"},
			},
		},
		{
			Name: "cpi", Desc: "Cycles per instruction",
			Metrics: []Metric{
				{Name: "cpi", Unit: "cycle/instr", Formula: "PAPI_TOT_CYC / PAPI_TOT_INS"},
				{Name: "stall_ratio", Unit: "ratio", Formula: "PAPI_RES_STL / PAPI_TOT_CYC"},
			},
		},
		{
			Name: "brmiss", Desc: "Branch prediction",
			Metrics: []Metric{
				{Name: "br_msp_ratio", Unit: "ratio", Formula: "PAPI_BR_MSP / PAPI_BR_INS"},
				{Name: "br_per_instr", Unit: "ratio", Formula: "PAPI_BR_INS / PAPI_TOT_INS"},
			},
		},
		{
			Name: "l1miss", Desc: "L1 data cache",
			Metrics: []Metric{
				{Name: "l1d_miss_ratio", Unit: "ratio", Formula: "PAPI_L1_DCM / PAPI_L1_DCA"},
				{Name: "l1d_miss_per_kinstr", Unit: "miss/kinstr", Formula: "PAPI_L1_DCM / PAPI_TOT_INS * 1000"},
			},
		},
		{
			Name: "l2miss", Desc: "L2 cache",
			Metrics: []Metric{
				{Name: "l2_miss_ratio", Unit: "ratio", Formula: "PAPI_L2_TCM / PAPI_L2_TCA"},
				{Name: "l2_miss_per_kinstr", Unit: "miss/kinstr", Formula: "PAPI_L2_TCM / PAPI_TOT_INS * 1000"},
			},
		},
		{
			Name: "flops", Desc: "Floating-point throughput",
			Metrics: []Metric{
				{Name: "mflops", Unit: "Mflop/s", Formula: "rate(PAPI_FP_OPS) / 1e6"},
				{Name: "fp_per_instr", Unit: "ratio", Formula: "PAPI_FP_OPS / PAPI_TOT_INS"},
			},
		},
		{
			Name: "membw", Desc: "Memory bandwidth estimate (L2 miss traffic, nominal 64B lines)",
			Metrics: []Metric{
				{Name: "mem_bw_mbs", Unit: "MB/s", Formula: "rate(PAPI_L2_TCM) * 64 / 1e6"},
				{Name: "bytes_per_instr", Unit: "B/instr", Formula: "PAPI_L2_TCM * 64 / PAPI_TOT_INS"},
			},
		},
	}
}

// NewRegistry builds a registry pre-loaded with the built-in group
// library. The builtins pass the same validation gate as user groups;
// a failure there is a programming error and panics.
func NewRegistry() *Registry {
	r := &Registry{groups: make(map[string]*Group)}
	for _, g := range builtinGroups() {
		if err := r.Register(g); err != nil {
			panic(fmt.Sprintf("derive: builtin group %s: %v", g.Name, err))
		}
	}
	return r
}

// Register validates and installs a group. Registration is the trust
// boundary: formulas must parse, every referenced event must be a
// known preset name AND certified by the validation campaign
// (validated.go), and names must be unique within the group and the
// registry. A group rejected here can never reach tick evaluation.
func (r *Registry) Register(g Group) error {
	if g.Name == "" {
		return fmt.Errorf("derive: group needs a name")
	}
	if len(g.Metrics) == 0 {
		return fmt.Errorf("derive: group %s has no metrics", g.Name)
	}
	evset := make(map[string]bool)
	seen := make(map[string]bool)
	metrics := make([]Metric, len(g.Metrics))
	for i, m := range g.Metrics {
		if m.Name == "" {
			return fmt.Errorf("derive: group %s: metric %d needs a name", g.Name, i)
		}
		if seen[m.Name] {
			return fmt.Errorf("derive: group %s: duplicate metric %s", g.Name, m.Name)
		}
		seen[m.Name] = true
		expr := m.expr
		if expr == nil {
			var err error
			expr, err = Parse(m.Formula)
			if err != nil {
				return fmt.Errorf("derive: group %s metric %s: %w", g.Name, m.Name, err)
			}
		}
		for _, ev := range expr.Events() {
			if _, ok := core.PresetByName(ev); !ok {
				return fmt.Errorf("derive: group %s metric %s: %s is not a preset event", g.Name, m.Name, ev)
			}
			if !EventValidated(ev) {
				return fmt.Errorf("derive: group %s metric %s: event %s is not validated against ground truth (see EXPERIMENTS.md)", g.Name, m.Name, ev)
			}
			evset[ev] = true
		}
		metrics[i] = Metric{Name: m.Name, Unit: m.Unit, Formula: m.Formula, expr: expr}
	}
	events := make([]string, 0, len(evset))
	for ev := range evset {
		events = append(events, ev)
	}
	sort.Strings(events)
	ng := &Group{Name: g.Name, Desc: g.Desc, Metrics: metrics, events: events}

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.groups == nil {
		r.groups = make(map[string]*Group)
	}
	if _, dup := r.groups[g.Name]; dup {
		return fmt.Errorf("derive: group %s already registered", g.Name)
	}
	r.groups[g.Name] = ng
	return nil
}

// Lookup returns the named group, or nil.
func (r *Registry) Lookup(name string) *Group {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.groups[name]
}

// Names lists registered group names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.groups))
	for n := range r.groups {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Defines reports whether a registered group has a metric of this name.
func (r *Registry) Defines(metric string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, g := range r.groups {
		for _, m := range g.Metrics {
			if m.Name == metric {
				return true
			}
		}
	}
	return false
}

// Resolve maps group names to groups, failing on the first unknown
// name with the known names in the error for operator diagnostics.
func (r *Registry) Resolve(names []string) ([]*Group, error) {
	out := make([]*Group, 0, len(names))
	for _, n := range names {
		g := r.Lookup(n)
		if g == nil {
			return nil, fmt.Errorf("derive: unknown group %q (have %v)", n, r.Names())
		}
		out = append(out, g)
	}
	return out, nil
}

// EventsFor returns the sorted union of events required by the named
// groups.
func EventsFor(groups []*Group) []string {
	set := make(map[string]bool)
	for _, g := range groups {
		for _, ev := range g.events {
			set[ev] = true
		}
	}
	out := make([]string, 0, len(set))
	for ev := range set {
		out = append(out, ev)
	}
	sort.Strings(out)
	return out
}
