package derive

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Rule watches one derived metric and trips after the value stays out
// of bounds for N consecutive evaluations — the hysteresis keeps a
// single noisy tick from paging anyone. Above selects the direction:
// true fires when value > Bound, false when value < Bound.
type Rule struct {
	Metric string
	Above  bool
	Bound  float64
	N      int
}

// String renders the rule in the -derive-rules flag syntax.
func (r Rule) String() string {
	op := "<"
	if r.Above {
		op = ">"
	}
	return fmt.Sprintf("%s%s%g:%d", r.Metric, op, r.Bound, r.N)
}

// DefaultRuleN is the consecutive-breach count when a rule spec omits
// the :N suffix.
const DefaultRuleN = 3

// ParseRule parses one "metric<bound[:N]" / "metric>bound[:N]" spec,
// e.g. "ipc<0.5:3" — warn when IPC stays below 0.5 for 3 straight
// evaluations.
func ParseRule(spec string) (Rule, error) {
	spec = strings.TrimSpace(spec)
	i := strings.IndexAny(spec, "<>")
	if i <= 0 {
		return Rule{}, fmt.Errorf("derive: rule %q: want metric<bound[:N] or metric>bound[:N]", spec)
	}
	r := Rule{Metric: spec[:i], Above: spec[i] == '>', N: DefaultRuleN}
	rest := spec[i+1:]
	if j := strings.IndexByte(rest, ':'); j >= 0 {
		n, err := strconv.Atoi(rest[j+1:])
		if err != nil || n < 1 {
			return Rule{}, fmt.Errorf("derive: rule %q: bad streak count %q", spec, rest[j+1:])
		}
		r.N = n
		rest = rest[:j]
	}
	bound, err := strconv.ParseFloat(rest, 64)
	if err != nil || math.IsNaN(bound) || math.IsInf(bound, 0) {
		// Every comparison with NaN is false, and an infinite bound is
		// breached by every value or by none: no such rule watches.
		return Rule{}, fmt.Errorf("derive: rule %q: bad bound %q", spec, rest)
	}
	r.Bound = bound
	return r, nil
}

// ParseRules parses a comma-separated rule list ("ipc<0.5:3,cpi>4").
// Empty input yields no rules.
func ParseRules(specs string) ([]Rule, error) {
	specs = strings.TrimSpace(specs)
	if specs == "" {
		return nil, nil
	}
	var out []Rule
	for _, part := range strings.Split(specs, ",") {
		r, err := ParseRule(part)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// breached reports whether the value is out of bounds for this rule.
func (r Rule) breached(v float64) bool {
	if r.Above {
		return v > r.Bound
	}
	return v < r.Bound
}

// ruleState tracks one rule's streak for one session. A rule fires
// once when the streak reaches N, then stays latched until the value
// returns in bounds, re-arming it — so a sustained breach produces one
// alert, not one per tick.
type ruleState struct {
	streak int
	fired  bool
}

// observe advances the state with one evaluation and reports whether
// the rule fires on this observation.
func (s *ruleState) observe(r Rule, v float64) bool {
	if !r.breached(v) {
		s.streak = 0
		s.fired = false
		return false
	}
	s.streak++
	if s.streak >= r.N && !s.fired {
		s.fired = true
		return true
	}
	return false
}
