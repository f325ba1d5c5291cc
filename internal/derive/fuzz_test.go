package derive

import (
	"math"
	"testing"
)

// FuzzParse feeds the formula compiler what papid -groups and a group
// registration hand it. Whatever it accepts must keep its source, fit
// the evaluation stack, bind to its own events and evaluate to a finite
// value over any deltas without panicking.
func FuzzParse(f *testing.F) {
	for _, g := range builtinGroups() {
		for _, m := range g.Metrics {
			f.Add(m.Formula, 1.0, 2.0, 0.05)
		}
	}
	f.Add("-(-rate(A) / ((B)) - 1e308*1e308)", math.Inf(1), math.NaN(), 0.0)
	f.Add("((((((((((((((((x))))))))))))))))", 0.0, 0.0, -1.0)
	f.Fuzz(func(t *testing.T, src string, d0, d1, dt float64) {
		e, err := Parse(src)
		if err != nil {
			return
		}
		if e.String() != src {
			t.Fatalf("Parse(%q).String() = %q", src, e.String())
		}
		if e.depth < 1 || e.depth > maxStack {
			t.Fatalf("Parse(%q) accepted stack depth %d, limit %d", src, e.depth, maxStack)
		}
		index := make(map[string]int)
		deltas := make([]float64, 0, len(e.events))
		for i, ev := range e.Events() {
			index[ev] = i
			deltas = append(deltas, [2]float64{d0, d1}[i%2])
		}
		b, err := e.Bind(index)
		if err != nil {
			t.Fatalf("Parse(%q) does not bind to its own events: %v", src, err)
		}
		if v := b.Eval(deltas, dt); math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("Parse(%q) evaluates to %v", src, v)
		}
	})
}

// FuzzParseRule feeds the rule parser what papid -derive-rules hands it.
// Whatever it accepts must have a finite bound and a streak of at least
// one, and print as a spec that parses back to the same rule.
func FuzzParseRule(f *testing.F) {
	for _, spec := range []string{"ipc<0.5:3", "cpi>4", " mem_bw_mbs>1e3:1 ", "ipc<NaN", "ipc <0x1p-2:+7", "a:b>-0"} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		r, err := ParseRule(spec)
		if err != nil {
			return
		}
		if math.IsNaN(r.Bound) || math.IsInf(r.Bound, 0) || r.N < 1 {
			t.Fatalf("ParseRule(%q) = %+v: bound must be finite and N at least 1", spec, r)
		}
		back, err := ParseRule(r.String())
		if err != nil || back != r {
			t.Fatalf("ParseRule(%q) = %+v prints as %q, which parses to %+v, %v", spec, r, r.String(), back, err)
		}
	})
}
