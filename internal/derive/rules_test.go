package derive

import "testing"

func TestParseRule(t *testing.T) {
	cases := []struct {
		spec string
		want Rule
	}{
		{"ipc<0.5:3", Rule{Metric: "ipc", Above: false, Bound: 0.5, N: 3}},
		{"cpi>4", Rule{Metric: "cpi", Above: true, Bound: 4, N: DefaultRuleN}},
		{" mem_bw_mbs>1e3:1 ", Rule{Metric: "mem_bw_mbs", Above: true, Bound: 1000, N: 1}},
		{"l2_miss_ratio>0.9:10", Rule{Metric: "l2_miss_ratio", Above: true, Bound: 0.9, N: 10}},
	}
	for _, c := range cases {
		got, err := ParseRule(c.spec)
		if err != nil {
			t.Errorf("ParseRule(%q): %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseRule(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}
	for _, bad := range []string{"", "ipc", "<0.5", "ipc<", "ipc<x", "ipc<0.5:0", "ipc<0.5:x", "ipc=0.5",
		"ipc<NaN", "ipc>nan:2", "ipc<Inf", "ipc>-infinity", "ipc<1e999"} {
		if _, err := ParseRule(bad); err == nil {
			t.Errorf("ParseRule(%q) accepted", bad)
		}
	}
}

func TestParseRules(t *testing.T) {
	rs, err := ParseRules("ipc<0.5:3,cpi>4")
	if err != nil || len(rs) != 2 {
		t.Fatalf("ParseRules: %v, %d rules", err, len(rs))
	}
	if rs[0].String() != "ipc<0.5:3" || rs[1].String() != "cpi>4:3" {
		t.Errorf("round trip: %v / %v", rs[0], rs[1])
	}
	if rs, err := ParseRules(""); err != nil || rs != nil {
		t.Errorf("empty spec: %v, %v", rs, err)
	}
	if _, err := ParseRules("ipc<0.5,,cpi>4"); err == nil {
		t.Error("empty element accepted")
	}
}

// A rule fires once when the breach streak reaches N, stays latched
// through a sustained breach, and re-arms after one in-bounds value.
func TestRuleStreakLatch(t *testing.T) {
	r := Rule{Metric: "ipc", Above: false, Bound: 0.5, N: 3}
	var st ruleState
	seq := []struct {
		v    float64
		fire bool
	}{
		{0.4, false}, // streak 1
		{0.9, false}, // in bounds: reset
		{0.4, false}, // streak 1
		{0.3, false}, // streak 2
		{0.2, true},  // streak 3: fire
		{0.1, false}, // latched
		{0.1, false}, // latched
		{0.8, false}, // recover: re-arm
		{0.4, false},
		{0.4, false},
		{0.4, true}, // second alert
	}
	for i, s := range seq {
		if got := st.observe(r, s.v); got != s.fire {
			t.Fatalf("step %d (v=%g): fire=%v, want %v", i, s.v, got, s.fire)
		}
	}
}

func TestRuleAbove(t *testing.T) {
	r := Rule{Metric: "cpi", Above: true, Bound: 4, N: 1}
	var st ruleState
	if st.observe(r, 3.9) {
		t.Error("fired in bounds")
	}
	if !st.observe(r, 4.1) {
		t.Error("did not fire above bound")
	}
	if r.breached(4) {
		t.Error("bound itself counts as breach; want strict >")
	}
}
