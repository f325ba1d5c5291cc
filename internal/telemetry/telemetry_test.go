package telemetry

import (
	"maps"
	"math/rand/v2"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// scrape renders reg as Prometheus text and parses it back into
// header lines and sample values — a minimal format-0.0.4 parser that
// doubles as the format check.
func scrape(t *testing.T, reg *Registry) (types map[string]string, samples map[string]float64) {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	types = make(map[string]string)
	samples = make(map[string]float64)
	for _, line := range strings.Split(sb.String(), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment line %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("sample line %q: %v", line, err)
		}
		if _, dup := samples[line[:sp]]; dup {
			t.Fatalf("duplicate sample %q", line[:sp])
		}
		samples[line[:sp]] = v
	}
	return types, samples
}

func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter(Opts{Name: "papid_frames_sent_total", Help: "frames", Labels: []Label{{"codec", "json"}}})
	c2 := reg.NewCounter(Opts{Name: "papid_frames_sent_total", Labels: []Label{{"codec", "binary"}}})
	reg.NewGaugeFunc(Opts{Name: "papid_sessions", Help: "live sessions"}, func() float64 { return 3 })
	reg.NewCounterFunc(Opts{Name: "papid_cache_hits_total"}, func() uint64 { return 42 })
	reg.NewGaugeFunc(Opts{Name: "papid_uptime_seconds"}, func() float64 { return 1.5 })
	h := reg.NewLatencyHistogram(Opts{Name: "papid_op_latency_seconds", Help: "per-op latency", Key: "op/READ/json"})

	c.Add(7)
	c2.Inc()
	h.Observe(2_000_000_000) // 2s in ns
	h.Observe(5)             // 5ns

	types, samples := scrape(t, reg)
	wantTypes := map[string]string{
		"papid_frames_sent_total":  "counter",
		"papid_sessions":           "gauge",
		"papid_cache_hits_total":   "counter",
		"papid_uptime_seconds":     "gauge",
		"papid_op_latency_seconds": "histogram",
	}
	for fam, kind := range wantTypes {
		if types[fam] != kind {
			t.Errorf("family %s: TYPE %q, want %q", fam, types[fam], kind)
		}
	}
	if v := samples[`papid_frames_sent_total{codec="json"}`]; v != 7 {
		t.Errorf("labeled counter = %v, want 7", v)
	}
	if v := samples[`papid_frames_sent_total{codec="binary"}`]; v != 1 {
		t.Errorf("labeled counter = %v, want 1", v)
	}
	if v := samples["papid_sessions"]; v != 3 {
		t.Errorf("gauge = %v, want 3", v)
	}
	if v := samples["papid_cache_hits_total"]; v != 42 {
		t.Errorf("counter func = %v, want 42", v)
	}
	if v := samples["papid_uptime_seconds"]; v != 1.5 {
		t.Errorf("gauge func = %v, want 1.5", v)
	}
	// Histogram: +Inf bucket == _count == 2; _sum scaled into seconds.
	if v := samples[`papid_op_latency_seconds_bucket{le="+Inf"}`]; v != 2 {
		t.Errorf("+Inf bucket = %v, want 2", v)
	}
	if v := samples["papid_op_latency_seconds_count"]; v != 2 {
		t.Errorf("_count = %v, want 2", v)
	}
	if v := samples["papid_op_latency_seconds_sum"]; v < 2.0 || v > 2.001 {
		t.Errorf("_sum = %v, want ~2.000000005 seconds", v)
	}
	// Cumulative buckets are monotone in le order, and every occupied
	// bucket's le is a finite second value.
	var bounds []float64
	cums := map[float64]float64{}
	for key, v := range samples {
		if !strings.HasPrefix(key, `papid_op_latency_seconds_bucket{le="`) || strings.Contains(key, "+Inf") {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(key, `papid_op_latency_seconds_bucket{le="`), `"}`), 64)
		if err != nil {
			t.Fatalf("bucket key %q: %v", key, err)
		}
		bounds = append(bounds, le)
		cums[le] = v
	}
	if len(bounds) != 2 {
		t.Fatalf("want 2 occupied buckets, got %v", bounds)
	}
	lo, hi := bounds[0], bounds[1]
	if lo > hi {
		lo, hi = hi, lo
	}
	if cums[lo] > cums[hi] {
		t.Errorf("cumulative counts not monotone: le=%g has %g, le=%g has %g", lo, cums[lo], hi, cums[hi])
	}
}

func TestSummariesKeyedOnly(t *testing.T) {
	reg := NewRegistry()
	keyed := reg.NewLatencyHistogram(Opts{Name: "a", Key: "op/READ/json"})
	unkeyed := reg.NewLatencyHistogram(Opts{Name: "b"})
	empty := reg.NewLatencyHistogram(Opts{Name: "c", Key: "tick"})
	_ = empty
	keyed.Observe(10)
	unkeyed.Observe(10)
	s := reg.Summaries()
	if len(s) != 1 {
		t.Fatalf("Summaries() = %v, want just the keyed+observed one", s)
	}
	if got := s["op/READ/json"]; got.Count != 1 || got.Max != 10 {
		t.Errorf("summary = %+v", got)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter(Opts{Name: "x", Labels: []Label{{"a", "1"}}})
	// Same name, different labels: fine.
	reg.NewCounter(Opts{Name: "x", Labels: []Label{{"a", "2"}}})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate (name, labels) did not panic")
			}
		}()
		reg.NewCounter(Opts{Name: "x", Labels: []Label{{"a", "1"}}})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("kind clash within a family did not panic")
			}
		}()
		reg.NewGaugeFunc(Opts{Name: "x", Labels: []Label{{"a", "3"}}}, func() float64 { return 0 })
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("two instruments with one Stats key did not panic")
			}
		}()
		reg.NewCounter(Opts{Name: "papid_x_1_total"}) // x{a="1"} is already "x_1"
	}()
}

// TestRegistrationOrderDoesNotMatter registers one set of instruments
// in order and in shuffled orders: the exposition must come out byte
// for byte the same. The set has names that are prefixes of others
// (papid_x, papid_x_total) and label names that are prefixes of others
// (a, a0), where sorting by the joined name and labels would differ
// from sorting by name and then labels, and split a family.
func TestRegistrationOrderDoesNotMatter(t *testing.T) {
	type spec struct {
		opts Opts
		kind kind
	}
	var specs []spec
	for _, name := range []string{"papid_x", "papid_x_total", "papid_xa_total", "papid_a", "papid_z_seconds"} {
		k := map[string]kind{"papid_x": kindHistogram, "papid_a": kindGauge, "papid_z_seconds": kindGauge}[name]
		specs = append(specs, spec{Opts{Name: name, Help: name + " help"}, k})
		for _, l := range [][]Label{{{"a", "1"}}, {{"a0", "2"}}, {{"b", "3"}, {"a", "4"}}, {{"a", "x y"}}} {
			specs = append(specs, spec{Opts{Name: name, Labels: l, Key: name + labelString(l)}, k})
		}
	}
	exposition := func(order []int) string {
		reg := NewRegistry()
		for _, i := range order {
			sp := specs[i]
			switch sp.kind {
			case kindCounter:
				reg.NewCounter(sp.opts).Add(uint64(i))
			case kindGauge:
				reg.NewGaugeFunc(sp.opts, func() float64 { return float64(i) })
			default:
				reg.NewLatencyHistogram(sp.opts).Observe(int64(i) * 1000)
			}
		}
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	want := exposition(order)
	var families []string
	for _, line := range strings.Split(want, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			families = append(families, f[2])
		}
	}
	if !slices.IsSorted(families) || len(families) != 5 {
		t.Fatalf("families exposed in the order %v, want each once, sorted", families)
	}
	r := rand.New(rand.NewPCG(1, 2))
	for round := 0; round < 20; round++ {
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		if got := exposition(order); got != want {
			t.Fatalf("registered in order %v, the exposition is\n%s\nwant\n%s", order, got, want)
		}
	}
}

// TestStats pins the walk and its naming rule: every counter and gauge
// under its metric name minus "papid_" and "_total" plus one "_<value>"
// per label in label-name order, gauges truncated and clamped at zero,
// histograms absent.
func TestStats(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter(Opts{Name: "papid_frames_sent_total", Labels: []Label{{"codec", "json"}}}).Add(9)
	reg.NewCounter(Opts{Name: "papid_frames_sent_total", Labels: []Label{{"codec", "binary"}}})
	reg.NewCounter(Opts{Name: "papid_moved_total", Labels: []Label{{"to", "b"}, {"from", "a"}}}).Inc()
	reg.NewCounterFunc(Opts{Name: "papid_wal_rows_total"}, func() uint64 { return 42 })
	reg.NewGaugeFunc(Opts{Name: "papid_uptime_seconds"}, func() float64 { return 2.9 })
	reg.NewGaugeFunc(Opts{Name: "papid_total_debt"}, func() float64 { return -1 })
	reg.NewCounter(Opts{Name: "unprefixed"}).Add(5)
	reg.NewLatencyHistogram(Opts{Name: "papid_tick_duration_seconds", Key: "tick"}).Observe(100)
	want := map[string]uint64{
		"frames_sent_json": 9, "frames_sent_binary": 0, "moved_a_b": 1, "wal_rows": 42,
		"uptime_seconds": 2, "total_debt": 0, "unprefixed": 5,
	}
	if got := reg.Stats(); !maps.Equal(got, want) {
		t.Errorf("Stats() = %v, want %v", got, want)
	}
}

func TestHTTPHandler(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter(Opts{Name: "papid_ticks_total"}).Inc()
	h := HandlerWith(reg, func() any { return map[string]int{"sessions": 2} }, nil)

	get := func(path string) (int, string, string) {
		req := httptest.NewRequest("GET", path, nil)
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		return rw.Code, rw.Header().Get("Content-Type"), rw.Body.String()
	}
	if code, ct, body := get("/metrics"); code != 200 ||
		!strings.HasPrefix(ct, "text/plain; version=0.0.4") ||
		!strings.Contains(body, "papid_ticks_total 1") {
		t.Errorf("/metrics: %d %q %q", code, ct, body)
	}
	if code, ct, body := get("/statusz"); code != 200 ||
		!strings.HasPrefix(ct, "application/json") ||
		!strings.Contains(body, `"sessions": 2`) {
		t.Errorf("/statusz: %d %q %q", code, ct, body)
	}
	if code, _, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: %d %q", code, body)
	}
	if code, _, _ := get("/nonsense"); code != 404 {
		t.Errorf("/nonsense: %d, want 404", code)
	}
	if code, _, body := get("/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Errorf("index: %d %q", code, body)
	}
}

func TestFormatSummaryTable(t *testing.T) {
	hists := map[string]Summary{
		"op/READ/json": {Count: 10, P50: 30_000, P90: 60_000, P99: 100_000, Max: 120_000},
		"tick":         {Count: 3, P50: 1000, P90: 2000, P99: 2000, Max: 2500},
	}
	table := FormatSummaryTable(hists, nil)
	if !strings.Contains(table, "op/READ/json") || !strings.Contains(table, "tick") {
		t.Errorf("table lacks keys:\n%s", table)
	}
	if !strings.Contains(table, "30.0") { // 30_000ns = 30.0µs
		t.Errorf("table lacks µs-scaled p50:\n%s", table)
	}
	only := FormatSummaryTable(hists, func(k string) bool { return strings.HasPrefix(k, "op/") })
	if strings.Contains(only, "tick") {
		t.Errorf("filter kept excluded key:\n%s", only)
	}
	if got := FormatSummaryTable(nil, nil); got != "" {
		t.Errorf("empty table = %q", got)
	}
}
