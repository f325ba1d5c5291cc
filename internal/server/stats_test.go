// The registry is the only ledger: the STATS reply, Server.Stats() and
// the stats object of /statusz are one walk of it, under one naming
// rule, and value for value what /metrics exposes.
package server

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// statKeyOf is the naming rule written out a second time, from a
// /metrics sample ("papid_frames_sent_total{codec=\"json\"}") to the
// STATS key it must appear under: the metric name minus "papid_" and
// "_total", plus "_<value>" per label.
func statKeyOf(sample string) string {
	name, labels, _ := strings.Cut(sample, "{")
	key := strings.TrimSuffix(strings.TrimPrefix(name, "papid_"), "_total")
	for _, kv := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
		if _, v, ok := strings.Cut(kv, "="); ok {
			key += "_" + strings.Trim(v, `"`)
		}
	}
	return key
}

// scrapeStats fetches /metrics and returns every counter and gauge
// sample, keyed as the exposition prints it.
func scrapeStats(t *testing.T, base string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	kind := ""
	for _, line := range strings.Split(adminGet(t, base+"/metrics"), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			kind = f[3]
		}
		if line == "" || line[0] == '#' || kind == "histogram" {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("sample line %q: %v", line, err)
		}
		samples[line[:sp]] = v
	}
	return samples
}

// statsDiff lists where a and b disagree: a key only one of them holds,
// or — unless it is one of the volatile keys, which move on their own —
// a key they hold different values for.
func statsDiff(a, b map[string]uint64, volatile ...string) []string {
	var diff []string
	for k, v := range a {
		if w, ok := b[k]; !ok {
			diff = append(diff, k+" only in the first")
		} else if v != w && !slices.Contains(volatile, k) {
			diff = append(diff, fmt.Sprintf("%s: %d vs %d", k, v, w))
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			diff = append(diff, k+" only in the second")
		}
	}
	slices.Sort(diff)
	return diff
}

// TestStatsIsTheRegistry drives a seeded mix of create, subscribe,
// publish, tick, query and garbage through a durable, traced papid,
// lets it settle, and reads its numbers four ways. Every counter and
// gauge sample of the /metrics scrape must equal the STATS key the rule
// gives it, STATS must hold no key without a sample and no key twice,
// and the wire STATS reply, Server.Stats() and /statusz must carry the
// same map.
func TestStatsIsTheRegistry(t *testing.T) {
	srv, addr := startServer(t, Config{TickInterval: time.Hour, KeyframeEvery: 3,
		DataDir: t.TempDir(), Fsync: "always", SlowOp: time.Nanosecond, TraceRing: 64, Groups: []string{"ipc"}})
	aaddr, err := srv.ListenAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + aaddr.String()
	rng := rand.New(rand.NewSource(22))
	events := []string{"PAPI_TOT_INS", "PAPI_TOT_CYC"}

	ctl := dialT(t, addr)
	var ids []uint64
	for i := 0; i < 4; i++ {
		created, err := ctl.Do(wire.Request{Op: wire.OpCreate, Workload: "none", Label: fmt.Sprint("pub-", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, created.Session)
	}
	live, err := ctl.Do(wire.Request{Op: wire.OpCreate, Events: events, Workload: "dot", N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Do(wire.Request{Op: wire.OpStart, Session: live.Session}); err != nil {
		t.Fatal(err)
	}

	// A binary subscriber: plain on the first session and the live one,
	// delta on the second, projected on the third; the fourth has none.
	sub := dialBinary(t, addr)
	for _, req := range []wire.Request{
		{Op: wire.OpSubscribe, Session: ids[0]},
		{Op: wire.OpSubscribe, Session: live.Session},
		{Op: wire.OpSubscribe, Session: ids[1], Delta: true},
		{Op: wire.OpSubscribe, Session: ids[2], Events: events[:1]},
	} {
		if _, err := sub.Do(req); err != nil {
			t.Fatal(err)
		}
	}
	var drained sync.WaitGroup
	drained.Add(1)
	go func() {
		defer drained.Done()
		for {
			if _, err := sub.Next(); err != nil {
				return
			}
		}
	}()

	vals := make([]int64, len(ids))
	for step := 0; step < 200; step++ {
		switch i := rng.Intn(len(ids)); rng.Intn(5) {
		case 0:
			srv.tick()
		case 1:
			q := wire.Request{Op: wire.OpQuery, Session: ids[i], To: math.MaxInt64,
				Step: int64(rng.Intn(2)) * int64(10*time.Second/time.Microsecond)}
			if _, err := ctl.Do(q); err != nil {
				t.Fatal(err)
			}
		default:
			vals[i] += 1 + int64(rng.Intn(1000))
			if _, err := ctl.Do(wire.Request{Op: wire.OpPublish, Session: ids[i],
				Events: events, Values: []int64{2 * vals[i], vals[i]}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// One malformed line, answered and survived.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	fmt.Fprintln(raw, "{nonsense")
	if _, err := raw.Read(make([]byte, 512)); err != nil {
		t.Fatal(err)
	}

	// Settle: every queue empty, every request trace finished by the
	// writer that sent its reply, and two reads apart agreeing.
	volatile := []string{"goroutines", "uptime_seconds"}
	var direct map[string]uint64
	for deadline := time.Now().Add(10 * time.Second); ; {
		first := srv.Stats()
		time.Sleep(20 * time.Millisecond) // the writers settle on their own goroutines
		direct = srv.Stats()
		if direct["write_queue_frames"] == 0 &&
			srv.trc.TracerStats().Started == direct["traces_kept_slow"]+direct["traces_kept_err"] &&
			len(statsDiff(first, direct, volatile...)) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("Stats() never settled: %v", direct)
		}
	}
	for _, k := range []string{"sessions", "connections", "snapshots_sent", "deltas_sent",
		"keyframes_sent", "derived_sent", "derive_evals", "frames_sent_json", "frames_sent_binary",
		"bytes_sent_binary", "resyncs", "tsdb_samples", "tsdb_bytes", "wal_rows", "wal_fsyncs",
		"wal_disk_bytes", "wal_files", "traces_kept_slow", "tick_workers"} {
		if stat(t, srv, k) == 0 {
			t.Errorf("%s is 0 after the mix: the comparison below would not see it move", k)
		}
	}

	// /metrics against Stats(): the rule maps each sample to one key
	// with the sample's value, and covers every key.
	byKey := make(map[string]uint64)
	for sample, v := range scrapeStats(t, base) {
		key := statKeyOf(sample)
		if _, dup := byKey[key]; dup {
			t.Errorf("two /metrics samples map to the STATS key %s", key)
		}
		byKey[key] = uint64(v)
	}
	if diff := statsDiff(byKey, direct, volatile...); len(diff) != 0 {
		t.Errorf("/metrics and Stats() differ on %v", diff)
	}

	// /statusz carries the same map.
	var status struct {
		Stats map[string]uint64 `json:"stats"`
	}
	if err := json.Unmarshal([]byte(adminGet(t, base+"/statusz")), &status); err != nil {
		t.Fatal(err)
	}
	if diff := statsDiff(status.Stats, direct, volatile...); len(diff) != 0 {
		t.Errorf("/statusz stats and Stats() differ on %v", diff)
	}

	// So does the wire reply — walked inside its own request, whose
	// trace is not finished and whose reply frame is not yet written,
	// so nothing it reads has moved.
	reply, err := ctl.Do(wire.Request{Op: wire.OpStats})
	if err != nil {
		t.Fatal(err)
	}
	if diff := statsDiff(reply.Stats, direct, volatile...); len(diff) != 0 {
		t.Errorf("the STATS reply and Stats() differ on %v", diff)
	}

	sub.Close()
	drained.Wait()
}

// TestStatsKeysClientsRead pins the rule on the exact keys papid's
// clients read by name — bench/papistorm's report.go and run.go,
// papirun -serve-stats — each against the /metrics sample it must
// equal. (papistorm also reads cache_hits, cache_misses, tick_stalls
// and write_drops, whose instruments are gone: absent, they read 0.)
func TestStatsKeysClientsRead(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{TickInterval: time.Hour, DataDir: dir, Fsync: "always"}
	first := New(cfg)
	created := first.dispatch(nil, &wire.Request{Op: wire.OpCreate, Workload: "none"})
	for i := int64(1); i <= 3; i++ {
		if r := first.dispatch(nil, &wire.Request{Op: wire.OpPublish, Session: created.Session,
			Events: []string{"EV"}, Values: []int64{i}}); !r.OK {
			t.Fatal(r.Error)
		}
	}
	first.wal.Abandon() // a crash: the restart below replays the three rows

	srv, _ := startServer(t, cfg)
	aaddr, err := srv.ListenAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	samples := scrapeStats(t, "http://"+aaddr.String())
	for key, sample := range map[string]string{
		"frames_sent_json":   `papid_frames_sent_total{codec="json"}`,
		"frames_sent_binary": `papid_frames_sent_total{codec="binary"}`,
		"bytes_sent_json":    `papid_bytes_sent_total{codec="json"}`,
		"bytes_sent_binary":  `papid_bytes_sent_total{codec="binary"}`,
		"snapshots_dropped":  "papid_snapshots_dropped_total",
		"deltas_dropped":     "papid_deltas_dropped_total",
		"derived_dropped":    "papid_derived_dropped_total",
		"encode_failures":    "papid_encode_failures_total",
		"evictions":          "papid_evictions_total",
		"keyframes_sent":     "papid_keyframes_sent_total",
		"deltas_sent":        "papid_deltas_sent_total",
		"tsdb_bytes":         "papid_tsdb_bytes",
		"tsdb_samples":       "papid_tsdb_samples_total",
		"wal_fsyncs":         "papid_wal_fsyncs_total",
		"wal_disk_bytes":     "papid_wal_disk_bytes",
		"wal_rows":           "papid_wal_rows_total",
		"wal_replayed_rows":  "papid_wal_replayed_rows_total",
		"ticks_skipped":      "papid_ticks_skipped_total",
	} {
		v, ok := samples[sample]
		if !ok {
			t.Errorf("/metrics has no sample %s", sample)
		}
		if got := stat(t, srv, key); got != uint64(v) {
			t.Errorf("%s = %d, but %s = %v", key, got, sample, v)
		}
	}
	if got := stat(t, srv, "wal_replayed_rows"); got != 3 {
		t.Errorf("wal_replayed_rows = %d after replaying 3 rows", got)
	}
	if got := stat(t, srv, "wal_clean_start"); got != 0 {
		t.Errorf("wal_clean_start = %d after a crash", got)
	}
}

// readmeFamily is one row of README's family table.
type readmeFamily struct{ kind, key string }

// readmeFamilies parses the family table of README's "Observing papid"
// section: family → kind and STATS key.
func readmeFamilies(t *testing.T) map[string]readmeFamily {
	t.Helper()
	doc, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(doc), "\n### Observing papid\n")
	section, _, _ = strings.Cut(section, "\n#### ")
	rows := make(map[string]readmeFamily)
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 6 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`papid_") {
			continue
		}
		cell := func(i int) string { return strings.Trim(strings.TrimSpace(cells[i]), "`") }
		if _, dup := rows[cell(1)]; dup {
			t.Errorf("README lists %s twice", cell(1))
		}
		rows[cell(1)] = readmeFamily{kind: cell(2), key: cell(3)}
	}
	if len(rows) == 0 {
		t.Fatal("README's Observing papid section has no family table")
	}
	return rows
}

func keysOf[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// keyPattern compiles a table key: a <placeholder> stands for a label
// value.
func keyPattern(key string) *regexp.Regexp {
	return regexp.MustCompile("^" + regexp.MustCompile(`<[a-z]+>`).ReplaceAllString(
		regexp.QuoteMeta(key), "[A-Za-z_/]+") + "$")
}

// TestFamiliesAreREADMEsTable: README's family table is the registry.
// A papid with every subsystem on, through every kind of traffic,
// exposes exactly the table's families with the table's kinds on its
// admin mux's /metrics, and its STATS and hists keys are exactly the
// keys the table gives them. So a family that goes missing fails here,
// and so does a retired one that comes back.
func TestFamiliesAreREADMEsTable(t *testing.T) {
	srv, base, _ := everySubsystem(t)
	table := readmeFamilies(t)

	exposed := make(map[string]string)
	for _, line := range strings.Split(adminGet(t, base+"/metrics"), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			exposed[f[2]] = f[3]
		}
	}
	for family, kind := range exposed {
		if row, ok := table[family]; !ok {
			t.Errorf("/metrics exposes %s (%s), which README's family table lacks", family, kind)
		} else if row.kind != kind {
			t.Errorf("%s is a %s, README says %s", family, kind, row.kind)
		}
	}
	for family := range table {
		if _, ok := exposed[family]; !ok {
			t.Errorf("README lists %s, which /metrics does not expose", family)
		}
	}

	// Every key the server reports matches one row of its kind, and
	// every row's key is reported: the traffic left no histogram empty.
	for _, keys := range []struct {
		histogram bool
		got       []string
	}{
		{false, keysOf(srv.Stats())},
		{true, keysOf(srv.Telemetry().Summaries())},
	} {
		matched := make(map[string]bool)
		for _, key := range keys.got {
			var rows []string
			for family, row := range table {
				if (row.kind == "histogram") == keys.histogram && keyPattern(row.key).MatchString(key) {
					rows = append(rows, family)
					matched[family] = true
				}
			}
			if len(rows) != 1 {
				t.Errorf("key %s matches README rows %v, want exactly one", key, rows)
			}
		}
		for family, row := range table {
			if (row.kind == "histogram") == keys.histogram && !matched[family] {
				t.Errorf("README gives %s the key %s, which the server never reported", family, row.key)
			}
		}
	}
}
