package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/wire"
)

// liveEvents is the BenchmarkTickParallel shape: the widest set one
// aix-power3 event group allocates, covering the ipc group.
var liveEvents = []string{"PAPI_TOT_INS", "PAPI_TOT_CYC", "PAPI_L2_TCM", "PAPI_L2_TCA"}

// dueEvent names the published counter that carries the row's due time
// (unix ns), so a subscriber can compute delivery lag from the frame
// alone. It sits last so the seven before it are real preset names and
// a derive-mode QUERY resolves ipc over published history.
const dueEvent = "BENCH_DUE_NS"

var pubEvents = []string{"PAPI_TOT_INS", "PAPI_TOT_CYC", "PAPI_L2_TCM", "PAPI_L2_TCA",
	"PAPI_L1_DCM", "PAPI_FP_INS", "PAPI_LD_INS", dueEvent}

const dueIdx = 7

// subSpec is one SUBSCRIBE held for the whole run.
type subSpec struct {
	conn   int      // which of the two connections holds it
	labels []string // wildcard label globs
	events []string // v4 event projection; nil = broadcast
	delta  bool
}

// spec is one workload: what papid runs with, which sessions exist,
// who subscribes to what, and the open-loop request schedule.
type spec struct {
	name  string
	why   string
	flags []string // besides commonFlags; "-data-dir" is appended per run

	durable bool
	codec   [2]wire.Codec // connection 0 publishes, connection 1 queries

	live         int    // sessions papid ticks itself
	liveWorkload string // "dot" or "none"

	pubLabels []string // one publish-only session per label
	preload   int      // rows published per publish session during set-up
	// The request periods share no factor with papid's 50 ms tick, so a
	// stream's phase against the tick sweeps the whole tick instead of
	// sticking, for one process's lifetime, where the two happened to
	// start: with a 50 ms query period, a round either always or never
	// queued its queries behind the sweep, and query_range_p50_us was
	// bimodal (0.34 ms or 2.4 ms on live_fanout).
	pubEvery   time.Duration
	pubBurst   int // rows per pubEvery, round-robin over publish sessions
	queryEvery time.Duration
	queryDeck  []opKind // one shuffled deck's worth of query kinds
	queryLive  bool     // queries read live sessions' history, not published

	subs []subSpec

	// gaugeRef is the host gauge (report.go) of this workload, in ms of
	// harness CPU per second, on the reference host when it is quiet: the
	// lower quartile of ten runs made over twenty minutes. It only fixes
	// the scale of the time-based metrics.
	gaugeRef float64
}

func labels(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%02d", prefix, i)
	}
	return out
}

var rangeOnly = []opKind{opQueryRange}

// specs are the four workloads. Every one carries all three request
// roles (subscribe, PUBLISH, QUERY) so every end-to-end metric exists
// on every workload; what differs is which role is heavy and which
// layers the heavy role crosses. The reasons are also in BENCHMARK.json
// and bench/README.md.
var specs = []spec{
	{
		name: "live_fanout",
		why: "tick-driven path: 256 simulated-CPU sessions fanned out to one binary and one JSON subscriber; " +
			"papi/hwsim do most of the work, wire/tsdb/server little",
		flags:        []string{"-groups", "ipc"},
		codec:        [2]wire.Codec{wire.CodecBinary, wire.CodecJSON},
		live:         256,
		liveWorkload: "dot",
		pubLabels:    labels("pub-a-", 4),
		preload:      1000,
		pubEvery:     19 * time.Millisecond,
		pubBurst:     19,
		queryEvery:   23 * time.Millisecond,
		queryDeck:    rangeOnly,
		queryLive:    true,
		subs: []subSpec{
			{conn: 0, labels: []string{"live-*"}},
			{conn: 1, labels: []string{"live-*"}},
		},
		gaugeRef: 110,
	},
	{
		name: "publish_fanout",
		why: "same fan-out with hwsim and the tick sweep bypassed: 5000 published rows/s through request decode, " +
			"tsdb append, encode-once, queues and socket; a simulator change must not show here",
		codec:      [2]wire.Codec{wire.CodecBinary, wire.CodecBinary},
		pubLabels:  append(labels("pub-a-", 32), labels("pub-b-", 32)...),
		preload:    200,
		pubEvery:   9 * time.Millisecond,
		pubBurst:   45,
		queryEvery: 23 * time.Millisecond,
		queryDeck:  rangeOnly,
		subs:       []subSpec{{conn: 1, labels: []string{"pub-*"}}},
		gaugeRef:   68,
	},
	{
		name: "view_fanout",
		why: "publish_fanout with the subscriber on filtered views instead of broadcast: event projection on half " +
			"the sessions, delta mode on the other half; everything else equal",
		codec:      [2]wire.Codec{wire.CodecBinary, wire.CodecBinary},
		pubLabels:  append(labels("pub-a-", 32), labels("pub-b-", 32)...),
		preload:    200,
		pubEvery:   9 * time.Millisecond,
		pubBurst:   45,
		queryEvery: 23 * time.Millisecond,
		queryDeck:  rangeOnly,
		subs: []subSpec{
			{conn: 1, labels: []string{"pub-a-*"}, events: []string{dueEvent, "PAPI_TOT_CYC"}},
			{conn: 1, labels: []string{"pub-b-*"}, delta: true},
		},
		gaugeRef: 68,
	},
	{
		name: "durable_mix",
		why: "reads beside writes, durably: preloaded history, 1000 PUBLISH/s through the synchronous WAL " +
			"append, 64 idle live sessions feeding the batched appender, 43 JSON QUERY/s, then kill -9 and replay",
		flags:        []string{"-fsync", "interval"},
		durable:      true,
		codec:        [2]wire.Codec{wire.CodecBinary, wire.CodecJSON},
		live:         64,
		liveWorkload: "none",
		pubLabels:    labels("pub-a-", 16),
		preload:      4000,
		pubEvery:     9 * time.Millisecond,
		pubBurst:     9,
		queryEvery:   23 * time.Millisecond,
		queryDeck: []opKind{opQueryRange, opQueryRange, opQueryRaw, opQueryDerive,
			opQueryRange, opQueryRange, opQueryRaw, opQueryDerive},
		subs:     []subSpec{{conn: 0, labels: []string{"pub-*"}}},
		gaugeRef: 60,
	},
}

func specByName(name string) (*spec, bool) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], true
		}
	}
	return nil, false
}

// counterShift[j] makes published counter j change only every
// 2^shift rows, so a delta frame is genuinely smaller than a keyframe.
var counterShift = [dueIdx]uint{0, 0, 1, 2, 0, 3, 4}

// mix is splitmix64's finalizer: a cheap, well-distributed hash for
// addressing generated values by (seed, session, counter, step) without
// storing them.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rowValues fills vals[:dueIdx] with the counters of the k-th row
// (k >= 1, matching the row's seq) published to session sess. Each
// counter is cumulative with seeded jitter, so tsdb's double-delta
// encoding sees irregular second differences, and is a pure function
// of its arguments, so any reader can check any frame against it.
func rowValues(seed int64, sess int, k uint64, vals []int64) {
	for j := 0; j < dueIdx; j++ {
		step := k >> counterShift[j]
		stride := uint64(1000 * (j + 1))
		h := mix(uint64(seed)<<40 ^ uint64(sess)<<24 ^ uint64(j)<<56 ^ step)
		vals[j] = int64(step*stride + h%stride)
	}
}

// action is one scheduled request.
type action struct {
	off  time.Duration // due time relative to the start of warm-up
	kind opKind
	sess int
}

// schedule generates every request of a run, warm-up included, from
// the seed: publish bursts round-robin over a seeded permutation of the
// publish sessions, queries on a seeded session with kinds dealt from a
// reshuffled deck, and one edge action at each boundary between slices
// of the measured window (a whole number of them).
// Queries are offset by half a publish period so the two streams do not
// share pacer slots.
func (sp *spec) schedule(seed int64, warmup, window time.Duration) []action {
	rng := rand.New(rand.NewSource(seed))
	total := warmup + window
	var acts []action
	order := rng.Perm(len(sp.pubLabels))
	next := 0
	for off := time.Duration(0); off < total; off += sp.pubEvery {
		for b := 0; b < sp.pubBurst; b++ {
			acts = append(acts, action{off: off, kind: opPublish, sess: order[next%len(order)]})
			next++
		}
	}
	nq := len(sp.pubLabels)
	if sp.queryLive {
		nq = sp.live
	}
	var deck []opKind
	for off := sp.pubEvery / 2; off < total; off += sp.queryEvery {
		if len(deck) == 0 {
			deck = append(deck, sp.queryDeck...)
			rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		}
		acts = append(acts, action{off: off, kind: deck[0], sess: rng.Intn(nq)})
		deck = deck[1:]
	}
	for off := warmup; off <= total; off += sliceLen {
		acts = append(acts, action{off: off, kind: opEdge})
	}
	sort.SliceStable(acts, func(i, j int) bool { return acts[i].off < acts[j].off })
	return acts
}
