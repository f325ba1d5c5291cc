#!/bin/sh
# The repo's verification gate: formatting, vet, then the full test
# suite under the race detector (the papid stress tests put 64+
# concurrent clients through the server, so -race is what actually
# certifies the service). The suite carries the two exactness goldens,
# so they need no stage of their own: TestExactCounts
# (internal/hwsim/testdata/exact.golden — no simulated count may move)
# and TestAllRunnersProduceTables
# (internal/experiments/testdata/tables.golden — nor may a table of the
# paper's evaluation).
set -eu
cd "$(dirname "$0")/.."
# Formatting gate: gofmt -l prints offending files; any output fails.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi
go build ./...
go vet ./...
# One clock: the server side of papid (client.go is the client), the WAL
# and faultnet read time only through internal/clock, so on a clock.Fake
# no timestamp, tick, deadline or duration moves until the test advances
# it. internal/telemetry/tracing and internal/tsdb's own latency
# histograms price host work and stay on host time, outside this check.
clock_files=$(ls internal/server/*.go internal/tsdb/wal/*.go internal/faultnet/*.go |
    grep -v -e '_test\.go$' -e '^internal/server/client\.go$')
if grep -nE '\b(time\.(Now|Since|Until|Sleep|After|AfterFunc|NewTimer|NewTicker|Tick)|telemetry\.Since)\b' $clock_files >&2; then
    echo "read time through internal/clock, not directly (above)" >&2
    exit 1
fi
go test -race -timeout 10m ./...
# The connection-lifecycle chaos suite, isolated with a short -timeout:
# 32 pathological clients against tight deadlines must converge in
# seconds, and a reintroduced hang (eviction that never fires, writer
# that never drains) should fail here fast instead of eating the
# 10-minute budget above.
go test -race -timeout 2m -run 'TestChaos|TestDoTimeout|TestReconn|TestDialRetry' -count=2 ./internal/server/
# One-iteration benchmark smoke: catches benchmarks that no longer
# compile or crash, without paying for a real measurement run.
go test -run='^$' -bench=. -benchtime=1x ./...
# A few seconds of fuzzing on the block decoder, which replay and
# compaction feed with bytes read back from segment files: truncated
# or corrupt input must end the iteration, never panic. The same
# decoder folds QUERY replies: damaged bytes installed between good
# blocks must end their own block only, every reply equal to brute force.
go test -run='^$' -fuzz='^FuzzIterBlock$' -fuzztime=5s ./internal/tsdb
go test -run='^$' -fuzz='^FuzzFoldBlock$' -fuzztime=5s ./internal/tsdb
# The same for the two parsers Open and replay run over files found on
# disk: a segment's records and footer, and a WAL row record — and for
# Open and Start over a whole data directory two flipped bytes, cuts or
# missing files away from a healthy one (crashed, or shut down clean
# behind its CLEAN marker), which must serve no sample the healthy one
# did not.
go test -run='^$' -fuzz='^FuzzLoadSegment$' -fuzztime=5s ./internal/tsdb/wal
go test -run='^$' -fuzz='^FuzzDecodeRow$' -fuzztime=5s ./internal/tsdb/wal
go test -run='^$' -fuzz='^FuzzOpenDamagedDir$' -fuzztime=5s ./internal/tsdb/wal
# And for the parsers that read what a peer sent: the JSON and binary
# request/response decoders, resync after a fault-injected stream, and
# the binary codec's round trip — plus the one encoder with a second
# implementation beside it: AppendJSON must write exactly what
# json.Marshal writes, or decline.
for target in FuzzDecode FuzzFaultnetResync FuzzBinaryDecode FuzzBinaryRoundTrip FuzzAppendJSON; do
    go test -run='^$' -fuzz="^$target\$" -fuzztime=5s ./internal/wire
done
# And for the two parsers an operator's flags feed: -groups formulas and
# -derive-rules specs.
for target in FuzzParse FuzzParseRule; do
    go test -run='^$' -fuzz="^$target\$" -fuzztime=5s ./internal/derive
done
# And for the simulator's two retirement loops: arbitrary instructions
# retired as one folded slice must count, to the register and the
# cycle, what they count retired one at a time.
go test -run='^$' -fuzz='^FuzzFoldEqualsPerInstruction$' -fuzztime=5s ./internal/hwsim
# The replay of a slice whose core reached a fixed point, many times
# over: every workload papid ticks, reset and run whole six times per
# domain on every architecture, must count what a core held to the
# per-instruction path counts; dot n=8 on aix-power3 must replay from
# its third run on; and a stream that rewrites its slice must never
# report it frozen, so never replay it.
go test -count=20 -run '^(TestFoldEqualsPerInstruction|TestReplayEngages|TestRewrittenSliceIsNeverFrozen)$/^replay' ./internal/hwsim
# The store's reader-against-writer gate again, many times over: a
# QUERY racing appends must never return part of a tick row. It is
# interleaving-dependent, so one pass in the suite above is thin.
go test -race -count=20 -run '^TestQuerySeesWholeRows$' ./internal/tsdb
# The WAL against the store's sweep: a row journaled while Sweep drops
# its series must keep its WAL file until the store holds it on disk —
# once by construction (a row appended right after the sweep, before
# any persist pass), once by two publishers racing a sweeping clock —
# and every acked row inside retention must survive a crash. Persist
# passes from appends, the fsync tick and Compact racing each other
# must write no block twice. A segment file truncated under a running
# log must cost no served sample and no crash.
go test -race -count=20 -run '^(TestRowInSweepDropWindowSurvivesCrash|TestSweepRacingAppendsKeepsAckedRows|TestPersistPassRacesSweepsAndCompactions|TestTruncatedSegmentKeepsServing)$' ./internal/tsdb/wal
# The session's one lock, the same way: the seeded model test's publishers
# race on one session, and every subscriber, the derive engine and
# history must see its rows in seq order (its -short seeds,
# each at sweep width 1 and 8); a torn-down connection must be pushed
# nothing more, and a new subscription must open between two rows,
# behind its ack, owing every row published after the ack was read
# (the model test's SUBSCRIBEs during PUBLISH bursts, and
# TestDeltaKeyframeCadence, which hung when a row slipped past a
# subscription being opened). The tick's delivery and advance passes
# commute per session, so the rows they make must equal a direct Run →
# Read sequence at any sweep width, and a restarted session must run its
# first chunk again. The timeout makes a hang fail in minutes.
go test -short -race -count=20 -timeout 5m -run '^(TestLedgerBalances|TestViewMembershipChurn|TestStreamOpensBetweenRows|TestAdvanceAheadKeepsRows|TestRestartRunsFirstChunk|TestDeltaKeyframeCadence)$' ./internal/server
# Server benches once with -benchmem: the encode-once fan-out's
# allocation profile is a correctness property here — this catches a
# reintroduced per-subscriber serialization as an allocs/op jump even
# when wall-clock noise hides it. The `events` and `delta` rows of
# ServerFanoutInterest are the same property for projecting views —
# no allocation per view-tick (the projected frame lives on the stack),
# nothing per subscriber and nothing for grouping — and a one-iteration
# run cannot show it under the warm-up, so TestFanoutAllocs asserts it:
# built without -race, because the race detector makes sync.Pool drop
# entries at random. The same holds for a recycled trace's annotation
# storage.
go test -run='^$' -bench='ServerThroughput' -benchtime=1x -benchmem .
go test -run='^TestFanoutAllocs$' -count=1 ./internal/server/
go test -run='^TestRecycledTraceAnnotatesWithoutAllocating$' -count=1 ./internal/telemetry/tracing/
# Regression-gate smoke: ServerQuery numbers through the full benchjson
# pipeline — emit JSON, then -diff against the committed baseline. 100
# iterations spread the cold start (first QUERY allocates, caches fault
# in) that made one iteration read more than 30x the baseline on a noisy
# host; the 2900% threshold stays a 30x tripwire: what this certifies is
# the tooling (parse, align, gate, exit code) plus a catastrophic query
# collapse. Real measurement runs happen via `tools/bench.sh compare`.
smoke_json=$(mktemp /tmp/papid-ci-bench.XXXXXX.json)
go run ./cmd/benchjson -out "$smoke_json" -benchtime 100x \
    -bench 'ServerQuery' ./internal/server >/dev/null
go run ./cmd/benchjson -diff -gate 'ServerQuery' -max-regress 2900 \
    BENCH_server.json "$smoke_json"
rm -f "$smoke_json"
echo "bench regression gate OK"
# Telemetry-endpoint smoke: a real papid with -http up, scraped over
# real HTTP. Which families exist is TestFamiliesAreREADMEsTable's
# (README's table is the registry); this covers the binary + flag
# wiring end to end: /metrics answers, /statusz holds its keys, and a
# STATS key read over the wire (perfometer -stats) equals its family in
# the same papid's scrape. papid starts with exactly the flags the
# benchmark pins (commonFlags in bench/papistorm/papid.go, deprecated
# -queue included), so a flag that stops parsing fails here before it
# fails the benchmark.
go build -o /tmp/papid-ci-smoke ./cmd/papid
go build -o /tmp/perfometer-ci-smoke ./cmd/perfometer
/tmp/papid-ci-smoke -addr 127.0.0.1:61779 -http 127.0.0.1:61780 \
    -tick 50ms -queue 4096 -write-queue 4096 -quiet &
papid_pid=$!
trap 'kill $papid_pid 2>/dev/null || true' EXIT
ok=""
for i in $(seq 1 50); do
    if metrics=$(curl -sf http://127.0.0.1:61780/metrics 2>/dev/null); then
        ok=yes
        break
    fi
    sleep 0.1
done
[ -n "$ok" ] || { echo "papid -http never came up (do the benchmark's pinned flags still parse?)" >&2; exit 1; }
statusz=$(curl -sf http://127.0.0.1:61780/statusz)
echo "$statusz" | grep -q '"stats"' || { echo "/statusz lacks stats" >&2; exit 1; }
echo "$statusz" | grep -q '"hists"' || { echo "/statusz lacks hists" >&2; exit 1; }
echo "$statusz" | grep -q '"build"' || { echo "/statusz lacks build info" >&2; exit 1; }
echo "$statusz" | grep -q '"tick_workers"' || { echo "/statusz lacks tick_workers" >&2; exit 1; }
scraped=$(echo "$metrics" | awk '$1 == "papid_tick_workers" { print $2 }')
walked=$(/tmp/perfometer-ci-smoke -papid 127.0.0.1:61779 -stats | awk '$1 == "tick_workers" { print $2 }')
[ -n "$scraped" ] && [ "$scraped" = "$walked" ] || {
    echo "STATS tick_workers=$walked but /metrics papid_tick_workers=$scraped" >&2; exit 1; }
kill $papid_pid
wait $papid_pid 2>/dev/null || true
echo "telemetry smoke OK"
# Durability smoke: a papid with -data-dir killed with SIGKILL under
# fsync=always must come back with every acked row. papirun publishes a
# real snapshot over the wire (the PUBLISH ack implies the row was
# fsynced), the process dies hard, a restart on the same directory
# replays the WAL, and perfometer's history mode must still see
# session 1 — it exits non-zero when the answer is empty. That papid is
# then stopped gracefully (Close finalizes the segment behind its footer
# and writes CLEAN), and a third start must take the clean fast path —
# the footer read back as the finalize mark, nothing replayed — and
# answer the same 1s-step query with the same answer, byte for byte:
# the replay after kill -9 re-appended the rows, the clean start
# installed every block from its segment and rebuilt its value summary,
# which a 1s step folds a block from when it fits in one window.
wal_dir=$(mktemp -d /tmp/papid-ci-wal.XXXXXX)
go build -o /tmp/papirun-ci-smoke ./cmd/papirun
/tmp/papid-ci-smoke -addr 127.0.0.1:61781 -data-dir "$wal_dir" -fsync always -quiet &
wal_pid=$!
trap 'kill -9 $papid_pid $wal_pid 2>/dev/null || true; rm -rf "$wal_dir" "$wal_dir.crash"' EXIT
published=""
for i in $(seq 1 50); do
    if /tmp/papirun-ci-smoke -serve 127.0.0.1:61781 -workload dot -n 64 >/dev/null 2>&1; then
        published=yes
        break
    fi
    sleep 0.1
done
[ -n "$published" ] || { echo "papirun never published to durable papid" >&2; exit 1; }
kill -9 $wal_pid
wait $wal_pid 2>/dev/null || true
/tmp/papid-ci-smoke -addr 127.0.0.1:61781 -data-dir "$wal_dir" -fsync always -quiet &
wal_pid=$!
recovered=""
for i in $(seq 1 50); do
    if /tmp/perfometer-ci-smoke -papid 127.0.0.1:61781 -session 1 -last 1h -step 1s >"$wal_dir.crash" 2>/dev/null; then
        recovered=yes
        break
    fi
    sleep 0.1
done
[ -n "$recovered" ] || { echo "history did not survive kill -9" >&2; exit 1; }
kill $wal_pid
wait $wal_pid 2>/dev/null || true
/tmp/papid-ci-smoke -addr 127.0.0.1:61781 -data-dir "$wal_dir" -fsync always -quiet &
wal_pid=$!
clean=""
for i in $(seq 1 50); do
    if clean=$(/tmp/perfometer-ci-smoke -papid 127.0.0.1:61781 -stats 2>/dev/null); then
        break
    fi
    sleep 0.1
done
for want in "wal_clean_start 1" "wal_replayed_rows 0"; do
    echo "$clean" | awk -v want="$want" '$1 " " $2 == want { ok = 1 } END { exit !ok }' || {
        echo "restart after a graceful stop: STATS lacks '$want'" >&2; exit 1; }
done
clean_answer=$(/tmp/perfometer-ci-smoke -papid 127.0.0.1:61781 -session 1 -last 1h -step 1s) || {
    echo "history did not survive a graceful stop and clean start" >&2; exit 1; }
[ "$clean_answer" = "$(cat "$wal_dir.crash")" ] || {
    echo "the clean start's 1s-step history differs from the answer after kill -9:" >&2
    echo "$clean_answer" | diff "$wal_dir.crash" - >&2
    exit 1; }
rm -f "$wal_dir.crash"
kill $wal_pid
wait $wal_pid 2>/dev/null || true
# One byte budget: -tsdb-mem alone says how much raw history a durable
# papid keeps, so a restart over the same directory under a small one
# still answers and stays within it, and the WAL's own byte and age
# knobs are gone.
/tmp/papid-ci-smoke -addr 127.0.0.1:61781 -data-dir "$wal_dir" -fsync always -tsdb-mem 65536 -quiet &
wal_pid=$!
budgeted=""
for i in $(seq 1 50); do
    if /tmp/perfometer-ci-smoke -papid 127.0.0.1:61781 -session 1 -last 1h -step 1s >/dev/null 2>&1; then
        budgeted=yes
        break
    fi
    sleep 0.1
done
[ -n "$budgeted" ] || { echo "history did not survive a restart under -tsdb-mem 65536" >&2; exit 1; }
tsdb_bytes=$(/tmp/perfometer-ci-smoke -papid 127.0.0.1:61781 -stats | awk '$1 == "tsdb_bytes" { print $2 }')
[ -n "$tsdb_bytes" ] && [ "$tsdb_bytes" -le 65536 ] || {
    echo "restart under -tsdb-mem 65536: STATS tsdb_bytes=$tsdb_bytes" >&2; exit 1; }
kill $wal_pid
wait $wal_pid 2>/dev/null || true
for gone in -wal-disk-bytes=1 -wal-compact-after=1m -wal-segment-bytes=1 \
    -shards=8 -tick-workers=2 -trace-slow=1s; do
    status=0
    out=$(timeout 10 /tmp/papid-ci-smoke -addr 127.0.0.1:61781 "$gone" -quiet 2>&1) || status=$?
    [ "$status" = 2 ] && echo "$out" | grep -q "flag provided but not defined" || {
        echo "papid did not refuse $gone at flag parsing (exit $status)" >&2; exit 1; }
done
echo "durability smoke OK"
# Derived-metric smoke: the group library must list and validate
# (papi-avail -groups), and a live papid with -groups/-derive-rules
# must answer a derived-history QUERY in finished metrics and count
# fired threshold alerts on /metrics — the end-to-end path of the
# internal/derive engine through flags, wire, tsdb and telemetry.
go build -o /tmp/papi-avail-ci-smoke ./cmd/papi-avail
groups_out=$(/tmp/papi-avail-ci-smoke -groups)
for g in ipc cpi brmiss l1miss l2miss flops membw; do
    echo "$groups_out" | grep -q "^$g " || {
        echo "papi-avail -groups lacks group $g" >&2; exit 1; }
done
/tmp/papid-ci-smoke -addr 127.0.0.1:61782 -http 127.0.0.1:61783 \
    -groups ipc,l2miss -derive-rules 'ipc>0.01:2' -quiet &
derive_pid=$!
trap 'kill -9 $papid_pid $wal_pid $derive_pid 2>/dev/null || true; rm -rf "$wal_dir"' EXIT
published=""
for i in $(seq 1 50); do
    if /tmp/papirun-ci-smoke -serve 127.0.0.1:61782 -platform aix-power3 \
        -events PAPI_TOT_INS,PAPI_TOT_CYC -workload dot -n 64 -reps 8 >/dev/null 2>&1; then
        published=yes
        break
    fi
    sleep 0.1
done
[ -n "$published" ] || { echo "papirun never published to derive papid" >&2; exit 1; }
# The trajectory above gives 7 raw deltas: the derived QUERY must
# answer in IPC (perfometer exits non-zero on an empty reply).
derived_out=$(/tmp/perfometer-ci-smoke -papid 127.0.0.1:61782 -session 1 \
    -derive ipc -last 1h -step 0s)
echo "$derived_out" | grep -q 'ipc \[instr/cycle\]' || {
    echo "derived QUERY did not answer in ipc:" >&2
    echo "$derived_out" >&2
    exit 1
}
# The always-true threshold rule must have fired and be visible as a
# non-zero counter on the admin endpoint.
alerts=$(curl -sf http://127.0.0.1:61783/metrics | grep '^papid_derive_alerts_total')
case "$alerts" in
    *" 0") echo "papid_derive_alerts_total never fired: $alerts" >&2; exit 1 ;;
    papid_derive_alerts_total*) ;;
    *) echo "/metrics lacks papid_derive_alerts_total" >&2; exit 1 ;;
esac
kill $derive_pid
wait $derive_pid 2>/dev/null || true
echo "derived-metric smoke OK"
# Filtered/delta subscription smoke: a papid with a short keyframe
# cadence, a papirun publisher streaming a long trajectory under the
# label app-a, and perfometer following it live through a label-glob
# wildcard SUBSCRIBE in delta mode. runFollow reassembles DELTA frames
# against keyframes locally, self-heals across queue-full drops at the
# next keyframe, and exits non-zero on any frame outside the
# subscribed set — so a green run certifies the filter + delta +
# resync path end to end. The summary line must show both keyframes
# and DELTA frames on the wire.
/tmp/papid-ci-smoke -addr 127.0.0.1:61784 -keyframe-every 3 -quiet &
delta_pid=$!
# Enough repetitions to outlast the follow window on any machine; the
# publisher is killed once the follow has its verdict.
/tmp/papirun-ci-smoke -serve 127.0.0.1:61784 -serve-label app-a \
    -workload dot -n 64 -reps 100000 >/dev/null 2>&1 &
pub_pid=$!
follow_log=$(mktemp /tmp/papid-ci-follow.XXXXXX)
trap 'kill -9 $papid_pid $wal_pid $derive_pid $delta_pid $pub_pid 2>/dev/null || true; rm -rf "$wal_dir" "$follow_log"' EXIT
followed=""
for i in $(seq 1 50); do
    # Retries until the publisher's CREATE lands: a wildcard SUBSCRIBE
    # that matches no live session is a documented error.
    if /tmp/perfometer-ci-smoke -papid 127.0.0.1:61784 \
        -follow 2s -labels 'app-*' -delta >"$follow_log" 2>/dev/null; then
        followed=yes
        break
    fi
    sleep 0.1
done
[ -n "$followed" ] || { echo "perfometer -follow never streamed" >&2; exit 1; }
summary=$(grep '^follow summary:' "$follow_log" || true)
[ -n "$summary" ] || { echo "follow printed no summary line" >&2; exit 1; }
case "$summary" in
    *"keyframes=0 "*) echo "follow saw no keyframes: $summary" >&2; exit 1 ;;
esac
case "$summary" in
    *"deltas=0 "*) echo "follow saw no DELTA frames: $summary" >&2; exit 1 ;;
esac
kill -9 $pub_pid 2>/dev/null || true
wait $pub_pid 2>/dev/null || true
kill $delta_pid
wait $delta_pid 2>/dev/null || true
echo "filtered/delta subscription smoke OK"
# Flight-recorder smoke: a papid with a hair-trigger -slow-op, papid's
# one slow threshold, so every traced unit is retained, driven by a
# real publisher, on a two-worker sweep (GOMAXPROCS=2: the sweep is
# min(GOMAXPROCS, 16) wide) whatever the host's width. Certifies
# the pipeline tracer end to end: the SlowOp warn line names a trace
# ID whose trace is retrievable from /debug/trace?id= (tail
# retention), /tracez lists the ring, and the Chrome trace-event
# export Perfetto loads carries the pipeline's stage span names —
# request stages on a PUBLISH trace, sweep stages on a tick trace.
trace_log=$(mktemp /tmp/papid-ci-trace.XXXXXX)
GOMAXPROCS=2 /tmp/papid-ci-smoke -addr 127.0.0.1:61785 -http 127.0.0.1:61786 \
    -slow-op 1ns -quiet 2>"$trace_log" &
trace_pid=$!
trap 'kill -9 $papid_pid $wal_pid $derive_pid $delta_pid $pub_pid $trace_pid 2>/dev/null || true; rm -rf "$wal_dir" "$follow_log" "$trace_log"' EXIT
published=""
for i in $(seq 1 50); do
    if /tmp/papirun-ci-smoke -serve 127.0.0.1:61785 -workload dot -n 64 -reps 4 >/dev/null 2>&1; then
        published=yes
        break
    fi
    sleep 0.1
done
[ -n "$published" ] || { echo "papirun never published to tracing papid" >&2; exit 1; }
# Every op breached -slow-op 1ns, so the log holds warn lines naming
# their traces; a named trace must still be in the ring, request
# stages intact.
warn_id=$(sed -n 's/.*trace=\([0-9a-f]\{16\}\).*/\1/p' "$trace_log" | head -1)
[ -n "$warn_id" ] || {
    echo "no slow-op warn line carries a trace ID" >&2
    cat "$trace_log" >&2
    exit 1
}
curl -sf "http://127.0.0.1:61786/debug/trace?id=$warn_id" | grep -q '"dispatch"' || {
    echo "warned trace $warn_id not retrievable with a dispatch span" >&2; exit 1; }
tracez=$(curl -sf "http://127.0.0.1:61786/tracez?format=json")
pub_id=$(printf '%s' "$tracez" | sed -n 's/.*"id":"\([0-9a-f]\{16\}\)","kind":"request","name":"PUBLISH".*/\1/p')
[ -n "$pub_id" ] || { echo "/tracez lists no PUBLISH trace" >&2; exit 1; }
pub_chrome=$(curl -sf "http://127.0.0.1:61786/debug/trace?id=$pub_id&format=chrome")
for span in dispatch tsdb.append fanout derive write; do
    printf '%s' "$pub_chrome" | grep -q "\"$span\"" || {
        echo "PUBLISH chrome export lacks stage span $span" >&2; exit 1; }
done
# papirun can publish within one tick interval of papid's start, before
# the first tick trace has finished: poll for it (2 s = 40 intervals).
tick_id=""
for i in $(seq 1 20); do
    tick_id=$(printf '%s' "$tracez" | sed -n 's/.*"id":"\([0-9a-f]\{16\}\)","kind":"tick".*/\1/p')
    [ -n "$tick_id" ] && break
    sleep 0.1
    tracez=$(curl -sf "http://127.0.0.1:61786/tracez?format=json")
done
[ -n "$tick_id" ] || { echo "/tracez lists no tick trace after 2 s" >&2; exit 1; }
tick_chrome=$(curl -sf "http://127.0.0.1:61786/debug/trace?id=$tick_id&format=chrome")
for span in shard advance tsdb.sweep; do
    printf '%s' "$tick_chrome" | grep -q "\"$span\"" || {
        echo "tick chrome export lacks sweep span $span" >&2; exit 1; }
done
# The remote views ride the same data: perfometer -tracez renders the
# ring over the admin endpoint, and -stats carries the slow-op samples
# with their trace IDs over the wire protocol.
/tmp/perfometer-ci-smoke -tracez 127.0.0.1:61786 | grep -q 'flight recorder:' || {
    echo "perfometer -tracez rendered no flight-recorder view" >&2; exit 1; }
/tmp/perfometer-ci-smoke -papid 127.0.0.1:61785 -stats | grep -q 'trace=' || {
    echo "perfometer -stats shows no slow-op trace IDs" >&2; exit 1; }
kill $trace_pid
wait $trace_pid 2>/dev/null || true
echo "flight-recorder smoke OK"
# End-to-end output checks from outside: papistorm builds papid, runs it
# as a separate process and drives all four workloads over real TCP for
# a few seconds each, checking every frame and reply (gap-free seq per
# subscription, frame == generated row, history == acked rows across a
# kill -9). It prints INVALID or FAILED and exits non-zero when a check
# fails — it caught frames overtaking the SUBSCRIBE reply (PR 13) that
# no unit test saw. No timing is asserted here; bounds on the metrics
# are `papistorm -compare` against BENCHMARK.json.
storm_out=$(mktemp -d /tmp/papid-ci-storm.XXXXXX)
trap 'kill -9 $papid_pid $wal_pid $derive_pid $delta_pid $pub_pid $trace_pid 2>/dev/null || true; rm -rf "$wal_dir" "$follow_log" "$trace_log" "$storm_out"' EXIT
go run ./bench/papistorm -seed 1 -seconds 6 -trace 0 -out "$storm_out" >"$storm_out/log" 2>&1 || {
    echo "papistorm exited non-zero:" >&2; cat "$storm_out/log" >&2; exit 1; }
if grep -E 'INVALID|FAILED' "$storm_out/log" >&2; then
    echo "papistorm reported a failed output check" >&2; exit 1
fi
echo "papistorm output checks OK"
