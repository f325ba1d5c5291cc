#!/bin/sh
# Regenerate the committed benchmark baselines. Runs the tsdb
# micro-benchmarks (encode/decode throughput, compression ratio, query
# latency at 1/8/64 queriers) and the server-level benchmarks (papid
# READ throughput on both wire codecs, QUERY round-trips), writing
# machine-readable JSON via cmd/benchjson. -benchmem records B/op and
# allocs/op so allocation regressions on the serving path are tracked
# alongside latency.
#
# `tools/bench.sh compare` runs the server, simulator, store, WAL,
# frame encode, telemetry and flight-recorder benchmarks against the
# committed BENCH_server.json, BENCH_hwsim.json, BENCH_tsdb.json,
# BENCH_wal.json, BENCH_wire.json, BENCH_telemetry.json and
# BENCH_trace.json instead of overwriting them: a fresh measurement goes
# to a temp file and `benchjson -diff` gates on the serving-path, tick,
# simulator, row-append, history-query, WAL append and replay,
# frame-encode and -decode, counter and histogram, and span benchmarks (not
# WALAppend/always, which prices the disk's fsync, not the code). Every gate
# runs and prints its verdict — a noisy Server* row does not hide the
# stages behind it — and the script exits non-zero when any gated ns/op
# or allocs/op regressed more than 25% against its baseline, or a gated
# row that allocated nothing allocates at all. Use it before
# regenerating baselines so a regression is a loud diff, not a silently
# re-baselined number.
set -eu
cd "$(dirname "$0")/.."

server_bench='Server|TickParallel|TickFanout|WriteQueuePushFull'
hwsim_bench='SimulatedExecution|SimulatedReplay|SimulatedCounting|OverflowDispatch'

if [ "${1:-}" = "compare" ]; then
    tmp=$(mktemp /tmp/bench-compare.XXXXXX.json)
    trap 'rm -f "$tmp"' EXIT
    failed=""
    # gate NAME BASELINE REGEXP diffs the fresh measurement in $tmp
    # against BASELINE and records the verdict instead of stopping at it.
    gate() {
        if go run ./cmd/benchjson -diff -gate-allocs -gate "$3" -max-regress 25 "$2" "$tmp"; then
            echo "bench compare: $1 gate OK"
        else
            echo "bench compare: $1 gate FAILED"
            failed="$failed $1"
        fi
    }
    go run ./cmd/benchjson -benchmem -benchtime 3s -out "$tmp" \
        -bench "$server_bench" ./internal/server .
    gate Server BENCH_server.json 'ServerQuery|ServerFanout|ServerThroughput|TickParallel|TickFanout'
    go run ./cmd/benchjson -benchmem -out "$tmp" -bench "$hwsim_bench" .
    gate Simulated BENCH_hwsim.json 'Simulated'
    go run ./cmd/benchjson -benchmem -out "$tmp" -bench 'TSDB' ./internal/tsdb
    gate TSDB BENCH_tsdb.json 'TSDBAppendBatch/batched|TSDBQuery'
    go run ./cmd/benchjson -benchmem -out "$tmp" -bench 'WAL|Replay' ./internal/tsdb/wal
    gate WAL BENCH_wal.json 'WALAppend/(interval|off)|Replay'
    go run ./cmd/benchjson -benchmem -out "$tmp" -bench 'AppendFrame|DecodeFrame' ./internal/wire
    gate Wire BENCH_wire.json 'AppendFrame|DecodeFrame'
    go run ./cmd/benchjson -benchmem -out "$tmp" -bench 'Telemetry|PrometheusScrape' ./internal/telemetry
    gate Telemetry BENCH_telemetry.json 'TelemetryHistogram|TelemetryCounter'
    go run ./cmd/benchjson -benchmem -benchtime 3s -out "$tmp" -bench 'Trace' ./internal/telemetry/tracing ./internal/server
    gate Trace BENCH_trace.json 'Trace(Span|StartFinish|Annotate)|TickTraced'
    [ -z "$failed" ] || { echo "bench compare: failed gates:$failed" >&2; exit 1; }
    echo "bench compare: all gates OK"
    exit 0
fi
go run ./cmd/benchjson -benchmem -out BENCH_tsdb.json -bench 'TSDB' ./internal/tsdb
# Durability costs: per-row WAL append under each fsync policy and
# crash-recovery replay speed (both report rows/s).
go run ./cmd/benchjson -benchmem -out BENCH_wal.json -bench 'WAL|Replay' ./internal/tsdb/wal
# One frame of each per-tick shape (SNAPSHOT, DELTA, DERIVED) on each
# codec: the encode a fan-out pays once per codec per view. The JSON rows
# are wire.AppendJSON's; a shape that starts falling back to json.Marshal
# shows here as a 4-7x ns/op jump and an allocation per frame. The
# DecodeFrame rows decode the same shapes and a PUBLISH request from the
# binary codec: papid decodes every request, and papistorm's own decode
# is part of the host gauge that scales its time-based metrics.
go run ./cmd/benchjson -benchmem -out BENCH_wire.json -bench 'AppendFrame|DecodeFrame' ./internal/wire
# The throughput benchmark runs a tick of the snapshot fan-out, on a
# goroutine of its own, per fixed number of synchronous READs (the
# number a 1 ms ticker made, per row), so its allocs/op do not depend
# on the host's speed; 3s per benchmark keeps the ns/op representative. The
# FanoutInterest benchmark rides along, tracking bytes/sub-tick for
# the subscription shapes (broadcast vs interest-filtered vs
# event-projected vs delta) so a regression in a view's frame sizes or
# allocations shows up in the committed baseline. WriteQueuePushFull
# prices eviction from a full connection write queue at depth 64 and
# 8192; its ns/op must stay flat in depth. TickParallel is the tick
# sweep with nobody listening, TickFanout the same sweep fanned out to
# one binary and one JSON subscriber (papistorm's live_fanout, in
# process).
go run ./cmd/benchjson -benchmem -benchtime 3s -out BENCH_server.json -bench "$server_bench" ./internal/server .
# The simulator priced apart from the service it feeds: retired
# instructions per host second with the PMU idle, streaming (a program
# longer than a batch regenerates every run), replayed (one that fits a
# batch is lent again, frozen, four events counting, and the core
# replays it from its memo by identity), counting (the streaming triad with the same four
# events: quiet slices that never replay), and overflow-interrupt
# dispatch through a counting PMU. -benchmem because a run must stay at
# zero allocations (the program's queue is made once, by its first run).
go run ./cmd/benchjson -benchmem -out BENCH_hwsim.json -bench "$hwsim_bench" .
# Derived-metric engine costs: compiled-formula evaluation (the
# per-metric per-tick unit), the full engine tick, and the server's
# derived fan-out (evaluate + encode-once DERIVED frame across
# subscriber queues) — the numbers behind the "sub-microsecond per
# group, allocation-bounded" claim in DESIGN.md S29.
go run ./cmd/benchjson -benchmem -out BENCH_derive.json -bench 'DeriveEval|EngineTick|DerivedFanout' ./internal/derive ./internal/server
# Telemetry instrument costs: counter increment and histogram Observe
# (the per-request overhead added to every wire op), Observe into a
# cell per parallel recorder (a sweep worker's stage timing), summary
# extraction, and a full Prometheus scrape.
go run ./cmd/benchjson -benchmem -out BENCH_telemetry.json -bench 'Telemetry|PrometheusScrape' ./internal/telemetry
# Flight-recorder costs: the raw span-engine operations (trace
# start/finish, span open/close, annotate, retention-ring insert) and
# the paired traced-vs-untraced 256-session tick sweep — the overhead
# evidence behind DESIGN.md S32's claim that the recorder stays within
# run-to-run noise.
go run ./cmd/benchjson -benchmem -benchtime 3s -out BENCH_trace.json -bench 'Trace' ./internal/telemetry/tracing ./internal/server
