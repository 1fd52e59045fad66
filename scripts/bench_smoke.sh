#!/usr/bin/env sh
# Smoke-run of the performance surfaces, split into named stages so CI can
# gate on them independently:
#
#   ./scripts/bench_smoke.sh [stage ...]     stages: results eval replay
#                                            serve-load wal serve chaos
#                                            chaos-net (no args = all stages)
#
#   results  the reproduced outputs, pinned: every experiment binary
#          (target/release/<name>, no arguments) must print its committed
#          results/<name>.txt, apart from the `=== done in` footer, and
#          `chaos_net --quick` must write a report byte-identical to the
#          committed BENCH_chaos_net.json.
#   eval   objective-evaluation micro-benchmark (--quick) producing
#          BENCH_eval.json, then scripts/check_bench.py enforcing the
#          blocking perf gates (obs overhead <= 1.05, every solver and warm
#          case certified) plus the committed structural baselines.
#   replay scenario-engine accuracy sweep: generate the bench trace, replay
#          it at budgets 1/4/12 in reactive and forecast modes producing
#          BENCH_replay.json, double-run determinism check, the replay CSV
#          against its committed sha256, then
#          scripts/check_bench.py enforcing the accuracy gates (gap monotone
#          in budget, forecast >= reactive at equal budget, full budget
#          tracks the oracle).
#   serve-load  concurrent TCP serving benchmark (--quick: fixed reader/
#          writer mix on loopback) producing BENCH_serve.json, then
#          scripts/check_bench.py enforcing the serving gates (zero
#          protocol errors, lock-free reads, coalescing, read p99 and
#          throughput vs the committed structural baselines).
#   wal    WAL append micro-benchmark with the fsync-policy sanity gate.
#   serve  kill -9 / recover round trip of the control-plane daemon on GEANT
#          (cold-vs-warm re-solve latency, recovery latency, exposition
#          shape checks) producing BENCH_recover.json.
#   chaos  fixed-seed store-fault replay drills.
#   chaos-net  fixed-seed socket-fault drills: the chaos_net bench binary
#          drives the resilient nws-client through seeded NetFaultPlan
#          schedules (resets, short reads/writes, delays, accept failures)
#          producing BENCH_chaos_net.json; the drill runs twice and the two
#          reports must cmp byte-identical (the report carries only
#          deterministic semantic invariants), then scripts/check_bench.py
#          enforces the convergence gates (exactly-once mutations, zero
#          torn lines, final state identical to the fault-free baseline).
#
# CI runs `results` in the blocking checks job, `eval replay serve-load`
# as the blocking perf-gates job and `wal serve chaos chaos-net` as the
# non-blocking resilience job. Run
# eval_bench/wal_bench/serve_load manually (without --quick) for
# publishable numbers.
set -eu

cd "$(dirname "$0")/.."

# sha256 of `nws replay --budgets 1,4,12` on the bench trace. A change that
# moves the replay's numbers updates it and names the moved lines.
REPLAY_CSV_SHA256=a5e8aaed7dbcbd8a3482b2248d13a6df985ca9baf29725c6e16e8950f64ad0d8

stage_results() {
    # Experiments are seeded and deterministic, so their outputs are
    # compared byte for byte; only the wall-time footer varies. A change
    # that moves an output regenerates the file in the same change.
    cargo build --release -p nws-bench --bins
    failed=0
    for file in results/*.txt; do
        name=$(basename "$file" .txt)
        target/release/"$name" > "$SCRATCH/$name.out"
        grep -v '^=== done in' "$SCRATCH/$name.out" > "$SCRATCH/$name.got" || true
        grep -v '^=== done in' "$file" > "$SCRATCH/$name.want"
        cmp -s "$SCRATCH/$name.want" "$SCRATCH/$name.got" || {
            echo "target/release/$name no longer prints results/$name.txt:" >&2
            diff "$SCRATCH/$name.want" "$SCRATCH/$name.got" >&2 || true
            failed=1; }
    done
    # The chaos-net report carries only deterministic invariants (the
    # chaos-net stage checks that across runs), so it is pinned too.
    target/release/chaos_net --quick --out "$SCRATCH/chaos_net.json" > /dev/null
    cmp -s BENCH_chaos_net.json "$SCRATCH/chaos_net.json" || {
        echo "chaos_net --quick no longer writes BENCH_chaos_net.json:" >&2
        diff BENCH_chaos_net.json "$SCRATCH/chaos_net.json" >&2 || true
        failed=1; }
    [ "$failed" -eq 0 ] || exit 1
    echo "results OK: $(ls results/*.txt | wc -l) experiment outputs match results/," \
        "chaos_net report matches BENCH_chaos_net.json"
}

stage_eval() {
    cargo run --release -p nws-bench --bin eval_bench -- --quick --out BENCH_eval.json
    echo "bench smoke OK: $(pwd)/BENCH_eval.json"
    # Perf gates: schema, obs overhead (<= 1.05), certified solver and
    # warm cases, and structural baselines. Blocking in CI.
    python3 scripts/check_bench.py BENCH_eval.json
}

stage_replay() {
    # Scenario-engine accuracy sweep on the committed bench trace shape
    # (48 ticks, diurnal period 48, one flash crowd, one short link flap —
    # the configuration the replay_budget tests gate on). The replay CSV on
    # stdout carries no wall times, so two runs of the same trace must be
    # byte-identical: that is the determinism acceptance check.
    cargo build --release -p nws-cli
    TRACE="$SCRATCH/bench.trace.jsonl"
    target/release/nws replay --gen-trace "$TRACE" \
        --seed 4242 --flash-crowds 1 --link-flaps 1 --flap-duration 4
    target/release/nws replay --trace "$TRACE" --budgets 1,4,12 \
        --bench-out BENCH_replay.json > "$SCRATCH/replay1.csv"
    target/release/nws replay --trace "$TRACE" --budgets 1,4,12 \
        > "$SCRATCH/replay2.csv"
    cmp "$SCRATCH/replay1.csv" "$SCRATCH/replay2.csv" || {
        echo "replay is not deterministic for a fixed trace:" >&2
        diff "$SCRATCH/replay1.csv" "$SCRATCH/replay2.csv" >&2 || true
        exit 1; }
    csv_sha256=$(sha256sum "$SCRATCH/replay1.csv" | cut -d' ' -f1)
    [ "$csv_sha256" = "$REPLAY_CSV_SHA256" ] || {
        echo "replay CSV sha256 $csv_sha256, committed $REPLAY_CSV_SHA256" >&2
        exit 1; }
    echo "replay smoke OK: $(pwd)/BENCH_replay.json (deterministic across runs, CSV as committed)"
    # Accuracy gates: oracle gap monotone as the budget shrinks, forecast
    # mode at least on par with reactive at equal budget, per-tick
    # re-solves track the oracle. Blocking in CI.
    python3 scripts/check_bench.py BENCH_replay.json
}

stage_serve_load() {
    # Concurrent serving benchmark: a fixed reader/writer connection mix
    # against an in-process daemon on loopback TCP (read-heavy: 32 readers,
    # 4 writers in quick mode). The serving gates are blocking in CI: zero
    # protocol errors, every read answered lock-free from the published
    # snapshot, coalescing holding one rebuild per flush, and read
    # p99/throughput within the structural-baseline band.
    cargo run --release -p nws-bench --bin serve_load -- --quick --out BENCH_serve.json
    python3 scripts/check_bench.py BENCH_serve.json
    echo "serve-load smoke OK: $(pwd)/BENCH_serve.json"
}

stage_wal() {
    # WAL throughput smoke: append rate under the three fsync policies.
    # Sanity gate: `never` (no fsync at all) must be at least as fast as
    # `always` (an fdatasync per append); if it is not, the measurement or
    # the store is broken.
    cargo run --release -p nws-bench --bin wal_bench -- --quick --out BENCH_wal.json
    always_rate=$(sed -n 's/.*"policy": "always".*"appends_per_sec": \([0-9.]*\).*/\1/p' BENCH_wal.json)
    never_rate=$(sed -n 's/.*"policy": "never".*"appends_per_sec": \([0-9.]*\).*/\1/p' BENCH_wal.json)
    [ -n "$always_rate" ] && [ -n "$never_rate" ] \
        || { echo "BENCH_wal.json missing per-policy appends_per_sec" >&2; exit 1; }
    awk -v n="$never_rate" -v a="$always_rate" 'BEGIN { exit !(n >= a) }' || {
        echo "wal_bench: never ($never_rate/s) slower than always ($always_rate/s)" >&2; exit 1; }
    echo "wal bench OK: always $always_rate/s, never $never_rate/s"
}

stage_serve() {
    # Kill-and-recover round trip, phase A: run the release binary directly
    # (cargo run would orphan the daemon on kill -9), seed a --state-dir
    # with a prefix of the scripted session (snapshot, set_theta,
    # update_demand — the commands a later full-fixture replay can repeat
    # without conflict), read back the installed rates, then kill -9
    # mid-flight. The daemon journals each command before acknowledging it,
    # so everything acknowledged here must survive.
    cargo build --release -p nws-cli
    STATE_DIR="$SCRATCH/state"
    mkfifo "$SCRATCH/in"
    target/release/nws serve --state-dir "$STATE_DIR" \
        < "$SCRATCH/in" > "$SCRATCH/prekill.out" &
    DAEMON_PID=$!
    exec 3> "$SCRATCH/in"
    head -3 fixtures/serve_session.jsonl >&3
    printf '{"cmd":"query_rates"}\n' >&3
    tries=0
    while [ "$(wc -l < "$SCRATCH/prekill.out")" -lt 5 ]; do  # hello + 4 responses
        tries=$((tries + 1))
        [ "$tries" -le 300 ] || { echo "pre-kill daemon did not respond" >&2; exit 1; }
        sleep 0.1
    done
    kill -9 "$DAEMON_PID"
    exec 3>&-
    wait "$DAEMON_PID" 2>/dev/null || true
    grep -q '"ok":false' "$SCRATCH/prekill.out" && {
        echo "pre-kill daemon rejected a scripted event:" >&2
        grep '"ok":false' "$SCRATCH/prekill.out" >&2
        exit 1; }
    prekill_monitors=$(grep -o '"monitors":\[[^]]*\]' "$SCRATCH/prekill.out" | tail -1)
    [ -n "$prekill_monitors" ] || { echo "pre-kill query_rates carried no monitors" >&2; exit 1; }
    [ -f "$STATE_DIR/LOCK" ] || { echo "killed daemon left no lockfile to reclaim" >&2; exit 1; }
    echo "kill phase OK: daemon $DAEMON_PID killed with journal in $STATE_DIR"

    # Phase B / daemon smoke: reopen the same --state-dir (reclaiming the
    # dead daemon's lockfile), recover (snapshot-less boot: mirror solve +
    # replay of the 3 journaled commands), and confirm via a leading
    # query_rates that the recovered installed rates match the pre-kill
    # response byte-for-byte. Then pipe the full scripted event sequence
    # (demand updates, a link failure, theta changes, snapshot/rollback, a
    # metrics query) through the same daemon. --shadow-cold runs a cold
    # solve per event so BENCH_recover.json carries the warm-vs-cold
    # comparison (and now the recovery latency); --metrics-out/--trace
    # write the Prometheus-style exposition with the span tree; `set -e`
    # makes a non-zero daemon exit fail the smoke run.
    { printf '{"cmd":"query_rates"}\n'; cat fixtures/serve_session.jsonl; } | \
        target/release/nws serve --shadow-cold --bench-out BENCH_recover.json \
            --metrics-out METRICS_serve.prom --trace --state-dir "$STATE_DIR" \
            --solve-deadline-ms 5000 > serve_session.out
    [ -s BENCH_recover.json ] || { echo "BENCH_recover.json missing or empty" >&2; exit 1; }
    # The reader stops after a queued shutdown, so bye must be the LAST line.
    tail -n 1 serve_session.out | grep -q '"bye":true' \
        || { echo "daemon did not end the session on bye" >&2; exit 1; }
    if grep -q '"ok":false' serve_session.out; then
        echo "daemon rejected a scripted event:" >&2
        grep '"ok":false' serve_session.out >&2
        exit 1
    fi

    # Recovery assertions: the hello line must report the replayed journal,
    # the recovered rates must be identical to what the killed daemon had
    # installed, the metrics response must carry wal_stats, and the
    # recovery latency must land in the bench report.
    grep -q '"recovered":{"snapshot":false,"replayed_events":3,' serve_session.out \
        || { echo "hello line does not report recovery of the 3 journaled events" >&2; exit 1; }
    recovered_monitors=$(grep -o '"monitors":\[[^]]*\]' serve_session.out | head -1)
    [ "$recovered_monitors" = "$prekill_monitors" ] || {
        echo "recovered rates differ from pre-kill rates:" >&2
        echo "  pre-kill:  $prekill_monitors" >&2
        echo "  recovered: $recovered_monitors" >&2
        exit 1; }
    grep -q '"wal_stats":{"policy":"always",' serve_session.out \
        || { echo "metrics response lacks wal_stats" >&2; exit 1; }
    grep -q '"recovery":{"snapshot":false,"replayed_events":3,' BENCH_recover.json \
        || { echo "BENCH_recover.json lacks the recovery report" >&2; exit 1; }
    grep -q '"solve_deadline":{"configured_ms":5000,"solve_ms_p99":' BENCH_recover.json \
        || { echo "BENCH_recover.json lacks the solve-deadline section" >&2; exit 1; }
    rm -f serve_session.out
    echo "recovery smoke OK: 3 events replayed, rates match pre-kill byte-for-byte"

    # The exposition must exist, carry the expected metric families
    # (including the store counters), and every non-comment line must parse
    # as `name[{labels}] value`.
    [ -s METRICS_serve.prom ] || { echo "METRICS_serve.prom missing or empty" >&2; exit 1; }
    grep -q '^solver_iterations_total ' METRICS_serve.prom \
        || { echo "exposition lacks solver counters" >&2; exit 1; }
    grep -q '^daemon_command_latency_ms_bucket{' METRICS_serve.prom \
        || { echo "exposition lacks per-command latency histograms" >&2; exit 1; }
    grep -q '^wal_appends ' METRICS_serve.prom \
        || { echo "exposition lacks WAL counters" >&2; exit 1; }
    grep -q '^recovery_replayed_events ' METRICS_serve.prom \
        || { echo "exposition lacks the recovery counter" >&2; exit 1; }
    grep -q '^degraded_solves ' METRICS_serve.prom \
        || { echo "exposition lacks the degraded-solve counter" >&2; exit 1; }
    grep -q '^daemon_overload_shed_total ' METRICS_serve.prom \
        || { echo "exposition lacks the overload-shed counter" >&2; exit 1; }
    grep -q '^daemon_last_good_fallbacks 0' METRICS_serve.prom \
        || { echo "exposition lacks the last-good-fallback counter at zero" >&2; exit 1; }
    grep -q '^daemon_solve_escalations ' METRICS_serve.prom \
        || { echo "exposition lacks the solve-escalation counter" >&2; exit 1; }
    grep -q '^daemon_requests_total{cmd=' METRICS_serve.prom \
        || { echo "exposition lacks the per-command request counters" >&2; exit 1; }
    grep -q '^daemon_resolve_latency_ms_count{mode="warm"} ' METRICS_serve.prom \
        || { echo "exposition lacks the warm re-solve latency histogram" >&2; exit 1; }
    grep -q '^daemon_shadow_cold_latency_ms_count ' METRICS_serve.prom \
        || { echo "exposition lacks the shadow-cold latency histogram" >&2; exit 1; }
    grep -q '^persistence_degraded ' METRICS_serve.prom \
        || { echo "exposition lacks the persistence-degraded gauge" >&2; exit 1; }
    grep -q '^sli_state ' METRICS_serve.prom \
        || { echo "exposition lacks the SLI gauges" >&2; exit 1; }
    grep -q '^# span solve' METRICS_serve.prom \
        || { echo "exposition lacks the --trace span tree" >&2; exit 1; }
    # Shape: every sample is `name[{labels}] value`, and no name has two
    # `# TYPE` lines (Prometheus parsers reject a repeated header).
    awk '/^# TYPE / { if (typed[$3]++) { bad = 1; print "second TYPE line: " $0 > "/dev/stderr" } }
         /^#/ { next }
         { if (NF != 2 || $2 + 0 != $2) { bad = 1; print "malformed sample: " $0 > "/dev/stderr" } }
         END { exit bad }' METRICS_serve.prom \
        || { echo "METRICS_serve.prom failed the exposition shape check" >&2; exit 1; }
    echo "serve smoke OK: $(pwd)/BENCH_recover.json + METRICS_serve.prom"
}

stage_chaos() {
    # Chaos smoke: replay the scripted session against the release binary
    # under fixed-seed store-fault schedules (--chaos-store-seed drives the
    # store's injectable I/O layer deterministically). Contract under fault
    # injection: the daemon must not panic, must shut down cleanly, and —
    # because store faults may degrade persistence but never serving — the
    # query_rates response must be byte-identical to a fault-free run.
    # Error responses are tolerated here by design (that is the point of
    # the drill), unlike the phase-B gate above.
    cargo build --release -p nws-cli
    target/release/nws serve < fixtures/serve_session.jsonl > "$SCRATCH/chaos_clean.out"
    clean_monitors=$(grep -o '"monitors":\[[^]]*\]' "$SCRATCH/chaos_clean.out" | head -1)
    [ -n "$clean_monitors" ] || { echo "chaos baseline run carried no monitors" >&2; exit 1; }
    for seed in 7 41 1999; do
        CHAOS_DIR="$SCRATCH/chaos_$seed"
        target/release/nws serve --state-dir "$CHAOS_DIR" --chaos-store-seed "$seed" \
            --solve-deadline-ms 5000 \
            < fixtures/serve_session.jsonl > "$SCRATCH/chaos_$seed.out" 2> "$SCRATCH/chaos_$seed.err" \
            || { echo "chaos daemon (seed $seed) exited non-zero" >&2
                 cat "$SCRATCH/chaos_$seed.err" >&2; exit 1; }
        grep -qi 'panicked at' "$SCRATCH/chaos_$seed.err" && {
            echo "chaos daemon (seed $seed) panicked:" >&2
            cat "$SCRATCH/chaos_$seed.err" >&2; exit 1; }
        grep -q '"bye":true' "$SCRATCH/chaos_$seed.out" \
            || { echo "chaos daemon (seed $seed) did not shut down cleanly" >&2; exit 1; }
        chaos_monitors=$(grep -o '"monitors":\[[^]]*\]' "$SCRATCH/chaos_$seed.out" | head -1)
        [ "$chaos_monitors" = "$clean_monitors" ] || {
            echo "chaos run (seed $seed) served different rates than the clean run:" >&2
            echo "  clean: $clean_monitors" >&2
            echo "  chaos: $chaos_monitors" >&2
            exit 1; }
    done
    echo "chaos smoke OK: seeds 7/41/1999 served byte-identical rates, zero panics"
}

stage_chaos_net() {
    # Network chaos drill: seeded socket-fault schedules against the
    # resilient client. The report carries only deterministic semantic
    # invariants (no wall times, no retry counts), so two runs with the
    # same fixed seeds must produce byte-identical reports — that cmp is
    # the determinism acceptance gate for the whole fault-injection layer.
    cargo build --release -p nws-bench --bin chaos_net
    target/release/chaos_net --quick --out BENCH_chaos_net.json
    target/release/chaos_net --quick --out "$SCRATCH/chaos_net2.json"
    cmp BENCH_chaos_net.json "$SCRATCH/chaos_net2.json" || {
        echo "chaos_net report is not deterministic across runs:" >&2
        diff BENCH_chaos_net.json "$SCRATCH/chaos_net2.json" >&2 || true
        exit 1; }
    # Convergence gates: every schedule exactly-once, zero torn lines,
    # clean shutdown, final state identical to the fault-free baseline.
    python3 scripts/check_bench.py BENCH_chaos_net.json
    echo "chaos-net smoke OK: $(pwd)/BENCH_chaos_net.json (deterministic across runs)"
}

SCRATCH=$(mktemp -d)
trap 'rm -rf "$SCRATCH"' EXIT

stages="${*:-results eval replay serve-load wal serve chaos chaos-net}"
for stage in $stages; do
    case "$stage" in
        results)    stage_results ;;
        eval)       stage_eval ;;
        replay)     stage_replay ;;
        serve-load) stage_serve_load ;;
        wal)        stage_wal ;;
        serve)      stage_serve ;;
        chaos)      stage_chaos ;;
        chaos-net)  stage_chaos_net ;;
        *) echo "unknown stage '$stage' (expected: results eval replay serve-load wal serve chaos chaos-net)" >&2; exit 2 ;;
    esac
done
