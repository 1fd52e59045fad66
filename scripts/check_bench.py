#!/usr/bin/env python3
"""Validate BENCH_eval.json / BENCH_replay.json / BENCH_serve.json /
BENCH_chaos_net.json and enforce the CI gates.

Run from bench_smoke.sh and the blocking `perf-gates` CI job:

    python3 scripts/check_bench.py BENCH_eval.json
    python3 scripts/check_bench.py BENCH_eval.json --write-baselines
    python3 scripts/check_bench.py FULL_EVAL.json --write-baselines
    python3 scripts/check_bench.py BENCH_replay.json
    python3 scripts/check_bench.py BENCH_serve.json
    python3 scripts/check_bench.py BENCH_chaos_net.json

The report's top-level "bench" field selects the rule set. For chaos-net
reports ("bench": "chaos_net", from the chaos_net drill binary), every
seeded socket-fault schedule must have converged to the fault-free
baseline: exactly-once mutations, zero torn response lines, clean
shutdown, and a byte-identical final-state digest (see check_chaos_net).

For serve-load reports ("bench": "serve_load", from the serve_load bench
binary):

1.  Schema: config axes (including the enabled idle/write timeouts),
    read/mutate latency sections, the lock-free, coalescing, and
    slow-client-protection counters, and the daemon summary all present
    and finite.
2.  Serving gates (hard):
      - zero protocol errors and zero read/mutate errors, clean shutdown;
      - with the serving timeouts enabled, zero slow-client evictions,
        zero idle reaps, zero hard connection I/O errors;
      - reads are answered lock-free: reads_served_lockfree >= the measured
        read count, and jobs_enqueued stays within the mutate stream
        (read load must not touch the solve queue);
      - coalescing holds: epoch rebuilds track coalesce flushes, never the
        raw update count;
      - demand-only epochs reuse the routing: the load sends only
        update_demand, so the startup solve is the only routing build.
3.  Structural baselines: the connection mix (readers/writers/duration/
    burst) must match scripts/bench_baselines.json exactly; read p99 must
    stay within TIMING_BAND of the baseline and read throughput must not
    fall more than TIMING_BAND below it.

For replay reports ("bench": "replay", from `nws replay --bench-out`):

1.  Schema: trace/oracle provenance present, one curve row per
    (mode, budget) with finite fields, both modes at every budget.
2.  Accuracy gates (structural, tolerance-padded — every number in the
    report is deterministic for a fixed trace seed):
      - per mode, the mean oracle gap is monotone non-decreasing as the
        re-solve budget shrinks (resolve_every grows): a replayer that
        gets *better* with fewer solves means scoring is broken;
      - at every budget, forecast mode's mean gap <= reactive's
        * FORECAST_PARITY + GAP_PAD: predicting mid-window demand must
        not lose to reacting at the window edge on the bench trace;
      - re-solving every tick tracks the oracle to solver tolerance.

For eval reports, checks in order:

1.  Schema: the report carries every expected section and field, all
    numbers finite and positive.
2.  Perf gates (hard):
      - obs overhead_ratio <= OBS_RATIO_MAX (the median over alternating
        pairs of the enabled/disabled recorder's batched gradient time);
      - every solver case certifies (kkt) within the iteration cap, in no
        more iterations than the paper's Polak-Ribiere directions take on
        the same task and cap (pr_iterations);
      - every warm case (a warm re-solve after each seeded demand draw)
        certified on every draw (kkt).
3.  Structural baselines (scripts/bench_baselines.json): num_ods/nnz/dim of
    each case must match exactly — instance drift silently invalidates every
    committed number — and timing fields (gradient_ms, serial_ms, warm_ms)
    are compared within a wide tolerance band (quick mode on shared CI
    runners jitters; the band only catches order-of-magnitude
    regressions). Routing cases match on nodes/links/ods/sources and band
    spf_us, matrix_ms and link_loads_ms the same way; a quick report runs
    only the smaller routing cases, so only a full report must carry every
    baselined one. Parse cases (the trace and protocol decoders) match on
    lines/entries/bytes and band parse_ms; quick and full reports run the
    same ones.

--write-baselines on a quick eval report rewrites the eval, solver and
warm baselines (the instances CI checks); on a full report it rewrites
only the routing baselines, since only a full run times every routing
case. Either report rewrites the parse baselines.

Exit code 0 = all gates pass. Nonzero prints every failure, not just the
first.
"""

import json
import math
import sys
from pathlib import Path

OBS_RATIO_MAX = 1.05  # recorder overhead gate (matches bench_smoke.sh)
TIMING_BAND = 8.0  # baseline timing ratio band (order-of-magnitude net)

# Replay gates. Gaps are relative optimality gaps (dimensionless); the pad
# absorbs solver-tolerance wiggle on gaps that are themselves tiny.
GAP_PAD = 1e-4  # additive tolerance on gap comparisons
FORECAST_PARITY = 1.05  # forecast mean gap <= reactive * this + pad
FULL_BUDGET_GAP = 1e-6  # resolve-every-tick must track the oracle

BASELINES = Path(__file__).resolve().parent / "bench_baselines.json"

EVAL_FIELDS = (
    "name",
    "model",
    "num_ods",
    "nnz",
    "dim",
    "value_ms",
    "gradient_ms",
    "curvature_ms",
)
SOLVER_FIELDS = ("name", "num_ods", "serial_ms", "iterations", "kkt", "pr_iterations")
ROUTING_SHAPE = ("nodes", "links", "ods", "sources")
ROUTING_TIMES = ("spf_us", "matrix_ms", "link_loads_ms")
PARSE_SHAPE = ("lines", "entries", "bytes")
PARSE_TIMES = ("parse_ms",)
WARM_FIELDS = (
    "name",
    "dim",
    "nnz",
    "draws",
    "warm_ms",
    "solve_ms",
    "outside_ms",
    "iterations",
    "kkt",
)

failures = []


def fail(msg):
    failures.append(msg)


def finite_positive(xs):
    return all(isinstance(x, (int, float)) and math.isfinite(x) and x > 0 for x in xs)


def check_schema(report):
    for key in ("bench", "quick", "available_cores", "obs",
                "eval_cases", "solver_cases", "warm_cases", "routing_cases",
                "parse_cases"):
        if key not in report:
            fail(f"schema: missing top-level key {key!r}")
    if failures:
        return
    obs = report["obs"]
    for key in ("disabled_ms", "enabled_ms", "overhead_ratio"):
        if not finite_positive([obs.get(key, -1)]):
            fail(f"schema: obs.{key} missing or non-positive")
    for case in report["eval_cases"]:
        for key in EVAL_FIELDS:
            if key not in case:
                fail(f"schema: eval case {case.get('name', '?')} missing {key!r}")
        for key in ("value_ms", "gradient_ms", "curvature_ms"):
            if key in case and not finite_positive([case[key]]):
                fail(f"schema: {case['name']}/{case['model']}.{key} not "
                     f"finite-positive: {case[key]}")
    for case in report["solver_cases"]:
        for key in SOLVER_FIELDS:
            if key not in case:
                fail(f"schema: solver case {case.get('name', '?')} missing {key!r}")
    for case in report["warm_cases"]:
        for key in WARM_FIELDS:
            if key not in case:
                fail(f"schema: warm case {case.get('name', '?')} missing {key!r}")
        for key in ("draws", "warm_ms", "solve_ms", "iterations"):
            if key in case and not finite_positive([case[key]]):
                fail(f"schema: warm {case['name']}.{key} not finite-positive: "
                     f"{case[key]}")
        outside = case.get("outside_ms", float("nan"))
        if not (isinstance(outside, (int, float)) and math.isfinite(outside)
                and outside >= 0):
            fail(f"schema: warm {case.get('name', '?')}.outside_ms malformed: "
                 f"{outside}")
    for section, fields in (("routing_cases", ROUTING_SHAPE + ROUTING_TIMES),
                            ("parse_cases", PARSE_SHAPE + PARSE_TIMES)):
        kind = section.split("_")[0]
        if not report[section]:
            fail(f"schema: empty {section} list")
        for case in report[section]:
            name = case.get("name", "?")
            for key in ("name",) + fields:
                if key not in case:
                    fail(f"schema: {kind} case {name} missing {key!r}")
                elif key != "name" and not finite_positive([case[key]]):
                    fail(f"schema: {kind} {name}.{key} not finite-positive: "
                         f"{case[key]}")


def check_perf_gates(report):
    # Gate 1: observability overhead.
    ratio = report["obs"]["overhead_ratio"]
    if ratio > OBS_RATIO_MAX:
        fail(f"gates: obs overhead_ratio {ratio:.4f} > {OBS_RATIO_MAX}")
    # Gate 2: the default direction certifies, never slower than the
    # paper's path.
    for case in report["solver_cases"]:
        if case["kkt"] is not True:
            fail(f"gates: solver case {case['name']} did not certify in "
                 f"{case['iterations']} iterations")
        if case["iterations"] > case["pr_iterations"]:
            fail(f"gates: solver case {case['name']} took {case['iterations']} "
                 f"iterations, more than Polak-Ribiere's {case['pr_iterations']}")
    # Gate 3: every warm re-solve certifies.
    for case in report["warm_cases"]:
        if case["kkt"] is not True:
            fail(f"gates: warm case {case['name']} left a draw uncertified")


def structure_of(report):
    """The baseline-worthy projection of a report: exact instance shape plus
    banded reference timings."""
    return {
        "eval_cases": [
            {
                "name": c["name"],
                "model": c["model"],
                "num_ods": c["num_ods"],
                "nnz": c["nnz"],
                "dim": c["dim"],
                "gradient_ms_serial": c["gradient_ms"],
            }
            for c in report["eval_cases"]
        ],
        "solver_cases": [
            {"name": c["name"], "num_ods": c["num_ods"], "serial_ms": c["serial_ms"]}
            for c in report["solver_cases"]
        ],
        "warm_cases": [
            {"name": c["name"], "dim": c["dim"], "nnz": c["nnz"],
             "warm_ms": c["warm_ms"]}
            for c in report["warm_cases"]
        ],
    }


def cases_structure_of(report, section, shape, times):
    """A case list's exact instance shape plus banded timings."""
    return [{key: c[key] for key in ("name",) + shape + times}
            for c in report[section]]


def check_cases_baselines(report, base, section, shape, times, complete):
    """Matches each case of `section` to its baseline by name: the shape
    fields exactly, the times within TIMING_BAND. With `complete`, every
    baselined case must be in the report."""
    kind = section.split("_")[0]
    by_name = {c["name"]: c for c in base.get(section, [])}
    for c in report[section]:
        ref = by_name.pop(c["name"], None)
        if ref is None:
            fail(f"baselines: new {kind} case {c['name']} — refresh baselines")
            continue
        for field in shape:
            if ref.get(field) != c[field]:
                fail(f"baselines: {kind} {c['name']} {field} drifted "
                     f"{ref.get(field)} -> {c[field]} — the instance changed, "
                     f"numbers not comparable")
        for field in times:
            if ref.get(field, 0) > 0:
                r = c[field] / ref[field]
                if r > TIMING_BAND or r < 1.0 / TIMING_BAND:
                    fail(f"baselines: {kind} {c['name']} {field} off by "
                         f"{r:.1f}x vs baseline ({ref[field]:.3f} -> "
                         f"{c[field]:.3f})")
    if complete:
        for name in by_name:
            fail(f"baselines: {kind} case {name} disappeared from the report")


def write_eval_baselines(report):
    if report["quick"]:
        merge_baselines(None, structure_of(report))
    else:
        merge_baselines("routing_cases", cases_structure_of(
            report, "routing_cases", ROUTING_SHAPE, ROUTING_TIMES))
    merge_baselines("parse_cases", cases_structure_of(
        report, "parse_cases", PARSE_SHAPE, PARSE_TIMES))


def check_baselines(report):
    if not BASELINES.exists():
        fail(f"baselines: {BASELINES} missing — regenerate with --write-baselines")
        return
    base = json.loads(BASELINES.read_text())
    check_cases_baselines(report, base, "routing_cases", ROUTING_SHAPE,
                          ROUTING_TIMES, complete=not report["quick"])
    check_cases_baselines(report, base, "parse_cases", PARSE_SHAPE,
                          PARSE_TIMES, complete=True)
    cur = structure_of(report)
    for section in ("eval_cases", "solver_cases", "warm_cases"):
        by_key = {(c["name"], c.get("model")): c for c in base.get(section, [])}
        for c in cur[section]:
            key = (c["name"], c.get("model"))
            ref = by_key.pop(key, None)
            if ref is None:
                fail(f"baselines: new {section} entry {key} — refresh baselines")
                continue
            for field in ("num_ods", "nnz", "dim"):
                if field in ref and ref[field] != c[field]:
                    fail(f"baselines: {key} {field} drifted {ref[field]} -> "
                         f"{c[field]} — the instance changed, numbers not comparable")
            for field in ("gradient_ms_serial", "serial_ms", "warm_ms"):
                if field in ref and ref[field] > 0:
                    r = c[field] / ref[field]
                    if r > TIMING_BAND or r < 1.0 / TIMING_BAND:
                        fail(f"baselines: {key} {field} off by {r:.1f}x vs baseline "
                             f"({ref[field]:.3f} -> {c[field]:.3f} ms)")
        for key in by_key:
            fail(f"baselines: {section} entry {key} disappeared from the report")


CURVE_FIELDS = (
    "mode",
    "resolve_every",
    "hysteresis",
    "resolves",
    "suppressed",
    "mean_gap",
    "max_gap",
    "final_gap",
    "err_p50",
    "err_p90",
    "err_p99",
    "rate_churn",
    "wall_ms",
)


def check_replay_schema(report):
    for key in ("trace", "oracle", "curves"):
        if key not in report:
            fail(f"schema: missing top-level key {key!r}")
    if failures:
        return
    trace = report["trace"]
    for key in ("seed", "ticks", "ods", "link_events"):
        if key not in trace:
            fail(f"schema: trace.{key} missing")
    oracle = report["oracle"]
    if not finite_positive([oracle.get("resolves", -1)]):
        fail("schema: oracle.resolves missing or non-positive")
    if trace.get("ticks") != oracle.get("resolves"):
        fail(f"schema: oracle resolved {oracle.get('resolves')} ticks of "
             f"{trace.get('ticks')} — the oracle must re-solve every tick")
    curves = report["curves"]
    if not curves:
        fail("schema: empty curves list")
    for row in curves:
        for key in CURVE_FIELDS:
            if key not in row:
                fail(f"schema: curve row missing {key!r}: {row}")
        if row.get("mode") not in ("reactive", "forecast"):
            fail(f"schema: unknown mode {row.get('mode')!r}")
        for key in ("mean_gap", "max_gap", "final_gap"):
            gap = row.get(key, float("nan"))
            if not (isinstance(gap, (int, float)) and math.isfinite(gap)):
                fail(f"schema: {row.get('mode')}/{row.get('resolve_every')} "
                     f"{key} not finite: {gap}")
            elif gap < -GAP_PAD:
                fail(f"schema: {row.get('mode')}/{row.get('resolve_every')} "
                     f"{key} {gap:.2e} is negative beyond tolerance — the "
                     f"replayer beat a certified optimum")
    # Both modes must cover the same budget axis.
    budgets = {}
    for row in curves:
        budgets.setdefault(row["mode"], []).append(row["resolve_every"])
    if set(budgets) != {"reactive", "forecast"}:
        fail(f"schema: expected both modes, got {sorted(budgets)}")
    elif budgets["reactive"] != budgets["forecast"]:
        fail(f"schema: budget axes differ: reactive {budgets['reactive']} "
             f"vs forecast {budgets['forecast']}")
    elif len(budgets["reactive"]) < 3:
        fail(f"schema: need >= 3 budgets for a curve, got {budgets['reactive']}")


def check_replay_gates(report):
    curves = report["curves"]
    by_mode = {}
    for row in curves:
        by_mode.setdefault(row["mode"], []).append(row)
    for mode, rows in by_mode.items():
        rows.sort(key=lambda r: r["resolve_every"])
        # Gate 1: starving the budget never helps.
        for a, b in zip(rows, rows[1:]):
            if a["mean_gap"] > b["mean_gap"] + GAP_PAD:
                fail(f"gates: {mode} mean_gap not monotone in budget: "
                     f"every-{a['resolve_every']} {a['mean_gap']:.2e} > "
                     f"every-{b['resolve_every']} {b['mean_gap']:.2e} + pad")
        # Gate 3: the full budget tracks the oracle.
        if rows and rows[0]["resolve_every"] == 1 and mode == "reactive":
            if abs(rows[0]["mean_gap"]) > FULL_BUDGET_GAP:
                fail(f"gates: reactive every-1 mean_gap {rows[0]['mean_gap']:.2e} "
                     f"> {FULL_BUDGET_GAP} — per-tick re-solves lost the oracle")
    # Gate 2: forecasting never loses to reacting at equal budget.
    reactive = {r["resolve_every"]: r for r in by_mode.get("reactive", [])}
    for row in by_mode.get("forecast", []):
        ref = reactive.get(row["resolve_every"])
        if ref is None:
            continue
        if row["mean_gap"] > ref["mean_gap"] * FORECAST_PARITY + GAP_PAD:
            fail(f"gates: forecast loses at every-{row['resolve_every']}: "
                 f"{row['mean_gap']:.2e} vs reactive {ref['mean_gap']:.2e} "
                 f"(parity {FORECAST_PARITY}, pad {GAP_PAD})")


def run_replay_checks(report):
    check_replay_schema(report)
    if not failures:
        check_replay_gates(report)
    if failures:
        return 1
    budgets = sorted({row["resolve_every"] for row in report["curves"]})
    print(f"check_bench: all replay gates pass "
          f"({len(report['curves'])} curves over budgets {budgets}; "
          f"trace seed {report['trace']['seed']}, "
          f"{report['trace']['ticks']} ticks)")
    return 0


SERVE_SIDE_FIELDS = ("count", "errors", "throughput_per_sec",
                     "p50_ms", "p95_ms", "p99_ms")
SERVE_COUNTERS = ("reads_served_lockfree", "jobs_enqueued",
                  "coalesce_flushes", "coalesced_updates", "epoch_rebuilds",
                  "routing_builds",
                  "slow_client_evictions", "conn_idle_timeouts",
                  "conn_io_errors")
# Slack on jobs_enqueued beyond the measured mutate count: the control
# connection's shutdown is queued, and a shed burst may land partially.
ENQUEUE_SLACK = 16


def check_serve_schema(report):
    for key in ("bench", "quick", "config", "wall_s", "read", "mutate",
                "protocol_errors", "shed", "max_coalesced", "counters",
                "daemon"):
        if key not in report:
            fail(f"schema: missing top-level key {key!r}")
    if failures:
        return
    for key in ("readers", "writers", "duration_ms", "coalesce_ms",
                "idle_timeout_ms", "write_timeout_ms", "burst", "seed"):
        if key not in report["config"]:
            fail(f"schema: config.{key} missing")
    if report["config"].get("idle_timeout_ms", 0) <= 0:
        fail("schema: the bench must run with the idle timeout enabled "
             "(config.idle_timeout_ms > 0) so the timeout gates mean something")
    for side in ("read", "mutate"):
        section = report[side]
        for key in SERVE_SIDE_FIELDS:
            v = section.get(key)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0):
                fail(f"schema: {side}.{key} missing or not finite: {v!r}")
        if section.get("count", 0) <= 0:
            fail(f"schema: {side}.count is zero — the load never ran")
    for key in SERVE_COUNTERS:
        if key not in report["counters"]:
            fail(f"schema: counters.{key} missing")
    if "clean_shutdown" not in report["daemon"]:
        fail("schema: daemon.clean_shutdown missing")


def check_serve_gates(report):
    read, mutate = report["read"], report["mutate"]
    counters = report["counters"]
    # Gate 1: a clean protocol under concurrency.
    if report["protocol_errors"] != 0:
        fail(f"gates: {report['protocol_errors']} protocol error(s) under load")
    for side in ("read", "mutate"):
        if report[side]["errors"] != 0:
            fail(f"gates: {report[side]['errors']} {side} error(s) under load")
    if not report["daemon"].get("clean_shutdown"):
        fail("gates: daemon did not shut down cleanly")
    # Gate 1b: with the serving timeouts *enabled*, none of the slow-client
    # protections may fire against healthy load — an eviction or idle reap
    # here means the daemon is punishing well-behaved peers, and a hard
    # socket error means a connection died outside the protocol.
    for key in ("slow_client_evictions", "conn_idle_timeouts",
                "conn_io_errors"):
        if counters.get(key, 0) != 0:
            fail(f"gates: {counters[key]} {key} with healthy clients and "
                 f"timeouts enabled")
    # Gate 2: reads bypass the queue. Every measured read must have been
    # served from the published snapshot, and the enqueue counter must
    # track the mutate stream only (plus the control shutdown).
    if counters["reads_served_lockfree"] < read["count"]:
        fail(f"gates: reads_served_lockfree {counters['reads_served_lockfree']} "
             f"< measured reads {read['count']} — reads hit the queue")
    if counters["jobs_enqueued"] > mutate["count"] + report["shed"] + ENQUEUE_SLACK:
        fail(f"gates: jobs_enqueued {counters['jobs_enqueued']} exceeds the "
             f"mutate stream {mutate['count']} + shed {report['shed']} + "
             f"{ENQUEUE_SLACK} — read load is leaking into the solve queue")
    # Gate 3: coalescing holds — one rebuild per flush (plus the startup
    # solve), never one per raw update.
    if counters["epoch_rebuilds"] > counters["coalesce_flushes"] + 2:
        fail(f"gates: epoch_rebuilds {counters['epoch_rebuilds']} > "
             f"coalesce_flushes {counters['coalesce_flushes']} + 2 — "
             f"coalesced updates are rebuilding individually")
    if counters["coalesced_updates"] < counters["coalesce_flushes"]:
        fail(f"gates: coalesced_updates {counters['coalesced_updates']} < "
             f"coalesce_flushes {counters['coalesce_flushes']}")
    # Gate 4: the load only moves demands, so every epoch after the
    # startup solve reuses its routing.
    if counters["routing_builds"] != 1:
        fail(f"gates: routing_builds {counters['routing_builds']} != 1 — "
             f"demand-only epochs are routing from scratch")


def serve_structure_of(report):
    """The baseline-worthy projection of a serve-load report: the exact
    connection mix plus banded reference timings."""
    return {
        "readers": report["config"]["readers"],
        "writers": report["config"]["writers"],
        "duration_ms": report["config"]["duration_ms"],
        "burst": report["config"]["burst"],
        "read_p99_ms": report["read"]["p99_ms"],
        "read_throughput_per_sec": report["read"]["throughput_per_sec"],
    }


def check_serve_baselines(report):
    if not BASELINES.exists():
        fail(f"baselines: {BASELINES} missing — regenerate with --write-baselines")
        return
    ref = json.loads(BASELINES.read_text()).get("serve_load")
    if ref is None:
        fail("baselines: no 'serve_load' section — regenerate with "
             "--write-baselines")
        return
    cur = serve_structure_of(report)
    for field in ("readers", "writers", "duration_ms", "burst"):
        if ref.get(field) != cur[field]:
            fail(f"baselines: serve_load {field} drifted {ref.get(field)} -> "
                 f"{cur[field]} — the load mix changed, numbers not comparable")
    if ref.get("read_p99_ms", 0) > 0:
        r = cur["read_p99_ms"] / ref["read_p99_ms"]
        if r > TIMING_BAND:
            fail(f"baselines: read p99 regressed {r:.1f}x vs baseline "
                 f"({ref['read_p99_ms']:.3f} -> {cur['read_p99_ms']:.3f} ms)")
    if ref.get("read_throughput_per_sec", 0) > 0:
        r = cur["read_throughput_per_sec"] / ref["read_throughput_per_sec"]
        if r < 1.0 / TIMING_BAND:
            fail(f"baselines: read throughput collapsed to {r:.2f}x of baseline "
                 f"({ref['read_throughput_per_sec']:.0f} -> "
                 f"{cur['read_throughput_per_sec']:.0f}/s)")


def merge_baselines(key, value):
    """Rewrite one section of the baselines file, preserving the others."""
    base = json.loads(BASELINES.read_text()) if BASELINES.exists() else {}
    if key is None:
        base.update(value)
    else:
        base[key] = value
    BASELINES.write_text(json.dumps(base, indent=2) + "\n")
    print(f"wrote {BASELINES}")


def run_serve_checks(report, write):
    check_serve_schema(report)
    if not failures:
        check_serve_gates(report)
        if write:
            merge_baselines("serve_load", serve_structure_of(report))
        else:
            check_serve_baselines(report)
    if failures:
        return 1
    print(f"check_bench: all serve-load gates pass "
          f"({report['read']['count']} reads @ "
          f"{report['read']['throughput_per_sec']:.0f}/s "
          f"p99 {report['read']['p99_ms']:.2f} ms, "
          f"{report['mutate']['count']} mutates, "
          f"{report['counters']['coalesce_flushes']} flushes for "
          f"{report['counters']['coalesced_updates']} updates)")
    return 0


CHAOS_ROW_FIELDS = ("seed", "resolves", "torn_lines", "clean_shutdown",
                    "exactly_once", "matches_baseline", "final_digest")
CHAOS_MIN_SEEDS = 8


def check_chaos_net(report):
    """Gates for BENCH_chaos_net.json (the chaos_net drill binary): every
    seeded fault schedule must have converged to the fault-free baseline —
    exactly-once mutations, zero torn lines, clean shutdown, identical
    final-state digest. The report carries only deterministic fields, so
    bench_smoke.sh separately cmp's two runs byte-for-byte."""
    for key in ("bench", "quick", "config", "baseline", "schedules",
                "failures"):
        if key not in report:
            fail(f"schema: missing top-level key {key!r}")
    if failures:
        return
    rows = report["schedules"]
    if len(rows) < CHAOS_MIN_SEEDS:
        fail(f"schema: only {len(rows)} schedules; need >= {CHAOS_MIN_SEEDS}")
    if report["config"].get("seeds") != len(rows):
        fail(f"schema: config.seeds {report['config'].get('seeds')} != "
             f"{len(rows)} schedule rows")
    base_digest = report["baseline"].get("final_digest")
    if not base_digest:
        fail("schema: baseline.final_digest missing")
    if report["failures"] != 0:
        fail(f"gates: {report['failures']} schedule(s) self-reported failure")
    for row in rows:
        for key in CHAOS_ROW_FIELDS:
            if key not in row:
                fail(f"schema: schedule row missing {key!r}: {row}")
        seed = row.get("seed", "?")
        if row.get("torn_lines", 1) != 0:
            fail(f"gates: seed {seed} saw {row['torn_lines']} torn line(s)")
        if not row.get("clean_shutdown"):
            fail(f"gates: seed {seed} did not shut the daemon down cleanly")
        if not row.get("exactly_once"):
            fail(f"gates: seed {seed} lost or double-applied a mutation "
                 f"({row.get('resolves')} resolves vs baseline "
                 f"{report['baseline'].get('resolves')})")
        if not row.get("matches_baseline") or row.get("final_digest") != base_digest:
            fail(f"gates: seed {seed} final state diverged from the "
                 f"fault-free baseline ({row.get('final_digest')} vs "
                 f"{base_digest})")


def run_chaos_checks(report):
    check_chaos_net(report)
    if failures:
        return 1
    print(f"check_bench: all chaos-net gates pass "
          f"({len(report['schedules'])} fault schedules converged to "
          f"digest {report['baseline']['final_digest']})")
    return 0


def main():
    args = sys.argv[1:]
    write = "--write-baselines" in args
    paths = [a for a in args if not a.startswith("--")]
    if not paths:
        print("usage: check_bench.py BENCH_eval.json|BENCH_replay.json|"
              "BENCH_serve.json [--write-baselines]", file=sys.stderr)
        return 2
    report = json.loads(Path(paths[0]).read_text())

    if report.get("bench") == "replay":
        code = run_replay_checks(report)
        if failures:
            print(f"check_bench: {len(failures)} gate(s) failed:", file=sys.stderr)
            for f in failures:
                print(f"  - {f}", file=sys.stderr)
        return code

    if report.get("bench") == "chaos_net":
        code = run_chaos_checks(report)
        if failures:
            print(f"check_bench: {len(failures)} gate(s) failed:", file=sys.stderr)
            for f in failures:
                print(f"  - {f}", file=sys.stderr)
        return code

    if report.get("bench") == "serve_load":
        code = run_serve_checks(report, write)
        if failures:
            print(f"check_bench: {len(failures)} gate(s) failed:", file=sys.stderr)
            for f in failures:
                print(f"  - {f}", file=sys.stderr)
        return code

    check_schema(report)
    if not failures:
        check_perf_gates(report)
        if write:
            write_eval_baselines(report)
        else:
            check_baselines(report)

    if failures:
        print(f"check_bench: {len(failures)} gate(s) failed:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"check_bench: all perf gates pass "
          f"({len(report['eval_cases'])} eval, "
          f"{len(report['solver_cases'])} solver, "
          f"{len(report['warm_cases'])} warm, "
          f"{len(report['routing_cases'])} routing, "
          f"{len(report['parse_cases'])} parse cases; "
          f"obs ratio {report['obs']['overhead_ratio']:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
