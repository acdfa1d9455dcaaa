"""The coarsegroups benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload defaults --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: the program is imported from
``src/`` and the query oracle from ``tests/oracles.py``.  Every program
call happens in a worker process (``worker.py``); this process only
schedules workers, checks their outputs and summarises.

It prints one ``name value unit`` line per metric, then, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Timings are scaled to a nominal host speed
by a reference timed next to each one (``REF_S``, ``worker.reference``).
README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import queries
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RUN_BUDGET_S = 170.0
# Reference time at nominal host speed: every timing t is reported as
# t * REF_S / (the reference timed next to it), in seconds at that speed.
REF_S = 0.018
SETUP_PROBES = 8  # set-up-only processes per run, on top of the measuring ones

# Workload -> cases, each (case id, arguments of ``coarsegroups run``).
# Every case runs in a fresh interpreter, so nothing built for one case
# (tables, bases) carries into another: this is what ``coarsegroups run``
# costs a user.
CASES = {
    # Every registered scenario at its defaults.  About 75% of the time is
    # MetricBallsBasis box scans in heisenberg_separation (654,784
    # MaxEntryMetric evaluations over 654,774 box elements, 61 mul calls);
    # GeneratedBasis and WordNorm do almost no work.  The seed only orders
    # the cases.
    "defaults": [
        (name, [name])
        for name in (
            "heisenberg_separation",
            "heisenberg_pseudometric",
            "z_quotient_metric",
            "powers_of_ten",
            "aj_family",
            "smith_uniqueness_probe",
            "rho_plus_demo",
        )
    ],
    # Stress settings that move cost, each dominated by another layer:
    # z_quotient_metric R=200 does 2.3M mul and 324k _reduce, about 2/3 of
    # its time in GeneratedBasis levels and 1/3 in the O(n^2) diameter;
    # smith_uniqueness_probe R=96 is read-heavy on WordNorm (241k lookups
    # against 195 table extends); heisenberg_pseudometric radius=8 does
    # 3.2M Heisenberg mul/inv and 6.4M Entry12Pseudometric evaluations in
    # the scenario body.  MetricBallsBasis is never called here, so a
    # ball-scan optimisation must show no change on this workload.
    "stress": [
        ("z_quotient_metric.R200", ["z_quotient_metric", "--param", "truncation_radius=200"]),
        ("smith_uniqueness_probe.R96", ["smith_uniqueness_probe", "--param", "R=96"]),
        ("heisenberg_pseudometric.radius8", ["heisenberg_pseudometric", "--param", "radius=8"]),
    ],
}
# The third workload, ``queries``, is one long-lived process answering a
# seeded closed-loop stream of distance and member queries (queries.py).
# Each query builds its WordNorm table or GeneratedBasis from scratch, so
# WordNorm is write-heavy here, the opposite of smith_uniqueness_probe;
# most queries repeat a group or bornology, so this is where sharing work
# across calls can show a gain, and its memory cost.
WORKLOADS = ("defaults", "stress", "queries")

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)

COUNTS = (
    "groups.mul.calls",
    "groups.inv.calls",
    "groups.reduce.calls",
    "groups.box.calls",
    "groups.box.elements",
    "groups.ball.calls",
    "groups.ball.elements",
    "groups.sphere_stream.elements",
    "groups.budget_exceeded",
    "metrics.eval.calls.MaxEntryMetric",
    "metrics.eval.calls.Entry12Pseudometric",
    "metrics.eval.calls.InducedMetric",
    "metrics.eval.calls.QuotientWordMetric",
    "metrics.wordnorm.lookups",
    "metrics.wordnorm.extends",
    "metrics.wordnorm.table_entries",
    "metrics.wordnorm.horizon",
    "metrics.diameter.calls",
    "metrics.diameter.pairs",
    "bornology.metric_balls.materialize.calls",
    "bornology.metric_balls.scanned",
    "bornology.generated.levels",
    "bornology.generated.admit.attempts",
    "bornology.member.calls",
    "bornology.member_depth.calls",
    "bornology.member_depth.none",
    "coarse.controlled_probe.calls",
    "coarse.coarse_map_probe.calls",
    "coarse.closeness_probe.calls",
    "coarse.value_of.none",
    "scenarios.run.calls",
    "reporting.bytes",
    "cli.main.calls",
)
# (metric, numerator count, denominator count): useful outcomes over attempts.
RATIOS = (
    ("metrics.wordnorm.hit_ratio", "metrics.wordnorm.hits", "metrics.wordnorm.lookups"),
    (
        "bornology.metric_balls.kept_ratio",
        "bornology.metric_balls.kept",
        "bornology.metric_balls.scanned",
    ),
    (
        "bornology.generated.admit_ratio",
        "bornology.generated.admitted",
        "bornology.generated.admit.attempts",
    ),
)
# Span names, in the order the tracer installs them.
SPANS = tuple(dict.fromkeys(span for span, *_ in tracing.FUNCTION_SPANS + tracing.METHOD_SPANS))


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    out = [(name, "count", "lower") for name in COUNTS]
    out += [(name, "ratio", "higher") for name, _, _ in RATIOS]
    out += [(f"{span}.self_s", "s", "lower") for span in SPANS]
    out += [("queries.repeat_share", "ratio", "higher"), ("trace.overhead_ratio", "ratio", "lower")]
    return out


class BenchError(RuntimeError):
    """The benchmark itself could not measure (not a program failure)."""


@dataclass
class Pass:
    """One pass over a workload's operations, from one or more workers."""

    seconds: float = 0.0
    raw_seconds: float = 0.0
    op_s: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    rss_mib: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)
    spans: dict = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)
    case_counts: dict = field(default_factory=dict)
    case_s: dict = field(default_factory=dict)


def percentile(values: list, p: int) -> float:
    """Nearest-rank percentile: a measured value, never an interpolation."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def scaled(t: float, ref_s: float) -> float:
    """A timing at nominal host speed, from the reference timed next to it."""
    return t * REF_S / ref_s


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def spawn(cfg: dict, deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run budget exhausted")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, json.dumps(cfg)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {cfg}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _add_spans(total: dict, spans: dict | None) -> None:
    for name, entry in (spans or {}).items():
        acc = total.setdefault(name, {"calls": 0, "self_s": 0.0})
        acc["calls"] += entry["calls"]
        acc["self_s"] += entry["self_s"]


def case_pass(workload: str, order: list, mode: str, expected: dict, deadline: float) -> Pass:
    p = Pass()
    for case_id, argv in order:
        r = spawn({"task": "case", "argv": argv, "trace": mode}, deadline)
        op_s = scaled(r["op_s"], r["ref_s"])
        p.attempted += 1
        p.seconds += op_s
        p.raw_seconds += r["op_s"]
        p.op_s.append(op_s)
        p.case_s[case_id] = op_s
        p.setup_s.append(scaled(r["setup_s"], r["setup_ref_s"]))
        p.rss_mib = max(p.rss_mib, r["rss_mib"])
        want = expected["cases"][case_id]
        got = {key: r.get(key) for key in ("json_sha256", "tsv_sha256", "all_pass")}
        if r["rc"] != 0 or got != want:
            p.failures.append(f"{workload} {case_id}: exit {r['rc']}, got {got}, want {want}")
        if mode == "spans":
            _add_spans(p.spans, r["trace"])
        elif mode == "counts":
            p.case_counts[case_id] = r["trace"]
            p.counts.update(r["trace"])
    return p


def query_passes(r: dict, seed: int, blocks: list, oracle: queries.Oracle) -> list[Pass]:
    """Split one queries worker's result into one pass per block, checked."""
    out = []
    n = queries.BLOCK
    latencies = [scaled(t, ref) for t, ref in zip(r["latencies"], r["ref_s"])]
    for i, index in enumerate(blocks):
        p = Pass(rss_mib=r["rss_mib"])
        if i == 0:
            p.setup_s.append(scaled(r["setup_s"], r["setup_ref_s"]))
        p.op_s = latencies[i * n : (i + 1) * n]
        p.seconds = sum(p.op_s)
        p.raw_seconds = sum(r["latencies"][i * n : (i + 1) * n])
        for q, (rc, out_text) in zip(queries.block(seed, index), r["answers"][i * n : (i + 1) * n]):
            p.attempted += 1
            want = oracle.expected(q)
            if rc != 0 or out_text != want:
                p.failures.append(f"queries {' '.join(q.argv)}: exit {rc}, got {out_text!r}, want {want!r}")
        out.append(p)
    return out


def describe_env() -> dict:
    head = os.path.join(ROOT, ".git", "HEAD")
    revision = "not a git checkout"
    if os.path.exists(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        revision = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    revision = fh.read().strip()
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": revision,
        "COARSE_BALL_CAP": os.environ.get("COARSE_BALL_CAP", "unset"),
        "COARSE_SET_CAP": os.environ.get("COARSE_SET_CAP", "unset"),
    }


# -- end-to-end runs ---------------------------------------------------


def repeat_for(seconds: float, step) -> list:
    """Call step() once, then again while a call as long as the last one
    would still end within `seconds` of the start."""
    start = time.monotonic()
    out = []
    while True:
        t = time.monotonic()
        out.append(step())
        now = time.monotonic()
        if (now - start) + (now - t) > seconds:
            return out


def measure(workload: str, seed: int, seconds: float, expected: dict, deadline: float):
    """Untraced passes for `seconds`; returns (passes, extra info lines)."""
    info: dict = {}
    probe = {"task": "setup", "seed": seed} if workload == "queries" else {"task": "setup"}
    if workload == "queries":
        oracle = queries.Oracle(ROOT, expected["member"])
        r = spawn({"task": "queries", "seed": seed, "seconds": seconds, "trace": "off"}, deadline)
        passes = query_passes(r, seed, list(range(len(r["latencies"]) // queries.BLOCK)), oracle)
    else:
        rng = random.Random(seed)

        def one_pass() -> Pass:
            order = list(CASES[workload])
            rng.shuffle(order)
            return case_pass(workload, order, "off", expected, deadline)

        passes = repeat_for(seconds, one_pass)
        for case_id, _ in CASES[workload]:
            info[f"case_s.{case_id}"] = (statistics.median(p.case_s[case_id] for p in passes), "s")
    for _ in range(SETUP_PROBES):
        setup = spawn(probe, deadline)
        passes[0].setup_s.append(scaled(setup["setup_s"], setup["setup_ref_s"]))
    info["raw_pass_s"] = (statistics.median(p.raw_seconds for p in passes), "s")
    if workload == "queries":
        latencies = [t for p in passes for t in p.op_s]
        p95 = percentile(latencies, 95)
        info["query_p50_ms"] = (percentile(latencies, 50) * 1e3, "ms")
        info["query_p95_ms"] = (p95 * 1e3, "ms")
        info["queries_beyond_p95"] = (sum(t > p95 for t in latencies), "count")
        info["queries_per_s"] = (len(latencies) / sum(latencies), "1/s")
        stream = [q for b in range(len(passes)) for q in queries.block(seed, b)]
        info["queries.repeat_share"] = (queries.repeat_share(stream), "ratio")
    return passes, info


def end_to_end(passes: list[Pass]) -> dict:
    setups = [s for p in passes for s in p.setup_s]
    return {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(p.seconds for p in passes),
        "op_p50_ms": statistics.median(percentile(p.op_s, 50) for p in passes) * 1e3,
        "op_p95_ms": statistics.median(percentile(p.op_s, 95) for p in passes) * 1e3,
        "peak_rss_mib": statistics.median(p.rss_mib for p in passes),
    }


# -- traced runs -------------------------------------------------------


def traced(workload: str, seed: int, seconds: float, expected: dict, deadline: float):
    """Alternate untraced and span-traced passes for `seconds`, then two
    counting passes; returns (all passes, per-layer values)."""
    oracle = queries.Oracle(ROOT, expected["member"]) if workload == "queries" else None
    order = list(CASES.get(workload, ()))
    random.Random(seed).shuffle(order)

    def one(mode: str) -> Pass:
        if workload == "queries":
            r = spawn({"task": "queries", "seed": seed, "blocks": [0], "trace": mode}, deadline)
            p = query_passes(r, seed, [0], oracle)[0]
            if mode == "spans":
                p.spans = r["trace"]
            elif mode == "counts":
                p.counts = Counter(r["trace"])
            return p
        return case_pass(workload, order, mode, expected, deadline)

    pairs = repeat_for(seconds, lambda: (one("off"), one("spans")))
    plain, spanned = [p for p, _ in pairs], [s for _, s in pairs]
    counted = [one("counts"), one("counts")]

    first, second = counted[0].counts, counted[1].counts
    if first != second:
        differ = sorted(k for k in first.keys() | second.keys() if first[k] != second[k])
        counted[1].failures.append(f"per-layer counts differ between two counting passes: {differ}")
    for case_id, counts in counted[0].case_counts.items():
        print(f"counts {case_id} {json.dumps(counts, sort_keys=True)}")

    c = counted[0].counts
    values = {name: c[name] for name in COUNTS}
    for name, num, den in RATIOS:
        values[name] = c[num] / c[den] if c[den] else 0.0
    for span in SPANS:
        values[f"{span}.self_s"] = statistics.median(
            p.spans.get(span, {"self_s": 0.0})["self_s"] for p in spanned
        )
    if workload == "queries":
        values["queries.repeat_share"] = queries.repeat_share(queries.block(seed, 0))
    else:
        values["queries.repeat_share"] = 0.0  # every case runs in its own interpreter
    values["trace.overhead_ratio"] = statistics.median(p.seconds for p in spanned) / statistics.median(
        p.seconds for p in plain
    )
    return plain + spanned + counted, values


# -- entry point -------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in ("src/coarsegroups/__init__.py", "tests/oracles.py"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found; run from a coarsegroups checkout", file=sys.stderr)
            return 2
    env = describe_env()
    caps = [k for k in ("COARSE_BALL_CAP", "COARSE_SET_CAP") if env[k] != "unset"]
    if caps:
        print(f"error: {', '.join(caps)} set; caps change what the program computes", file=sys.stderr)
        return 2
    print("env " + json.dumps(env, sort_keys=True))

    expected = load_expected()
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if args.trace:
            passes, values = traced(args.workload, args.seed, args.seconds, expected, deadline)
            info = {}
            units = {name: unit for name, unit, _ in per_layer_metrics()}
        else:
            passes, info = measure(args.workload, args.seed, args.seconds, expected, deadline)
            values = end_to_end(passes)
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    for failure in failures[:20]:
        print(f"FAIL {failure}")
    info["failed_ratio"] = (len(failures) / attempted, "ratio")
    info["passes"] = (len(passes), "count")
    for name, (value, unit) in info.items():
        print(f"{name} {value} {unit}")
    for name, value in values.items():
        print(f"{name} {value} {units[name]}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
