"""One benchmark process: a fresh interpreter that runs one task and prints
one JSON line.

    python3 perfbench/worker.py '{"task": "case", "argv": [...], "trace": "off"}'

Tasks:

* ``case``: one ``coarsegroups run`` through ``cli.main``; reports its time,
  exit code, the reference timings around it (see ``reference``), and the
  sha256 of its JSON report and of the TSV rendering of the same report
  (made after the timed call).
* ``queries``: a closed loop of ``cli.main`` distance/member queries, each
  sent after the previous one returned, block after block for
  ``seconds``, or over the listed ``blocks`` only.
* ``setup``: import, and build the query inputs when given a ``seed``,
  then exit; more set-up samples per run.

``setup_s`` runs from the first line of this file to the end of input
building: it covers importing ``coarsegroups``, not interpreter start-up.
``trace`` is ``off``, ``spans`` (per-layer self times) or ``counts``
(exact operation counts); see ``tracing.py``.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from coarsegroups import cli, reporting  # noqa: E402

import queries  # noqa: E402
import tracing  # noqa: E402

PREBUILT_BLOCKS = 4
REF_EVERY = 10  # queries between two reference timings


def reference() -> float:
    """Time a fixed piece of pure-Python work shaped like the program's own
    (small function calls on tuples, generator max, set inserts, a sort):
    the host's current speed.

    The host's speed drifts by tens of percent over tens of seconds, and
    affects this reference and an adjacent program call alike, so run.py
    scales each timing by the reference taken around it (``ref_s``, the
    mean of the timings just before and after) and the set-up time by the
    one taken right after set-up (``setup_ref_s``).
    """

    def mul(g, h):
        a, b, c = g
        a2, b2, c2 = h
        return (a + a2, b + b2, c + c2 + a * b2)

    t = time.perf_counter()
    points = itertools.product(range(-11, 12), repeat=3)
    kept = {mul(p, (1, 0, p[0])) for p in points if max(abs(x) for x in p) < 9}
    sorted(kept)
    return time.perf_counter() - t


def call_cli(argv):
    """Run cli.main with its output captured; returns (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t
    return rc, out.getvalue(), elapsed


def rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def install(mode: str):
    tracer = {"spans": tracing.Spans, "counts": tracing.Counts}.get(mode)
    if tracer is None:
        return None
    tracer = tracer()
    tracer.install()
    return tracer


def trace_summary(tracer):
    return None if tracer is None else tracer.summary()


def run_case(cfg: dict) -> dict:
    setup_s = time.perf_counter() - _T0
    to_tsv = reporting.report_to_tsv  # untraced, for hashing after the timed call
    tracer = install(cfg["trace"])
    captured = []
    run_scenario = cli.run_scenario

    def capture(*args, **kwargs):
        report = run_scenario(*args, **kwargs)
        captured.append(report)
        return report

    cli.run_scenario = capture
    before = reference()
    rc, out, elapsed = call_cli(["run", *cfg["argv"], "--format", "json"])
    after = reference()
    result = {"setup_s": setup_s, "setup_ref_s": before, "op_s": elapsed, "rc": rc}
    result["ref_s"] = (before + after) / 2
    result["rss_mib"] = rss_mib()
    result["trace"] = trace_summary(tracer)
    if captured:
        report = captured[-1]
        result["json_sha256"] = hashlib.sha256(out.encode("utf-8")).hexdigest()
        result["tsv_sha256"] = hashlib.sha256(to_tsv(report).encode("utf-8")).hexdigest()
        result["all_pass"] = report.all_passed
    return result


def query_blocks(cfg: dict) -> list:
    return [queries.block(cfg["seed"], b) for b in cfg.get("blocks") or range(PREBUILT_BLOCKS)]


def run_setup(cfg: dict) -> dict:
    if "seed" in cfg:
        query_blocks(cfg)
    setup_s = time.perf_counter() - _T0
    return {"setup_s": setup_s, "setup_ref_s": reference()}


def run_queries(cfg: dict) -> dict:
    seed, fixed = cfg["seed"], cfg.get("blocks")
    blocks = query_blocks(cfg)
    setup_s = time.perf_counter() - _T0
    tracer = install(cfg["trace"])

    def stream():
        """The listed blocks, or blocks while one more as long as the last
        still ends within `seconds`."""
        if fixed:
            yield from blocks
            return
        start = last = time.perf_counter()
        for index in itertools.count():
            now = time.perf_counter()
            if index and (now - start) + (now - last) > cfg["seconds"]:
                return
            last = now
            yield blocks[index] if index < len(blocks) else queries.block(seed, index)

    latencies, answers, refs = [], [], []
    for qs in stream():
        for q in qs:
            if len(latencies) % REF_EVERY == 0:
                refs.append(reference())
            rc, out, elapsed = call_cli(q.argv)
            latencies.append(elapsed)
            answers.append([rc, out.strip()])
    refs.append(reference())
    return {
        "setup_s": setup_s,
        "setup_ref_s": refs[0],
        "latencies": latencies,
        "ref_s": [(refs[i // REF_EVERY] + refs[i // REF_EVERY + 1]) / 2 for i in range(len(latencies))],
        "answers": answers,
        "rss_mib": rss_mib(),
        "trace": trace_summary(tracer),
    }


def main() -> None:
    cfg = json.loads(sys.argv[1])
    task = {"case": run_case, "queries": run_queries, "setup": run_setup}[cfg["task"]]
    result = task(cfg)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
