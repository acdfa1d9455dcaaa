"""Per-layer tracing, installed from outside the program.

Nothing in ``src/`` knows about tracing: this module replaces public
functions and methods of the ``coarsegroups`` modules with wrappers, in a
worker process that exists only for one traced pass.  Two modes, never
mixed in one process:

* ``Spans`` times calls at layer boundaries.  Every span records its name,
  start, end and the index of the span that called it; a span's self time
  is its duration minus the durations of its child spans.  Only calls that
  take well over a microsecond get a span.
* ``Counts`` counts operations exactly, including calls far under a
  microsecond (``mul``, ``eval``, word-norm lookups).  A counting wrapper
  costs more than such a call, so this mode takes no times: self times
  come from the ``Spans`` pass, which leaves those calls unwrapped.

A name missing from the program is skipped, so a later change that
removes or renames an internal function leaves its counters at zero
instead of breaking the benchmark.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

LAYERS = ("groups", "metrics", "bornology", "coarse", "scenarios", "reporting", "cli")

# Module-level functions that get a span, by span name.
FUNCTION_SPANS = (
    ("cli.main", "cli", "main"),
    ("scenarios.run", "scenarios", "run_scenario"),
    ("reporting.serialize", "reporting", "report_to_json"),
    ("reporting.serialize", "reporting", "report_to_tsv"),
    ("coarse.controlled_probe", "coarse", "controlled_probe"),
    ("coarse.coarse_map_probe", "coarse", "coarse_map_probe"),
    ("coarse.closeness_probe", "coarse", "closeness_probe"),
    ("bornology.member", "bornology", "member"),
    ("bornology.member_depth", "bornology", "member_depth"),
)

# Methods that get a span, by span name.
METHOD_SPANS = (
    ("bornology.metric_balls", "bornology", "MetricBallsBasis", "_materialize"),
    ("bornology.generated.build_level", "bornology", "GeneratedBasis", "_build_level"),
    ("groups.box", "groups", "GroupSpec", "box"),
    ("groups.ball", "groups", "GroupSpec", "ball"),
    ("metrics.wordnorm.extend", "metrics", "WordNorm", "_extend"),
    ("metrics.diameter", "metrics", "MetricEvaluator", "diameter"),
)

EVAL_CLASSES = ("MaxEntryMetric", "Entry12Pseudometric", "InducedMetric", "QuotientWordMetric")


def _modules() -> dict:
    return {name: importlib.import_module(f"coarsegroups.{name}") for name in LAYERS}


def _replace_function(mods: dict, module: str, attr: str, make) -> None:
    """Rebind a module-level function in every layer module that imported it."""
    orig = getattr(mods[module], attr, None)
    if orig is None:
        return
    wrapper = make(orig)
    for mod in mods.values():
        for name, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, name, wrapper)


def _replace_method(mods: dict, module: str, cls: str, attr: str, make) -> None:
    owner = getattr(mods[module], cls, None)
    orig = None if owner is None else owner.__dict__.get(attr)
    if orig is not None:
        setattr(owner, attr, make(orig))


class Spans:
    """Span recorder: one flat list of [name, parent index, start, end]."""

    def __init__(self):
        self.records: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        records, stack, clock = self.records, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(records))
            records.append(rec)
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        mods = _modules()
        for span, module, attr in FUNCTION_SPANS:
            _replace_function(mods, module, attr, lambda fn, s=span: self.wrap(s, fn))
        for span, module, cls, attr in METHOD_SPANS:
            _replace_method(mods, module, cls, attr, lambda fn, s=span: self.wrap(s, fn))

    def summary(self) -> dict:
        """Calls and summed self time per span name."""
        child = [0.0] * len(self.records)
        for _, parent, start, end in self.records:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, _, start, end) in enumerate(self.records):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child[i]
        return out


class Counts:
    """Exact operation counters, keyed by per-layer metric name."""

    def __init__(self):
        self.c: Counter = Counter()
        self._in_materialize = 0

    def summary(self) -> dict:
        return dict(self.c)

    def install(self) -> None:
        c = self.c
        mods = _modules()

        def calls(key):
            def make(fn):
                def counted(*args, **kwargs):
                    c[key] += 1
                    return fn(*args, **kwargs)

                return counted

            return make

        # groups: the group law, enumeration, cap events.
        _replace_method(mods, "groups", "GroupSpec", "mul", calls("groups.mul.calls"))
        _replace_method(mods, "groups", "GroupSpec", "inv", calls("groups.inv.calls"))
        _replace_method(mods, "groups", "GroupSpec", "_reduce", calls("groups.reduce.calls"))

        def box(fn):
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                c["groups.box.calls"] += 1
                c["groups.box.elements"] += len(out)
                if self._in_materialize:
                    c["bornology.metric_balls.scanned"] += len(out)
                return out

            return counted

        def ball(fn):
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                c["groups.ball.calls"] += 1
                c["groups.ball.elements"] += len(out)
                return out

            return counted

        def sphere_stream(fn):
            def counted(*args, **kwargs):
                for g in fn(*args, **kwargs):
                    c["groups.sphere_stream.elements"] += 1
                    yield g

            return counted

        _replace_method(mods, "groups", "GroupSpec", "box", box)
        _replace_method(mods, "groups", "GroupSpec", "ball", ball)
        _replace_method(mods, "groups", "GroupSpec", "sphere_stream", sphere_stream)
        budget = getattr(mods["groups"], "BudgetExceededError", None)
        if budget is not None:
            init = budget.__init__

            def counted_init(exc, *args, **kwargs):
                c["groups.budget_exceeded"] += 1
                init(exc, *args, **kwargs)

            budget.__init__ = counted_init

        # metrics: evaluations per class, word-norm tables, diameters.
        for cls in EVAL_CLASSES:
            _replace_method(mods, "metrics", cls, "eval", calls(f"metrics.eval.calls.{cls}"))
        horizon = getattr(mods["metrics"], "HORIZON", None)

        def lookup(fn):
            def counted(norm, g):
                before = c["metrics.wordnorm.extends"]
                out = fn(norm, g)
                c["metrics.wordnorm.lookups"] += 1
                if c["metrics.wordnorm.extends"] == before:
                    c["metrics.wordnorm.hits"] += 1
                if out is horizon:
                    c["metrics.wordnorm.horizon"] += 1
                return out

            return counted

        def extend(fn):
            def counted(norm):
                before = len(getattr(norm, "_norms", ()))
                out = fn(norm)
                c["metrics.wordnorm.extends"] += 1
                c["metrics.wordnorm.table_entries"] += len(getattr(norm, "_norms", ())) - before
                return out

            return counted

        def diameter(fn):
            def counted(metric, elements):
                elements = list(elements)
                c["metrics.diameter.calls"] += 1
                c["metrics.diameter.pairs"] += len(elements) * (len(elements) - 1) // 2
                return fn(metric, elements)

            return counted

        _replace_method(mods, "metrics", "WordNorm", "__call__", lookup)
        _replace_method(mods, "metrics", "WordNorm", "_extend", extend)
        _replace_method(mods, "metrics", "MetricEvaluator", "diameter", diameter)

        # bornology: ball bases, generated levels, membership.
        def materialize(fn):
            def counted(*args, **kwargs):
                self._in_materialize += 1
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._in_materialize -= 1
                c["bornology.metric_balls.materialize.calls"] += 1
                c["bornology.metric_balls.kept"] += len(out)
                return out

            return counted

        def admit(fn):
            def counted(basis, bucket, s):
                before = len(bucket)
                fn(basis, bucket, s)
                c["bornology.generated.admit.attempts"] += 1
                c["bornology.generated.admitted"] += len(bucket) > before

            return counted

        def member_depth(fn):
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                c["bornology.member_depth.calls"] += 1
                c["bornology.member_depth.none"] += out is None
                return out

            return counted

        _replace_method(mods, "bornology", "MetricBallsBasis", "_materialize", materialize)
        _replace_method(
            mods, "bornology", "GeneratedBasis", "_build_level", calls("bornology.generated.levels")
        )
        _replace_method(mods, "bornology", "GeneratedBasis", "_admit", admit)
        _replace_function(mods, "bornology", "member", calls("bornology.member.calls"))
        _replace_function(mods, "bornology", "member_depth", member_depth)

        # coarse: probes, and structures that could not observe a value.
        for probe in ("controlled_probe", "coarse_map_probe", "closeness_probe"):
            _replace_function(mods, "coarse", probe, calls(f"coarse.{probe}.calls"))

        def value_of(fn):
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                c["coarse.value_of.none"] += out is None
                return out

            return counted

        for cls in ("BoundedByMetric", "LeftBornological", "RightBornological"):
            _replace_method(mods, "coarse", cls, "value_of", value_of)

        # scenarios, reporting and the CLI.
        def serialize(fn):
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                c["reporting.bytes"] += len(out.encode("utf-8"))
                return out

            return counted

        _replace_function(mods, "scenarios", "run_scenario", calls("scenarios.run.calls"))
        _replace_function(mods, "reporting", "report_to_json", serialize)
        _replace_function(mods, "reporting", "report_to_tsv", serialize)
        _replace_function(mods, "cli", "main", calls("cli.main.calls"))
