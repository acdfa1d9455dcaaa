"""Command-line front end: scenario runs, ad-hoc distance and membership queries.

Exit codes: 0 all assertions pass, 1 assertion failures, 2 configuration or
parse errors, 3 resource budget exceeded.

`main` may be called repeatedly in one process.  Calls share the argument
parser and, for `member`, one basis per bornology and cap setting, at most
`SHARED_BASES` of them; answers are byte-identical to a fresh process's.
Word-norm tables are not shared: each `distance` call builds its own.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .bornology import Explicit, GeneratedBasis, GeometricSeed, MinimalBasis, member
from .groups import BudgetExceededError, GroupSpec, ball_size_cap, check_set_size, set_size_cap
from .metrics import (
    Entry12Pseudometric,
    MaxEntryMetric,
    QuotientWordMetric,
    WordMetric,
)
from .reporting import fmt, report_to_json, report_to_tsv
from .scenarios import SCENARIOS, run_scenario, scenario_params


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise `ConfigError` instead of
    printing usage and exiting, so `main` reports them like any other bad
    input; subcommand parsers inherit the class."""

    def error(self, message):
        raise ConfigError(message)


# -- parsing ----------------------------------------------------------


def parse_group(text: str) -> GroupSpec:
    text = text.strip()
    if text in ("H", "heisenberg"):
        return GroupSpec.heisenberg()
    if text == "Z":
        return GroupSpec.free_abelian(1)
    if text.startswith("Z^"):
        try:
            return GroupSpec.free_abelian(int(text[2:]))
        except ValueError as exc:
            raise ConfigError(f"bad group {text!r}") from exc
    if text.startswith("Z/"):
        try:
            return GroupSpec.cyclic(int(text[2:]))
        except ValueError as exc:
            raise ConfigError(f"bad group {text!r}") from exc
    raise ConfigError(f"unknown group {text!r}; use Z, Z^n, Z/k, or heisenberg")


def parse_element(spec: GroupSpec, text: str):
    text = text.strip()
    try:
        if spec.kind == "quotient-by-lattice":
            # Z/k, the one quotient `parse_group` builds: one pivot row (k,).
            k = spec.pivot_rows[0][1][0]
            if "mod" in text:
                residue, modulus = (p.strip() for p in text.split("mod"))
                if int(modulus) != k:
                    raise ConfigError(f"modulus mismatch in {text!r}")
                text = residue
            return spec._reduce((int(text),))
        if text.startswith("(") and text.endswith(")"):
            parts = [p for p in text[1:-1].split(",") if p.strip()]
            payload = tuple(int(p) for p in parts)
        else:
            payload = (int(text),)
        spec.check_element(payload)
        return payload
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"cannot parse element {text!r}: {exc}") from exc


def parse_metric(spec: GroupSpec, text: str):
    text = text.strip()
    if text == "word":
        return WordMetric(spec)
    if text == "maxentry":
        if spec.kind != "heisenberg":
            raise ConfigError("maxentry requires the heisenberg group")
        return MaxEntryMetric(spec)
    if text == "entry12":
        if spec.kind != "heisenberg":
            raise ConfigError("entry12 requires the heisenberg group")
        return Entry12Pseudometric(spec)
    if text.startswith("quotient:"):
        if spec.kind != "free-abelian" or spec.rank != 1:
            raise ConfigError("quotient:k requires the group Z")
        try:
            k = int(text.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad metric {text!r}") from exc
        if k < 2:
            raise ConfigError(f"bad metric {text!r}: k must be at least 2")
        return QuotientWordMetric(1, [(k,)])
    raise ConfigError(f"unknown metric {text!r}; use word, maxentry, entry12, quotient:k")


def parse_int_set(text: str) -> frozenset:
    text = text.strip()
    try:
        if text.startswith("evens:"):
            lo, hi = (int(p) for p in text[len("evens:"):].split(".."))
            # Counted before any is built: hi may be astronomically large.
            check_set_size(max(0, hi // 2 - (lo + 1) // 2 + 1))
            return frozenset((i,) for i in range(lo + lo % 2, hi + 1, 2))
        if text.startswith("{") and text.endswith("}"):
            parts = [p for p in text[1:-1].split(",") if p.strip()]
            query = frozenset((int(p),) for p in parts)
            check_set_size(len(query))
            return query
    except ValueError as exc:
        raise ConfigError(f"cannot parse set {text!r}: {exc}") from exc
    raise ConfigError(f"cannot parse set {text!r}; use {{a,b,c}} or evens:lo..hi")


# The most bases `parse_bornology` keeps at once; the least recently used
# goes first.  The `queries` benchmark workload names six bornologies.
SHARED_BASES = 8


def bornology_description(text: str):
    """`"minimal"`, or the tuple of frozen seeds that `text` names; textual
    variants such as `geom:10,6` and `geom: 10, 6` give equal descriptions."""
    text = text.strip()
    if text == "minimal":
        return "minimal"
    if text.startswith("geom:"):
        try:
            base, length = (int(p) for p in text[len("geom:"):].split(","))
            return (GeometricSeed(base, length),)
        except ValueError as exc:
            raise ConfigError(f"bad bornology {text!r}: {exc}") from exc
    if text.startswith("explicit:"):
        return (Explicit(tuple(sorted(parse_int_set(text[len("explicit:"):])))),)
    raise ConfigError(
        f"unknown bornology {text!r}; use minimal, geom:base,length, or explicit:{{...}}"
    )


@functools.lru_cache(maxsize=SHARED_BASES)
def shared_basis(description, ball_cap: int, set_cap: int):
    """The basis for a bornology description, built once and then extended by
    every later query that names it under the same caps.

    The caps only key the cache: the basis reads them from the environment
    as it builds, so a level built under one cap never answers under
    another.  A stream is deterministic and a level is committed only once
    it is whole, so a shared basis answers exactly as a fresh one would.
    """
    zspec = GroupSpec.free_abelian(1)
    if description == "minimal":
        return MinimalBasis(zspec)
    return GeneratedBasis(zspec, description)


def parse_bornology(text: str):
    """The process's shared basis for the bornology `text` names."""
    return shared_basis(bornology_description(text), ball_size_cap(), set_size_cap())


def check_caps() -> None:
    """Reject a non-integer COARSE_BALL_CAP or COARSE_SET_CAP up front."""
    try:
        ball_size_cap(), set_size_cap()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# -- subcommands ------------------------------------------------------


def cmd_list(_args) -> int:
    for name in sorted(SCENARIOS):
        params = ", ".join(
            f"{p}: {type(d).__name__} = {d}" for p, d in scenario_params(name).items()
        )
        print(f"{name}({params})")
    return 0


def cmd_run(args) -> int:
    params = {}
    scenario = args.scenario
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file is not UTF-8: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        from_file = loaded.pop("parameters", {})
        if not isinstance(from_file, dict):
            raise ConfigError("config parameters must be a JSON object")
        params.update(from_file)
        file_scenario = loaded.pop("scenario", scenario)
        if file_scenario is not None and not isinstance(file_scenario, str):
            raise ConfigError("config scenario must be a string")
        if scenario is not None and file_scenario != scenario:
            raise ConfigError(f"scenario {scenario!r} differs from the config's {file_scenario!r}")
        scenario = file_scenario
        if loaded:
            raise ConfigError(f"unknown config keys: {sorted(loaded)}")
    if scenario is None:
        raise ConfigError("no scenario given (positional argument or config file)")
    for item in args.param:
        if "=" not in item:
            raise ConfigError(f"bad --param {item!r}; expected key=value")
        key, value = item.split("=", 1)
        params[key] = value
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}")
    schema = scenario_params(scenario)
    typed = {}
    for key, value in params.items():
        if key not in schema:
            raise ConfigError(f"unknown parameter {key!r} for {scenario}")
        # A config value is an int or is converted like a --param string;
        # true and 2.9 would convert silently.
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise ConfigError(f"bad value for {key!r}: {value!r}")
        try:
            typed[key] = type(schema[key])(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from exc

    try:
        report = run_scenario(scenario, **typed)
    except ValueError as exc:
        raise ConfigError(f"bad parameters for {scenario}: {exc}") from exc
    text = report_to_json(report) if args.format == "json" else report_to_tsv(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if not report.all_passed:
        for a in report.assertions:
            if not a.passed:
                print(
                    f"FAIL: {a.description}: expected {fmt(a.expected)}, "
                    f"observed {fmt(a.observed)}",
                    file=sys.stderr,
                )
        return 1
    return 0


def cmd_distance(args) -> int:
    spec = parse_group(args.group)
    # Elements first: they are cheap to reject, and a metric can cost a
    # table.  Every metric built here has `metric.spec == spec`.
    g = parse_element(spec, args.g)
    h = parse_element(spec, args.h)
    metric = parse_metric(spec, args.metric)
    print(fmt(metric.eval(g, h)))
    return 0


def cmd_member(args) -> int:
    basis = parse_bornology(args.bornology)
    query = parse_int_set(args.set)
    if args.depth < 1:
        raise ConfigError(f"--depth must be at least 1, got {args.depth}")
    verdict = member(basis, query, args.depth)
    if not verdict.is_member:
        print(f"not covered at depth {verdict.depth_examined}")
    elif verdict.via_singleton_axiom:
        print("member (singleton axiom)")
    elif not query:
        print("member (empty set)")
    else:
        cover = ", ".join(str(i) for i in verdict.cover)
        print(f"member (cover indices: {cover})")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and then shared by every `main`
    call in the process; parsing keeps no state on it."""
    parser = _Parser(
        prog="coarsegroups",
        description="Exact desk-scale computations in coarse geometry on groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered scenarios").set_defaults(func=cmd_list)

    run = sub.add_parser("run", help="run a scenario and emit its report")
    run.add_argument("scenario", nargs="?", help="registered scenario name")
    run.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    run.add_argument("--config", help="JSON config file; --param flags override it")
    run.add_argument("--format", choices=("tsv", "json"), default="tsv")
    run.add_argument("--output", help="write the report to this path")
    run.set_defaults(func=cmd_run)

    dist = sub.add_parser("distance", help="evaluate a metric on two elements")
    dist.add_argument("--group", required=True, help="Z, Z^n, Z/k, or heisenberg")
    dist.add_argument("--metric", required=True, help="word, maxentry, entry12, quotient:k")
    dist.add_argument("g")
    dist.add_argument("h")
    dist.set_defaults(func=cmd_distance)

    mem = sub.add_parser("member", help="semi-decide bornology membership")
    mem.add_argument("--bornology", required=True, help="minimal, geom:base,length, explicit:{...}")
    mem.add_argument("--set", required=True, help="{a,b,c} or evens:lo..hi")
    mem.add_argument("--depth", type=int, required=True)
    mem.set_defaults(func=cmd_member)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        check_caps()
        return args.func(args)
    except (ConfigError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
