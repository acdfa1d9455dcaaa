"""Command-line front end: scenario runs, ad-hoc distance and membership queries.

Exit codes: 0 all assertions pass, 1 assertion failures, 2 configuration or
parse errors, 3 resource budget exceeded.

`main` may be called repeatedly in one process.  Well-formed command lines
are read directly; the argument parsers are built on the first help or
error, and then shared.  So is, for `member`, one basis per bornology and
cap setting, at most `SHARED_BASES` of them; answers are byte-identical to
a fresh process's, and a rejected line touches no shared basis.  Any other
line that starts with a subcommand name is parsed by that subcommand's
parser alone.  No `distance` call builds a word-norm table: every group the
CLI names has a closed-form word distance.
"""

from __future__ import annotations

import functools
import json
import sys
from types import SimpleNamespace

from .bornology import Explicit, GeneratedBasis, GeometricSeed, MinimalBasis, member
from .groups import BudgetExceededError, Cyclic, FreeAbelian, GroupSpec, Heisenberg, Integers
from .groups import ball_size_cap, check_set_size, set_size_cap
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


# -- parsing ----------------------------------------------------------


def parse_group(text: str) -> GroupSpec:
    text = text.strip()
    if text in ("H", "heisenberg"):
        return GroupSpec.heisenberg()
    if text == "Z":
        return GroupSpec.free_abelian(1)
    build = {"Z^": GroupSpec.free_abelian, "Z/": GroupSpec.cyclic}.get(text[:2])
    if build is not None:
        try:
            return build(int(text[2:]))
        except ValueError as exc:
            raise ConfigError(f"bad group {text!r}") from exc
    raise ConfigError(f"unknown group {text!r}; use Z, Z^n, Z/k, or heisenberg")


def parse_element(spec: GroupSpec, text: str):
    text = text.strip()
    try:
        if isinstance(spec, Cyclic):
            if "mod" in text:
                residue, modulus = (p.strip() for p in text.split("mod"))
                if int(modulus) != spec.modulus:
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
    if text in ("maxentry", "entry12"):
        if not isinstance(spec, Heisenberg):
            raise ConfigError(f"{text} requires the heisenberg group")
        return MaxEntryMetric(spec) if text == "maxentry" else Entry12Pseudometric(spec)
    if text.startswith("quotient:"):
        if not isinstance(spec, Integers):
            raise ConfigError("quotient:k requires the group Z")
        try:
            k = int(text.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad metric {text!r}") from exc
        if k < 2:
            raise ConfigError(f"bad metric {text!r}: k must be at least 2")
        return QuotientWordMetric(k)
    raise ConfigError(f"unknown metric {text!r}; use word, maxentry, entry12, quotient:k")


def parse_int_set(text: str) -> frozenset:
    text = text.strip()
    try:
        if text.startswith("evens:"):
            lo, hi = (int(p) for p in text[len("evens:"):].split(".."))
            # Counted before any is built: hi may be astronomically large.
            check_set_size(max(0, hi // 2 - (lo + 1) // 2 + 1), set_size_cap())
            return frozenset((i,) for i in range(lo + lo % 2, hi + 1, 2))
        if text.startswith("{") and text.endswith("}"):
            parts = [p for p in text[1:-1].split(",") if p.strip()]
            query = frozenset((int(p),) for p in parts)
            check_set_size(len(query), set_size_cap())
            return query
    except ValueError as exc:
        raise ConfigError(f"cannot parse set {text!r}: {exc}") from exc
    raise ConfigError(f"cannot parse set {text!r}; use {{a,b,c}} or evens:lo..hi")


# The most bases `shared_basis` keeps at once; the least recently used
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
    group = args.group.strip()
    try:
        rank = int(group[2:]) if group[:2] == "Z^" else 0
    except ValueError:
        rank = 0  # `parse_group` rejects it
    # A Z^n spec holds n unit vectors of n ints, so Z^n elements are parsed
    # first, against a Z^n with no generators: a bad one costs no vectors.
    # Elements come before the metric; every metric has `.spec == spec`.
    shape = FreeAbelian((), rank) if rank > 0 else parse_group(group)
    g = parse_element(shape, args.g)
    h = parse_element(shape, args.h)
    spec = parse_group(group) if rank > 0 else shape
    metric = parse_metric(spec, args.metric)
    print(fmt(metric.eval(g, h)))
    return 0


def cmd_member(args) -> int:
    description = bornology_description(args.bornology)
    query = parse_int_set(args.set)
    if args.depth < 1:
        raise ConfigError(f"--depth must be at least 1, got {args.depth}")
    basis = shared_basis(description, ball_size_cap(), set_size_cap())
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


# Each subcommand once: its handler, its help summary and its arguments, as
# `add_argument(name, **keywords)` calls in order.  `build_parsers` builds
# the argparse parsers from it; `read_args` reads well-formed lines with it.
COMMANDS = {
    "list": (cmd_list, "list registered scenarios", {}),
    "run": (cmd_run, "run a scenario and emit its report", {
        "scenario": {"nargs": "?", "help": "registered scenario name"},
        "--param": {"action": "append", "default": [], "metavar": "KEY=VALUE"},
        "--config": {"help": "JSON config file; --param flags override it"},
        "--format": {"choices": ("tsv", "json"), "default": "tsv"},
        "--output": {"help": "write the report to this path"},
    }),
    "distance": (cmd_distance, "evaluate a metric on two elements", {
        "--group": {"required": True, "help": "Z, Z^n, Z/k, or heisenberg"},
        "--metric": {"required": True, "help": "word, maxentry, entry12, quotient:k"},
        "g": {}, "h": {},
    }),
    "member": (cmd_member, "semi-decide bornology membership", {
        "--bornology": {"required": True, "help": "minimal, geom:base,length, explicit:{...}"},
        "--set": {"required": True, "help": "{a,b,c} or evens:lo..hi"},
        "--depth": {"type": int, "required": True},
    }),
}


@functools.cache
def build_parsers() -> tuple:
    """The CLI's top-level parser and its subcommand parsers by name, built
    on first use and then shared by every `main` call in the process;
    parsing keeps no state on them."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """An argument parser whose usage errors raise `ConfigError` instead
        of printing usage and exiting, so `main` reports them like any other
        bad input; subcommand parsers inherit the class."""

        def error(self, message):
            raise ConfigError(message)

    parser = _Parser(
        prog="coarsegroups",
        description="Exact desk-scale computations in coarse geometry on groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (func, summary, arguments) in COMMANDS.items():
        commands[name] = sub.add_parser(name, help=summary)
        commands[name].set_defaults(func=func)
        for argument, keywords in arguments.items():
            commands[name].add_argument(argument, **keywords)
    return parser, commands


def read_args(argv):
    """What the parser of subcommand `argv[0]` gives for `argv[1:]`, read
    from `COMMANDS` when every later token is an exact long option name with
    its value, or a positional.  None, for argparse to read, on help, `--`,
    `--opt=value`, abbreviations, a value that starts with "-" (but an ASCII
    negative integer), a bad value and a missing or extra argument."""
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, arguments = COMMANDS[argv[0]]
    args = {"func": func}
    positionals = []
    tokens = iter(argv[1:])
    for token in tokens:
        keywords = arguments.get(token) if token[:2] == "--" else None
        value = token if keywords is None else next(tokens, "-")  # no value: "-"
        # argparse takes an ASCII negative integer for a value, but "-²",
        # which `isdigit` alone would pass, for an option.
        if value[:1] == "-" and not (value[1:].isascii() and value[1:].isdigit()):
            return None
        if keywords is None:
            positionals.append(value)
            continue
        try:
            value = keywords.get("type", str)(value)
        except ValueError:
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        if keywords.get("action") == "append":
            value = [*args.get(token[2:], keywords["default"]), value]
        args[token[2:]] = value
    names = [name for name in arguments if name[0] != "-"]
    if len(positionals) > len(names):
        return None
    args.update(zip(names, positionals))
    for name, keywords in arguments.items():
        if name.lstrip("-") not in args:
            if keywords.get("required") or name[0] != "-" and keywords.get("nargs") != "?":
                return None
            args[name.lstrip("-")] = keywords.get("default")
    return SimpleNamespace(**args)


def parse_args(argv):
    """`argv` as `read_args` reads it; else parsed by the subcommand parser
    that `argv[0]` names, which is what the top-level parser would hand the
    rest of `argv` to; anything else (no arguments, -h, an unknown command)
    by the top-level parser."""
    args = read_args(argv)
    if args is not None:
        return args
    parser, commands = build_parsers()
    if argv and argv[0] in commands:
        return commands[argv[0]].parse_args(argv[1:])
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
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
