"""Static checks on the package source, with the standard library's `ast`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coarsegroups"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never referenced in the module.

    `from __future__ import ...` binds no name and is skipped.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from x import a, b as c\n"
        "sys.exit(c)\n"
    )
    assert unused_imports(source) == ["os", "a"]


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"groups.py", "metrics.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# Modules a fresh `import coarsegroups.cli` must not load: `dataclasses`
# brings `inspect`, `fractions` brings `decimal`, and `argparse` brings
# `gettext`, and its parsers `locale`, which only help and errors need.
COLD_IMPORT_EXCLUDED = (
    "dataclasses", "inspect", "typing", "fractions", "decimal", "argparse", "gettext", "locale"
)


def test_cli_import_loads_no_excluded_module():
    # -S skips `site`, whose own start-up imports (`typing`, with some
    # installed packages) would hide what the package loads.
    code = (
        "import sys; before = set(sys.modules); import coarsegroups.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = proc.stdout.split()
    assert "coarsegroups.cli" in loaded and "json" in loaded
    assert [m for m in COLD_IMPORT_EXCLUDED if m in loaded] == []


def modules_loaded_by(module: str) -> list[str]:
    """The modules a fresh interpreter, without `site`, holds after `import module`."""
    code = f"import sys, {module}; print(*sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout.split()


def test_reporting_import_loads_no_scenarios():
    # `reporting` serializes any report; the scenarios, and the `coarse`
    # and `random` they import, stay unloaded until a subcommand runs one.
    loaded = modules_loaded_by("coarsegroups.reporting")
    assert "coarsegroups.reporting" in loaded
    assert "coarsegroups.scenarios" not in loaded


def test_coarse_import_loads_no_bornology():
    # The control rows read only groups and metrics: every map verdict is
    # read off metric distances, none off a bornology basis.
    loaded = modules_loaded_by("coarsegroups.coarse")
    assert "coarsegroups.coarse" in loaded
    assert "coarsegroups.bornology" not in loaded


# Canonical command lines are read without argparse; help and errors need it.
CLI_LINES = {
    "run": ("run heisenberg_separation --param N=20 --format json", 0, False),
    "distance": ("distance --group H --metric maxentry (7,0,1) (8,1,1)", 0, False),
    "member": ("member --bornology geom:10,6 --set {0,10,100} --depth 1", 0, False),
    "help": ("member -h", 0, True),
    "missing_positional": ("distance --group Z --metric word 0", 2, True),
}


@pytest.mark.parametrize("line, code, needs_argparse", CLI_LINES.values(), ids=CLI_LINES.keys())
def test_argparse_is_loaded_only_for_help_and_errors(line, code, needs_argparse):
    script = (
        "import sys; from coarsegroups import cli\n"
        "try: code = cli.main()\n"
        "except SystemExit as exc: code = exc.code\n"
        "print(code, 'argparse' in sys.modules, 'gettext' in sys.modules, file=sys.stderr)"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, *line.split()], env=env, capture_output=True, text=True
    )
    assert proc.stderr.splitlines()[-1] == f"{code} {needs_argparse} {needs_argparse}"


ORACLES = Path(__file__).resolve().parent / "oracles.py"


def package_imports(source: str) -> list[str]:
    """The `coarsegroups` modules that the import statements of `source` name."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.append(node.module)
    return [n for n in names if n.split(".")[0] == "coarsegroups"]


def test_finds_a_package_import():
    source = (
        "import os, coarsegroups\n"
        "from coarsegroups.metrics import HORIZON\n"
        "from collections import deque\n"
    )
    assert package_imports(source) == ["coarsegroups", "coarsegroups.metrics"]


def test_oracles_import_no_package_module():
    # The oracles cross-check the package, so they must not share its code.
    assert package_imports(ORACLES.read_text(encoding="utf-8")) == []


# Enumeration hooks of the package; the group law (`mul`, `inv`,
# `symmetric_generators`, `identity`) is what an oracle is built from.
ENUMERATIONS = {"box", "ball", "spheres", "sphere_stream"}


def enumeration_calls(source: str) -> list[str]:
    """The attributes in `ENUMERATIONS` that some call of `source` reads."""
    return [
        node.func.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ENUMERATIONS
    ]


def test_finds_an_enumeration_call():
    source = (
        "def scan(spec, metric, r):\n"
        "    e = spec.identity()\n"
        "    nodes = spec.box(r) + sorted(metric.spec.ball(r))\n"
        "    return [spec.mul(e, g) for g in nodes], spec.symmetric_generators()\n"
    )
    assert enumeration_calls(source) == ["box", "ball"]


def test_oracles_enumerate_nothing_through_the_package():
    # An oracle that lists elements through the code it checks would agree
    # with that code's mistakes; it lists coordinates itself.
    assert enumeration_calls(ORACLES.read_text(encoding="utf-8")) == []


ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


def unnamed_definitions(definers: dict[str, str], users: list[str]) -> list[str]:
    """`module:name` for each public module-level `def` or `class` of the
    `definers` sources that no source in `users` names, as an `ast.Name`
    or an import alias."""
    named = set()
    for source in users:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        f"{module}:{node.name}"
        for module, source in definers.items()
        for node in ast.parse(source).body
        if isinstance(node, defs) and not node.name.startswith("_") and node.name not in named
    ]


def test_finds_an_unnamed_definition():
    source = (
        "def used(): pass\n"
        "def unused(): pass\n"
        "class _Private: pass\n"
        "def imported(): pass\n"
        "def outer():\n"
        "    def inner(): pass\n"
        "    return used()\n"
    )
    user = "from m import imported\n"
    assert unnamed_definitions({"m": source}, [source, user]) == ["m:unused", "m:outer"]


def test_every_public_definition_is_named():
    # A public name stays only if the package itself or an acceptance
    # criterion uses it.
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    users = [*sources.values(), ACCEPTANCE.read_text(encoding="utf-8")]
    assert unnamed_definitions(sources, users) == []
