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
# brings `inspect`, and `fractions` brings `decimal`.
COLD_IMPORT_EXCLUDED = ("dataclasses", "inspect", "typing", "fractions", "decimal")


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
    assert "coarsegroups.cli" in loaded and "argparse" in loaded
    assert [m for m in COLD_IMPORT_EXCLUDED if m in loaded] == []


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
