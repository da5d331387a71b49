"""Every name a module exports has a caller elsewhere in the package or a test,
and the package loads no scipy subpackage it does not use.

A caller is a use in code (a name or an attribute read), not an import or a
mention in a docstring; the package ``__init__`` only re-exports, so it
counts as neither.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quantes

SRC = Path(quantes.__file__).parent
TESTS = Path(__file__).parent


def _used_names(paths):
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


MODULES = sorted(
    p.stem for p in SRC.glob("*.py")
    if p.stem != "__init__" and hasattr(importlib.import_module(f"quantes.{p.stem}"), "__all__")
)
TEST_USES = _used_names(TESTS.glob("test_*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_has_a_caller_or_a_test(module):
    callers = _used_names(
        p for p in SRC.glob("*.py") if p.stem not in (module, "__init__")
    )
    exported = importlib.import_module(f"quantes.{module}").__all__
    orphans = [name for name in exported if name not in callers | TEST_USES]
    assert orphans == []


def test_importing_the_cli_leaves_heavy_scipy_subpackages_unloaded():
    # scipy.signal pulls scipy.stats in and took about 40% of the memory of
    # `import quantes.cli`; the paths need scipy.linalg.lapack alone
    code = (
        "import sys, quantes.cli; "
        "print(' '.join(m for m in ('scipy.signal', 'scipy.stats', 'scipy.optimize', "
        "'scipy.sparse') if m in sys.modules))"
    )
    path = os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == []


def test_the_cli_holds_no_file_layout():
    # forecasts.csv and manifest.json are read and written by quantes.pipeline
    # alone: the CLI parses options and prints, and needs neither json nor numpy
    source = (SRC / "cli.py").read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.partition(".")[0])
    assert imported & {"json", "numpy"} == set()
    assert "manifest.json" not in source


def test_backtests_state_each_rejection_rule_once():
    # every chi-square report comes from _chi2_report; es_tests' two-sided and
    # dm_test's one-sided reports are the only other TestReport constructions
    tree = ast.parse((SRC / "backtests.py").read_text())
    owners = {id(node): top.name for top in tree.body if isinstance(top, ast.FunctionDef)
              for node in ast.walk(top)}
    builders = [owners.get(id(node)) for node in ast.walk(tree)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "TestReport"]
    assert sorted(builders, key=str) == ["_chi2_report", "dm_test", "es_tests"]
