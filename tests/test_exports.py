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
