"""The package runs on numpy and mpmath alone: importing it, or running a
command, loads no scipy module (the tests use scipy only as an independent
reference).  Each case runs in a fresh interpreter, since this one has
imported scipy for other tests."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import necklace

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(necklace.__file__)))

_SUMS = ("from necklace.cli import run; "
         "assert run(['sums', '--variant', 'alt', '--k', '1', '--n', '50', '--x', '0.2']) == 0")


def _modules_after(code):
    """The sorted sys.modules keys left by running code in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(' '.join(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


@pytest.mark.parametrize("code", ["import necklace", _SUMS], ids=["import", "sums"])
def test_no_scipy_module(code):
    modules = _modules_after(code)
    assert [k for k in modules if k.split(".")[0] == "scipy"] == []


def test_import_loads_the_legendre_rule():
    # numpy loads numpy.polynomial lazily; the package imports it up front,
    # so the first quadrature does not pay for it
    assert "numpy.polynomial.legendre" in _modules_after("import necklace")


def _unused_imports(path):
    """The names a module imports and never reads: a name listed in its
    ``__all__`` counts as read, and an import on a ``# noqa: F401`` line is
    skipped."""
    text = path.read_text()
    tree, lines = ast.parse(text), text.splitlines()
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            imported.update((a.asname or a.name.split(".")[0]) for a in node.names
                            if "# noqa: F401" not in lines[a.lineno - 1])
    return sorted(imported - read)


# __init__.py imports only to re-export
@pytest.mark.parametrize("name", sorted(
    p.name for p in Path(necklace.__file__).parent.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_import(name):
    assert _unused_imports(Path(necklace.__file__).parent / name) == []
