"""The package runs on numpy alone: importing it, or running a command,
loads no scipy or mpmath module, even when a sum escalates to the exact
integer pathway (the tests use mpmath only as an independent reference, and
scipy not at all).  Each case runs in a fresh interpreter, since this one has
imported both for other tests.  Only c_star's Gauss-Legendre rules load
numpy.polynomial and run its eigen-solve: importing the package, or any
command that computes no c_star, does neither.  The package and the tests
import nothing they do not read, and the package holds no definition that
only the tests reach."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import necklace

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(necklace.__file__)))
_PKG = Path(necklace.__file__).parent
_TESTS = Path(__file__).resolve().parent
_BENCH = _TESTS.parent / "bench"

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


# S_1(200, 0.15) cancels past double precision: the exact pathway runs
_ESCALATING = (
    "import logging; from necklace.cli import run; records = []; "
    "handler = logging.Handler(); handler.emit = records.append; "
    "log = logging.getLogger('necklace.trigsums'); "
    "log.addHandler(handler); log.setLevel(logging.DEBUG); "
    "assert run(['sums', '--variant', 'alt', '--n', '200', '--x', '0.15']) == 0; "
    "assert records")


@pytest.mark.parametrize("code", ["import necklace.cli", _ESCALATING],
                         ids=["import", "escalating-sums"])
def test_no_mpmath_module(code):
    assert [k for k in _modules_after(code) if k.split(".")[0] == "mpmath"] == []


def test_cli_import_leaves_out_the_acceptance_checks():
    # only `necklace verify` imports them; every other command and each
    # benchmark worker skip compiling and running acceptance.py
    assert "necklace.acceptance" not in _modules_after("import necklace.cli")


def test_cli_import_builds_no_parser():
    # run builds its parser on the first call, so importing the CLI (a
    # benchmark worker's set-up) makes no ArgumentParser
    code = ("import argparse; built = []; init = argparse.ArgumentParser.__init__; "
            "argparse.ArgumentParser.__init__ = "
            "lambda self, *a, **k: built.append(1) or init(self, *a, **k); "
            "import necklace.cli; assert built == [], built; "
            "assert necklace.cli._parser.cache_info().currsize == 0")
    _modules_after(code)


# counts the calls of numpy.linalg.eigvalsh, the eigen-solve of
# numpy.polynomial.legendre.leggauss, in `eigen_solves`
_COUNT_EIGEN_SOLVES = (
    "import numpy.linalg as la; eigen_solves = []; solve = la.eigvalsh; "
    "la.eigvalsh = lambda *a, **k: eigen_solves.append(1) or solve(*a, **k)")


def _cli(args):
    return f"from necklace.cli import run; assert run({args.split()!r}) == 0"


@pytest.mark.parametrize("code", [
    "import necklace", "import necklace.cli",
    *(_cli(args) for args in ("sums", "ansatz", "kernels", "nodal --res 16", "energy",
                              "verify --quick")),
    # an order is checked before the import
    "from necklace.trigsums import leggauss\ntry: leggauss(0)\n"
    "except necklace.DomainError: pass\nelse: raise AssertionError",
], ids=["import", "import-cli", "sums", "ansatz", "kernels", "nodal", "energy", "verify-quick",
        "bad-order"])
def test_no_legendre_module_or_eigen_solve(code):
    # s1_contour's order-24 rule is recorded: numpy.polynomial and its
    # eigen-solve load only for c_star's rules
    modules = _modules_after(f"{_COUNT_EIGEN_SOLVES}\nimport necklace\n{code}\n"
                             "assert eigen_solves == [], eigen_solves")
    assert [k for k in modules if k.startswith("numpy.polynomial")] == []


def test_leggauss_loads_the_legendre_module():
    modules = _modules_after(f"{_COUNT_EIGEN_SOLVES}\nfrom necklace.trigsums import leggauss\n"
                             "leggauss(8)\nassert eigen_solves == [1], eigen_solves")
    assert "numpy.polynomial.legendre" in modules


@pytest.mark.parametrize("name", ["trigsums.py", "kernels.py"])
def test_no_np_power(name):
    # the sums and kernels raise by np.float_power, C's pow per element:
    # np.power runs SVML on AVX-512 CPUs, an ulp off on ~5% of elements.
    # The docstrings that say so name it; the code reads no attribute power
    tree = ast.parse((_PKG / name).read_text())
    assert "power" not in {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def _unused_imports(path):
    """The names a module imports and never reads: a name listed in its
    ``__all__`` counts as read."""
    tree = ast.parse(path.read_text())
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            imported.update((a.asname or a.name.split(".")[0]) for a in node.names)
    return sorted(imported - read)


# __init__.py imports only to re-export
@pytest.mark.parametrize(
    "path", [*(p for p in sorted(_PKG.glob("*.py")) if p.name != "__init__.py"),
             *sorted(_TESTS.glob("*.py"))],
    ids=lambda p: p.name if p.parent == _PKG else f"tests/{p.name}")
def test_no_unused_import(path):
    assert _unused_imports(path) == []


def _identifiers(nodes):
    """Every name and attribute name that ``nodes`` read."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _defined(node):
    """The name a top-level function, class or single-name assignment
    defines, or None.  A dunder such as ``__version__`` is read by name
    from outside, so its assignment defines nothing."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    if len(targets) == 1 and isinstance(targets[0], ast.Name):
        name = targets[0].id
        return None if name.startswith("__") else name
    return None


def _unreached():
    """The package's top-level functions, classes and module constants that
    nothing the system runs reaches: the roots are cli.py, acceptance.py,
    the benchmark's bench/*.py and every module's other import-time
    statements, imports aside.  A definition reached is followed into its
    body, a constant into its value.  Names are matched by identifier alone,
    so a local of the same name counts as a read; a definition read only
    through a string would count as unreached."""
    defs, roots = {}, []
    for path in sorted(_PKG.glob("*.py")):
        entry = path.name in ("cli.py", "acceptance.py")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            name = _defined(node)
            if name:
                defs.setdefault(name, []).append(node)
                if not entry:
                    continue
            roots.append(node)
    for path in sorted(_BENCH.glob("*.py")):
        roots += [node for node in ast.parse(path.read_text()).body
                  if not isinstance(node, (ast.Import, ast.ImportFrom))]
    reached, todo = set(), _identifiers(roots)
    while todo:
        name = todo.pop()
        if name in defs and name not in reached:
            reached.add(name)
            todo |= _identifiers(defs[name])
    return sorted(set(defs) - reached)


def test_package_reached_from_its_entry_points():
    assert _unreached() == []
