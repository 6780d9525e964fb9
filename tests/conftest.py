"""Every hypothesis test draws the same examples on every run (derandomize),
with no deadline, since a first call pays for caches and imports, and with no
example database left in the working tree.

``talenti_profile`` is the tests' one-bubble profile: u_bubble, positive
everywhere, as the one bubble at the origin with c = 1.  ``bubble_derivs_one``
is the single-point form of ``crown._bubble_derivs``, kept as the oracle of
the stacked one.

A long fixed computation runs in a ``Worker`` process, on a second core while
the session's other tests run.  Each name in ``WORKER_RUNS`` is a fixture's:
when a collected test uses that fixture, a worker for it starts as the
session's tests are about to run, and the fixture reads its exact values with
``worker_result``.  A worker that no test read is killed at session end."""
import inspect
import json
import logging
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import settings

from necklace import errors
from necklace.crown import _EYE, TALENTI_AMP, ProfileHandle, _read_only, _u_bubble

settings.register_profile("necklace", derandomize=True, deadline=None, database=None)
settings.load_profile("necklace")

_TALENTI_BUBBLES = _read_only(np.zeros((1, 3)), np.ones(1), np.array([TALENTI_AMP]))


def talenti_profile() -> ProfileHandle:
    return ProfileHandle(fn=_u_bubble, bubbles=_TALENTI_BUBBLES)


def bubble_derivs_one(z, bubbles):
    """u, g, H and T[g] of a bubble sum at the one (3,) point z, as the
    package computed them point by point: ``crown._bubble_derivs`` of a
    stack must give each point these bits."""
    x, c, amp = bubbles
    r = z - x
    s = c + np.einsum("ij,ij->i", r, r)
    a1 = amp / np.sqrt(s)
    a3 = a1 / s
    a5 = a3 / s
    a7 = a5 / s
    grad = -(a3 @ r)
    rr = r[:, :, None] * r[:, None, :]
    hess = 3.0 * np.einsum("i,ijk->jk", a5, rr) - a3.sum() * _EYE
    rg = r @ grad
    w = a5 @ r
    tg = (3.0 * ((a5 @ rg) * _EYE + np.outer(w, grad) + np.outer(grad, w))
          - 15.0 * np.einsum("i,ijk->jk", a7 * rg, rr))
    return float(a1.sum()), grad, hess, tg


#: a worker's child: it runs one function of a Python file (by path and
#: name) and prints one line, ``value`` and the float.hex of each float the
#: function returned, or ``error`` and the JSON [type name, message] of a
#: typed error it raised; anything else it raises crashes it
_CHILD = """
import json, runpy, sys
path, name, sys.path[:] = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
from necklace import errors
try:
    value = runpy.run_path(path)[name]()
except (errors.DomainError, errors.UnsupportedError, errors.NotFoundError,
        errors.AccuracyError) as exc:
    print("error", json.dumps([type(exc).__name__, str(exc)]))
else:
    print("value", *map(float.hex, value))
"""


class Worker:
    """``fn()``, a module-level function of a test file that returns floats,
    run in a child process with this interpreter and sys.path, the inherited
    environment (with its thread pins) and the given warning filters."""

    def __init__(self, fn, warning_filters=()):
        self.name = fn.__name__
        self.proc = subprocess.Popen(
            [sys.executable, *(f"-W{f}" for f in warning_filters), "-c", _CHILD,
             inspect.getfile(fn), fn.__name__, json.dumps(sys.path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)

    def result(self) -> tuple:
        """The floats, bit for bit, or the typed error raised with its
        message.  A worker that exits with an error, writes to stderr or
        prints anything but its one line fails the test that reads it."""
        out, err = self.proc.communicate()
        kind, _, rest = out.partition(" ")
        if self.proc.returncode == 0 and not err and out.count("\n") == 1:
            if kind == "value":
                return tuple(map(float.fromhex, rest.split()))
            if kind == "error":
                name, message = json.loads(rest)
                raise getattr(errors, name)(message)
        pytest.fail(f"worker {self.name} exited with {self.proc.returncode}, "
                    f"printing {out!r} and {err!r}", pytrace=False)

    def kill(self) -> None:
        self.proc.kill()
        self.proc.communicate()


def refined_c_star_parts() -> tuple:
    """c_star of the m = 16 model at scale 2, then the outer, core and tail
    parts of its one DEBUG record."""
    from necklace.energy import c_star, default_model
    profile, xi, _gnorm, _cstar = default_model()
    records = []
    handler = logging.Handler(logging.DEBUG)
    handler.emit = records.append
    logger = logging.getLogger("necklace.energy")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        refined = c_star(profile, xi, scale=2.0)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    [record] = records
    return (refined, *record.args[1:4])


#: the computations that run in a worker, by the name of the fixture that
#: reads them
WORKER_RUNS = {"refined_c_star": refined_c_star_parts}
_WORKERS = pytest.StashKey[dict]()


@pytest.hookimpl(trylast=True)
def pytest_collection_modifyitems(config, items):
    # trylast: after -k, -m and --deselect have dropped their items
    used = {name for item in items for name in item.fixturenames if name in WORKER_RUNS}
    filters = config.getini("filterwarnings")
    config.stash[_WORKERS] = {name: Worker(WORKER_RUNS[name], filters) for name in sorted(used)}


def pytest_sessionfinish(session):
    for worker in session.config.stash.get(_WORKERS, {}).values():
        worker.kill()


def worker_result(config, name: str) -> tuple:
    """WORKER_RUNS[name]'s floats from the worker started for it, or from a
    new one if none was (Worker.result)."""
    worker = config.stash.get(_WORKERS, {}).pop(name, None)
    if worker is None:
        worker = Worker(WORKER_RUNS[name], config.getini("filterwarnings"))
    return worker.result()
