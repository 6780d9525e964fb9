"""The worker process of conftest: exact values back, a typed error raised
as itself, and a crash or stray output a test failure, never a skip."""
import math
import os

import pytest

from conftest import Worker
from necklace.errors import DomainError


def floats():
    return (0.1, -0.0, 5e-324, math.inf, -1.7976931348623157e308)


def domain_error():
    raise DomainError("d must be > 0 with d^-5 finite, got -0.5")


def crash():
    os._exit(3)


def stray_print():
    print("progress: 50%")
    return (1.0,)


def test_values_come_back_bit_for_bit():
    got = Worker(floats).result()
    assert [v.hex() for v in got] == [v.hex() for v in floats()]


def test_typed_error_comes_back_as_itself():
    with pytest.raises(DomainError) as got:
        Worker(domain_error).result()
    assert type(got.value) is DomainError
    assert str(got.value) == "d must be > 0 with d^-5 finite, got -0.5"


@pytest.mark.parametrize("fn", [crash, stray_print])
def test_crash_or_stray_output_fails_the_test(fn):
    with pytest.raises(pytest.fail.Exception, match=f"worker {fn.__name__} exited"):
        Worker(fn).result()


def test_kill_ends_the_worker():
    worker = Worker(floats)
    worker.kill()
    assert worker.proc.returncode is not None
