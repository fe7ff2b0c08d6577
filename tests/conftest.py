"""Shared test fixtures."""

from __future__ import annotations

import signal
from contextlib import contextmanager

import pytest


@contextmanager
def _deadline(seconds: int):
    def expire(signum, frame):
        raise TimeoutError(f"call did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def deadline():
    """``with deadline(s): ...`` raises TimeoutError once s seconds pass, so
    a call that would hang fails its test instead (SIGALRM: POSIX only)."""
    return _deadline
