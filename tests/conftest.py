"""Shared test fixtures."""

from __future__ import annotations

import signal
from contextlib import contextmanager

import pytest


@contextmanager
def _deadline(seconds: int):
    def expire(signum, frame):
        raise TimeoutError(f"call used {seconds} s of CPU time")

    previous = signal.signal(signal.SIGVTALRM, expire)
    signal.setitimer(signal.ITIMER_VIRTUAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, previous)


@pytest.fixture
def deadline():
    """``with deadline(s): ...`` raises TimeoutError once the process has
    spent s seconds of CPU time in user mode, so a call that would hang
    fails its test instead, and a busy host, which slows the call's wall
    time only, fails none (ITIMER_VIRTUAL: POSIX only)."""
    return _deadline
