import signal
from contextlib import contextmanager

import pytest


@pytest.fixture
def within():
    """within(seconds) guards a block: past the deadline it fails with
    TimeoutError instead of hanging the run (SIGALRM, so POSIX only)."""

    @contextmanager
    def guard(seconds):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        old = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    return guard
