"""The machine's speed during a round, sampled from inside the process.

On the machine the benchmark was defined on (2 vCPUs of a shared Xeon
host) the same pure-Python work runs up to 45% slower for tens of
seconds at a time, so raw round times from two runs differ by more
than any bound worth having.  A ``Pacer`` thread runs a fixed chunk of
pure-Python work every 20 ms while a round runs.  It shares the
interpreter lock with the round, so it runs on the same CPU at the
same moments, and the median chunk time measures how fast the machine
was during that round.  ``rescale`` turns a round's wall time into seconds at the
reference speed: (wall time - time spent in chunks) * REFERENCE_CHUNK_S
/ median chunk time.  The chunk never calls partint, so a change to
the program moves the rescaled time exactly as it moves the wall time.
"""

from __future__ import annotations

import statistics
import threading
import time

# The chunk time the figures are scaled to: about the chunk's time in
# the fast spells of the machine the benchmark was defined on, so that
# rescaled times stay close to seconds there.  Only ratios matter.
REFERENCE_CHUNK_S = 0.0008
PERIOD_S = 0.02


def chunk() -> int:
    """Fixed pure-Python arithmetic; about 0.8 ms on the reference machine.

    Of the chunks tried (this loop, big-int masks with dict lookups, and
    tuple and dict building), this one tracked round times best.
    """
    total = 0
    for i in range(15000):
        total += i * i
    return total


class Pacer(threading.Thread):
    """Samples ``chunk`` every PERIOD_S seconds for the length of a ``with`` block."""

    def __init__(self):
        super().__init__(daemon=True)
        self.samples: list[float] = []
        self._halt = threading.Event()

    def run(self) -> None:
        while True:
            start = time.perf_counter()
            chunk()
            self.samples.append(time.perf_counter() - start)
            if self._halt.wait(PERIOD_S):
                return

    def __enter__(self) -> "Pacer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self._halt.set()
        self.join()

    def rescale(self, wall: float) -> float:
        """``wall`` seconds of this block, at the reference speed."""
        work = wall - sum(self.samples)
        return work * REFERENCE_CHUNK_S / statistics.median(self.samples)
