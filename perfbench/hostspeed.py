"""Host-speed calibration for timings taken on a shared machine.

On a shared host the speed available to one process drifts: a fixed piece of
work, with nothing else of the benchmark running, takes up to ~25% longer for
seconds to minutes at a time.  Run medians of the program's ops move with it,
by more than any useful regression bound.

So every op is timed raw and also *adjusted*: its raw time multiplied by
``REFERENCE_S / c``, where ``c`` is the median time of a fixed reference mix
sampled around it (``SpeedTrace``).  The mix is interpreter
arithmetic plus building and walking a dict of tuple keys, the pattern of
the program's word-dict sweep.  On short runs taken minutes apart it tracked
the drift of every workload better than arithmetic alone, and better than a
mix that adds an array pass.

An adjusted time is what the op would take on a host where the mix takes
``REFERENCE_S``.  The mix runs between ops, never inside a timed region, and
touches no program code, so a change to the program moves raw and adjusted
times alike.  Raw times are kept in every run record.  Work that runs
mostly outside the interpreter is not tracked by the mix and is reported
raw: the ops of a workload with ``host_adjusted = False`` (workloads.py) and
the set-up time (run.py).
"""

from __future__ import annotations

import statistics
import time

# about the mix's time on a 2.1 GHz Xeon vCPU at a quiet moment, so that
# adjusted times there read close to raw ones
REFERENCE_S = 0.005
REPEATS = 3


def _arith() -> None:
    acc = 0
    for i in range(20_000):
        acc += i * i


def _dicts() -> None:
    table = {}
    for i in range(6_000):
        table[(i, i & 7, i >> 3)] = complex(i, 1.0)
    acc = 0j
    for key, value in table.items():
        acc += value * key[1]


def mix_seconds() -> float:
    """Seconds of the reference mix: each part's fastest of REPEATS runs, summed."""
    total = 0.0
    for part in (_arith, _dicts):
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            part()
            best = min(best, time.perf_counter() - start)
        total += best
    return total


# a sample is taken at most every EVERY_S seconds; an op's factor uses the
# samples from WINDOW_S before it starts to WINDOW_S after it ends
EVERY_S = 0.5
WINDOW_S = 1.0


class SpeedTrace:
    """Timestamped mix timings taken between ops, turned into a factor per op.

    An op's factor uses the median of the samples within WINDOW_S of it.
    With EVERY_S at half of WINDOW_S that window always holds the samples
    bracketing the op, and one noisy sample moves few ops.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def due(self) -> bool:
        return not self.samples or time.perf_counter() - self.samples[-1][0] >= EVERY_S

    def sample(self) -> None:
        seconds = mix_seconds()
        self.samples.append((time.perf_counter(), seconds))

    def factor(self, start: float, end: float) -> float:
        near = [s for t, s in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return REFERENCE_S / statistics.median(near)
