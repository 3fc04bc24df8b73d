"""A fixed reference kernel that gauges how fast the host runs Python right now.

On a shared host the speed of this process swings by a third or more, over
seconds and over minutes, as neighbours on the same cores go busy or idle;
the swings slow cfgen and this kernel alike (their per-second timings
correlate at about 0.9). The worker runs one short slice of the kernel after
every ``EVERY_S`` of query time and scales each timing by the speed the
slices around it measured:

    scaled = raw * REFERENCE_S / (mean slice time near it)

so a timing reads as it would on a host where one slice takes
``REFERENCE_S``, the median slice on the 2-vCPU x86 VM the benchmark was
tuned on. The kernel does what cfgen does most (hash tuples of small ints,
look them up in a dict, add floats) and never calls cfgen, so
a change to cfgen moves the scaled timings in the same proportion as the raw
ones. The raw timings are reported beside the scaled ones.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.0004
EVERY_S = 0.01

# small enough to stay in a core's L1 cache after the first round, so a
# slice gauges the core's speed, not how much of the cache cfgen just used
_KEYS = [(i, i * 7 % 13) for i in range(256)]
_TABLE = {k: k[0] * 0.5 for k in _KEYS}
ROUNDS = 16


def slice_s() -> float:
    """Time one slice of the kernel, in seconds."""
    start = time.perf_counter()
    total = 0.0
    for _ in range(ROUNDS):
        for key in _KEYS:
            total += _TABLE[key] * 1.0001
    return time.perf_counter() - start


def factor(slices) -> float:
    """How many times slower than the reference the host ran during ``slices``."""
    return sum(slices) / (len(slices) * REFERENCE_S)
