"""The reference loop that the benchmark's times are measured against.

It imports nothing from ``partperm``.  Its time on the machine as it is at
the moment is the unit of ``wall_ref``, ``op_p50_ref`` and (scaled to
seconds) ``setup_s``.  It mixes the kinds of work the program does: small
integer arithmetic with a dict and lists, products of Fraction lists (as in
``Polynomial`` multiplication), and frozenset comparisons (as in chain
enumeration).  The garbage collector is off while it runs, so its time does
not depend on how many objects the process holds.
"""

import gc
import time
from fractions import Fraction

_A = [Fraction(k * k + 1, k + 3) for k in range(1, 25)]
_B = [Fraction(2 * k + 1, k * k + 2) for k in range(1, 25)]
_SUBSETS = [frozenset(j for j in range(8) if i >> j & 1) for i in range(256)]


def reference_loop() -> int:
    acc = 0
    table = {}
    for i in range(7000):
        key = i % 61
        acc = (acc * 33 + key) & 0xFFFFFF
        table[key] = table.get(key, 0) + (acc & 7)
    row = list(range(200))
    for _ in range(100):
        row = row[1:] + row[:1]
        acc += row[17] * row[-3]
    prod = [Fraction(0)] * (len(_A) + len(_B))
    for i, x in enumerate(_A):
        for j, y in enumerate(_B):
            prod[i + j] += x * y
    for s in _SUBSETS:
        for t in _SUBSETS[::7]:
            if s < t:
                acc += len(t - s)
    return acc + len(table) + prod[10].numerator


def timed_ref() -> float:
    """Seconds that one reference loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
