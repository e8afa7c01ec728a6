"""A fixed reference kernel that tracks the speed of the machine.

On a shared host the processor's speed changes by itself, by up to a factor
of two within seconds, and a slow or fast spell moves every timing of a run
together.  The benchmark therefore times this kernel right after every op
and in every set-up probe, and scales each measured time by
`NOMINAL_S / (kernel time measured next to it)`: times are reported at one
fixed machine speed, the speed at which the kernel takes `NOMINAL_S`.  A
faster program still shows as a shorter time; a faster host does not.

The kernel is pure Python in the program's own style (small-int codes, table
lookups, lists, method calls, tuple-keyed dicts) but shares no code with
the program, so no change to the program changes the kernel's work.
"""

from __future__ import annotations

import gc
import statistics
import time

# the kernel's time at the nominal machine speed; about its median on a
# 2.0 GHz shared virtual machine with Python 3.11
NOMINAL_S = 1.0e-3

_Q = 16
_EXP = [0] * (2 * _Q)
_LOG = [0] * _Q
_x = 1
for _i in range(_Q - 1):
    _EXP[_i] = _EXP[_i + _Q - 1] = _x
    _LOG[_x] = _i
    _x <<= 1
    if _x & _Q:
        _x ^= 0b10011  # y^4 + y + 1
_MUL = [[0 if a == 0 or b == 0 else _EXP[_LOG[a] + _LOG[b]] for b in range(_Q)] for a in range(_Q)]
_ADD = [[a ^ b for b in range(_Q)] for a in range(_Q)]


class _Poly:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def mul(self, other):
        out = [0] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            if a:
                row = _MUL[a]
                for j, b in enumerate(other.c):
                    out[i + j] = _ADD[out[i + j]][row[b]]
        return _Poly(out)

    def weight(self):
        return sum(1 for a in self.c if a)


_A = _Poly([(3 * i + 1) % _Q for i in range(12)])
_B = _Poly([(5 * i + 2) % _Q for i in range(12)])


_REPEAT = 9


def _work():
    p = _A
    seen = {}
    for step in range(6):
        p = _Poly(p.mul(_B).c[:12])
        seen[tuple(p.c)] = step
        for k in range(0, 12, 3):
            key = (p.c[k], p.c[k + 1], step)
            seen[key] = seen.get(key, 0) + p.weight()
    return len(seen)


def reference():
    """Seconds one pass of the kernel took.

    The garbage collector is off during the pass (the kernel makes no
    cycles), so the pass does not depend on how many objects the program
    keeps alive.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(_REPEAT):
            _work()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def warm(passes=20):
    """Median of `passes` kernel passes, after the code has run once."""
    _work()
    return statistics.median(reference() for _ in range(passes))


def local_speeds(refs, before=3, after=3):
    """Per op, the median kernel time around it.

    `refs[i]` was measured right after op i, so `refs[i - 1]` lies right
    before it; the window holds `before` samples before the op and `after`
    samples after it.
    """
    out = []
    for i in range(len(refs)):
        window = refs[max(0, i - before): i + after]
        out.append(statistics.median(window))
    return out
