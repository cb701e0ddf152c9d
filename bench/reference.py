"""A fixed reference computation that measures the machine's speed right now.

The benchmark runs on a few cores of a shared host. Other tenants there
slow the whole host down in long stretches: a fixed pure-Python loop
takes either about its usual time or about 1.4-1.7 times as long, and
the slow state can last a minute, longer than a whole run. No choice of
the fastest or the median repeat within a run can take that out, because
every repeat in the run is slow.

So the runner times this computation between consecutive ops, and
divides each op's time by the mean of the reference times just before
and just after it. The quotient is the op's cost in references, which
the other tenants hardly move. Multiplied by ``REF_SECONDS``, it is
given in *reference seconds*: seconds on a machine on which one
reference takes ``REF_SECONDS``.

The computation is stdlib only and does not touch ``logsurf``, so no
change to the package moves it. It mixes the kinds of work the package
does: exact ``Fraction`` elimination on a small matrix, and plain integer,
dict and list work. A slow state slows those two by different factors
(about 1.7 and 1.5), and the package sits between them.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# One reference on the machine the benchmark was built on, while quiet
# (2 cores of a shared x86-64 host, CPython 3). This only sets the scale.
REF_SECONDS = 0.0005

_MATRIX = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + 2 * j) % 4) for j in range(6)] for i in range(6)]


def _fraction_det() -> Fraction:
    a = [row[:] for row in _MATRIX]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        p = next(i for i in range(k, n) if a[i][k] != 0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return det


def _int_dict() -> int:
    s = 0
    d = {}
    for i in range(3000):
        s += i * i % 7
        d[i & 63] = s
    return s + len(d)


_EXPECTED = (_fraction_det(), _int_dict())


def reference() -> float:
    """Run the reference once and return its duration in seconds."""
    start = perf_counter()
    got = (_fraction_det(), _int_dict())
    elapsed = perf_counter() - start
    if got != _EXPECTED:  # cheap, and outside the timed interval
        raise AssertionError(f"reference computed {got}, expected {_EXPECTED}")
    return elapsed
