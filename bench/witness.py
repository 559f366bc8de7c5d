"""Independent witnesses for the N = 1 rows of the benchmark's tables.

At N = 1 the hypergeometric Bernoulli numbers are the classical ones, and the
order-r values are n! [x^n] (x / (e^x - 1))^r.  This module computes both
without any code from ``hgbern``: the classical numbers by the
Akiyama-Tanigawa algorithm, the order-r values by repeated truncated series
multiplication.  The benchmark checks the program's table output against
these, so a pinned output digest cannot pin a wrong value.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


def classical_bernoulli(upto: int) -> list[Fraction]:
    """B_0..B_upto with B_1 = -1/2, by the Akiyama-Tanigawa algorithm."""
    out = []
    a = [Fraction(0)] * (upto + 1)
    for m in range(upto + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    if upto >= 1:
        out[1] = -out[1]  # the algorithm yields the B_1 = +1/2 convention
    return out


def higher_order_bernoulli(r: int, upto: int) -> list[Fraction]:
    """n! [x^n] (x / (e^x - 1))^r for n = 0..upto."""
    base = [b / factorial(i) for i, b in enumerate(classical_bernoulli(upto))]
    power = base
    for _ in range(r - 1):
        power = [sum(power[i] * base[e - i] for i in range(e + 1)) for e in range(upto + 1)]
    return [c * factorial(i) for i, c in enumerate(power)]
