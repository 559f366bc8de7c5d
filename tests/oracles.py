"""Independent brute-force oracles used by the test suite.

Everything here is deliberately written without touching the package's own
algorithms: determinants by Laplace expansion, composition sets by filtered
cartesian products, partition counts by coin-style DP, classical Bernoulli
numbers by the Akiyama-Tanigawa scheme.  Slow on purpose; keep sizes small.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Sequence


def cofactor_det(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant by Laplace expansion along the first row; O(m!)."""
    m = len(matrix)
    if m == 0:
        return Fraction(1)
    if m == 1:
        return Fraction(matrix[0][0])
    total = Fraction(0)
    for j in range(m):
        head = matrix[0][j]
        if head == 0:
            continue
        minor = [[row[c] for c in range(m) if c != j] for row in matrix[1:]]
        total += (-1) ** j * head * cofactor_det(minor)
    return total


def brute_compositions(total: int, parts: int, minimum: int) -> set[tuple[int, ...]]:
    """All compositions by filtering the full cartesian product; exponential."""
    return {
        combo
        for combo in product(range(minimum, total + 1), repeat=parts)
        if sum(combo) == total
    }


def partition_count(m: int) -> int:
    """Number of partitions of m, by the standard coin-counting DP."""
    table = [1] + [0] * m
    for part in range(1, m + 1):
        for s in range(part, m + 1):
            table[s] += table[s - part]
    return table[m]


def bernoulli_akiyama_tanigawa(n: int) -> list[Fraction]:
    """B_0..B_n by the Akiyama-Tanigawa triangle (convention B_1 = -1/2)."""
    a = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    # Akiyama-Tanigawa yields B_1 = +1/2; flip to the e^x - 1 convention
    if n >= 1:
        out[1] = -out[1]
    return out


def weak_composition_weight_sum(N: int, n: int, k: int) -> Fraction:
    """sum over nonnegative k-part compositions of n of prod 1/((N+1)...(N+i)),
    by literal enumeration."""
    total = Fraction(0)
    for combo in product(range(n + 1), repeat=k):
        if sum(combo) != n:
            continue
        term = Fraction(1)
        for i in combo:
            denom = 1
            for l in range(1, i + 1):
                denom *= N + l
            term *= Fraction(1, denom)
        total += term
    return total


def naive_cauchy_product(xs: Sequence[Fraction], ys: Sequence[Fraction]) -> list[Fraction]:
    """Truncated Cauchy product with one Fraction operation per multiply-add."""
    out = []
    for e in range(min(len(xs), len(ys))):
        acc = Fraction(0)
        for i in range(e + 1):
            acc += Fraction(xs[i]) * Fraction(ys[e - i])
        out.append(acc)
    return out


def naive_toeplitz_hessenberg_det(a0: Fraction, entries: Sequence[Fraction]) -> Fraction:
    """D_m = sum_{l<=m} (-a0)^(l-1) a_l D_{m-l}, D_0 = 1, one Fraction per term."""
    d = [Fraction(1)]
    for k in range(1, len(entries) + 1):
        acc = Fraction(0)
        for l in range(1, k + 1):
            acc += (-Fraction(a0)) ** (l - 1) * Fraction(entries[l - 1]) * d[k - l]
        d.append(acc)
    return d[-1]
