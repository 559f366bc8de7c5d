"""Independent brute-force oracles used by the test suite.

Everything here is deliberately written without touching the package's own
algorithms: determinants by Laplace expansion, composition sets by filtered
cartesian products, partition counts by coin-style DP, classical Bernoulli
numbers by the Akiyama-Tanigawa scheme, Stirling numbers of the first kind
by their triangular recurrence.  The ``naive_*`` references of the
witness routes multiply one ``Fraction`` per factor over index sets built
here (cut-point bitmasks, filtered products), not by the package's
enumerators.  Slow on purpose; keep sizes small.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial, inf, prod
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


def toeplitz_hessenberg_matrix(
    a0: Fraction, entries: Sequence[Fraction]
) -> list[list[Fraction]]:
    """The dense m x m matrix of a0 and a1..am: row i holds ..., a2, a1, a0, 0, ..."""
    m = len(entries)
    return [
        [a0 if j == i + 1 else entries[i - j] if j <= i else 0 for j in range(m)]
        for i in range(m)
    ]


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


def stirling1_unsigned(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind (n-permutations with k cycles).

    Built row by row from the triangular recurrence
    ``s(m+1, j) = s(m, j-1) + m s(m, j)`` with ``s(0, 0) = 1``.
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be >= 0")
    if k > n:
        return 0
    row = [1]  # s(m, j) for j = 0..m
    for m in range(n):
        row = [left + m * here for left, here in zip([0, *row], [*row, 0])]
    return row[k]


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


def _reciprocal_rising(N: int, n: int) -> list[Fraction]:
    """1/((N+1)...(N+i)) for i = 0..n, one Fraction each."""
    out = [Fraction(1)]
    for i in range(1, n + 1):
        out.append(out[-1] / (N + i))
    return out


def naive_mr(N: int, r: int, e: int) -> Fraction:
    """Convolution weight: sum over weak r-part compositions of e of
    prod 1/((N+1)...(N+i_j)), one Fraction operation per factor."""
    recip = _reciprocal_rising(N, e)
    total = Fraction(0)
    for comp in brute_compositions(e, r, 0):
        term = Fraction(1)
        for i in comp:
            term *= recip[i]
        total += term
    return total


def _positive_compositions(n: int) -> list[list[int]]:
    """Every composition of n >= 1 into positive parts, from cut-point bitmasks."""
    out = []
    # bit j of mask set: a part ends after the (j+1)-th unit
    for mask in range(2 ** (n - 1)):
        cuts = [0] + [j + 1 for j in range(n - 1) if mask >> j & 1] + [n]
        out.append([hi - lo for lo, hi in zip(cuts, cuts[1:])])
    return out


def _multinomial(parts: Sequence[int]) -> int:
    out = factorial(sum(parts))
    for t in parts:
        out //= factorial(t)
    return out


def naive_hb_explicit_comp(N: int, n: int) -> Fraction:
    """n! sum over positive compositions of n of (-1)^k / prod ((N+1)...(N+i_j)),
    one Fraction operation per factor."""
    recip = _reciprocal_rising(N, n)
    total = Fraction(0)
    for comp in _positive_compositions(n):
        term = Fraction((-1) ** len(comp))
        for i in comp:
            term *= recip[i]
        total += term
    return factorial(n) * total


def naive_hb_higher_explicit(N: int, r: int, n: int) -> Fraction:
    """n! sum over positive compositions of n of (-1)^k prod naive_mr(N, r, i_j),
    one Fraction operation per factor."""
    weights = [naive_mr(N, r, e) for e in range(n + 1)]
    total = Fraction(0)
    for comp in _positive_compositions(n):
        term = Fraction((-1) ** len(comp))
        for e in comp:
            term *= weights[e]
        total += term
    return factorial(n) * total


def naive_hb_higher_convolution(values: Sequence[Fraction], r: int, n: int) -> Fraction:
    """sum over weak r-part compositions of n of multinomial(i) prod values[i_j],
    one Fraction operation per factor."""
    total = Fraction(0)
    for comp in brute_compositions(n, r, 0):
        term = Fraction(_multinomial(comp))
        for i in comp:
            term *= values[i]
        total += term
    return total


def naive_reciprocal_binom_inverse(values: Sequence[Fraction], n: int) -> Fraction:
    """sum over positive compositions of n of (-1)^k multinomial(i) prod
    values[i_j], one Fraction operation per factor."""
    total = Fraction(0)
    for comp in _positive_compositions(n):
        term = Fraction((-1) ** len(comp) * _multinomial(comp))
        for i in comp:
            term *= values[i]
        total += term
    return total


def naive_hb_trudi(N: int, r: int, n: int) -> Fraction:
    """n! sum over multiplicity vectors t of n of multinomial(t) (-1)^{sum t}
    prod naive_mr(N, r, i)^{t_i}, one Fraction operation per factor."""
    weights = [naive_mr(N, r, e) for e in range(n + 1)]
    total = Fraction(0)
    for vec in product(*(range(n // i + 1) for i in range(1, n + 1))):
        if sum(i * t for i, t in enumerate(vec, start=1)) != n:
            continue
        term = Fraction((-1) ** sum(vec) * _multinomial(vec))
        for i, t in enumerate(vec, start=1):
            term *= weights[i] ** t
        total += term
    return factorial(n) * total


def naive_hb_descent_nested(prev: Sequence[Fraction], N: int, n: int) -> Fraction:
    """Unrolled descent from the parameter-(N-1) values prev[0..n]: sum over
    chains n = i_0 > i_1 > ... > i_m >= 1 of prev[i_m] prod_k prev[s_k]
    binom(i_{k-1}, s_k) N/(N+i_k), s_k = i_{k-1} - i_k + 1, times N/(N+n);
    one Fraction operation per factor."""
    total = Fraction(0)
    for m in range(n):
        for chain in combinations(range(1, n), m):
            idx = (n,) + tuple(reversed(chain))
            term = Fraction(prev[idx[m]])
            for k in range(1, m + 1):
                step = idx[k - 1] - idx[k] + 1
                term *= prev[step] * comb(idx[k - 1], step) * Fraction(N, N + idx[k])
            total += term
    return Fraction(N, N + n) * total


def naive_hb_series(N: int, order: int) -> list[Fraction]:
    """S_0..S_{order-1} with S_n = B_{N,n}/n!: the coefficients of
    1 / sum_k x^k/((N+1)...(N+k)), by series division one Fraction per term."""
    base = _reciprocal_rising(N, order - 1)
    out: list[Fraction] = []
    for n in range(order):
        acc = Fraction(int(n == 0))
        for k in range(1, n + 1):
            acc -= base[k] * out[n - k]
        out.append(acc)
    return out


def naive_convergent(N: int, index: int) -> tuple[list[Fraction], list[Fraction]]:
    """Coefficient lists (ascending, possibly with trailing zeros) of the
    convergent numerator and denominator: P_0 = Q_0 = 1, P_1 = (N+1) - x,
    Q_1 = N+1, then X_k = (N+k) X_{k-1} + b_k x X_{k-2} with b_{2m} = m and
    b_{2m+1} = -(N+m), on plain lists."""

    def step(a: int, cur: list[Fraction], b: int, prev: list[Fraction]) -> list[Fraction]:
        out = [a * c for c in cur] + [Fraction(0)] * (len(prev) + 1 - len(cur))
        for i, c in enumerate(prev):
            out[i + 1] += b * c
        return out

    p_prev, p = [Fraction(1)], [Fraction(N + 1), Fraction(-1)]
    q_prev, q = [Fraction(1)], [Fraction(N + 1)]
    if index == 0:
        return p_prev, q_prev
    for k in range(2, index + 1):
        m = k // 2
        b = m if k % 2 == 0 else -(N + m)
        p_prev, p = p, step(N + k, p, b, p_prev)
        q_prev, q = q, step(N + k, q, b, q_prev)
    return p, q


def naive_q_coefficient(N: int, m: int, odd: int, j: int) -> Fraction:
    """x^j coefficient of Q_{2m-odd} by its closed form, term by term:
    sum_{k<=j} (-1)^(j-k) falling(t, k) binom(m-k-1, j-k) prod_{l=k+1..t} (N+l)
    with t = 2m-j-odd, every factor rebuilt for every k."""
    top = 2 * m - j - odd
    total = Fraction(0)
    for k in range(j + 1):
        fall = prod(range(top, top - k, -1))
        tail = prod(range(N + k + 1, N + top + 1))  # empty for k >= top
        total += (-1) ** (j - k) * fall * _falling_binom(m - k - 1, j - k) * tail
    return total


def naive_product_coefficient(
    coeffs: Sequence[Fraction], series: Sequence[Fraction], h: int
) -> Fraction:
    """x^h coefficient of (sum_j coeffs[j] x^j) * (sum_i series[i] x^i), one
    Fraction multiply-add per term."""
    total = Fraction(0)
    for j, c in enumerate(coeffs[: h + 1]):
        total += c * series[h - j]
    return total


def naive_defect(
    P: Sequence[Fraction], Q: Sequence[Fraction], N: int, order: int
) -> list[Fraction]:
    """Coefficients 0..order-1 of Q S - P, S the series of ``naive_hb_series``."""
    series = naive_hb_series(N, order)
    return [
        naive_product_coefficient(Q, series, h) - (P[h] if h < len(P) else 0)
        for h in range(order)
    ]


def _falling_binom(a: int, k: int) -> Fraction:
    """a (a-1) ... (a-k+1) / k!, for any integer a."""
    num = 1
    for i in range(k):
        num *= a - i
    return Fraction(num, factorial(k))


def naive_classical_reduced(variant: str, n: int, h: int) -> tuple[Fraction, Fraction]:
    """Both sides of the reduced classical identities ("even-reduced",
    "odd-reduced"), term by term over Akiyama-Tanigawa Bernoulli numbers."""
    B = bernoulli_akiyama_tanigawa(h)
    C = _falling_binom

    def S(i: int) -> Fraction:
        return B[i] / factorial(i)

    lhs = Fraction(0)
    if variant == "even-reduced":
        for j in range(h // 2 + 1):
            lhs += Fraction(factorial(2 * n - 2 * j + 1), 2 * j + 1) * C(n, 2 * j) * S(h - 2 * j)
        lhs += Fraction(factorial(2 * n), 2) * S(h - 1)
        for j in range(1, (h - 1) // 2 + 1):
            lhs += (
                Fraction(factorial(2 * n - 2 * j), 4 * (2 * j + 1))
                / C(2 * j - 1, j)
                * C(n - j - 1, j)
                * C(n, j)
                * S(h - 2 * j - 1)
            )
        top = 2 * n - h + 1
    else:
        for j in range(h // 2 + 1):
            lhs += (
                Fraction(factorial(j) ** 2 * factorial(2 * n - 2 * j), factorial(2 * j + 1))
                * C(n, j)
                * C(n - j - 1, j)
                * S(h - 2 * j)
            )
        top = 2 * n - h
    rhs = (-1) ** h * C(n, h) * factorial(top) if h <= n else Fraction(0)
    return lhs, rhs


def _ord(m: int, p: int) -> int:
    """ord_p of a nonzero integer, by repeated division."""
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def reference_verdict(a: Fraction, b: Fraction, p: int, k: int | float) -> tuple:
    """The six fields of a mod-p^k congruence verdict, the plain way: ord_p of
    the reduced difference a - b (inf at 0), and each side's residue in
    [0, p^k) from its reduced numerator and denominator (None at k = 0 or
    k = inf, or when p divides the denominator)."""
    a, b = Fraction(a), Fraction(b)
    diff = a - b
    diff_ord = inf if diff == 0 else _ord(diff.numerator, p) - _ord(diff.denominator, p)

    def residue(x: Fraction) -> int | None:
        if k in (0, inf) or x.denominator % p == 0:
            return None
        mod = p**k
        return x.numerator * pow(x.denominator, -1, mod) % mod

    return diff_ord >= k, p, k, diff_ord, residue(a), residue(b)
