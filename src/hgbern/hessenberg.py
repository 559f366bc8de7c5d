"""Exact determinants of Toeplitz-Hessenberg matrices.

A superdiagonal constant a0 and first-column entries ``[a1..am]`` (ints or
``Fraction``s; a float is refused before any work) describe the m x m
lower-Hessenberg matrix that is constant along diagonals: a1 on the main
diagonal, a_{k+1} on the k-th subdiagonal and a0 on the superdiagonal.  Its
determinant obeys the first-row expansion

    D_m = sum_{l=1..m} (-a0)^(l-1) a_l D_{m-l},   D_0 = 1,

which keeps evaluation exact and O(m^2).  The signed entries
(-a0)^(l-1) a_l and D_0..D_{k-1} are each held over their lcm in a
``CommonDenominator``, so each D_k is one integer dot product reduced once.
``trudi_expand`` recomputes the same determinant as a partition sum
(Trudi's formula; a0 = 1 is Brioschi's case), in integers over the entries'
lcm; it is the sum behind the ``trudi`` route.  Every lcm of a list in the
routes and checks, ``CommonDenominator``'s included, comes from
``_over_lcm``.
``inversion_pair_check`` verifies the duality under which a sequence and its
determinant transform swap roles, by their alternating convolution and by
the determinant in each direction.

``_weight_powers`` is the routes' one power table: the base row
c_j = (N+j+1)...(N+n), which is 1/((N+1)...(N+j)) over D = (N+1)...(N+n),
and its Cauchy powers, power r over D^r.  ``weight_row`` reads power r for
``hb_higher_det``, which recovers the hypergeometric Bernoulli numbers by a
determinant route; the ``mr`` and ``binom`` routes in :mod:`altforms` read
the table too.  The recurrence oracle in :mod:`hbnum` builds its weights
with its own integer kernel, ``exactnum.cauchy_product``, and keeps its row
over its lcm itself.  This module imports neither that kernel nor anything
from :mod:`hbnum`: the two routes share no lcm holder, no weight-row code
and no weight kernel, so the determinant witnesses the recurrence's weights
too.  They share only the index guard ``exactnum.HBKey``; the argument rule
is stated in :mod:`exactnum`.
The recursion computes the leading determinants D_0..D_{m-1} on its way to
D_m, so one call can also hand back a whole family's values B_0..B_n (the
optional ``leading`` and ``row`` lists): ``verify`` reads each (N, r)
family from one such walk, with one weight row, instead of one determinant
per n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import islice
from math import factorial, gcd, lcm
from operator import mul
from typing import Iterator, Sequence

from .exactnum import (
    HBKey,
    _rational,
    _require_index,
    _require_rationals,
    enumerate_partition_vectors,
)

__all__ = [
    "toeplitz_hessenberg_det",
    "trudi_expand",
    "hb_higher_det",
    "InversionVerdict",
    "inversion_pair_check",
]

Rational = Fraction | int


def _over_lcm(values: Sequence[Rational]) -> tuple[int, list[int]]:
    """``(L, nums)`` with ``values[i] = nums[i] / L``, L the lcm of the denominators."""
    L = reduce(lcm, (v.denominator for v in values), 1)
    return L, [v.numerator * (L // v.denominator) for v in values]


class CommonDenominator:
    """Rationals as integer numerators ``nums`` over the lcm ``den`` of their
    denominators: the lcm holder of the routes and checks.  An inner sum is
    then one integer dot product, reduced once (the fraction-free idea of
    Bareiss, Math. Comp. 22, 1968); appending a value whose denominator does
    not divide ``den`` rescales every numerator once, and ``extend`` takes
    many values over their own lcm with at most that one rescale."""

    __slots__ = ("nums", "den")

    def __init__(self, values: Sequence[Rational]):
        self.den, self.nums = _over_lcm(values)

    def append(self, value: Rational) -> None:
        q = value.denominator
        grow = q // gcd(q, self.den)
        if grow != 1:
            self.nums = [x * grow for x in self.nums]
            self.den *= grow
        self.nums.append(value.numerator * (self.den // q))

    def extend(self, values: Sequence[Rational]) -> None:
        den, nums = _over_lcm(values)
        grow = den // gcd(den, self.den)
        if grow != 1:
            self.nums = [x * grow for x in self.nums]
            self.den *= grow
        scale = self.den // den
        self.nums += nums if scale == 1 else [x * scale for x in nums]


def _convolution(a: list[int], b: list[int]) -> list[int]:
    """``c[m] = sum_j a[m-j] b[j]`` for ``m < len(a)``, with ``len(b) == len(a)``."""
    b_reversed = b[::-1]
    top = len(b) - 1
    return [sum(map(mul, a, b_reversed[top - m :])) for m in range(len(a))]


def _weight_powers(N: int, upto: int) -> Iterator[list[int]]:
    """Row r = 1, 2, ...: the r-fold weight row at e = 0..upto as integers
    over its entry 0, D^r with D = (N+1)...(N+upto); a caller must not change
    a row.  The base row (N+j+1)...(N+upto) is built from the top, and each
    next row is one convolution with it."""
    base = [1] * (upto + 1)
    for j in range(upto - 1, -1, -1):
        base[j] = base[j + 1] * (N + j + 1)
    power = base
    while True:
        yield power
        power = _convolution(power, base)


def toeplitz_hessenberg_det(
    a0: Rational, entries: Sequence[Rational], leading: list[Fraction] | None = None
) -> Fraction:
    """Determinant via the first-row expansion recursion (no entries give 1).

    If `leading` is given, D_0..D_m are appended to it: D_k is the
    determinant of the leading k x k submatrix, that of the first k entries,
    which the recursion computes on its way to D_m.
    """
    _rational(a0, "a0")
    _require_rationals(entries, "entries")
    leading = leading if leading is not None else []
    signed = []
    power = 1
    for a in entries:
        signed.append(power * a)
        power *= -a0
    c = CommonDenominator(signed)
    d = CommonDenominator([1])  # D_0..D_{k-1}
    det = Fraction(1)
    leading.append(det)
    for k in range(1, len(entries) + 1):
        # sum_{l=1..k} c_l D_{k-l}: reversed(d.nums) runs D_{k-1} down to D_0
        det = Fraction(sum(map(mul, c.nums, reversed(d.nums))), c.den * d.den)
        d.append(det)
        leading.append(det)
    return det


def trudi_expand(a0: Rational, entries: Sequence[Rational]) -> Fraction:
    """The same determinant as a sum over partitions of m = len(entries):

        sum_{t_1 + 2 t_2 + ... + m t_m = m}
            multinomial(t) (-a0)^(m - sum t) a_1^{t_1} ... a_m^{t_m}.

    Over the lcm W of the entries' denominators a vector with k parts is an
    integer over W^k; the vectors are summed as integers per k, and each
    group, times (-a0)^(m-k), is reduced once into a ``Fraction``.  One pass
    over a vector's nonzero multiplicities, zipped with the weights straight
    from the enumerator's tuple, gives its power product, its part count k
    and prod t_i!, and its multinomial is k! // prod t_i! from a factorial
    table built once per call.
    """
    _rational(a0, "a0")
    _require_rationals(entries, "entries")
    m = len(entries)
    if m < 1:
        raise ValueError("dimension must be >= 1")
    W, w = _over_lcm(entries)
    fact = [1] * (m + 1)
    for i in range(1, m + 1):
        fact[i] = fact[i - 1] * i
    groups = [0] * (m + 1)
    for vec in enumerate_partition_vectors(m):
        term, k, t_fact = 1, 0, 1  # t_fact = prod t_i!
        for wi, t in zip(w, vec):
            if t:
                term *= wi**t
                k += t
                t_fact *= fact[t]
        groups[k] += fact[k] // t_fact * term
    a, d = -a0.numerator, a0.denominator  # -a0 = a / d
    total = Fraction(0)
    for k in range(1, m + 1):
        total += Fraction(groups[k] * a ** (m - k), W**k * d ** (m - k))
    return total


def weight_row(N: int, r: int, upto: int) -> list[Fraction]:
    """Weights for e = 0..upto: entry e collects (N!)^r / ((N+i_1)! ... (N+i_r)!)
    over nonnegative r-part compositions of e, computed as an r-fold Cauchy
    power of 1/((N+1)...(N+j)) so huge N stays factorial-free.

    The power is row r of ``_weight_powers``, integers over D^r, and each
    weight is one ``Fraction`` of them.  The indices are checked as
    ``HBKey(N, r, upto)``."""
    HBKey(N, r, upto)
    row = next(islice(_weight_powers(N, upto), r - 1, None))
    return [Fraction(x, row[0]) for x in row]


def hb_higher_det(N: int, r: int, n: int, row: list[Fraction] | None = None) -> Fraction:
    """Order-r determinant route; the entries become the r-fold convolution weights.

    If `row` is given, B_0..B_n are appended to it, each (-1)^k k! D_k from
    the same determinant walk, equal to ``hb_higher_det(N, r, k)`` for k >= 1.
    """
    _require_index(N, r, n)
    leading: list[Fraction] | None = None if row is None else []
    det = toeplitz_hessenberg_det(1, weight_row(N, r, n)[1:], leading)
    if row is not None:
        scale = 1  # (-1)^k k!
        for k, d in enumerate(leading):
            if k:
                scale *= -k
            row.append(Fraction(scale * d.numerator, d.denominator))
    return (-1) ** n * factorial(n) * det


@dataclass(frozen=True)
class InversionVerdict:
    """Outcome of the determinant-inversion cross-check between two sequences."""

    convolution_ok: bool
    alpha_from_r_ok: bool
    r_from_alpha_ok: bool

    @property
    def failures(self) -> tuple[str, ...]:
        names = (
            ("convolution", self.convolution_ok),
            ("alpha-from-R determinant", self.alpha_from_r_ok),
            ("R-from-alpha determinant", self.r_from_alpha_ok),
        )
        return tuple(name for name, ok in names if not ok)

    def __bool__(self) -> bool:
        return not self.failures


def inversion_pair_check(
    alphas: Sequence[Rational], rs: Sequence[Rational]
) -> InversionVerdict:
    """Verify that sequences (alpha_n) and (R(n)) determine each other.

    With alpha_0 = R(0) = 1 implied, three views of the same duality are
    checked for every prefix: the alternating convolution
    ``sum_{k<=n} (-1)^(n-k) alpha_k R(n-k) = 0`` (the cheapest and therefore
    primary relation) and both Toeplitz-Hessenberg determinant directions.
    The verdict records which views fail.

    The relation is also the statement that the banded unit-lower-triangular
    matrices (alpha_{i-j}) and ((-1)^(i-j) R(i-j)) are inverse: entry (i, j)
    of their product is the alternating convolution at n = i - j, an empty
    sum above the diagonal and alpha_0 R(0) = 1 on it.  So that product is
    the identity exactly when the convolution holds, and it is not checked
    a second time.
    """
    if len(alphas) != len(rs):
        raise ValueError("sequences must have equal length")
    _require_rationals(alphas, "alphas")
    _require_rationals(rs, "rs")
    a, rr = [1, *alphas], [1, *rs]

    conv_ok = all(
        sum((-1) ** (m - k) * a[k] * rr[m - k] for k in range(m + 1)) == 0
        for m in range(1, len(a))
    )
    # each direction from one walk: its leading determinants D_0..D_n are
    # those of every prefix of the entries
    alpha_dets: list[Fraction] = []
    toeplitz_hessenberg_det(1, rs, alpha_dets)
    r_dets: list[Fraction] = []
    toeplitz_hessenberg_det(1, alphas, r_dets)
    return InversionVerdict(conv_ok, alpha_dets == a, r_dets == rr)
