"""Exact determinants of Toeplitz-Hessenberg matrices.

A :class:`ToeplitzHessenbergSpec` ``(a0, [a1..am])`` describes the m x m
lower-Hessenberg matrix that is constant along diagonals: a1 on the main
diagonal, a_{k+1} on the k-th subdiagonal and the constant a0 on the
superdiagonal.  Its determinant obeys the first-row expansion

    D_m = sum_{l=1..m} (-a0)^(l-1) a_l D_{m-l},   D_0 = 1,

which keeps evaluation exact and O(m^2).  The signed entries
(-a0)^(l-1) a_l share one denominator and D_0..D_{k-1} another (their
running lcm), so each D_k is one integer dot product reduced once into a
``Fraction``.  ``trudi_expand`` recomputes the same determinant as a
partition sum (Trudi's formula; a0 = 1 is Brioschi's case), in integers over
the entries' lcm; it is the sum behind the ``trudi`` route.
``inversion_pair_check`` verifies the duality under which a sequence and its
determinant transform swap roles.

``hb_higher_det`` specializes the entries to the r-fold weight row of
:func:`hbnum.weight_row` to recover the hypergeometric Bernoulli numbers by a
determinant route; ``hb_det`` is its r = 1 case.  The recursion computes the
leading determinants D_0..D_{m-1} on its way to D_m, so one call can also
hand back a whole family's values B_0..B_n (the optional ``leading`` and
``row`` lists): ``verify`` reads each (N, r) family from one such walk, with
one weight row, instead of one determinant per n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import factorial, lcm
from operator import mul
from typing import Sequence

from .exactnum import CommonDenominator, enumerate_partition_vectors
from .hbnum import weight_row

__all__ = [
    "ToeplitzHessenbergSpec",
    "toeplitz_hessenberg_det",
    "trudi_expand",
    "hb_det",
    "hb_higher_det",
    "InversionVerdict",
    "inversion_pair_check",
]


@dataclass(frozen=True)
class ToeplitzHessenbergSpec:
    """Superdiagonal constant ``a0`` and first-column entries ``a1..am``."""

    a0: Fraction
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "a0", Fraction(self.a0))
        # from a list, so the tuple is sized once: tuple(generator) resizes a
        # 10-slot tuple and strands one per call on the per-size free lists
        object.__setattr__(self, "entries", tuple([Fraction(a) for a in self.entries]))

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def matrix(self) -> list[list[Fraction]]:
        """Materialize the dense matrix (row i holds ..., a2, a1, a0, 0, ...)."""
        m = self.dimension
        zero = Fraction(0)
        return [
            [
                self.a0 if j == i + 1 else self.entries[i - j] if j <= i else zero
                for j in range(m)
            ]
            for i in range(m)
        ]


def toeplitz_hessenberg_det(
    spec: ToeplitzHessenbergSpec, leading: list[Fraction] | None = None
) -> Fraction:
    """Determinant via the first-row expansion recursion (empty matrix gives 1).

    If `leading` is given, D_0..D_m are appended to it: D_k is the
    determinant of the leading k x k submatrix, the spec of the first k
    entries, which the recursion computes on its way to D_m.
    """
    leading = leading if leading is not None else []
    signed = []
    power = Fraction(1)
    for a in spec.entries:
        signed.append(power * a)
        power *= -spec.a0
    c = CommonDenominator(signed)
    d = CommonDenominator([1])  # D_0..D_{k-1}
    det = Fraction(1)
    leading.append(det)
    for k in range(1, spec.dimension + 1):
        # sum_{l=1..k} c_l D_{k-l}: reversed(d.nums) runs D_{k-1} down to D_0
        det = Fraction(sum(map(mul, c.nums, reversed(d.nums))), c.den * d.den)
        d.append(det)
        leading.append(det)
    return det


def trudi_expand(spec: ToeplitzHessenbergSpec) -> Fraction:
    """The same determinant as a sum over partitions of the dimension:

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
    m = spec.dimension
    if m < 1:
        raise ValueError("dimension must be >= 1")
    W = reduce(lcm, (a.denominator for a in spec.entries), 1)
    w = [a.numerator * (W // a.denominator) for a in spec.entries]
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
    a, d = -spec.a0.numerator, spec.a0.denominator  # -a0 = a / d
    total = Fraction(0)
    for k in range(1, m + 1):
        total += Fraction(groups[k] * a ** (m - k), W**k * d ** (m - k))
    return total


def hb_det(N: int, n: int) -> Fraction:
    """Hypergeometric Bernoulli number as (-1)^n n! times the determinant with
    entries a_l = 1/((N+1)...(N+l)) and unit superdiagonal."""
    return hb_higher_det(N, 1, n)


def hb_higher_det(N: int, r: int, n: int, row: list[Fraction] | None = None) -> Fraction:
    """Order-r determinant route; the entries become the r-fold convolution weights.

    If `row` is given, B_0..B_n are appended to it, each (-1)^k k! D_k from
    the same determinant walk, equal to ``hb_higher_det(N, r, k)`` for k >= 1.
    """
    if N < 1 or r < 1 or n < 1:
        raise ValueError("N, r and n must be >= 1")
    spec = ToeplitzHessenbergSpec(Fraction(1), tuple(weight_row(N, r, n)[1:]))
    leading: list[Fraction] | None = None if row is None else []
    det = toeplitz_hessenberg_det(spec, leading)
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
    product_ok: bool

    @property
    def failures(self) -> tuple[str, ...]:
        names = (
            ("convolution", self.convolution_ok),
            ("alpha-from-R determinant", self.alpha_from_r_ok),
            ("R-from-alpha determinant", self.r_from_alpha_ok),
            ("matrix product", self.product_ok),
        )
        return tuple(name for name, ok in names if not ok)

    def __bool__(self) -> bool:
        return not self.failures


def inversion_pair_check(
    alphas: Sequence[Fraction], rs: Sequence[Fraction]
) -> InversionVerdict:
    """Verify that sequences (alpha_n) and (R(n)) determine each other.

    With alpha_0 = R(0) = 1 implied, four views of the same duality are
    checked for every prefix: the alternating convolution
    ``sum_{k<=n} (-1)^(n-k) alpha_k R(n-k) = 0`` (the cheapest and therefore
    primary relation), both Toeplitz-Hessenberg determinant directions, and
    the product of the two banded unit-lower-triangular matrices being the
    identity.  The verdict records which directions fail.

    The alternating relation dictates the sign convention of the matrix
    product: the R-side factor carries checkerboard signs (-1)^(i-j) R(i-j),
    since sum_l alpha_{d-l} (-1)^l R(l) = delta_{d,0} is what the relation
    rearranges to.  A plain product of both unsigned bands is not the
    identity.
    """
    if len(alphas) != len(rs):
        raise ValueError("sequences must have equal length")
    n = len(alphas)
    a = [Fraction(1)] + [Fraction(x) for x in alphas]
    rr = [Fraction(1)] + [Fraction(x) for x in rs]

    conv_ok = True
    for m in range(1, n + 1):
        acc = Fraction(0)
        for k in range(m + 1):
            acc += (-1) ** (m - k) * a[k] * rr[m - k]
        if acc != 0:
            conv_ok = False
            break

    # each direction from one walk: its leading determinants D_0..D_n are
    # those of every prefix of the entries
    alpha_dets: list[Fraction] = []
    toeplitz_hessenberg_det(ToeplitzHessenbergSpec(Fraction(1), tuple(rr[1:])), alpha_dets)
    r_dets: list[Fraction] = []
    toeplitz_hessenberg_det(ToeplitzHessenbergSpec(Fraction(1), tuple(a[1:])), r_dets)
    alpha_ok, r_ok = alpha_dets == a, r_dets == rr

    product_ok = True
    for i in range(n + 1):
        for j in range(n + 1):
            acc = Fraction(0)
            for k in range(j, i + 1):
                acc += a[i - k] * (-1) ** (k - j) * rr[k - j]
            if acc != (1 if i == j else 0):
                product_ok = False
                break
        if not product_ok:
            break

    return InversionVerdict(conv_ok, alpha_ok, r_ok, product_ok)
