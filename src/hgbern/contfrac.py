"""Convergents of the continued fraction of the generating function.

The reciprocal 1F1 generating function expands as a continued fraction whose
partial quotients are a_n(x) = N+n with b_{2m}(x) = m x and
b_{2m+1}(x) = -(N+m) x.  This module computes the convergent numerators and
denominators P_n/Q_n by that recurrence and by closed-form coefficient
formulas, checks the series-approximation property
Q_n S - P_n = O(x^{n+1}), and evaluates the binomial identity families that
property yields for the coefficients.

The closed route evaluates the closed formulas, never the recurrence, so each
route witnesses the other.  Running products (a prefix product of falling
factorials, and the product over N+l grown one factor at a time) make each
coefficient O(n) integer products and a whole P or Q list O(n^2).

The checks are integer sums over one oracle row, in the style of the kernels
in :mod:`hbnum` and :mod:`exactnum`: each takes the parameter-N row
B_{N,0..h} over its lcm from ``hbnum.common_row`` and turns the x^h
coefficient of C(x) S(x) into one integer dot product over h! times the
common denominators (h!/(h-j)! = falling(h, j)), reduced once into a
``Fraction``.  With a store the row is kept on it, so a family of checks
builds each N's row over its lcm once and extends it as h grows; a kept row
longer than h serves h as well, since the sum reads only indices <= h.
Without a store each check walks and builds its own row.  Non-integral
coefficient lists (a hand-built P or Q, the reduced classical weights) go
over their own common denominator first; the reduced weights are built as
integer (numerator, denominator) pairs.  With a store the identity checks
also keep the coefficient list of Q_{2n-odd}, for j <= n, on it, one per
(N, n, odd): the first check of a family builds it, O(n^2) products, and
every other h reads it.  Without a store a check builds only the
coefficients j <= min(h, n) it reads.

Conventions inherited by all closed forms: falling-factorial binomials
(``binom(-1, 0) = 1`` and ``binom(n, k) = 0`` for ``0 <= n < k``), empty
products equal to 1, and empty sums equal to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import factorial, lcm
from operator import mul
from typing import Iterable

from .exactnum import CommonDenominator, _int_text, binom, rising
from .hbnum import MemoStore, Series, common_row

__all__ = [
    "Poly",
    "ConvergentPair",
    "convergent_rec",
    "convergent_closed",
    "approximation_defect",
    "identity_even",
    "identity_odd",
    "classical_identity",
    "CLASSICAL_VARIANTS",
]


def _fmt_coeff(q: Fraction) -> str:
    num = _int_text(q.numerator)
    return num if q.denominator == 1 else f"{num}/{_int_text(q.denominator)}"


class Poly:
    """Immutable dense polynomial over Fraction, coefficients in ascending order.

    Trailing zero coefficients are stripped; the zero polynomial has an empty
    coefficient tuple and degree -1.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[Fraction | int] = ()):
        coeffs = [Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs = tuple(coeffs)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    def __getitem__(self, power: int) -> Fraction:
        if 0 <= power < len(self._coeffs):
            return self._coeffs[power]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        if not self._coeffs or not other._coeffs:
            return Poly()
        out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            for j, b in enumerate(other._coeffs):
                out[i + j] += a * b
        return Poly(out)

    def __repr__(self) -> str:
        # the list's repr would call Fraction's, which stops at the digit limit
        coeffs = ", ".join(
            f"Fraction({_int_text(c.numerator)}, {_int_text(c.denominator)})" for c in self._coeffs
        )
        return f"Poly([{coeffs}])"

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for power, c in enumerate(self._coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if power == 0:
                body = _fmt_coeff(mag)
            else:
                var = "x" if power == 1 else f"x^{power}"
                body = var if mag == 1 else f"{_fmt_coeff(mag)}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


@dataclass(frozen=True)
class ConvergentPair:
    """Numerator/denominator polynomials of the index-n convergent for parameter N.

    Degrees follow the pattern deg P_{2m-1} = deg P_{2m} = deg Q_{2m} = m and
    deg Q_{2m-1} = m-1, and Q never vanishes at 0.  One degeneration: at
    N = 1 with m even the leading coefficient of Q_{2m-1} carries a factor
    N-1 and the degree drops to m-2 (the vanishing odd classical Bernoulli
    numbers at work); the approximation property is unaffected.
    """

    n: int
    P: Poly
    Q: Poly
    N: int

    def __post_init__(self) -> None:
        if self.Q[0] == 0:
            raise ValueError("convergent denominator must not vanish at x = 0")


def _validate(N: int, n: int) -> None:
    if N < 1:
        raise ValueError("N must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")


def convergent_rec(N: int, n: int) -> ConvergentPair:
    """Convergent by the three-term recurrence with P_0 = Q_0 = 1,
    P_1 = (N+1) - x, Q_1 = N+1."""
    _validate(N, n)
    p_prev, p = Poly([1]), Poly([N + 1, -1])
    q_prev, q = Poly([1]), Poly([N + 1])
    if n == 0:
        return ConvergentPair(0, p_prev, q_prev, N)
    for k in range(2, n + 1):
        a = Poly([N + k])
        m = k // 2
        b = Poly([0, m]) if k % 2 == 0 else Poly([0, -(N + m)])
        p_prev, p = p, a * p + b * p_prev
        q_prev, q = q, a * q + b * q_prev
    return ConvergentPair(n, p, q, N)


def _prod(N: int, lo: int, hi: int) -> int:
    """prod_{l=lo..hi} (N + l); empty when hi < lo."""
    return rising(N + lo, hi - lo + 1) if hi >= lo else 1


def _p_coefficient(N: int, m: int, odd: int, j: int) -> int:
    """x^j coefficient of P_{2m-odd}: (-1)^j binom(m, j) prod_{l=1..2m-j-odd} (N+l)."""
    return (-1) ** j * binom(m, j) * _prod(N, 1, 2 * m - j - odd)


def _q_coefficient(N: int, m: int, odd: int, j: int) -> int:
    """x^j coefficient of Q_{2m-odd}:

        sum_{k<=j} (-1)^(j-k) falling(t, k) binom(m-k-1, j-k) prod_{l=k+1..t} (N+l)

    with t = 2m-j-odd, in O(j) products: falling(t, k) is a prefix product
    over k, the product over l takes one more factor, N+k+1, at each step of
    k down from j (it stays empty while k >= t), and the binomial steps by
    binom(a+1, b+1) = binom(a, b) (a+1)/(b+1), an exact division that keeps
    the falling-factorial convention for negative a (binom(-1, 0) = 1, and
    zero once a passes 0 below b)."""
    top = 2 * m - j - odd
    falls = list(accumulate(range(top, top - j, -1), mul, initial=1))
    tail = _prod(N, j + 1, top)
    choose = 1  # binom(m-k-1, j-k), starting at k = j
    total = 0
    for k in range(j, -1, -1):
        term = falls[k] * choose * tail
        total += -term if (j - k) % 2 else term
        if k <= top:
            tail *= N + k
        choose = choose * (m - k) // (j - k + 1)
    return total


def _q_list(N: int, m: int, odd: int, top: int) -> list[int]:
    """Coefficients x^0..x^top of Q_{2m-odd}."""
    return [_q_coefficient(N, m, odd, j) for j in range(top + 1)]


def convergent_closed(N: int, n: int) -> ConvergentPair:
    """Convergent from the closed coefficient formulas; identical to
    ``convergent_rec`` for every index."""
    _validate(N, n)
    if n == 0:
        return ConvergentPair(0, Poly([1]), Poly([1]), N)
    odd = n % 2
    m = (n + odd) // 2
    # heads[i] = prod_{l=1..m-odd+i} (N+l), the product of the x^(m-i) coefficient
    heads = list(
        accumulate(range(N + m - odd + 1, N + 2 * m - odd + 1), mul, initial=_prod(N, 1, m - odd))
    )
    p_coeffs = [(-1) ** j * binom(m, j) * heads[m - j] for j in range(m + 1)]
    return ConvergentPair(n, Poly(p_coeffs), Poly(_q_list(N, m, odd, m - odd)), N)


def _against_series(nums: list[int], series: CommonDenominator, h: int) -> int:
    """x^h coefficient of C(x) S(x), for C with coefficients ``nums`` over
    some denominator d and S with coefficients B_{N,i}/i! (the values in
    ``series``), times h! * series.den * d: the integer sum over j <= h of
    C_j falling(h, j) B_{N,h-j}, as h!/(h-j)! = falling(h, j).  It reads
    ``series`` at indices <= h only."""
    width = min(h + 1, len(nums))
    falls = accumulate(range(h, h + 1 - width, -1), mul, initial=1)
    return sum(map(mul, map(mul, nums[:width], falls), series.nums[h::-1]))


def _over_lcm(pairs: list[tuple[int, int]]) -> tuple[list[int], int]:
    """Numerators of the fractions num/den in `pairs` over their lcm, and the lcm."""
    common = 1
    for _, den in pairs:
        common = lcm(common, den)
    return [num * (common // den) for num, den in pairs], common


def approximation_defect(pair: ConvergentPair, store: MemoStore | None = None) -> Series:
    """The series Q_n S - P_n truncated at x^{n+1}, where S is the generating
    series of the parameter-N numbers; identically zero because the convergent
    matches S through order n.

    Coefficient h is one integer sum over the row's, Q's and P's common
    denominators and h!, reduced once."""
    order = pair.n + 1
    if order < 1:
        raise ValueError("order must be >= 1")
    if pair.N < 1:
        raise ValueError("N must be >= 1")
    series = common_row(pair.N, 1, order - 1, store)
    q = CommonDenominator(pair.Q.coefficients)
    p = CommonDenominator(pair.P.coefficients)
    coeffs = []
    fact = 1  # h!
    for h in range(order):
        fact *= h or 1
        scale = fact * series.den * q.den
        p_h = p.nums[h] if h < len(p.nums) else 0
        num = _against_series(q.nums, series, h) * p.den - p_h * scale
        coeffs.append(Fraction(num, scale * p.den))
    return Series(tuple(coeffs), order)


def _identity(
    N: int, n: int, h: int, odd: int, store: MemoStore | None, scale: int = 1
) -> tuple[Fraction, Fraction]:
    """Both sides of the x^h coefficient of Q_{2n-odd} S = P_{2n-odd}, each
    divided by `scale` and reduced once: the left side sums Q's coefficients
    against the series of the parameter-N numbers, the right side is P's
    coefficient."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if h < 0:
        raise ValueError("h must be >= 0")
    if N < 1:
        raise ValueError("N must be >= 1")
    if store is None:
        q = _q_list(N, n, odd, min(h, n))
    else:
        q = store._q_lists.get((N, n, odd))
        if q is None:
            q = store._q_lists[N, n, odd] = _q_list(N, n, odd, n)
    series = common_row(N, 1, h, store)
    lhs = Fraction(_against_series(q, series, h), factorial(h) * series.den * scale)
    return lhs, Fraction(_p_coefficient(N, n, odd, h), scale)  # binom(n, h) = 0 for h > n


def identity_even(
    N: int, n: int, h: int, store: MemoStore | None = None
) -> tuple[Fraction, Fraction]:
    """Both sides of the even-convergent coefficient identity.

    The left side is the x^h coefficient sum coming from Q_{2n} S; the right
    side is (-1)^h binom(n, h) prod_{l=1..2n-h}(N+l) for h <= n and 0 above.
    The two sides agree for 0 <= h <= 2n (the approximation order of the
    index-2n convergent); larger h is computable but not an identity.
    """
    return _identity(N, n, h, 0, store)


def identity_odd(
    N: int, n: int, h: int, store: MemoStore | None = None
) -> tuple[Fraction, Fraction]:
    """Odd-convergent companion of :func:`identity_even`, with weights
    falling(2n-j-1, k) and products up to N+2n-j-1.

    Agreement is guaranteed for 0 <= h <= 2n-1 only: the index-(2n-1)
    convergent approximates one order less, and at h = 2n the sides
    genuinely differ in general (e.g. N=3, n=2, h=4 gives -1/105 vs 0).
    """
    return _identity(N, n, h, 1, store)


CLASSICAL_VARIANTS = ("even", "odd", "even-reduced", "odd-reduced")


def classical_identity(
    variant: str, n: int, h: int, store: MemoStore | None = None
) -> tuple[Fraction, Fraction]:
    """Classical (N = 1) specializations of the identity families.

    ``even`` / ``odd`` divide the N = 1 identities by (2n-h+1)! resp.
    (2n-h)!, turning the products into factorial ratios; they hold for
    h <= 2n resp. h <= 2n-1.  ``even-reduced`` / ``odd-reduced`` replace the
    inner alternating sums by their closed forms split on the parity of j;
    these hold on the wider ranges 1 <= h <= 2n+1 resp. 1 <= h <= 2n (the
    extension leans on the falling-factorial binomial conventions).
    """
    if variant not in CLASSICAL_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {CLASSICAL_VARIANTS}")
    if n < 1:
        raise ValueError("n must be >= 1")

    if variant == "even" or variant == "odd":
        odd = int(variant == "odd")
        # factorial (2n - h + 1 - odd)! must exist
        if h < 0 or h > 2 * n + 1 - odd:
            raise ValueError(f"variant {variant!r} needs 0 <= h <= {2 * n + 1 - odd}")
        # at N = 1 each product prod_{l=k+1..t} (1+l) is (t+1)!/(k+1)!, so
        # dividing by the largest of the (t+1)! leaves factorial ratios
        return _identity(1, n, h, odd, store, factorial(2 * n - h + 1 - odd))

    if variant == "even-reduced" and not 1 <= h <= 2 * n + 1:
        raise ValueError("variant 'even-reduced' needs 1 <= h <= 2n+1")
    if variant == "odd-reduced" and not 1 <= h <= 2 * n:
        raise ValueError("variant 'odd-reduced' needs 1 <= h <= 2n")
    # weights[k] = (num, den) is the weight of B_{h-k}/(h-k)! in the left side
    weights = [(0, 1)] * (h + 1)
    if variant == "even-reduced":
        # one term for each k: k = 2j, k = 1, and k = 2j+1 with j >= 1
        for j in range(h // 2 + 1):
            weights[2 * j] = (factorial(2 * n - 2 * j + 1) * binom(n, 2 * j), 2 * j + 1)
        weights[1] = (factorial(2 * n), 2)
        for j in range(1, (h - 1) // 2 + 1):
            weights[2 * j + 1] = (
                factorial(2 * n - 2 * j) * binom(n - j - 1, j) * binom(n, j),
                4 * (2 * j + 1) * binom(2 * j - 1, j),
            )
        rhs = (
            Fraction((-1) ** h * binom(n, h) * factorial(2 * n - h + 1))
            if h <= n
            else Fraction(0)
        )
    else:  # odd-reduced
        for j in range(h // 2 + 1):
            weights[2 * j] = (
                factorial(j) ** 2 * factorial(2 * n - 2 * j) * binom(n, j) * binom(n - j - 1, j),
                factorial(2 * j + 1),
            )
        rhs = Fraction((-1) ** h * binom(n, h) * factorial(2 * n - h)) if h <= n else Fraction(0)
    nums, den = _over_lcm(weights)
    series = common_row(1, 1, h, store)
    lhs = Fraction(_against_series(nums, series, h), factorial(h) * series.den * den)
    return lhs, rhs
