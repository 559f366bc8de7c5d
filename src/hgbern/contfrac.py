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

The checks are integer sums over one oracle row: each takes the
parameter-N row B_{N,0..h} from ``hbnum.hb_higher``, held over its lcm in
``hessenberg.CommonDenominator`` by ``_series_row`` (the oracle keeps its
own lcm, so the checks share only its values), and turns the x^h
coefficient of C(x) S(x) into one integer dot product over h! times the
common denominators (h!/(h-j)! = falling(h, j)), reduced once.  Every check
runs on a store: the one it is given, or a throwaway ``MemoStore()``.  The
row is kept on the store, so a family of checks builds each N's row over
its lcm once and extends it as h grows; a kept row longer than h serves h
as well, since the sum reads only indices <= h.  Non-integral coefficient
lists (a hand-built P or Q, the reduced classical weights) go over their
own common denominator first, the reduced weights by ``_over_lcm``.

The checks also keep, through ``MemoStore.kept``, the lists that depend on
no stored value: the coefficients of P_{2n-odd} and Q_{2n-odd}, and each
reduced classical variant's weights over their lcm, built to the variant's
widest h (2n+1 or 2n), since a weight depends on n and its index only.  The
first check of a family builds them, O(n^2) products for Q, and every other
h reads them; the classical variants read the N = 1 lists of P and Q.  What
the store keeps, and when it drops it, is described in :class:`MemoStore`.
Every index is refused with a ``ValueError`` before a store is read if it is
a bool or not an int, since it would hash equal to an int key and read that
key's kept data: N and n through an ``HBKey``, h by a check of its own.

Conventions inherited by all closed forms: falling-factorial binomials
(``binom(-1, 0) = 1`` and ``binom(n, k) = 0`` for ``0 <= n < k``), empty
products equal to 1, and empty sums equal to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import factorial
from operator import mul
from typing import Iterable

from .exactnum import _int_text, binom, rising
from .hbnum import HBKey, MemoStore, hb_higher
from .hessenberg import CommonDenominator, _over_lcm

__all__ = [
    "Poly",
    "Series",
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
class Series:
    """Truncated power series: coefficients[i] is the x^i coefficient, plus
    O(x^len(coefficients))."""

    coefficients: tuple[Fraction, ...]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)


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


def convergent_rec(N: int, n: int) -> ConvergentPair:
    """Convergent by the three-term recurrence with P_0 = Q_0 = 1,
    P_1 = (N+1) - x, Q_1 = N+1."""
    HBKey(N, 1, n)  # N >= 1 and n >= 0, both ints
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


def _p_list(N: int, m: int, odd: int) -> list[int]:
    """Coefficients x^0..x^m of P_{2m-odd}, for m >= 1: the x^j coefficient
    is (-1)^j binom(m, j) prod_{l=1..2m-j-odd} (N+l)."""
    # heads[i] = prod_{l=1..m-odd+i} (N+l), the product of the x^(m-i) coefficient
    heads = list(
        accumulate(range(N + m - odd + 1, N + 2 * m - odd + 1), mul, initial=_prod(N, 1, m - odd))
    )
    return [(-1) ** j * binom(m, j) * heads[m - j] for j in range(m + 1)]


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


def _q_list(N: int, m: int, odd: int) -> list[int]:
    """Coefficients x^0..x^m of Q_{2m-odd}; the last is 0 for Q_{2m-1}."""
    return [_q_coefficient(N, m, odd, j) for j in range(m + 1)]


def convergent_closed(N: int, n: int) -> ConvergentPair:
    """Convergent from the closed coefficient formulas; identical to
    ``convergent_rec`` for every index."""
    HBKey(N, 1, n)  # N >= 1 and n >= 0, both ints
    if n == 0:
        return ConvergentPair(0, Poly([1]), Poly([1]), N)
    odd = n % 2
    m = (n + odd) // 2
    return ConvergentPair(n, Poly(_p_list(N, m, odd)), Poly(_q_list(N, m, odd)), N)


def _series_row(N: int, n: int, store: MemoStore) -> CommonDenominator:
    """The parameter-N values at 0..n, or at 0..k for some k > n, over their
    lcm, kept on `store` under ("row", N, 1): kept empty the first time, and
    grown in place with ``extend`` from the oracle's walk whenever `n` is past
    its end, so each walk rescales the held numerators at most once.  Callers
    share it, read it, and may see it grow at its end."""
    HBKey(N, 1, n)  # checks the indices before the store is read
    kept = store.kept(("row", N, 1), CommonDenominator, ())
    if len(kept.nums) <= n:
        row: list[Fraction] = []
        hb_higher(N, 1, n, store, row)
        kept.extend(row[len(kept.nums) :])
    return kept


def _against_series(nums: list[int], series: CommonDenominator, h: int) -> int:
    """x^h coefficient of C(x) S(x), for C with coefficients ``nums`` over
    some denominator d and S with coefficients B_{N,i}/i! (the values in
    ``series``), times h! * series.den * d: the integer sum over j <= h of
    C_j falling(h, j) B_{N,h-j}, as h!/(h-j)! = falling(h, j).  It reads
    ``series`` at indices <= h only."""
    width = min(h + 1, len(nums))
    falls = accumulate(range(h, h + 1 - width, -1), mul, initial=1)
    return sum(map(mul, map(mul, nums[:width], falls), series.nums[h::-1]))


def approximation_defect(pair: ConvergentPair, store: MemoStore | None = None) -> Series:
    """The series Q_n S - P_n truncated at x^{n+1}, where S is the generating
    series of the parameter-N numbers; identically zero because the convergent
    matches S through order n.

    Coefficient h is one integer sum over the row's, Q's and P's common
    denominators and h!, reduced once."""
    store = MemoStore() if store is None else store
    series = _series_row(pair.N, pair.n, store)  # N >= 1 and n >= 0, both ints
    q = CommonDenominator(pair.Q.coefficients)
    p = CommonDenominator(pair.P.coefficients)
    coeffs = []
    fact = 1  # h!
    for h in range(pair.n + 1):
        fact *= h or 1
        scale = fact * series.den * q.den
        p_h = p.nums[h] if h < len(p.nums) else 0
        num = _against_series(q.nums, series, h) * p.den - p_h * scale
        coeffs.append(Fraction(num, scale * p.den))
    return Series(tuple(coeffs))


def _p_at(N: int, n: int, odd: int, h: int, store: MemoStore) -> int:
    """x^h coefficient of P_{2n-odd}, from the list kept on `store`."""
    p = store.kept(("P", N, n, odd), _p_list, N, n, odd)
    return p[h] if h <= n else 0


def _check_indices(N: int, n: int, h: int) -> None:
    """Refuse N < 1, n < 1 and an N, n or h that is a bool or not an int,
    before h is compared or a store is read."""
    HBKey(N, 1, n)
    if type(h) is not int:
        raise ValueError(f"h must be an int, got {h!r}")
    if n < 1:
        raise ValueError("n must be >= 1")


def _identity(
    N: int, n: int, h: int, odd: int, store: MemoStore | None, classical: bool = False
) -> tuple[Fraction, Fraction]:
    """Both sides of the x^h coefficient of Q_{2n-odd} S = P_{2n-odd}, each
    reduced once: the left side sums Q's coefficients against the series of
    the parameter-N numbers, the right side is P's coefficient.  For a
    classical variant both are divided by (2n-h+1-odd)! first."""
    _check_indices(N, n, h)
    if h < 0:
        raise ValueError("h must be >= 0")
    store = MemoStore() if store is None else store
    series = _series_row(N, h, store)
    q = store.kept(("Q", N, n, odd), _q_list, N, n, odd)
    scale = factorial(2 * n - h + 1 - odd) if classical else 1
    lhs = Fraction(_against_series(q, series, h), factorial(h) * series.den * scale)
    return lhs, Fraction(_p_at(N, n, odd, h, store), scale)


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


def _reduced_weights(variant: str, n: int, top: int) -> tuple[int, list[int]]:
    """``(L, nums)``: the weights of B_{h-k}/(h-k)!, k = 0..top, in the left
    side of a reduced classical variant at index n, over their lcm L.  A
    weight depends on n and k only, so one list serves every h <= top."""
    weights: list[Fraction | int] = [0] * (top + 1)
    if variant == "even-reduced":
        # one term for each k: k = 2j, k = 1, and k = 2j+1 with j >= 1
        for j in range(top // 2 + 1):
            weights[2 * j] = Fraction(factorial(2 * n - 2 * j + 1) * binom(n, 2 * j), 2 * j + 1)
        weights[1] = Fraction(factorial(2 * n), 2)
        for j in range(1, (top - 1) // 2 + 1):
            weights[2 * j + 1] = Fraction(
                factorial(2 * n - 2 * j) * binom(n - j - 1, j) * binom(n, j),
                4 * (2 * j + 1) * binom(2 * j - 1, j),
            )
    else:  # odd-reduced
        for j in range(top // 2 + 1):
            weights[2 * j] = Fraction(
                factorial(j) ** 2 * factorial(2 * n - 2 * j) * binom(n, j) * binom(n - j - 1, j),
                factorial(2 * j + 1),
            )
    return _over_lcm(weights)


def classical_identity(
    variant: str, n: int, h: int, store: MemoStore | None = None
) -> tuple[Fraction, Fraction]:
    """Classical (N = 1) specializations of the identity families.

    ``even`` / ``odd`` divide the N = 1 identities by (2n-h+1)! resp.
    (2n-h)!, turning the products into factorial ratios; they hold for
    h <= 2n resp. h <= 2n-1.  ``even-reduced`` / ``odd-reduced`` replace the
    inner alternating sums by their closed forms split on the parity of j;
    these hold on the wider ranges 1 <= h <= 2n+1 resp. 1 <= h <= 2n (the
    extension leans on the falling-factorial binomial conventions).  Their
    right side is P_{2n} resp. P_{2n-1}'s x^h coefficient at N = 1.
    """
    if variant not in CLASSICAL_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {CLASSICAL_VARIANTS}")
    _check_indices(1, n, h)

    if variant == "even" or variant == "odd":
        odd = int(variant == "odd")
        # factorial (2n - h + 1 - odd)! must exist
        if h < 0 or h > 2 * n + 1 - odd:
            raise ValueError(f"variant {variant!r} needs 0 <= h <= {2 * n + 1 - odd}")
        # at N = 1 each product prod_{l=k+1..t} (1+l) is (t+1)!/(k+1)!, so
        # dividing by the largest of the (t+1)! leaves factorial ratios
        return _identity(1, n, h, odd, store, classical=True)

    if variant == "even-reduced" and not 1 <= h <= 2 * n + 1:
        raise ValueError("variant 'even-reduced' needs 1 <= h <= 2n+1")
    if variant == "odd-reduced" and not 1 <= h <= 2 * n:
        raise ValueError("variant 'odd-reduced' needs 1 <= h <= 2n")
    odd = int(variant == "odd-reduced")
    store = MemoStore() if store is None else store
    series = _series_row(1, h, store)
    # built to the variant's widest h
    den, nums = store.kept((variant, n), _reduced_weights, variant, n, 2 * n + 1 - odd)
    lhs = Fraction(_against_series(nums, series, h), factorial(h) * series.den * den)
    return lhs, Fraction(_p_at(1, n, odd, h, store))
