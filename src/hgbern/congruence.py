"""p-adic valuations and Kummer-style congruence checks.

Congruence of rationals mod p^k is taken as ord_p(lhs - rhs) >= k, which
agrees with the usual notion on p-integral values and keeps every check
total.  ``math.inf`` serves as the +infinity marker for ord_p(0) and for the
"exact equality" modulus that appears at N = 1; it is never used in
arithmetic on values.

Every check compares two sides given as unreduced integer pairs
(numerator, positive denominator), and nothing is reduced: the statements
build each side from the Bernoulli value's numerator and denominator times
the statement's factors, and ``congruent`` reads its arguments' numerators
and denominators.  ord_p(a - b) comes from the cross difference
a.num b.den - b.num a.den less ord_p of both denominators, as ord_p is
additive.  A side's residue mod p^k comes after stripping p^w, w = ord_p of
its denominator, from both of its integers: when p^w divides the numerator
the quotient pair has a denominator prime to p and the residue of the
reduced side; otherwise p stays in the reduced denominator and there is no
residue.

Values must be ``numbers.Rational`` (int or ``Fraction``); a float is
refused rather than read as its binary expansion.  When a statement's
hypotheses are violated the checks raise :class:`HypothesisViolation` with
the failed hypothesis named, rather than reporting a meaningless verdict.

The transfer statements check ``ord_threshold``'s hypotheses first, then
N >= 1, their index hypotheses and the threshold on ord_p(N-1), which their
verdict carries; the CLI prints it from there and names the same first error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import inf, prod
from operator import mul

from .exactnum import _rational
from .hbnum import MemoStore, classical, hb

__all__ = [
    "HypothesisViolation",
    "PadicVal",
    "is_prime",
    "ordp",
    "residue",
    "CongruenceVerdict",
    "congruent",
    "kummer_classical",
    "ord_threshold",
    "hb_factorial_congruence",
    "hb_kummer_corollary",
    "hb_kummer_pair",
]

# int, or math.inf for ord_p(0)
PadicVal = int | float


class HypothesisViolation(ValueError):
    """A congruence statement's hypothesis is not met; the message names it."""


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Division by the 13 primes up to 41, then Miller-Rabin to those bases,
    to each of which n is then coprime.

    Deterministic for n < 3317044064679887385961981 by the known bound of the
    witness set (the 12 primes up to 37 pass the composite
    318665857834031151167461); a strong probabilistic test beyond.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def _ord_int(m: int, p: int) -> PadicVal:
    if m == 0:
        return inf
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def _ord_factorial(j: int, p: int) -> int:
    """ord_p(j!) by Legendre's formula."""
    total = 0
    q = p
    while q <= j:
        total += j // q
        q *= p
    return total


def ordp(x: Fraction | int, p: int) -> PadicVal:
    """p-adic valuation of an exact rational; ord_p(0) = inf, negatives allowed."""
    _require_prime(p)
    num, den = _rational(x, "x")
    return _ord_int(num, p) - _ord_int(den, p)


def _require_exponent(k: PadicVal) -> None:
    """k is a nonnegative int (not a bool) or inf."""
    if k != inf and (isinstance(k, bool) or not isinstance(k, int) or k < 0):
        raise ValueError("k must be a nonnegative integer or inf")


def residue(x: Fraction | int, p: int, k: PadicVal) -> int | None:
    """Canonical residue of x in [0, p^k), or None when p divides the
    denominator or k = inf (exact equality, as in a verdict)."""
    _require_prime(p)
    _require_exponent(k)
    num, den = _rational(x, "x")
    return None if k == inf else _residue(num, den, _ord_int(den, p), p, p**k)


def _residue(num: int, den: int, w: int, p: int, mod: int) -> int | None:
    """Residue mod `mod`, a power of p, of num/den, where w = ord_p(den):
    None when p^w does not divide num, so that p stays in the reduced
    denominator; otherwise that of the pair with p^w stripped from both."""
    if w:
        strip = p**w
        if num % strip:
            return None
        num, den = num // strip, den // strip
    return num * pow(den, -1, mod) % mod


@dataclass(frozen=True)
class CongruenceVerdict:
    """Outcome of a mod-p^k comparison of two exact rationals.

    ``modulus_exponent`` may be inf, in which case the check demanded exact
    equality and the residues are omitted.  Residues are also omitted when a
    side has p in its denominator.  ``threshold`` is the bound on ord_p(N-1)
    that a transfer statement required, and None for every other check.
    """

    holds: bool
    p: int
    modulus_exponent: PadicVal
    difference_ord: PadicVal
    lhs_residue: int | None
    rhs_residue: int | None
    threshold: int | None = None

    def __bool__(self) -> bool:
        return self.holds


def congruent(a: Fraction | int, b: Fraction | int, p: int, k: PadicVal) -> CongruenceVerdict:
    """Check a ≡ b (mod p^k), i.e. ord_p(a - b) >= k.

    ``k = inf`` demands exact equality; ``k = 0`` merely checks that the
    difference is p-integral.
    """
    _require_prime(p)
    _require_exponent(k)
    (an, ad), (bn, bd) = _rational(a, "a"), _rational(b, "b")
    return _verdict(an, ad, bn, bd, p, k)


def _verdict(
    an: int, ad: int, bn: int, bd: int, p: int, k: PadicVal, threshold: int | None = None
) -> CongruenceVerdict:
    """The verdict on an/ad ≡ bn/bd (mod p^k), each side an unreduced pair
    with a positive denominator, for a checked prime p and exponent k,
    carrying a transfer statement's `threshold`.

    ord_p(a - b) is ord_p(an bd - bn ad) - ord_p(ad) - ord_p(bd).  The
    cross difference goes through the public ``ordp``, one call per verdict,
    which the benchmark's traced ``congruence.ordp`` span counts.
    """
    wa, wb = _ord_int(ad, p), _ord_int(bd, p)
    diff_ord = ordp(an * bd - bn * ad, p)
    if diff_ord != inf:
        diff_ord -= wa + wb
    if k == inf or k == 0:
        lhs_res = rhs_res = None
    else:
        mod = p**k
        lhs_res, rhs_res = _residue(an, ad, wa, p, mod), _residue(bn, bd, wb, p, mod)
    return CongruenceVerdict(diff_ord >= k, p, k, diff_ord, lhs_res, rhs_res, threshold)


def _require_kummer_indices(p: int, m: int, n: int, nu: int) -> None:
    """Kummer's index hypotheses: m and n positive even, neither divisible by
    p-1, and m ≡ n (mod (p-1) p^nu)."""
    for name, v in (("m", m), ("n", n)):
        if v < 1 or v % 2 != 0:
            raise HypothesisViolation(f"hypothesis {name} positive even violated: {name} = {v}")
        if v % (p - 1) == 0:
            raise HypothesisViolation(
                f"hypothesis {name} ≢ 0 (mod p-1) violated: {v} ≡ 0 (mod {p - 1})"
            )
    step = (p - 1) * p**nu
    if (m - n) % step != 0:
        raise HypothesisViolation(
            f"hypothesis m ≡ n (mod (p-1)p^nu) violated: {m} ≢ {n} (mod {step})"
        )


def _require_threshold(p: int, N: int, need: int) -> None:
    """ord_p(N-1) >= need, with ord_p(0) = inf at N = 1."""
    have = _ord_int(N - 1, p)
    if have < need:
        raise HypothesisViolation(
            f"hypothesis ord_{p}(N-1) >= {need} violated: ord_{p}(N-1) = {have}"
        )


def kummer_classical(
    p: int, m: int, n: int, nu: int, store: MemoStore | None = None
) -> CongruenceVerdict:
    """Kummer's congruence for the classical Bernoulli numbers:

        (1 - p^{m-1}) B_m / m  ≡  (1 - p^{n-1}) B_n / n   (mod p^{nu+1})

    for positive even m, n with m ≡ n (mod (p-1) p^nu) and m, n not
    divisible by p-1."""
    _require_prime(p)
    if nu < 0:
        raise ValueError("nu must be >= 0")
    _require_kummer_indices(p, m, n, nu)
    lhs = _kummer_side(p, m, classical(m, store))
    rhs = _kummer_side(p, n, classical(n, store))
    return _verdict(*lhs, *rhs, p, nu + 1)


def _kummer_side(p: int, m: int, value: Fraction) -> tuple[int, int]:
    """(1 - p^{m-1}) value / m as an unreduced (numerator, denominator) pair."""
    return (1 - p ** (m - 1)) * value.numerator, value.denominator * m


def ord_threshold(p: int, n: int, nu: int, m: int | None = None) -> int:
    """Required lower bound on ord_p(N-1) for the transfer congruences:

        nu + 1 + ord_p(prod_{k=0..m} (1+k)!) + max(ord_p(m), ord_p(n))

    for the pair form (an m < n violates the pair's hypothesis m >= n); the
    single-index form, m omitted, is the pair form at m = n.
    """
    _require_prime(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    if nu < 0:
        raise ValueError("nu must be >= 0")
    m = n if m is None else m
    if m < n:
        raise HypothesisViolation(f"hypothesis m >= n violated: m = {m}, n = {n}")
    fact_ord = sum(_ord_factorial(k + 1, p) for k in range(m + 1))
    return nu + 1 + fact_ord + max(_ord_int(m, p), _ord_int(n, p))


def hb_factorial_congruence(
    p: int, N: int, n: int, store: MemoStore | None = None
) -> CongruenceVerdict:
    """Factorial-ladder comparison with the classical numbers:

        prod_{k=0..n} (N+k)!/N! * B_{N,n}  ≡  prod_{k=0..n} (1+k)! * B_n
                                              (mod p^{ord_p(N-1)}).

    Each (N+k)!/N! is evaluated as (N+1)...(N+k), a running product over k,
    so huge N stays cheap; (1+k)! is the same product at N = 1.  N = 1 turns
    the modulus exponent into inf and the check into exact equality."""
    _require_prime(p)
    if N < 1:
        raise ValueError("N must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    t = _ord_int(N - 1, p)
    value, base = hb(N, n, store), classical(n, store)
    lhs = value.numerator * _ladder(N, n), value.denominator
    rhs = base.numerator * _ladder(1, n), base.denominator
    return _verdict(*lhs, *rhs, p, t)


def _ladder(N: int, n: int) -> int:
    """prod_{k=0..n} (N+k)!/N!, each factor (N+1)...(N+k) one step of a running product."""
    return prod(accumulate(range(N + 1, N + n + 1), mul, initial=1))


def hb_kummer_corollary(
    p: int, N: int, n: int, nu: int, store: MemoStore | None = None
) -> CongruenceVerdict:
    """Direct transfer B_{N,n}/n ≡ B_n/n (mod p^{nu+1}), valid once N is
    p-adically close enough to 1: ord_p(N-1) >= :func:`ord_threshold`."""
    need = ord_threshold(p, n, nu)
    if N < 1:
        raise ValueError("N must be >= 1")
    if n % (p - 1) == 0:
        raise HypothesisViolation(
            f"hypothesis n ≢ 0 (mod p-1) violated: {n} ≡ 0 (mod {p - 1})"
        )
    _require_threshold(p, N, need)
    value, base = hb(N, n, store), classical(n, store)
    lhs = value.numerator, value.denominator * n
    rhs = base.numerator, base.denominator * n
    return _verdict(*lhs, *rhs, p, nu + 1, need)


def hb_kummer_pair(
    p: int, N: int, m: int, n: int, nu: int, store: MemoStore | None = None
) -> CongruenceVerdict:
    """Kummer pairing within the parameter-N family:

        (1 - p^{m-1}) B_{N,m} / m  ≡  (1 - p^{n-1}) B_{N,n} / n  (mod p^{nu+1})

    under the classical hypotheses on (m, n, nu) plus m >= n and the
    valuation threshold on N-1, both from the pair form of
    :func:`ord_threshold`; the verdict's ``threshold`` is that bound."""
    need = ord_threshold(p, n, nu, m=m)
    if N < 1:
        raise ValueError("N must be >= 1")
    _require_kummer_indices(p, m, n, nu)
    _require_threshold(p, N, need)
    lhs = _kummer_side(p, m, hb(N, m, store))
    rhs = _kummer_side(p, n, hb(N, n, store))
    return _verdict(*lhs, *rhs, p, nu + 1, need)
