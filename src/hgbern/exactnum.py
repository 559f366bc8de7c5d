"""Exact arithmetic primitives shared by every computation route.

Rational values are plain :class:`fractions.Fraction` objects (automatically
kept in lowest terms with a positive denominator); this module adds the
``num/den`` serialization used in cache files and tables, the factorial-style
products and coefficient families every closed form consumes, and the two
enumerators the explicit summation routes run over: weak compositions (parts
>= 0, as ``mr`` sums them) and partitions written as plain tuples of
multiplicities (as Trudi's formula sums them).

``cauchy_product`` is the oracle's weight kernel: it takes integer
numerators already over their denominators and returns integers, so it
builds no ``Fraction`` at all.  The module holds primitives only: the lcm
holder of the routes and checks is ``hessenberg.CommonDenominator``, and
the oracle in :mod:`hbnum` keeps its row over its lcm itself, so no route
or check shares an arithmetic helper with the oracle.

``HBKey``, the (N, r, n) index triple, is the one index guard of the
package: the oracle and its store, the routes of :mod:`altforms` and
:mod:`hessenberg` and the checks of :mod:`contfrac` each build one before
any work, so a bool or a float index is refused everywhere alike.

No floating point anywhere: everything works on ``int`` and ``Fraction``.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from numbers import Rational
from operator import mul, sub
from typing import Iterator, Sequence

__all__ = [
    "HBKey",
    "format_rational",
    "check_rational",
    "parse_rational",
    "falling",
    "rising",
    "binom",
    "CompositionSpec",
    "enumerate_compositions",
    "enumerate_partition_vectors",
    "cauchy_product",
]


class HBKey(namedtuple("HBKey", "N r n")):
    """Index triple (N, r, n) of a higher-order hypergeometric Bernoulli number.

    A ``tuple``, so hashing, equality and order are the plain tuple
    ``(N, r, n)``'s, computed in C, and a key equals that tuple.  Each index
    must therefore be an int, and not a bool: a float or a bool would hash
    equal to an int key and read that key's value or kept data in a store.
    It is the one index guard of the oracle, the routes and the checks, and
    it lives here, beside the other primitives, so that the routes can build
    one without importing the oracle's module.
    """

    __slots__ = ()

    def __new__(cls, N: int, r: int, n: int) -> HBKey:
        if type(N) is not int or type(r) is not int or type(n) is not int:
            for field, value in zip(cls._fields, (N, r, n)):
                if type(value) is not int:
                    raise ValueError(f"{field} must be an int, got {value!r}")
        if N < 1:
            raise ValueError("N must be >= 1")
        if r < 1:
            raise ValueError("r must be >= 1")
        if n < 0:
            raise ValueError("n must be >= 0")
        return tuple.__new__(cls, (N, r, n))


_RATIONAL_RE = re.compile(r"\A([+-]?\d+)(?:/([+-]?\d+))?\Z")

# Python's int <-> str conversion refuses more digits than a per-process limit
# (4300 by default, where the interpreter has one; never below 640).  Longer
# integers are converted in halves, so library callers need not lift the limit
# for the whole process.
_DIGITS_ALWAYS_CONVERTED = 640


def _int_text(n: int) -> str:
    """``str(n)`` at any length."""
    try:
        return str(n)
    except ValueError:
        pass
    sign, n = ("-", -n) if n < 0 else ("", n)
    # 10**k <= n, so the high half is nonzero and the text has no leading zero
    k = int((n.bit_length() - 1) * 0.30102999566398) // 2
    high, low = divmod(n, 10**k)
    return sign + _int_text(high) + _int_text(low).zfill(k)


def _text_int(text: str) -> int:
    """``int(text)`` at any length, for a ``[+-]?digits`` literal."""
    try:
        return int(text)
    except ValueError:
        digits = text[1:] if text[:1] in ("+", "-") else text
        if len(digits) <= _DIGITS_ALWAYS_CONVERTED:
            raise
        # past the limit int() reports the length before the literal; a split
        # must not meet a sign or "_", so anything but digits is refused here
        if not digits.isdecimal():
            raise ValueError(f"invalid literal for int() with base 10: {text!r:.200}") from None
    k = len(digits) // 2
    value = _text_int(digits[:-k]) * 10**k + _text_int(digits[-k:])
    return -value if text.startswith("-") else value


def format_rational(value: Fraction | int) -> str:
    """Render a rational as ``num/den`` in lowest terms; ``/1`` stays explicit."""
    q = Fraction(value)
    return f"{_int_text(q.numerator)}/{_int_text(q.denominator)}"


def check_rational(text: str) -> None:
    """Raise ``ValueError`` where ``parse_rational`` would, without building the value."""
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    if m.group(2) is not None and _text_int(m.group(2)) == 0:
        raise ValueError(f"zero denominator in {text!r}")


def parse_rational(text: str) -> Fraction:
    """Parse ``num`` or ``num/den`` with an optional sign; denominator must be nonzero."""
    check_rational(text)
    num, _, den = text.strip().partition("/")
    return Fraction(_text_int(num), _text_int(den) if den else 1)


def _rational(x: Fraction | int, name: str) -> tuple[int, int]:
    """Numerator and denominator of x, which must be a ``numbers.Rational``
    (int and ``Fraction`` first: their checks skip the ABC's)."""
    if not isinstance(x, (int, Fraction, Rational)):
        raise ValueError(f"{name} must be a rational number (int or Fraction), got {x!r}")
    return x.numerator, x.denominator


def falling(a: int, k: int) -> int:
    """Falling factorial ``a (a-1) ... (a-k+1)``; the empty product is 1."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return math.prod(range(a, a - k, -1))


def rising(a: int, k: int) -> int:
    """Rising factorial ``a (a+1) ... (a+k-1)``; the empty product is 1."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return math.prod(range(a, a + k))


def binom(a: int, k: int) -> int:
    """Binomial coefficient ``falling(a, k) / k!`` for arbitrary integer ``a``.

    The single falling-factorial definition yields every convention the
    closed forms below rely on: ``binom(n, k) == 0`` for ``0 <= n < k``,
    ``binom(-1, 0) == 1``, and e.g. ``binom(-1, 2) == 1``.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if a >= 0:
        return math.comb(a, k) if k <= a else 0
    # k consecutive integers always contain a multiple of each i <= k,
    # so the division is exact.
    return falling(a, k) // math.factorial(k)


@dataclass(frozen=True)
class CompositionSpec:
    """Weak compositions: ordered decompositions ``total = i_1 + ... + i_parts``
    with each part >= 0."""

    total: int
    parts: int

    def __post_init__(self) -> None:
        if self.total < 0:
            raise ValueError("total must be >= 0")
        if self.parts < 1:
            raise ValueError("parts must be >= 1")

    def count(self) -> int:
        """Closed-form number of compositions (stars and bars)."""
        return math.comb(self.total + self.parts - 1, self.parts - 1)


def enumerate_compositions(spec: CompositionSpec) -> Iterator[tuple[int, ...]]:
    """Yield the weak compositions of ``spec`` in lexicographic order.

    Stars and bars: the partial sums ``c_1 <= ... <= c_{parts-1}`` of a
    composition determine it, and they run through
    ``combinations_with_replacement`` in lexicographic order, which the map
    from partial sums to parts preserves.
    """
    total = spec.total
    head, tail = (0,), (total,)
    for cuts in combinations_with_replacement(range(total + 1), spec.parts - 1):
        # (*...,) sizes the tuple exactly; tuple(map(...)) would resize a
        # 10-slot tuple, stranding one per item on the per-size free lists
        yield (*map(sub, cuts + tail, head + cuts),)


def enumerate_partition_vectors(m: int) -> Iterator[tuple[int, ...]]:
    """Yield every partition of m as its multiplicity tuple ``(t_1, ..., t_m)``,
    ``t_i`` parts of size i, so ``sum(i * t_i) == m``; in lexicographic order.

    A depth-first walk in one generator frame that keeps its own stack of the
    multiplicities of the parts below the current one, so no tuple is handed
    up through nested generators.  A multiplicity of the current part whose
    rest larger parts can fill leads one part deeper; the first one whose
    rest they cannot fill is the last, and it completes a partition when one
    more of the current part takes up exactly that rest."""
    if m < 1:
        raise ValueError("m must be >= 1")
    acc: list[int] = []  # multiplicities of parts 1..part-1
    part, t, remaining = 1, 0, m  # t parts of size `part`; `remaining` is for parts >= part
    while True:
        rest = remaining - part * t
        if rest > part:
            acc.append(t)
            part, t, remaining = part + 1, 0, rest
            continue
        if rest == part:
            yield (*acc, t + 1, *(0,) * (m - part))
        if not acc:
            return
        part -= 1
        t = acc.pop()
        remaining += part * t
        t += 1


def cauchy_product(xs: Sequence[int], ys: Sequence[int]) -> list[int]:
    """Prefix of the Cauchy product of two integer coefficient sequences.

    Entry e is ``sum(xs[i] * ys[e-i])``; the result is truncated to the
    shorter input, matching truncated power-series multiplication.  Each
    entry is one integer dot product; a caller whose inputs are numerators
    over denominators divides by their product, and reduces, itself.
    """
    limit = min(len(xs), len(ys))
    y_reversed = ys[:limit][::-1]
    return [sum(map(mul, xs, y_reversed[limit - 1 - e :])) for e in range(limit)]
