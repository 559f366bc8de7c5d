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

Every public entry point refuses its integer arguments by one rule, stated
here, before any work: a bool or a value that is not an int raises
``ValueError("{name} must be an int, got {value!r}")``, then a value below
its least raises ``ValueError("{name} must be >= {least}")``.  ``HBKey``,
the (N, r, n) index triple, states it for the indices (``_require_index``
for a value route, whose n must be >= 1), and ``_require_int`` for every
other integer argument.  A bool or a float would otherwise be read as an
int, or hash equal to an int key and read that key's value.

A rational value argument must be a ``numbers.Rational`` (int or
``Fraction``): ``_rational`` refuses any other, a float say, rather than
read it as its binary expansion, and ``_require_rationals`` refuses the first
such entry of a row, naming it by its index.  A bool is the int 1 or 0, so
it is accepted as a rational value, where no key reads it, but refused as an
integer argument.

``tests/test_arguments.py`` checks this rule: one table gives every public
callable's valid arguments and the kind of each parameter, each kind its bad
inputs and their messages, and a test fails on a public parameter the table
does not name.

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
    "parse_rational",
    "falling",
    "rising",
    "binom",
    "CompositionSpec",
    "enumerate_compositions",
    "enumerate_partition_vectors",
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


def _require_index(N: int, r: int, n: int) -> None:
    """Refuse the indices of a value route before any work, in ``HBKey``'s
    order (every type, then N, r and n): they must make an ``HBKey``, ints
    and not bools with N, r >= 1, and n must be >= 1."""
    if type(n) is int and n < 1:
        HBKey(N, r, 0)
        raise ValueError("n must be >= 1")
    HBKey(N, r, n)


def _require_int(name: str, value: int, least: int | None = None) -> None:
    """Refuse an integer argument that is not a key field, in ``HBKey``'s
    words: a bool or a value that is not an int, then one below `least`."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")


_RATIONAL_RE = re.compile(r"\A([+-]?[0-9]+)(?:/([+-]?[0-9]+))?\Z")

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
    num, den = _rational(value, "value")
    return f"{_int_text(num)}/{_int_text(den)}"


def parse_rational(text: str) -> Fraction:
    """Parse ``num`` or ``num/den`` with an optional sign and ASCII digits, as
    the cache reader does; the denominator must be nonzero."""
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num, den = m.groups()
    den = _text_int(den) if den is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(_text_int(num), den)


def _rational(x: Fraction | int, name: str) -> tuple[int, int]:
    """Numerator and denominator of x, which must be a ``numbers.Rational``
    (int and ``Fraction`` first: their checks skip the ABC's)."""
    if not isinstance(x, (int, Fraction, Rational)):
        raise ValueError(f"{name} must be a rational number (int or Fraction), got {x!r}")
    return x.numerator, x.denominator


_PLAIN_RATIONALS = frozenset((int, Fraction))


def _require_rationals(values: Sequence[Fraction | int], name: str) -> None:
    """Refuse, as ``_rational`` does, the first of `values` that is not
    rational, naming it ``{name}[i]``.  A row of plain ints and ``Fraction``s,
    the usual one, passes on one look at the entries' types."""
    if not _PLAIN_RATIONALS.issuperset(map(type, values)):
        for i, x in enumerate(values):
            _rational(x, f"{name}[{i}]")


def falling(a: int, k: int) -> int:
    """Falling factorial ``a (a-1) ... (a-k+1)``; the empty product is 1."""
    _require_int("a", a)
    _require_int("k", k, 0)
    return math.prod(range(a, a - k, -1))


def rising(a: int, k: int) -> int:
    """Rising factorial ``a (a+1) ... (a+k-1)``; the empty product is 1."""
    _require_int("a", a)
    _require_int("k", k, 0)
    return math.prod(range(a, a + k))


def binom(a: int, k: int) -> int:
    """Binomial coefficient ``falling(a, k) / k!`` for arbitrary integer ``a``.

    The single falling-factorial definition yields every convention the
    closed forms below rely on: ``binom(n, k) == 0`` for ``0 <= n < k``,
    ``binom(-1, 0) == 1``, and e.g. ``binom(-1, 2) == 1``.
    """
    _require_int("a", a)
    _require_int("k", k, 0)
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
        _require_int("total", self.total, 0)
        _require_int("parts", self.parts, 1)

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
    _require_int("m", m, 1)
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
