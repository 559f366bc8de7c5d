"""Hypergeometric Bernoulli numbers from their defining recurrences.

``hb(N, n)`` is n! times the x^n coefficient of the reciprocal of the
confluent hypergeometric function 1F1(1; N+1; x); ``hb_higher(N, r, n)`` is
the analogue for the r-th power of that reciprocal.  Both satisfy linear
recurrences that cost O(n^2) exact operations, which makes this module the
reference oracle: every alternative route in :mod:`altforms`,
:mod:`hessenberg` and :mod:`contfrac` is verified against these values.

Each new value is one integer dot product over a common denominator (the
row's running lcm, times the weights' lcm for r >= 2), reduced once into a
``Fraction``.  For r >= 2 the recurrence weights come from ``weight_row``, the
package's one copy of the r-fold weight row (r - 1 Cauchy products), which
the determinant route in :mod:`hessenberg` reads too; it is rebuilt by every
call that has to compute a value.  ``table`` therefore walks each (N, r)
family once, to its deepest n, and reads every index from the store;
``verify`` takes the whole row from one ``hb_higher(..., row=...)`` walk.
``recurrence_residual`` re-evaluates the relations with one ``Fraction``
operation per term, as a check on that integer inner loop (for r >= 2 it
reads the same weight row).

The cache audit (``MemoStore.mismatches``, behind both the spot audit of
every load and ``cache-audit``) recomputes an r = 1 family with the oracle's
own recurrence, the binomial row stepped by Pascal's rule, and an r >= 2
family with Miller's power recurrence for the (-r)-th power of 1F1(1; N+1;
x) (``_power_row``).  At r >= 2 it calls none of the oracle's row functions
(``_row``, ``weight_row``, ``cauchy_product``); it shares only the
``CommonDenominator`` holder.  So a wrong weight row fails the audit there
instead of being rerun by it.  At r = 1 Miller's walk costs about twice
the Pascal row at n <= 60, three times at n = 200 and five times at
n = 400, so the audit keeps the oracle's walk there.

A :class:`MemoStore` caches values by (N, r, n), optionally in a text file;
its keys are :class:`HBKey` tuples, so hashing, lookups and sorting run in C.
``hb`` and ``hb_higher`` return a stored value directly and walk the row only
when the requested key is missing.  ``common_row`` gives a family's row over
its lcm as a ``CommonDenominator``; with a store it keeps that row on the
store, builds it once and extends it with ``append`` when a longer prefix is
asked for, so the checks in :mod:`contfrac` read it without rebuilding it.
There is no default store: values are reused across calls only through a
store the caller passes, and a call without one computes its whole row with
no store at all, building, reading and storing no key.  Loading checks every
record of the file but decodes a value only when it is first read, and
refuses a value that conflicts with one the store already holds, so a kept
row never goes stale under a load.  A file in the form ``save`` writes is
checked by one whole-file pattern and split in one pass; any other file is
checked line by line.  The pattern accepts only files the line-by-line check
accepts, and reads the same records from them.  Saving writes only when an
entry was added or a value changed, keeps what another store saved since,
and writes values that were never read back as they were read.

At N = 1 the numbers reduce to the classical Bernoulli numbers
(convention B_1 = -1/2).
"""

from __future__ import annotations

import io
import os
import random
import re
import sys
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import comb, factorial
from operator import add, mul
from pathlib import Path

from .exactnum import (
    CommonDenominator,
    _int_text,
    _text_int,
    binom,
    cauchy_product,
    check_rational,
    format_rational,
    parse_rational,
    rising,
)

__all__ = [
    "CacheError",
    "HBKey",
    "Series",
    "MemoStore",
    "weight_row",
    "hb",
    "classical",
    "signed_variant",
    "hb_higher",
    "common_row",
    "hb_series",
    "recurrence_residual",
]


class CacheError(ValueError):
    """A cache file is malformed or disagrees with fresh recomputation."""


class HBKey(namedtuple("HBKey", "N r n")):
    """Index triple (N, r, n) of a higher-order hypergeometric Bernoulli number.

    A ``tuple``, so hashing, equality and order are the plain tuple
    ``(N, r, n)``'s, computed in C, and a key equals that tuple.
    """

    __slots__ = ()

    def __new__(cls, N: int, r: int, n: int) -> HBKey:
        if N < 1:
            raise ValueError("N must be >= 1")
        if r < 1:
            raise ValueError("r must be >= 1")
        if n < 0:
            raise ValueError("n must be >= 0")
        return tuple.__new__(cls, (N, r, n))


@dataclass(frozen=True)
class Series:
    """Truncated power series: coefficients[i] is the x^i coefficient, plus O(x^order)."""

    coefficients: tuple[Fraction, ...]
    order: int

    def __post_init__(self) -> None:
        if len(self.coefficients) != self.order:
            raise ValueError("a series carries exactly `order` coefficients")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)


class MemoStore:
    """Cache of computed values keyed by (N, r, n), optionally file backed.

    File records are whitespace-separated lines ``N r n num/den`` in any
    order.  ``load`` checks every record (the key, and a ``num[/den]``
    literal with a nonzero denominator) but keeps each value as its text
    until ``get``, ``items`` or ``audit`` first reads it.  Duplicate keys
    must carry equal values or loading fails; they are decoded and compared
    only when their texts differ, and so are a file's values against the
    ones a non-empty store already holds.  ``save`` writes only when an entry
    was added or a value changed since the last load or save, and writes a
    value that was never decoded back as the text it was read from.

    The store also keeps the rows ``common_row`` built from its values, one
    per (N, r) family, and the integer coefficient lists of the convergent
    denominators Q_{2n-odd} that the identity checks of :mod:`contfrac` read,
    one per (N, n, odd).  Both are derived data: ``items``, ``len`` and the
    saved file never show them.  ``put`` drops a family's kept row when it
    changes a value inside it and leaves the Q lists alone, which depend on
    no stored value.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        # a loaded value stays the file's text until it is first read
        self._values: dict[HBKey, Fraction | str] = {}
        self._unsaved = False  # an entry added or a value changed since load or save
        self._seen: tuple[int, int, int] | None = None  # the file as last loaded or saved
        # (N, r) -> that family's values 0..k over their lcm; never changed in
        # place, so a reader keeps a consistent row while another call grows it
        self._rows: dict[tuple[int, int], CommonDenominator] = {}
        # (N, n, odd) -> the coefficients x^0..x^n of Q_{2n-odd}, kept by contfrac
        self._q_lists: dict[tuple[int, int, int], list[int]] = {}

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, key: HBKey) -> bool:
        return key in self._values

    def get(self, key: HBKey) -> Fraction | None:
        value = self._values.get(key)
        return self._decode(key) if isinstance(value, str) else value

    def _decode(self, key: HBKey) -> Fraction:
        value = self._values[key] = _fraction(self._values[key])
        return value

    def put(self, key: HBKey, value: Fraction) -> None:
        if key not in self._values or self._decode(key) != value:
            self._values[key] = value
            self._unsaved = True
            if self._rows:  # drop the family's kept row if it holds this index
                kept = self._rows.get(key[:2])
                if kept is not None and key.n < len(kept.nums):
                    self._rows.pop(key[:2], None)

    def items(self) -> list[tuple[HBKey, Fraction]]:
        return sorted((key, self._decode(key)) for key in self._values)

    def load(self, audit_samples: int = 3, rng: random.Random | None = None) -> int:
        """Read and check the backing file, then spot-audit a few random entries.

        A file in the form ``save`` writes (``N r n num/den`` lines with single
        spaces, ASCII digits, keys without leading zeros, a nonzero
        denominator and no key twice) is checked by one whole-file pattern and
        split in one pass; any other file is read line by line, the one
        definition of which files are accepted, which reports each error at its
        line.  Both give the same records in the same order.

        A record whose key the store already holds must carry an equal value.

        Returns the number of records read.  Raises :class:`CacheError` on
        malformed lines, conflicting duplicates, a value that conflicts with
        the store's, or an audit mismatch.
        """
        if self.path is None:
            raise CacheError("store has no backing file")
        # stat'ed before reading: a newer file read under it only costs a merge
        version = _version(self.path)
        data = self.path.read_bytes()
        loaded = _saved_records(data)
        if loaded is None:
            loaded = self._read_lines(data)
        if self._values:  # a fresh store has nothing to conflict with
            key = self._conflict(loaded)
            if key is not None:
                raise CacheError(
                    f"{self.path}: {_key_text(key)} conflicts with the value the store holds"
                )
        self._values.update(loaded)
        self._unsaved = len(self._values) > len(loaded)
        self._seen = version
        self.audit(samples=audit_samples, rng=rng, keys=list(loaded))
        return len(loaded)

    def _read_lines(self, data: bytes) -> dict[HBKey, Fraction | str]:
        """The records in `data`, the backing file's bytes, read and checked
        line by line: the one definition of the record format and its errors.
        Lines are UTF-8 text and end at ``\n``, ``\r\n`` or ``\r``."""
        try:
            decoded = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = data[: exc.start].decode("utf-8")
            lineno = head.count("\n") + head.count("\r") - head.count("\r\n") + 1
            raise CacheError(
                f"{self.path}:{lineno}: not UTF-8 text: byte 0x{data[exc.start]:02x} "
                f"({exc.reason})"
            ) from exc
        loaded: dict[HBKey, Fraction | str] = {}
        for lineno, line in enumerate(io.StringIO(decoded, newline=None), start=1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 4:
                raise CacheError(f"{self.path}:{lineno}: expected 'N r n num/den'")
            text = fields[3]
            try:
                key = HBKey(*map(_text_int, fields[:3]))
                check_rational(text)
            except ValueError as exc:
                raise CacheError(f"{self.path}:{lineno}: {exc}") from exc
            known = loaded.setdefault(key, text)
            if known != text:
                value = parse_rational(text)
                if _fraction(known) != value:
                    raise CacheError(
                        f"{self.path}:{lineno}: duplicate key {_key_text(key)} "
                        "with conflicting values"
                    )
                loaded[key] = value
        return loaded

    def save(self) -> None:
        """Write every entry, sorted by key, if an entry was added or a value
        changed since the last load or save; the file is replaced atomically.

        If the file changed since this store last loaded or saved it, its
        records are loaded again and the keys this store lacks are added; a
        conflicting value raises :class:`CacheError` and writes nothing.  A
        store that never loaded or saved the file overwrites it.  A save by
        another store between this check and the rename is still lost.
        """
        if self.path is None:
            raise CacheError("store has no backing file")
        if not self._unsaved:
            return
        if self._seen is not None and _version(self.path) not in (None, self._seen):
            disk = MemoStore(self.path)
            disk.load(audit_samples=0)
            key = self._conflict(disk._values)
            if key is not None:
                raise CacheError(f"{self.path}: {_key_text(key)} was saved with another value")
            self._values = {**disk._values, **self._values}
        # write a sibling file, then rename it over the old one, so a crash
        # mid-save leaves the previous cache intact
        tmp = self.path.with_name(f".{self.path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                for k in sorted(self._values):
                    v = self._values[k]
                    text = v if isinstance(v, str) else format_rational(v)
                    fh.write(f"{_key_text(k)} {text}\n")
            self._seen = _version(tmp)  # the rename keeps it; a later stat may see another save
            os.replace(tmp, self.path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self._unsaved = False

    def _conflict(self, records: dict[HBKey, Fraction | str]) -> HBKey | None:
        """The first key of `records` that the store holds with another value."""
        for key, value in records.items():
            mine = self._values.get(key)
            if mine is not None and mine != value and _fraction(mine) != _fraction(value):
                return key
        return None

    def audit(
        self,
        samples: int = 3,
        rng: random.Random | None = None,
        keys: list[HBKey] | None = None,
    ) -> list[HBKey]:
        """Recompute a few randomly chosen entries from scratch, through
        ``mismatches``; raise on the first mismatch drawn.

        Without `rng` the draw comes from ``random.Random(0)``, so the same
        keys in the same order always draw the same entries.  An r >= 2 entry
        is recomputed by Miller's power recurrence, not by the weight-row
        recurrence that wrote it.
        """
        pool = list(keys) if keys is not None else list(self._values)
        rng = rng if rng is not None else random.Random(0)
        chosen = rng.sample(pool, min(samples, len(pool)))
        found = self.mismatches(chosen)
        if found:
            key, stored, expected = found[0]
            raise CacheError(
                f"cache audit failed at {_key_text(key)}: stored "
                f"{format_rational(stored)}, recomputed {format_rational(expected)}"
            )
        return chosen

    def mismatches(self, keys: list[HBKey]) -> list[tuple[HBKey, Fraction, Fraction]]:
        """Recompute the entries at `keys` from scratch, walking each (N, r)
        family's row once, to its largest n asked; returns (key, stored,
        recomputed) for each entry that differs, in the order of `keys`.

        An r = 1 family is walked by the oracle's recurrence (``_row``, its
        binomial row stepped by Pascal's rule), an r >= 2 family by Miller's
        power recurrence (``_power_row``), which reads no weight row: a wrong
        r-fold weight row in the oracle shows here as a mismatch."""
        tops: dict[tuple[int, int], int] = {}
        for key in keys:
            tops[key.N, key.r] = max(tops.get((key.N, key.r), 0), key.n)
        rows = {
            (N, r): _row(N, r, top, None) if r == 1 else _power_row(N, r, top)
            for (N, r), top in tops.items()
        }
        found = []
        for key in keys:
            stored, expected = self._decode(key), rows[key.N, key.r][key.n]
            if stored != expected:
                found.append((key, stored, expected))
        return found


# A whole file in the form `save` writes: one `N r n num/den` record per line,
# single spaces, ASCII digits, keys without leading zeros (so N, r >= 1) and a
# denominator with a nonzero digit.  Each record can match in one way only, so
# a file that fails is not matched again through its earlier records.
_SAVED_FILE = re.compile(
    rb"(?:[1-9][0-9]* [1-9][0-9]* (?:0|[1-9][0-9]*) -?[0-9]+/0*[1-9][0-9]*\n)*"
)


def _saved_records(data: bytes) -> dict[HBKey, Fraction | str] | None:
    """The records of a file's bytes if they are in the form `save` writes
    and hold no key twice, read in one pass; None for any other file, which
    ``MemoStore._read_lines`` reads and checks line by line.  Every file read
    here holds exactly the records that loop would return."""
    if _SAVED_FILE.fullmatch(data) is None:
        return None
    fields = data.decode("ascii").split()
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit and max(map(len, fields), default=0) > limit:
        return None  # int() may refuse a field this long; the loop says where
    columns = (map(int, fields[i::4]) for i in range(3))
    # the pattern has checked N, r >= 1 and n >= 0, so keys skip HBKey.__new__
    keys = map(tuple.__new__, repeat(HBKey), zip(*columns))
    records: dict[HBKey, Fraction | str] = dict(zip(keys, fields[3::4]))
    return records if 4 * len(records) == len(fields) else None


def _key_text(key: HBKey) -> str:
    """``N r n`` as a record starts, at any length."""
    try:
        return "%d %d %d" % key
    except ValueError:  # a field past the int/str digit limit
        return " ".join(map(_int_text, key))


def _fraction(value: Fraction | str) -> Fraction:
    """A stored value, decoding the file's text if it was not read yet."""
    return parse_rational(value) if isinstance(value, str) else value


def _version(path: Path) -> tuple[int, int, int] | None:
    """Inode, size and modification time of the file at `path`; None if there is none."""
    try:
        stat = os.stat(path)
    except FileNotFoundError:
        return None
    return stat.st_ino, stat.st_size, stat.st_mtime_ns


def weight_row(N: int, r: int, upto: int) -> list[Fraction]:
    """Weights for e = 0..upto: entry e collects (N!)^r / ((N+i_1)! ... (N+i_r)!)
    over nonnegative r-part compositions of e, computed as an r-fold Cauchy
    power of 1/((N+1)...(N+j)) so huge N stays factorial-free."""
    base = [Fraction(1, rising(N + 1, j)) for j in range(upto + 1)]
    row = base
    for _ in range(r - 1):
        row = cauchy_product(row, base)
    return row


def _row(N: int, r: int, n: int, store: MemoStore | None) -> list[Fraction]:
    """Values for indices 0..n of the (N, r) family, consulting and filling
    `store`; without one, every value is computed and no key is built.

    From the first value that must be computed on, the row is also kept over
    its running common denominator (and the weights over theirs), so each new
    value is one integer dot product reduced once into a ``Fraction``.
    """
    HBKey(N, r, n)  # checks the indices once, for the storeless walk too
    row: list[Fraction] = []
    known: CommonDenominator | None = None
    binoms: list[int] = []  # binom(N+m, k) for k <= m, at the last computed m
    weights: CommonDenominator | None = None
    for m in range(n + 1):
        if store is None:
            value = None
        else:
            key = HBKey(N, r, m)
            value = store.get(key)
        if value is None:
            if m == 0:
                value = Fraction(1)
            else:
                if known is None:
                    known = CommonDenominator(row)
                if r == 1:
                    # sum_{k <= m} binom(N+m, k) B_{N,k} = 0, solved for the top term
                    if len(binoms) == m:  # index m-1's row: step it by Pascal's rule
                        binoms = [1, *map(add, binoms[1:], binoms)]
                        binoms.append(binoms[-1] * (N + 1) // m)
                    else:
                        binoms = [comb(N + m, k) for k in range(m + 1)]
                    acc = sum(map(mul, known.nums, binoms))
                    value = Fraction(-acc, known.den * binoms[m])
                else:
                    # sum_{k <= m} (m!/k!) w_{m-k} B_k = 0 with w_0 = 1, solved
                    # for B_m.  k runs down from m-1, pairing B_k with w_{m-k}
                    # and m!/k! = falling(m, m-k), the running product m(m-1)...
                    if weights is None:
                        weights = CommonDenominator(weight_row(N, r, n))
                    falls = accumulate(range(m, 0, -1), mul)
                    terms = map(mul, map(mul, reversed(known.nums), falls), weights.nums[1:])
                    value = Fraction(-sum(terms), known.den * weights.den)
            if store is not None:
                store.put(key, value)
        row.append(value)
        if known is not None:
            known.append(value)
    return row


def _power_row(N: int, r: int, n: int) -> list[Fraction]:
    """Values for indices 0..n of the (N, r) family by Miller's power
    recurrence (Knuth, TAOCP vol. 2, section 4.7); reads no store and calls
    none of ``_row``, ``weight_row`` and ``cauchy_product``.

    The coefficients g_m = B_m / m! of F^(-r), where F has the coefficients
    F_k = 1 / rising(N+1, k), satisfy m g_m = sum_{k=1..m} ((1-r)k - m)
    F_k g_{m-k}; times (m-1)! that is B_m = sum_k ((1-r)k - m)
    falling(m-1, k-1) B_{m-k} / rising(N+1, k).  The g's are kept over
    their running lcm L.  Over rising(N+1, m), F_k is the integer
    (N+k+1)...(N+m), so each g_m is one integer sum over m L rising(N+1, m),
    reduced once.
    """
    g = CommonDenominator([1])
    row = [Fraction(1)]
    scale = 1  # rising(N+1, m)
    fact = 1  # m!
    for m in range(1, n + 1):
        scale *= N + m
        fact *= m
        # x[j] = L g_j (N+m-j+1)...(N+m), the k = m-j term without its
        # coefficient (1-r)(m-j) - m = (r-1) j - r m
        x = list(map(mul, g.nums, accumulate(range(N + m, N + 1, -1), mul, initial=1)))
        acc = (r - 1) * sum(map(mul, x, range(m))) - r * m * sum(x)
        coefficient = Fraction(acc, m * g.den * scale)
        g.append(coefficient)
        row.append(coefficient * fact)
    return row


def common_row(N: int, r: int, n: int, store: MemoStore | None = None) -> CommonDenominator:
    """The (N, r) family's values at 0..n, or at 0..k for some k > n, over
    their lcm.

    Without a store the row is walked and built afresh.  With one, the row is
    kept on the store: it is built once, a longer `n` extends a copy of it
    with ``append`` from one walk of the row (which computes only the missing
    values), and a shorter `n` reuses it as it is.  The returned row is
    shared; callers read it, never change it.
    """
    HBKey(N, r, n)  # checks the indices, also where n < 0 leaves nothing to walk
    if store is None:
        return CommonDenominator(_row(N, r, n, None))
    family = (N, r)
    kept = store._rows.get(family)
    if kept is not None and len(kept.nums) > n:
        return kept
    values = _row(N, r, n, store)
    if kept is None:
        grown = CommonDenominator(values)
    else:
        grown = CommonDenominator(())
        grown.nums, grown.den = kept.nums[:], kept.den
        for value in values[len(kept.nums) :]:
            grown.append(value)
    store._rows[family] = grown
    return grown


def _cached_or_row(N: int, r: int, n: int, store: MemoStore | None) -> Fraction:
    """The cached value at (N, r, n), else the top of its freshly walked row."""
    key = HBKey(N, r, n)
    # probe with `in`: on a miss the walk gets every key once, this one included
    if store is not None and key in store:
        return store.get(key)
    return _row(N, r, n, store)[n]


def hb(N: int, n: int, store: MemoStore | None = None) -> Fraction:
    """Hypergeometric Bernoulli number for parameter N at index n.

    Defined by B_0 = 1 and the recurrence sum_{m<=n} binom(N+n, m) B_m = 0
    for n >= 1.
    """
    return _cached_or_row(N, 1, n, store)


def classical(n: int, store: MemoStore | None = None) -> Fraction:
    """Classical Bernoulli number B_n (generating function x/(e^x - 1), B_1 = -1/2)."""
    return hb(1, n, store)


def signed_variant(n: int, store: MemoStore | None = None) -> Fraction:
    """Bernoulli numbers of x/(1 - e^{-x}); equals (-1)^n times ``classical(n)``."""
    return (-1) ** n * classical(n, store)


def hb_higher(
    N: int, r: int, n: int, store: MemoStore | None = None, row: list[Fraction] | None = None
) -> Fraction:
    """Order-r value: n! times the x^n coefficient of the r-th power of the
    base generating function; reduces to ``hb`` at r = 1.

    If `row` is given, the values at 0..n are appended to it from one walk of
    the family's row, stored values included.
    """
    if row is None:
        return _cached_or_row(N, r, n, store)
    row += _row(N, r, n, store)
    return row[-1]


def hb_series(N: int, r: int, order: int, store: MemoStore | None = None) -> Series:
    """Truncated generating series: coefficient i is the index-i value over i!."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if N < 1 or r < 1:
        raise ValueError("N and r must be >= 1")
    row = _row(N, r, order - 1, store)
    return Series(tuple(v / factorial(i) for i, v in enumerate(row)), order)


def recurrence_residual(N: int, r: int, n: int, store: MemoStore | None = None) -> Fraction:
    """Left side of the defining linear relation at index n; zero for correct values.

    For r = 1 this is sum_{m<=n} binom(N+n, m) B_{N,m}.  For r >= 2 the
    analogous composition-weighted sum is returned rescaled by n! (N!)^r,
    which preserves vanishing while keeping huge N factorial-free.  The sum
    is taken term by term in ``Fraction`` arithmetic, independently of the
    common-denominator inner loop that computes the row, so a zero here
    checks that loop rather than restating it (for r >= 2 both read the
    same weight row).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    row = _row(N, r, n, store)
    if r == 1:
        acc = Fraction(0)
        for m in range(n + 1):
            acc += binom(N + n, m) * row[m]
        return acc
    weights = weight_row(N, r, n)
    acc = Fraction(0)
    for m in range(n + 1):
        acc += row[m] * weights[n - m] / factorial(m)
    return factorial(n) * acc
