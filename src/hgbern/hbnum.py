"""Hypergeometric Bernoulli numbers from their defining recurrences.

``hb(N, n)`` is n! times the x^n coefficient of the reciprocal of the
confluent hypergeometric function 1F1(1; N+1; x); ``hb_higher(N, r, n)`` is
the analogue for the r-th power of that reciprocal.  Both satisfy linear
recurrences that cost O(n^2) exact operations, which makes this module the
reference oracle: every alternative route in :mod:`altforms`,
:mod:`hessenberg` and :mod:`contfrac` is verified against these values.

Each new value is one integer dot product over a common denominator (the
row's running lcm, times the weights' lcm for r >= 2), reduced once into a
``Fraction``; ``_row`` keeps that lcm and the numerators itself, so the
routes and checks, which read only its values, share no lcm holder with it.
For r >= 2 the recurrence weights come from ``_weights``, the oracle's own
r-fold weight row: integer numerators over their lcm, from r - 1 rounds of
the integer kernel ``exactnum.cauchy_product``, each reduced by one gcd.
The determinant route builds its own row
(``hessenberg.weight_row``) with its own convolution, so recurrence and det
share no weight-row code and no weight kernel, and a wrong weight row or a
wrong kernel in either shows as a mismatch between them.  The weights are
rebuilt by every call that has to compute a value.  ``table`` therefore
walks each (N, r) family once, to its deepest n, and reads every index from
the store; ``verify`` takes the whole row from one ``hb_higher(...,
row=...)`` walk.  ``recurrence_residual`` re-evaluates the
relations with one ``Fraction`` operation per term, as a check on that
integer inner loop (for r >= 2 it reads the same ``_weights``).

The cache audit (``MemoStore.mismatches``, behind both the spot audit of
every load and ``cache-audit``) walks each N's r = 1 row once with the
oracle's own storeless walk, the binomial row stepped by Pascal's rule, and
recomputes an r >= 2 entry from that row by r - 1 steps of the
order-raising relation B^(s+1)_m = ((sN - m) B^(s)_m - s m B^(s)_{m-1}) /
(sN), which x F' = N + (x - N) F gives for F = 1F1(1; N+1; x)
(``_order_step``).  The r >= 2 entries call none of ``_row``, ``_weights``
and ``cauchy_product``: the audit shares only the r = 1 walk with the
oracle, and builds no weight row.  So a wrong weight row fails the audit
instead of being rerun by it, and a wrong r = 1 walk fails every r >= 2
entry of its N that reads it.  A spot draw costs O(r^2) steps beside the
r = 1 walk, a whole family O(r n).

A :class:`MemoStore` caches values by (N, r, n), optionally in a text file;
its keys are :class:`HBKey` tuples, so hashing, lookups and sorting run in C.
``HBKey`` (defined in :mod:`exactnum`, so the routes build it without
importing this module) is also the one index guard: every entry point
builds one from its indices before it reads a store, and refuses an index
that is a bool or not an int.  ``hb`` and ``hb_higher`` return a stored
value directly and walk the row only when the requested key is missing.
What a store keeps beside its values (the continued-fraction checks keep
their rows and lists there), and when it drops it, is described once, in
:class:`MemoStore`.  There is no default store: values are reused across
calls only through a store the caller passes.  ``hb`` and ``hb_higher``
without one walk their row with no store at all, building, reading and
storing no key; the cache audit's r = 1 walk is that same storeless walk.

Loading checks every record of the file but decodes a value only when it is
first read, and refuses a value that conflicts with one the store already
holds.  A file in the form ``save`` writes is checked by one whole-file
pattern and split in one pass, with one ``int()`` per distinct key field
text (a file of a few families repeats its N, r and n texts many times);
any other file is checked line by line.  The pattern accepts only files
the line-by-line check accepts, and reads the same records from them.  A
stored text is checked once, at load, so decoding it is a split at its
``/`` and two integer conversions, with no second pass of the literal
pattern.  Saving writes only when an entry was added or a value changed,
keeps what another store saved since, writes values that were never read
back as they were read, and writes the whole file with one ``write`` of
one joined text (one ``write`` per record, or ``writelines``, measured
slower).  On a cache file like the ``warm`` benchmark's (968 records;
Python 3.11.7, a shared 2-core machine, in-process, best of repeated runs)
this took a load without its audit from 0.82-1.06 to 0.71-0.76 ms,
decoding every record from 3.4-4.0 to 2.2-2.4 ms, and writing the file of
undecoded records from 0.70 to 0.63 ms (medians of 7).

At N = 1 the numbers reduce to the classical Bernoulli numbers
(convention B_1 = -1/2).
"""

from __future__ import annotations

import io
import os
import random
import re
from fractions import Fraction
from itertools import accumulate, repeat
from math import comb, factorial, gcd, lcm
from operator import add, mul
from pathlib import Path
from typing import Callable

from .exactnum import (
    HBKey,
    _int_text,
    _text_int,
    binom,
    cauchy_product,
    check_rational,
    format_rational,
)

__all__ = [
    "CacheError",
    "HBKey",
    "MemoStore",
    "hb",
    "classical",
    "hb_higher",
    "recurrence_residual",
]


class CacheError(ValueError):
    """A cache file is malformed or disagrees with fresh recomputation."""


class MemoStore:
    """Cache of computed values keyed by (N, r, n), optionally file backed.

    File records are whitespace-separated lines ``N r n num/den`` in any
    order.  ``load`` checks every record (the key, and a ``num[/den]``
    literal with a nonzero denominator) but keeps each value as its text
    until ``get``, ``items`` or ``audit`` first reads it.  Every text the
    store holds has passed that check, by the whole-file pattern
    ``_SAVED_FILE`` or by ``check_rational``, so ``_fraction`` decodes it
    without checking it again: only ``load`` may put a text in the store.
    Duplicate keys must carry equal values or loading fails; they are
    decoded and compared only when their texts differ, and so are a file's
    values against the ones a non-empty store already holds.  ``save``
    writes only when an entry was added or a value changed since the last
    load or save, and writes a value that was never decoded back as the
    text it was read from, the whole file in one ``write``.

    The store also keeps derived data, which ``items``, ``len`` and the
    saved file never show, in one dict: ``kept(key, build, *args)`` returns
    the object kept under `key`, built by ``build(*args)`` the first time.
    The checks of :mod:`contfrac` keep each parameter-N row over its lcm
    there under ("row", N, 1), growing it at its end, and their value-free
    coefficient lists beside it.  One rule keeps it true: a ``put`` that
    changes a value the store holds empties the dict, and a new key or an
    equal value leaves it.  That suffices because whatever is kept reads
    only keys the store holds, ``load`` refuses a value that conflicts with
    one the store holds, and ``save``'s merge only adds keys.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        # a loaded value stays the file's text until it is first read
        self._values: dict[HBKey, Fraction | str] = {}
        self._unsaved = False  # an entry added or a value changed since load or save
        self._seen: tuple[int, int, int] | None = None  # the file as last loaded or saved
        # derived data by tuple key; a kept row grows only at its end, so what
        # a reader has read stays true, and a changed value drops it instead
        self._kept: dict[tuple, object] = {}

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
        held = key in self._values
        if not held or self._decode(key) != value:
            self._values[key] = value
            self._unsaved = True
            if held:  # a changed value: anything kept may read the old one
                self._kept.clear()

    def kept(self, key: tuple, build: Callable, *args: object):
        """The object kept under `key`, built by ``build(*args)`` the first
        time it is asked for."""
        value = self._kept.get(key)
        if value is None:
            value = self._kept[key] = build(*args)
        return value

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
        if not self._values:  # a fresh store has nothing to conflict with
            self._values = loaded
        else:
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
                value = _fraction(text)
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
                fh.write(
                    "".join(
                        f"{_key_text(k)} {v if isinstance(v, str) else format_rational(v)}\n"
                        for k, v in sorted(self._values.items())
                    )
                )
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
        is recomputed by order steps from its N's r = 1 row, not by the
        weight-row recurrence that wrote it.
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
        """Recompute the entries at `keys` from scratch; returns (key, stored,
        recomputed) for each entry that differs, in the order of `keys`.

        Each N's r = 1 row is walked once, by the oracle's storeless walk
        (``_row``, its binomial row stepped by Pascal's rule), to the largest
        n asked for that N at any r.  An (N, r) family with r >= 2 takes r - 1
        order steps (``_order_step``) from that row, over only the indices
        its asked entries read: from its smallest asked n - r + 1 to its
        largest.  So the r >= 2 entries call none of ``_row``, ``_weights``
        and ``cauchy_product``: a wrong r-fold weight row in the oracle shows
        here as a mismatch, and so does a wrong r = 1 walk, at every r >= 2
        entry of that N that reads it."""
        tops: dict[int, int] = {}
        spans: dict[tuple[int, int], tuple[int, int]] = {}
        for N, r, n in keys:
            tops[N] = max(tops.get(N, 0), n)
            low, high = spans.get((N, r), (n, n))
            spans[N, r] = min(low, n), max(high, n)
        bases = {N: _row(N, 1, top, None) for N, top in tops.items()}
        rows = {}
        for (N, r), (low, high) in spans.items():
            start = max(low - r + 1, 0)
            row = bases[N][start : high + 1]
            for s in range(1, r):
                row = _order_step(N, s, start, row)
                start += start > 0
            rows[N, r] = start, row
        found = []
        for key in keys:
            start, row = rows[key.N, key.r]
            stored, expected = self._decode(key), row[key.n - start]
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
    ``MemoStore._read_lines`` reads and checks line by line, and for a file
    with a key too long for ``int()``.  Values stay text, so a value of any
    length stays on this path.  Every file read here holds exactly the
    records that loop would return."""
    if _SAVED_FILE.fullmatch(data) is None:
        return None
    fields = data.decode("ascii").split()
    columns = []
    for texts in (fields[0::4], fields[1::4], fields[2::4]):
        distinct = set(texts)  # a few N and r, and one n per depth, over many records
        try:
            ints = dict(zip(distinct, map(int, distinct)))
        except ValueError:  # int() refuses a key past the int/str digit limit
            return None
        columns.append(map(ints.__getitem__, texts))
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
    """A stored value, decoding the file's text if it was not read yet.

    A text was checked when it was loaded, so it is split at its ``/`` and
    converted without a second pass of the literal pattern."""
    if not isinstance(value, str):
        return value
    num, _, den = value.partition("/")
    return Fraction(_text_int(num), _text_int(den) if den else 1)


def _version(path: Path) -> tuple[int, int, int] | None:
    """Inode, size and modification time of the file at `path`; None if there is none."""
    try:
        stat = os.stat(path)
    except FileNotFoundError:
        return None
    return stat.st_ino, stat.st_size, stat.st_mtime_ns


def _weights(N: int, r: int, upto: int) -> tuple[int, list[int]]:
    """The oracle's r-fold weights for e = 0..upto over their lcm, as
    ``(den, nums)`` with weight e equal to ``nums[e] / den``: entry e
    collects (N!)^r / ((N+i_1)! ... (N+i_r)!) over nonnegative r-part
    compositions of e, the r-fold Cauchy power of 1/((N+1)...(N+j)).

    Over D = (N+1)...(N+upto) that factor is the integer c_j =
    (N+j+1)...(N+upto), from one running product (c_0 = D), so huge N stays
    factorial-free.  Each of the r - 1 rounds convolves the numerators with c
    in integers and divides them and den·D by their gcd; the lcm of the
    entries' reduced denominators is den·D over that gcd, so ``den`` is the
    lcm of the reduced weights' denominators and ``nums`` their numerators
    over it.  Reducing every round keeps the numerators small.
    """
    c = list(accumulate(range(N + upto, N, -1), mul, initial=1))[::-1]
    D = den = c[0]
    nums = c
    for _ in range(r - 1):
        den *= D
        nums = cauchy_product(nums, c)
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [x // g for x in nums]
    return den, nums


def _row(N: int, r: int, n: int, store: MemoStore | None) -> list[Fraction]:
    """Values for indices 0..n of the (N, r) family, consulting and filling
    `store`; without one, every value is computed and no key is built.

    From the first value that must be computed on, the row is also kept as
    numerators `nums` over its running lcm `den` (and the weights over
    theirs), so each new value is one integer dot product reduced once.
    """
    HBKey(N, r, n)  # checks the indices once, for the storeless walk too
    row: list[Fraction] = []
    nums: list[int] | None = None  # row[i] == nums[i] / den, once a value is computed
    den = 1
    binoms: list[int] = []  # binom(N+m, k) for k <= m, at the last computed m
    weights: tuple[int, list[int]] | None = None  # (den, nums) from _weights
    for m in range(n + 1):
        if store is None:
            value = None
        else:
            key = tuple.__new__(HBKey, (N, r, m))  # checked above: skip HBKey.__new__
            value = store.get(key)
        if value is None:
            if m == 0:
                value = Fraction(1)
            else:
                if nums is None:  # the stored prefix over its lcm
                    den = lcm(*[v.denominator for v in row])
                    nums = [v.numerator * (den // v.denominator) for v in row]
                if r == 1:
                    # sum_{k <= m} binom(N+m, k) B_{N,k} = 0, solved for the top term
                    if len(binoms) == m:  # index m-1's row: step it by Pascal's rule
                        binoms = [1, *map(add, binoms[1:], binoms)]
                        binoms.append(binoms[-1] * (N + 1) // m)
                    else:
                        binoms = [comb(N + m, k) for k in range(m + 1)]
                    acc = sum(map(mul, nums, binoms))
                    value = Fraction(-acc, den * binoms[m])
                else:
                    # sum_{k <= m} (m!/k!) w_{m-k} B_k = 0 with w_0 = 1, solved
                    # for B_m.  k runs down from m-1, pairing B_k with w_{m-k}
                    # and m!/k! = falling(m, m-k), the running product m(m-1)...
                    if weights is None:
                        weights = _weights(N, r, n)
                    w_den, w_nums = weights
                    falls = accumulate(range(m, 0, -1), mul)
                    terms = map(mul, map(mul, reversed(nums), falls), w_nums[1:])
                    value = Fraction(-sum(terms), den * w_den)
            if store is not None:
                store.put(key, value)
        row.append(value)
        if nums is not None:
            q = value.denominator
            grow = q // gcd(q, den)
            if grow != 1:  # rescale the held numerators once
                nums = [x * grow for x in nums]
                den *= grow
            nums.append(value.numerator * (den // q))
    return row


def _order_step(N: int, s: int, start: int, values: list[Fraction]) -> list[Fraction]:
    """Order s + 1's values from order s's `values` at indices start,
    start + 1, ..., for s != 0, by the order-raising relation
    B^(s+1)_m = ((sN - m) B^(s)_m - s m B^(s)_{m-1}) / (sN).

    F = 1F1(1; N+1; x) satisfies x F' = N + (x - N) F, so G = F^(-s) has
    x G' = -s F^(-s-1) x F' = -sN F^(-s-1) - s (x - N) G; the x^m / m!
    coefficient of that is the relation.  Index m reads order s at m and
    m - 1, so the result starts at index start + 1, or at 0 when `start` is
    0: index 0 reads B^(s)_{-1} only times m = 0.  Each value is one
    integer sum over sN times the lcm of the two denominators, reduced once
    into a ``Fraction``; reads no store and calls none of ``_row``,
    ``_weights`` and ``cauchy_product``.
    """
    sN = s * N
    if start == 0:
        values = [Fraction(0), *values]
    first = start + 1 if start else 0
    stepped = []
    for m, a, b in zip(range(first, first + len(values)), values, values[1:]):
        g = gcd(a.denominator, b.denominator)
        a_scale, b_scale = b.denominator // g, a.denominator // g
        acc = (sN - m) * b.numerator * b_scale - s * m * a.numerator * a_scale
        stepped.append(Fraction(acc, sN * a.denominator * a_scale))
    return stepped


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


def recurrence_residual(N: int, r: int, n: int, store: MemoStore | None = None) -> Fraction:
    """Left side of the defining linear relation at index n; zero for correct values.

    For r = 1 this is sum_{m<=n} binom(N+n, m) B_{N,m}.  For r >= 2 the
    analogous composition-weighted sum is returned rescaled by n! (N!)^r,
    which preserves vanishing while keeping huge N factorial-free.  The sum
    is taken term by term in ``Fraction`` arithmetic, independently of the
    common-denominator inner loop that computes the row, so a zero here
    checks that loop rather than restating it (for r >= 2 both read the
    weights of ``_weights``).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    row = _row(N, r, n, store)
    if r == 1:
        acc = Fraction(0)
        for m in range(n + 1):
            acc += binom(N + n, m) * row[m]
        return acc
    w_den, w_nums = _weights(N, r, n)
    acc = Fraction(0)
    for m in range(n + 1):
        acc += row[m] * w_nums[n - m] / factorial(m)
    return factorial(n) * acc / w_den
