import copy
import functools
import pickle
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import factorial, lcm
from pathlib import Path
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hgbern import hbnum
from hgbern.altforms import mr
from hgbern.exactnum import _text_int, format_rational, parse_rational, rising
from hgbern.hessenberg import CommonDenominator, hb_higher_det, weight_row
from hgbern.hbnum import (
    CacheError,
    HBKey,
    MemoStore,
    classical,
    hb,
    hb_higher,
    recurrence_residual,
)
from oracles import bernoulli_akiyama_tanigawa, naive_hb_higher_explicit

B2_ROW = [Fraction(1), Fraction(-1, 3), Fraction(1, 18), Fraction(1, 90), Fraction(-1, 270)]


def test_parameter_two_fixture_row():
    assert [hb(2, n) for n in range(5)] == B2_ROW


def test_low_index_closed_forms():
    for N in range(1, 11):
        assert hb(N, 1) == Fraction(-1, N + 1)
        assert hb(N, 2) == Fraction(2, (N + 1) ** 2 * (N + 2))
        assert hb(N, 3) == Fraction(
            6 * (N - 1), (N + 1) ** 3 * (N + 2) * (N + 3)
        )
    assert hb(3, 1) == Fraction(-1, 4)


def test_classical_matches_independent_oracle():
    expected = bernoulli_akiyama_tanigawa(20)
    assert [classical(n) for n in range(21)] == expected
    assert classical(3) == 0
    assert classical(6) == Fraction(1, 42)


def test_odd_classical_values_vanish():
    for k in range(1, 11):
        assert classical(2 * k + 1) == 0


def test_defining_relation_vanishes():
    for N in range(1, 9):
        for n in range(1, 41):
            assert recurrence_residual(N, 1, n) == 0


def test_higher_order_relation_vanishes():
    for N in (1, 2, 3):
        for r in (2, 3):
            for n in range(1, 11):
                assert recurrence_residual(N, r, n) == 0
    assert recurrence_residual(2, 1, 3) == 0
    assert recurrence_residual(1, 2, 1) == 0
    assert recurrence_residual(3, 2, 5) == 0


def test_residual_checks_the_integer_recurrence_deep():
    # recurrence_residual keeps a per-term Fraction loop, independent of the
    # common-denominator inner loop that produced the row
    for N in range(1, 6):
        for r in range(1, 4):
            store = MemoStore()
            hb_higher(N, r, 60, store)
            for n in range(1, 61):
                assert recurrence_residual(N, r, n, store) == 0, (N, r, n)


def test_residual_vanishes_at_huge_parameter():
    N = 1 + 5**48
    for r in (1, 2):
        store = MemoStore()
        for n in range(1, 7):
            assert recurrence_residual(N, r, n, store) == 0, (r, n)


HUGE_N = 1 + 5**48


@pytest.mark.parametrize("N", [1, 2, 5, HUGE_N])
def test_weights_are_the_literal_composition_sums_over_their_lcm(N):
    # the oracle's integer kernel against mr's enumeration of each composition
    for r in range(1, 6):
        literal = [mr(N, r, e) for e in range(11)]
        for upto in range(11):
            den, nums = hbnum._weights(N, r, upto)
            expected = CommonDenominator(literal[: upto + 1])
            assert den == lcm(*(w.denominator for w in literal[: upto + 1]))
            assert (den, nums) == (expected.den, expected.nums), (r, upto)


@pytest.mark.parametrize("N", [*range(1, 6), HUGE_N])
def test_weights_equal_the_determinants_weight_row(N):
    # two weight rows that share no code and no kernel: the oracle's
    # integers, read as Fractions, against det's own convolutions
    for r in range(1, 5):
        for upto in range(21 if N == HUGE_N else 61):
            den, nums = hbnum._weights(N, r, upto)
            read = [Fraction(x, den) for x in nums]
            assert read == weight_row(N, r, upto), (r, upto)


def _stepped(N, r, start, values):
    """Order r's values from order 1's `values` at start, start + 1, ...,
    by r - 1 order steps, and the index the result starts at."""
    for s in range(1, r):
        values = hbnum._order_step(N, s, start, values)
        start += start > 0
    return start, values


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, HUGE_N])
def test_order_steps_from_the_r1_row_equal_the_oracle_row(N):
    # the relation the cache audit steps by, from the r = 1 row the audit
    # walks, against the weight-row recurrence that writes the values; from
    # index 0, and from windows that start later and lose one index a step
    base = hbnum._row(N, 1, 40, None)
    windows = {start: (start, base[start:]) for start in (0, 1, 7, 20)}
    for r in range(1, 8):
        if r > 1:
            windows = {
                start: (first + (first > 0), hbnum._order_step(N, r - 1, first, values))
                for start, (first, values) in windows.items()
            }
        oracle = hbnum._row(N, r, 40, None)
        for start, (first, values) in windows.items():
            assert first == (start + r - 1 if start else 0), (r, start)
            assert values == oracle[first:], (r, start)


def test_order_steps_equal_the_oracle_row_at_depth():
    assert _stepped(3, 3, 0, hbnum._row(3, 1, 200, None)) == (0, hbnum._row(3, 3, 200, None))


@pytest.mark.parametrize("N", [1, 2, 5, HUGE_N])
def test_order_step_from_order_minus_one_gives_order_zero(N):
    # values no route computes, so they pin the audit's step on its own:
    # F^1 has B_k = k!/rising(N+1, k), and F^0 = 1
    closed = [Fraction(factorial(k), rising(N + 1, k)) for k in range(41)]
    assert hbnum._order_step(N, -1, 0, closed) == [1] + [0] * 40


def test_order_steps_at_parameter_one_equal_the_literal_composition_sums():
    base = hbnum._row(1, 1, 10, None)
    for r in range(1, 5):
        _, row = _stepped(1, r, 0, base)
        assert row == [1] + [naive_hb_higher_explicit(1, r, n) for n in range(1, 11)], r


def test_a_storeless_walk_makes_no_store_and_returns_the_stored_walk(monkeypatch):
    stored = {}
    for N in range(1, 6):
        store = MemoStore()
        for r in range(1, 4):
            stored[N, r] = hbnum._row(N, r, 60, store)

    def no_store(*args, **kwargs):
        raise AssertionError("a storeless walk made a MemoStore")

    monkeypatch.setattr(hbnum, "MemoStore", no_store)
    for (N, r), row in stored.items():
        assert hbnum._row(N, r, 60, None) == row, (N, r)
    with pytest.raises(ValueError, match="N must be >= 1"):
        hbnum._row(0, 1, 3, None)


def test_row_resumes_across_a_sparse_cache():
    # values cached out of order force the row to rebuild its common
    # denominator and binomials mid-row; the result must not change
    for r in (1, 2, 3):
        fresh = [hb_higher(3, r, m, MemoStore()) for m in range(25)]
        store = MemoStore()
        for m in (4, 5, 11, 17, 18, 23):
            store.put(HBKey(3, r, m), fresh[m])
        assert [hb_higher(3, r, m, store) for m in range(25)] == fresh
        assert len(store) == 25


@functools.cache
def _folded_row(N, r):
    """The storeless row to n = 70, past four folds of the walk's tail."""
    return hbnum._row(N, r, 70, None)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("N", [1, 2, 1 + 5**20])
def test_a_row_across_its_folds_is_the_determinants_row(N, r):
    # the walk folds its tail into its settled block after indices 15, 31, 47
    # and 63; the determinant route keeps no such split
    det_row = []
    hb_higher_det(N, r, 70, det_row)
    assert _folded_row(N, r) == det_row


@pytest.mark.parametrize("prefix", [1, 15, 16, 17, 40])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("N", [1, 2, 1 + 5**20])
def test_a_walk_past_a_stored_prefix_is_the_storeless_row(N, r, prefix):
    # the tail starts as the prefix: shorter than a block, ending at a block's
    # end, one past it, and two blocks and more long
    row = _folded_row(N, r)
    store = MemoStore()
    for m in range(prefix):
        store.put(HBKey(N, r, m), row[m])
    assert hbnum._row(N, r, 70, store) == row
    assert store.items() == [(HBKey(N, r, m), value) for m, value in enumerate(row)]


def test_storeless_calls_keep_no_module_store():
    # values are reused across calls only through a store the caller passes;
    # a storeless call walks its own row and leaves nothing behind
    assert not [name for name, value in vars(hbnum).items() if isinstance(value, MemoStore)]
    expected = hb_higher(2, 2, 9, MemoStore())
    assert hb_higher(2, 2, 9) == expected
    assert hb_higher(2, 2, 9) == expected
    assert not [name for name, value in vars(hbnum).items() if isinstance(value, MemoStore)]


def test_higher_order_values():
    assert hb_higher(1, 2, 1) == -1
    assert hb_higher(2, 3, 0) == 1
    for N in range(1, 5):
        for r in range(1, 5):
            assert hb_higher(N, r, 1) == Fraction(-r, N + 1)
            # quadratic fixture in r and N
            expected = Fraction(2 * r, (N + 1) ** 2 * (N + 2)) * (
                -(N + 1) + Fraction(r + 1, 2) * (N + 2)
            )
            assert hb_higher(N, r, 2) == expected


def test_order_one_reduces_to_base():
    for N in range(1, 5):
        for n in range(0, 12):
            assert hb_higher(N, 1, n) == hb(N, n)


def test_input_validation():
    with pytest.raises(ValueError):
        hb(0, 3)
    with pytest.raises(ValueError):
        hb(2, -1)
    with pytest.raises(ValueError):
        hb_higher(2, 0, 3)
    with pytest.raises(ValueError):
        HBKey(1, 1, -1)
    with pytest.raises(ValueError):
        recurrence_residual(2, 1, 0)


@pytest.mark.parametrize(
    "indices, message",
    [
        ((0, 1, 0), "N must be >= 1"),
        ((1, 0, 0), "r must be >= 1"),
        ((1, 1, -1), "n must be >= 0"),
        # a float or a bool would hash equal to an int key
        ((2.0, 1, 3), "N must be an int, got 2.0"),
        ((True, 1, 3), "N must be an int, got True"),
        ((2, 1.0, 3), "r must be an int, got 1.0"),
        ((2, 1, 3.5), "n must be an int, got 3.5"),
        ((2, 1, False), "n must be an int, got False"),
        ((2, 1, "3"), "n must be an int, got '3'"),
        ((0.5, 0, -1), "N must be an int, got 0.5"),  # the type, before any range
    ],
)
def test_hbkey_rejects_bad_indices(indices, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        HBKey(*indices)
    # the oracle builds its key before it walks, also without a store
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        hb_higher(*indices)
    # and so does the residual check, in the key's order, with n >= 1
    if message == "n must be >= 0":
        message = "n must be >= 1"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        recurrence_residual(*indices)


def test_hbkey_is_an_immutable_ordered_triple():
    key = HBKey(2, 3, 4)
    assert repr(key) == "HBKey(N=2, r=3, n=4)"
    assert (key.N, key.r, key.n) == (2, 3, 4)
    # a tuple: it equals, hashes and sorts as the plain tuple (N, r, n)
    assert key == (2, 3, 4) and hash(key) == hash((2, 3, 4))
    keys = [HBKey(2, 1, 10), HBKey(1, 3, 0), HBKey(2, 1, 9), HBKey(10, 1, 1), HBKey(1, 1, 7)]
    assert sorted(keys) == [
        HBKey(1, 1, 7), HBKey(1, 3, 0), HBKey(2, 1, 9), HBKey(2, 1, 10), HBKey(10, 1, 1),
    ]
    with pytest.raises(AttributeError):
        key.N = 5
    with pytest.raises(AttributeError):
        key.extra = 1
    for twin in (copy.copy(key), copy.deepcopy(key), pickle.loads(pickle.dumps(key))):
        assert type(twin) is HBKey and twin == key


def test_huge_parameter_stays_cheap():
    # the recurrence must not materialize factorials of N
    N = 1 + 5**48
    value = hb(N, 4)
    assert value.denominator % (N + 1) == 0


def test_memostore_round_trip(tmp_path):
    path = tmp_path / "cache.txt"
    store = MemoStore(path)
    hb_higher(2, 2, 8, store)
    hb(3, 5, store)
    store.save()

    reloaded = MemoStore(path)
    count = reloaded.load(rng=Random(7))
    assert count == len(store)
    assert reloaded.get(HBKey(2, 2, 8)) == hb_higher(2, 2, 8)
    assert reloaded.items() == store.items()


def test_memostore_save_is_atomic(tmp_path, monkeypatch):
    path = tmp_path / "cache.txt"
    store = MemoStore(path)
    hb(2, 6, store)
    store.save()
    before = path.read_bytes()

    hb(3, 6, store)
    calls = []

    def failing_format(value):
        calls.append(value)
        if len(calls) == 9:
            raise RuntimeError("disk full")
        return f"{value.numerator}/{value.denominator}"

    monkeypatch.setattr(hbnum, "format_rational", failing_format)
    with pytest.raises(RuntimeError):
        store.save()
    assert len(calls) == 9
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["cache.txt"]

    # the file is only ever swapped whole: a save cut off before the rename
    # leaves the old bytes too
    monkeypatch.undo()

    def failing_replace(src, dst):
        raise OSError("killed before rename")

    monkeypatch.setattr(hbnum.os, "replace", failing_replace)
    with pytest.raises(OSError):
        store.save()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["cache.txt"]

    monkeypatch.undo()
    store.save()
    assert MemoStore(path).load(rng=Random(0)) == len(store) == 14
    assert [p.name for p in tmp_path.iterdir()] == ["cache.txt"]


def test_memostore_duplicate_keys_must_agree(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text("2 1 1 -1/3\n2 1 1 -1/3\n")
    store = MemoStore(path)
    assert store.load(rng=Random(0)) == 1

    # equal values in different texts agree; the decoded value is kept
    path.write_text("2 1 1 -1/3\n2 1 1 -2/6\n")
    store = MemoStore(path)
    assert store.load(rng=Random(0)) == 1
    assert store.get(HBKey(2, 1, 1)) == Fraction(-1, 3)

    path.write_text("2 1 1 -1/3\n2 1 1 1/3\n")
    with pytest.raises(CacheError, match=":2: duplicate key 2 1 1"):
        MemoStore(path).load(rng=Random(0))


def test_memostore_audit_catches_corruption(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text("2 1 4 1/270\n")  # sign flipped
    with pytest.raises(CacheError):
        MemoStore(path).load(rng=Random(0))
    # of two bad entries drawn, the first drawn is named
    path.write_text("2 1 4 1/270\n3 2 2 5/7\n")
    first = Random(0).sample([HBKey(2, 1, 4), HBKey(3, 2, 2)], 2)[0]
    with pytest.raises(CacheError, match=f"audit failed at {first.N} {first.r} {first.n}:"):
        MemoStore(path).load(rng=Random(0))


def test_memostore_audit_draws_the_same_keys_every_time(tmp_path):
    # without a generator the draw is Random(0).sample of the keys in file order
    path = tmp_path / "cache.txt"
    store = MemoStore(path)
    for N in (2, 3):
        hb_higher(N, 2, 6, store)
    store.save()
    keys = [HBKey(N, 2, n) for N in (2, 3) for n in range(7)]
    loaded = MemoStore(path)
    loaded.load(audit_samples=0)
    assert loaded.audit() == loaded.audit() == Random(0).sample(keys, 3)
    assert loaded.audit(samples=5) == Random(0).sample(keys, 5)
    # an explicit generator wins
    assert loaded.audit(rng=Random(4)) == Random(4).sample(keys, 3)
    # a count that is not an int is refused, by load and by audit: True
    # audited one entry, and 2.0 raised TypeError from random.sample; the
    # rule is type-only, so a negative count keeps random.sample's words
    for bad in (True, 2.0):
        with pytest.raises(ValueError, match=f"^audit_samples must be an int, got {bad!r}$"):
            MemoStore(path).load(audit_samples=bad)
        with pytest.raises(ValueError, match=f"^samples must be an int, got {bad!r}$"):
            loaded.audit(samples=bad)
    with pytest.raises(ValueError, match="^Sample larger than population or is negative$"):
        MemoStore(path).load(audit_samples=-1)
    with pytest.raises(ValueError, match="^Sample larger than population or is negative$"):
        loaded.audit(samples=-1)


_SAVED_ROW = "2 1 0 1/1\n2 1 1 -1/3\n2 1 2 1/18\n2 1 3 1/90\n"  # as `save` writes it


@pytest.mark.parametrize(
    "record, text, whole_file",
    [
        ("2 1 4 -1/270\n", "-1/270", True),
        ("2 1 4 -02/540\n", "-02/540", True),  # zeros before a numerator's digits
        ("2 1 4 -1/0270\n", "-1/0270", True),  # ... and a denominator's
        ("+2 1 4 -1/270\n", "-1/270", False),  # a signed key
        ("2 1 04 -1/270\n", "-1/270", False),  # a key with a leading zero
        ("\n2 1 4 -1/270\n", "-1/270", False),  # a blank line
        ("2 1 4\t-1/270\n", "-1/270", False),  # a tab
        ("2  1 4 -1/270\n", "-1/270", False),  # two spaces
        ("2 1 4 -1/270\r\n", "-1/270", False),  # a carriage return
        ("2 1 4 +1/-270\n", "+1/-270", False),  # signs the loop accepts
        ("2 1 4 -10/2700", "-10/2700", False),  # no final newline
    ],
)
def test_memostore_reads_records_in_any_accepted_layout(tmp_path, record, text, whole_file):
    path = tmp_path / "cache.txt"
    path.write_bytes((_SAVED_ROW + record).encode())
    assert (hbnum._saved_records(path.read_bytes()) is not None) == whole_file
    store = MemoStore(path)
    assert store.load(audit_samples=0) == 5
    hb(3, 0, store)
    store.save()  # the record, never read, is written back as it was read
    assert path.read_text() == f"{_SAVED_ROW}2 1 4 {text}\n3 1 0 1/1\n"
    assert store.items() == [(HBKey(2, 1, n), hb(2, n)) for n in range(5)] + [
        (HBKey(3, 1, 0), Fraction(1))
    ]


@pytest.mark.parametrize(
    "duplicate, value",
    [("2 1 1 -1/3\n", Fraction(-1, 3)), ("2 1 1 -2/6\n", Fraction(-1, 3)), ("2 1 1 1/3\n", None)],
)
def test_memostore_checks_duplicates_in_a_saved_file_line_by_line(tmp_path, duplicate, value):
    path = tmp_path / "cache.txt"
    store = MemoStore(path)
    hb(2, 6, store)
    store.save()
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:4] + [duplicate] + lines[4:]))
    assert hbnum._SAVED_FILE.fullmatch(path.read_bytes())
    if value is None:
        with pytest.raises(CacheError, match=":5: duplicate key 2 1 1 with conflicting values"):
            MemoStore(path).load(audit_samples=0)
        return
    reloaded = MemoStore(path)
    assert reloaded.load(audit_samples=0) == 7
    assert reloaded.get(HBKey(2, 1, 1)) == value
    assert reloaded.items() == store.items()


def test_memostore_reads_long_numbers_line_by_line(tmp_path, int_digit_limit):
    # int() refuses a key this long, so the one-pass check leaves the file to
    # the loop, which converts it in halves; a long value stays text on either
    # path until it is read; a malformed field is still refused
    path = tmp_path / "cache.txt"
    digits = "1" * (int_digit_limit + 1)
    records = (f"2 1 1 {digits}/3", f"2 1 1 1/{digits}", f"{digits} 1 1 1/3", f"2 1 {digits} 1/3")
    for record in records:
        path.write_text(f"2 1 0 1/1\n{record}\n")
        assert MemoStore(path).load(audit_samples=0) == 2
    for record in (f"{digits}x 1 1 1/3", f"2 1 1_{digits} 1/3", f"2 1 --{digits} 1/3"):
        path.write_text(f"2 1 0 1/1\n{record}\n")
        with pytest.raises(CacheError, match=":2: "):
            MemoStore(path).load(audit_samples=0)
    # a malformed key is reported as such at any length, not as too long
    for key in (f"{'1' * 20}x", f"{digits}x"):
        path.write_text(f"2 1 0 1/1\n{key} 1 1 1/3\n")
        with pytest.raises(CacheError, match=r":2: invalid literal for int\(\)"):
            MemoStore(path).load(audit_samples=0)


def test_memostore_round_trips_keys_past_the_digit_limit(tmp_path, int_digit_limit):
    # library use, with the interpreter's default limit in place
    key = HBKey(10**int_digit_limit, 1, 0)
    path = tmp_path / "cache.txt"
    store = MemoStore(path)
    store.put(HBKey(2, 1, 0), 1)
    store.put(key, 1)
    store.save()
    assert sys.get_int_max_str_digits() == int_digit_limit
    assert path.read_text().splitlines()[1] == "1" + "0" * int_digit_limit + " 1 0 1/1"
    reloaded = MemoStore(path)
    assert reloaded.load() == 2  # the audit recomputes both entries
    assert reloaded.items() == [(HBKey(2, 1, 0), 1), (key, 1)]


def test_memostore_round_trips_values_past_the_digit_limit(tmp_path, int_digit_limit):
    # library use, with the interpreter's default limit in place
    big = Fraction(10**5000 + 1, 3)
    small = Fraction(-(10**int_digit_limit), 7**6000)
    path = tmp_path / "cache.txt"
    store = MemoStore(path)
    store.put(HBKey(2, 1, 1), big)
    store.put(HBKey(2, 1, 2), small)
    store.save()
    assert sys.get_int_max_str_digits() == int_digit_limit
    assert path.read_text().splitlines()[0] == f"2 1 1 {format_rational(big)}"
    reloaded = MemoStore(path)
    assert reloaded.load(audit_samples=0) == 2
    assert reloaded.items() == [(HBKey(2, 1, 1), big), (HBKey(2, 1, 2), small)]


def test_memostore_reports_a_non_utf8_file_at_its_line(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_bytes(b"1 1 0 1/1\n1 1 1 -1/2\xff\n")
    with pytest.raises(CacheError, match=r"cache\.txt:2: not UTF-8 text: byte 0xff"):
        MemoStore(path).load(audit_samples=0)
    # lines end at \n, \r\n or \r, as they did when the file was read as text
    path.write_bytes(b"1 1 0 1/1\r1 1 1 -1/2\r\n1 1 2 1/6\n\xc3(\n")
    with pytest.raises(CacheError, match=r":4: not UTF-8 text: byte 0xc3"):
        MemoStore(path).load(audit_samples=0)
    path.write_bytes(b"1 1 0 1/1\r1 1 1 -1/2\r\n1 1 2 1/6\n")
    assert MemoStore(path).load() == 3


def test_memostore_load_reads_the_file_once(tmp_path, monkeypatch):
    # a CRLF file fails the whole-file check and is read line by line from
    # the same bytes, those of the file whose version load stat'ed
    reads = []
    read_bytes = Path.read_bytes

    def counting(self):
        reads.append(self)
        return read_bytes(self)

    monkeypatch.setattr(Path, "read_bytes", counting)
    path = tmp_path / "cache.txt"
    path.write_bytes(b"1 1 0 1/1\r\n1 1 1 -1/2\r\n1 1 2 1/6\r\n")
    store = MemoStore(path)
    assert store.load() == 3 and reads == [path]
    assert store.items() == [
        (HBKey(1, 1, 0), Fraction(1)),
        (HBKey(1, 1, 1), Fraction(-1, 2)),
        (HBKey(1, 1, 2), Fraction(1, 6)),
    ]
    path.write_bytes(b"1 1 0 1/1\r\n1 1 1 x\r\n")
    with pytest.raises(CacheError, match=r"cache\.txt:2: not a rational literal: 'x'$"):
        MemoStore(path).load()
    assert reads == [path, path]


_KEYS = st.builds(HBKey, st.integers(1, 10**30), st.integers(1, 50), st.integers(0, 10**30))


@settings(deadline=None)
@given(st.dictionaries(_KEYS, st.fractions(), min_size=1, max_size=30), _KEYS)
def test_memostore_loads_every_saved_file_in_one_pass(tmp_path_factory, contents, extra):
    path = tmp_path_factory.mktemp("saved") / "cache.txt"
    store = MemoStore(path)
    for key, value in contents.items():
        store.put(key, value)
    store.save()
    records = hbnum._saved_records(path.read_bytes())
    assert records is not None  # the whole-file check reads what save writes
    reloaded = MemoStore(path)
    assert records == reloaded._read_lines(path.read_bytes())
    assert list(records) == sorted(contents)  # file order, which the load audit draws from
    assert reloaded.load(audit_samples=0) == len(contents)
    assert reloaded.items() == sorted(contents.items())
    # a later save writes the same bytes as a store that never saw the file
    reloaded.put(extra, Fraction(7, 3))
    reloaded.save()
    store.put(extra, Fraction(7, 3))
    fresh = MemoStore(path.with_name("fresh.txt"))
    for key, value in store.items():
        fresh.put(key, value)
    fresh.save()
    assert path.read_bytes() == fresh.path.read_bytes()


_SAVED_LINES = st.builds(
    lambda N, r, n, value: f"{N} {r} {n} {format_rational(value)}\n",
    st.integers(1, 3),
    st.integers(1, 2),
    st.integers(0, 3),
    st.fractions(max_denominator=50),
)
_ODD_FIELDS = st.sampled_from(
    ["0", "05", "+2", "-1", "-05/1134", "1/0", "1/00", "1/-3", "+1/3", "7", "x"]
    + ["\u0663", "1/\u0663"]  # an Arabic-Indic 3, which int() reads
)
_BENT_LINES = st.builds(
    lambda fields, sep, end: sep.join(fields) + end,
    st.lists(st.one_of(st.integers(0, 3).map(str), _ODD_FIELDS), max_size=5),
    st.sampled_from([" ", "  ", "\t"]),
    st.sampled_from(["\n", "\r\n", " \n", ""]),
)


@settings(deadline=None)
@given(st.lists(_SAVED_LINES, max_size=6), st.lists(_BENT_LINES, max_size=1), st.integers(0, 6))
def test_whole_file_check_accepts_only_what_the_loop_accepts(tmp_path_factory, lines, bent, at):
    path = tmp_path_factory.mktemp("text") / "cache.txt"
    path.write_bytes("".join(lines[:at] + bent + lines[at:]).encode())
    records = hbnum._saved_records(path.read_bytes())
    if not bent and len({line.rsplit(" ", 1)[0] for line in lines}) == len(lines):
        assert records is not None
    try:
        expected = MemoStore(path)._read_lines(path.read_bytes())
    except CacheError:
        assert records is None
        return
    if records is not None:  # the same records, in the same order
        assert list(records.items()) == list(expected.items())


# A record's value text in the form `save` writes, reduced or not: zeros may
# lead either part, and the denominator has a nonzero digit.
_SAVED_TEXTS = st.builds(
    lambda sign, num, den, pad_num, pad_den: f"{sign}{'0' * pad_num}{num}/{'0' * pad_den}{den}",
    st.sampled_from(["", "-"]),
    st.integers(0, 10**40),
    st.integers(1, 10**40),
    st.integers(0, 2),
    st.integers(0, 2),
)


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.dictionaries(_KEYS, _SAVED_TEXTS, min_size=1, max_size=40))
def test_saved_files_round_trip_byte_for_byte_and_decode_as_parse_rational(
    tmp_path_factory, int_digit_limit, records
):
    # the one-pass reader converts each distinct key field once and decodes a
    # text without a second check; neither may change a record
    path = tmp_path_factory.mktemp("saved") / "cache.txt"
    data = "".join(f"{N} {r} {n} {text}\n" for (N, r, n), text in sorted(records.items()))
    path.write_text(data)
    assert hbnum._saved_records(path.read_bytes()) == records
    store = MemoStore(path)
    assert store.load(audit_samples=0) == len(records)
    last = HBKey(10**31, 1, 0)  # past every key, so its record is written last
    store.put(last, Fraction(-5, 7))
    store.save()  # undecoded texts are written back as they were read
    assert path.read_text() == data + "10" + "0" * 30 + " 1 0 -5/7\n"
    for key, text in records.items():
        assert store.get(key) == parse_rational(text)


# Lines the line-by-line reader accepts, each with the text it stores and
# whether it keeps the whole file from the one-pass reader.  Their keys have
# r = 60, which no record drawn from _KEYS has.
_BENT_RECORDS = st.sampled_from(
    [
        ("3 60 0 +3/6\r\n", "+3/6", True),
        ("3 60 1 -0/5\n", "-0/5", False),
        ("3 60 2 4/007\n", "4/007", False),
        ("3 60 3 +12/-8\n", "+12/-8", True),
        ("3 60 4 7\n", "7", True),
        ("\n3 60 5 -1/3\n", "-1/3", True),  # after a blank line
        ("3 60 6 1/2\n3 60 6 1/2\n", "1/2", True),  # an equal duplicate
        ("3 60 7 2/4\n3 60 7 1/2\n", "2/4", True),  # an equal value, another text
        (f"3 60 8 -{'9' * 4301}/3\n", f"-{'9' * 4301}/3", False),  # past the digit limit
        (f"3 60 9 1/{'7' * 4400}\r", f"1/{'7' * 4400}", True),
        (f"{'1' * 4301} 60 0 5/6\n", "5/6", True),  # a key past the digit limit
    ]
)


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.dictionaries(_KEYS, _SAVED_TEXTS, max_size=10),
    st.lists(_BENT_RECORDS, min_size=1, max_size=4, unique=True),
)
def test_files_in_any_accepted_layout_decode_as_parse_rational(
    tmp_path_factory, int_digit_limit, records, bent
):
    path = tmp_path_factory.mktemp("bent") / "cache.txt"
    lines = [f"{N} {r} {n} {text}\n" for (N, r, n), text in sorted(records.items())]
    lines += [line for line, _, _ in bent]
    path.write_bytes("".join(lines).encode())
    one_pass = hbnum._saved_records(path.read_bytes())
    assert (one_pass is None) == any(line_only for _, _, line_only in bent)
    expected = {key: parse_rational(text) for key, text in records.items()}
    for line, text, _ in bent:
        N, r, n = map(_text_int, line.split()[:3])
        expected[HBKey(N, r, n)] = parse_rational(text)
    store = MemoStore(path)
    assert store.load(audit_samples=0) == len(expected)
    for key, value in expected.items():
        assert store.get(key) == value


def test_memostore_rejects_malformed_lines(tmp_path):
    # load itself rejects each record, at its line, before any value is read
    path = tmp_path / "cache.txt"
    for record, message in [
        ("2 1 4", "expected 'N r n num/den'"),
        ("2 1 4 1/0", "zero denominator in '1/0'"),
        ("2 1 4 1/-00", "zero denominator in '1/-00'"),
        ("2 1 4 a/b", "not a rational literal: 'a/b'"),
        ("2 1 4 1/2/3", "not a rational literal"),
        ("2 0 4 1/2", "r must be >= 1"),
        ("0 1 4 1/2", "N must be >= 1"),
        ("2 1 4 -1/000", "zero denominator in '-1/000'"),
    ]:
        path.write_text(f"2 1 1 -1/3\n\n{record}\n")
        with pytest.raises(CacheError, match=f":3: {message}"):
            MemoStore(path).load(audit_samples=0)
        # the same record in a file that is otherwise in the form save writes
        path.write_text(f"2 1 1 -1/3\n{record}\n2 1 5 -1/1134\n")
        with pytest.raises(CacheError, match=f":2: {message}"):
            MemoStore(path).load(audit_samples=0)


def test_memostore_audits_non_reduced_values(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text("2 1 4 -2/540\n")
    store = MemoStore(path)
    assert store.load(rng=Random(0)) == 1
    assert store.get(HBKey(2, 1, 4)) == Fraction(-1, 270)


def test_memostore_writes_undecoded_records_back_as_read(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text("2 1 4 -2/540\n2 1 5 -05/1134\n")
    store = MemoStore(path)
    store.load(audit_samples=0)
    hb(3, 1, store)
    store.save()
    assert path.read_text() == "2 1 4 -2/540\n2 1 5 -05/1134\n3 1 0 1/1\n3 1 1 -1/4\n"

    # a value that was read is written in lowest terms
    assert store.get(HBKey(2, 1, 4)) == Fraction(-1, 270)
    hb(3, 2, store)
    store.save()
    assert path.read_text().splitlines()[:2] == ["2 1 4 -1/270", "2 1 5 -05/1134"]


def test_memostore_clean_save_writes_nothing(tmp_path, monkeypatch):
    path = tmp_path / "cache.txt"
    store = MemoStore(path)
    hb_higher(2, 2, 6, store)
    store.save()
    before = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("no write expected")

    monkeypatch.setattr(hbnum.os, "replace", failing_replace)
    store.save()  # nothing changed since the last save
    reloaded = MemoStore(path)
    reloaded.load(rng=Random(1))
    reloaded.items()  # decoding every value changes none
    hb_higher(2, 2, 6, reloaded)
    reloaded.put(HBKey(2, 2, 3), hb_higher(2, 2, 3))  # same value again
    reloaded.save()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["cache.txt"]

    reloaded.put(HBKey(2, 2, 3), Fraction(0))  # a changed value must be written
    with pytest.raises(OSError, match="no write expected"):
        reloaded.save()


def test_memostore_save_keeps_entries_another_store_added(tmp_path):
    path = tmp_path / "cache.txt"
    seed = MemoStore(path)
    hb(2, 4, seed)
    seed.save()
    a, b = MemoStore(path), MemoStore(path)
    a.load(rng=Random(0))
    b.load(rng=Random(0))
    hb(2, 8, b)
    b.save()
    assert hb(2, 3, a) == hb(2, 3)  # a reads only what it holds
    a.save()
    reloaded = MemoStore(path)
    assert reloaded.load(audit_samples=0) == 9
    assert reloaded.get(HBKey(2, 1, 8)) == hb(2, 8)


def test_memostore_save_merges_entries_both_stores_added(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text("2 1 0 1/1\n2 1 1 -2/6\n")  # a non-reduced value
    a, b = MemoStore(path), MemoStore(path)
    a.load(audit_samples=0)
    b.load(audit_samples=0)
    hb(2, 6, b)  # decodes -2/6, so b writes it as -1/3
    b.save()
    hb(3, 2, a)
    a.save()  # -2/6 against -1/3 is no conflict
    reloaded = MemoStore(path)
    assert reloaded.load(audit_samples=0) == 10
    assert reloaded.items() == sorted(
        [(HBKey(2, 1, n), hb(2, n)) for n in range(7)]
        + [(HBKey(3, 1, n), hb(3, n)) for n in range(3)]
    )
    # a store that never loaded the file overwrites it, and from then on
    # knows the file it wrote: its next save keeps what a saved in between
    fresh = MemoStore(path)
    hb(4, 1, fresh)
    fresh.save()
    assert MemoStore(path).load(audit_samples=0) == 2
    hb(5, 1, a)
    a.save()
    hb(6, 1, fresh)
    fresh.save()
    assert MemoStore(path).load(audit_samples=0) == 16


def test_memostore_save_refuses_a_conflicting_value(tmp_path):
    path = tmp_path / "cache.txt"
    seed = MemoStore(path)
    hb(2, 3, seed)
    seed.save()
    a, b = MemoStore(path), MemoStore(path)
    a.load(audit_samples=0)
    b.load(audit_samples=0)
    b.put(HBKey(2, 1, 3), Fraction(5))
    b.save()
    before = path.read_bytes()
    hb(3, 1, a)
    with pytest.raises(CacheError, match="2 1 3 was saved with another value"):
        a.save()
    assert path.read_bytes() == before


def test_memostore_load_refuses_a_value_the_store_holds_otherwise(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text("2 1 5 1/7\n")
    store = MemoStore(path)
    assert hb(2, 5, store) == Fraction(-5, 1134)
    with pytest.raises(CacheError, match=f"^{re.escape(str(path))}: 2 1 5 conflicts"):
        store.load(audit_samples=0)
    assert store.get(HBKey(2, 1, 5)) == Fraction(-5, 1134)
    # equal values merge, as text or decoded, and the file's new keys come in
    path.write_text(f"2 1 4 -1/270\n2 1 5 -10/2268\n2 1 9 {format_rational(hb(2, 9))}\n")
    assert store.load(audit_samples=0) == 3
    assert store.get(HBKey(2, 1, 5)) == Fraction(-5, 1134)
    assert store.get(HBKey(2, 1, 9)) == hb(2, 9)


def test_top_key_lookup_reads_only_that_entry():
    # deliberately wrong values: the result can only come from the store
    store = MemoStore()
    store.put(HBKey(2, 1, 7), Fraction(5))
    assert hb(2, 7, store) == 5
    assert len(store) == 1
    store = MemoStore()
    store.put(HBKey(3, 2, 9), Fraction(-7, 3))
    assert hb_higher(3, 2, 9, store) == Fraction(-7, 3)
    assert len(store) == 1
    # an empty store is still the store to fill, not the default one
    store = MemoStore()
    assert hb_higher(3, 2, 4, store) == hb_higher(3, 2, 4)
    assert len(store) == 5


def test_memostore_concurrent_use():
    store = MemoStore()

    def worker(_):
        return hb_higher(3, 2, 25, store)

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(worker, range(8)))
    assert len(set(results)) == 1
    assert results[0] == hb_higher(3, 2, 25)
