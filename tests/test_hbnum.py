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
_LONG = "1" * 4301  # past Python's default int <-> str digit limit
_LAYOUT = "expected a record 'N r n num/den' as save writes it"


def _fifth(name, record, message=_LAYOUT):
    """A file of four saved records with `record` as its fifth line."""
    return pytest.param(_SAVED_ROW + record, 5, message, id=name)


@pytest.mark.parametrize(
    "data, line, message",
    [
        # layouts no version of save writes
        _fifth("tab", "2 1 4\t-1/270\n"),
        _fifth("two spaces", "2  1 4 -1/270\n"),
        _fifth("leading space", " 2 1 4 -1/270\n"),
        _fifth("trailing space", "2 1 4 -1/270 \n"),
        _fifth("CRLF line", "2 1 4 -1/270\r\n"),
        _fifth("no final newline", "2 1 4 -1/270"),
        pytest.param("2 1 0 1/1\n\n2 1 1 -1/3\n", 2, _LAYOUT, id="blank line"),
        pytest.param("\n", 1, _LAYOUT, id="blank file"),
        pytest.param("1 1 0 1/1\r\n1 1 1 -1/2\r\n", 1, _LAYOUT, id="CRLF file"),
        pytest.param("1 1 0 1/1\r1 1 1 -1/2\r", 1, _LAYOUT, id="CR file"),
        # keys: signed, zero-padded, out of range, or digits int() reads but
        # save never writes (an underscore, an Arabic-Indic one)
        _fifth("signed N", "+2 1 4 -1/270\n"),
        _fifth("negative n", "2 1 -4 -1/270\n"),
        _fifth("zero-padded n", "2 1 04 -1/270\n"),
        _fifth("N = 0", "0 1 4 1/2\n"),
        _fifth("r = 0", "2 0 4 1/2\n"),
        _fifth("underscored N", "1_0 1 0 1/1\n"),
        _fifth("Arabic-Indic N", "\u0661 1 1 -1/2\n"),
        _fifth("long N with a letter", f"{_LONG}x 1 1 1/3\n"),
        _fifth("long underscored n", f"2 1 1_{_LONG} 1/3\n"),
        _fifth("long doubly signed n", f"2 1 --{_LONG} 1/3\n"),
        # values: no denominator, a sign save never writes, a zero
        # denominator, or no rational literal
        _fifth("no denominator", "2 1 4 7\n"),
        _fifth("signed numerator", "2 1 4 +1/270\n"),
        _fifth("signed denominator", "2 1 4 1/-270\n"),
        _fifth("zero denominator", "2 1 4 1/0\n"),
        _fifth("zeros denominator", "2 1 4 -1/000\n"),
        _fifth("underscored value", "2 1 4 -1_0/2700\n"),
        _fifth("Arabic-Indic value", "2 1 4 -1/\u0662\u0667\u0660\n"),
        _fifth("letters", "2 1 4 a/b\n"),
        _fifth("two slashes", "2 1 4 1/2/3\n"),
        _fifth("decimal point", "2 1 4 1.5/2\n"),
        _fifth("three fields", "2 1 4\n"),
        _fifth("five fields", "2 1 4 -1/270 1\n"),
        # bytes that are not UTF-8 text
        pytest.param(_SAVED_ROW.encode() + b"2 1 4 -1/270\xff\n", 5, _LAYOUT, id="byte 0xff"),
        pytest.param(b"1 1 0 1/1\n\xc3(\n", 2, _LAYOUT, id="bad UTF-8 sequence"),
        # a key twice, whatever the values: save writes each key once
        _fifth("repeat", "2 1 1 -1/3\n", "repeated key 2 1 1"),
        _fifth("repeat, equal value", "2 1 1 -2/6\n", "repeated key 2 1 1"),
        _fifth("repeat, other value", "2 1 1 1/3\n", "repeated key 2 1 1"),
        _fifth("first of two repeats", "2 1 2 1/18\n2 1 1 -1/3\n", "repeated key 2 1 2"),
        pytest.param(
            f"{_LONG} 1 0 1/1\n2 1 0 1/1\n{_LONG} 1 0 1/1\n",
            3,
            f"repeated key {_LONG} 1 0",
            id="repeat, long N",
        ),
    ],
)
def test_memostore_refuses_a_file_at_its_first_line_not_as_save_writes_it(
    tmp_path, data, line, message
):
    path = tmp_path / "cache.txt"
    path.write_bytes(data.encode() if isinstance(data, str) else data)
    store = MemoStore(path)
    with pytest.raises(CacheError, match=f"^{re.escape(f'{path}:{line}: {message}')}$"):
        store.load(audit_samples=0)
    assert len(store) == 0


def test_memostore_reads_long_numbers(tmp_path, int_digit_limit):
    # a key past the int() digit limit converts in halves, and a long value
    # stays text until it is read
    path = tmp_path / "cache.txt"
    digits = "1" * (int_digit_limit + 1)
    records = (f"2 1 1 {digits}/3", f"2 1 1 1/{digits}", f"{digits} 1 1 1/3", f"2 1 {digits} 1/3")
    for record in records:
        path.write_text(f"2 1 0 1/1\n{record}\n")
        store = MemoStore(path)
        assert store.load(audit_samples=0) == 2
        *key, text = record.split()
        assert store.get(HBKey(*map(_text_int, key))) == parse_rational(text)


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


def test_memostore_load_reads_the_file_once(tmp_path, monkeypatch):
    # the records, and a refusal's line, come from the bytes of the file
    # whose version load stat'ed
    reads = []
    read_bytes = Path.read_bytes

    def counting(self):
        reads.append(self)
        return read_bytes(self)

    monkeypatch.setattr(Path, "read_bytes", counting)
    path = tmp_path / "cache.txt"
    path.write_bytes(b"1 1 0 1/1\n1 1 1 -1/2\n1 1 2 1/6\n")
    store = MemoStore(path)
    assert store.load() == 3 and reads == [path]
    assert store.items() == [
        (HBKey(1, 1, 0), Fraction(1)),
        (HBKey(1, 1, 1), Fraction(-1, 2)),
        (HBKey(1, 1, 2), Fraction(1, 6)),
    ]
    path.write_bytes(b"1 1 0 1/1\n1 1 1 x\n")
    with pytest.raises(CacheError, match=r"cache\.txt:2: expected a record"):
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
    records = hbnum._saved_records(path, path.read_bytes())
    reloaded = MemoStore(path)
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


def _bend_field(i, bend):
    """A bend of a saved line that applies `bend` to its field i."""

    def bent(line):
        fields = line[:-1].split(b" ")
        fields[i] = bend(fields[i])
        return b" ".join(fields) + b"\n"

    return bent


# Ways to bend a line `save` wrote so that no version of save writes it, and
# None, which repeats the key of an earlier line with any value.
_BENDS = [
    lambda line: line[:-1] + b"\r\n",
    lambda line: line[:-1] + b"\r",
    lambda line: line[:-1],  # no newline: it runs into the next line, if any
    lambda line: b"\n" + line,  # a blank line first
    lambda line: b" " + line,
    lambda line: line[:-1] + b" \n",
    lambda line: line.replace(b" ", b"\t", 1),
    lambda line: line.replace(b" ", b"  ", 1),
    lambda line: line[:-1] + b" 1\n",
    lambda line: line[:-1] + b"\xff\n",
    _bend_field(3, lambda v: v.partition(b"/")[0]),
    _bend_field(3, lambda v: v.partition(b"/")[0] + b"/0"),
    _bend_field(3, lambda v: v.replace(b"/", b"/-")),
    _bend_field(3, lambda v: b"+" + v),
    # a key field signed, zero-padded, or with an underscore or an
    # Arabic-Indic digit, which int() reads
    *(
        _bend_field(i, prefix.__add__)
        for i in range(3)
        for prefix in (b"+", b"-", b"0", b"1_", "\u0661".encode())
    ),
    None,
]


@pytest.mark.parametrize("bend", _BENDS)
@settings(deadline=None, max_examples=15)
@given(
    st.dictionaries(_KEYS, st.fractions(), min_size=1, max_size=8),
    _KEYS,
    st.fractions(),
    st.data(),
)
def test_saved_lines_and_one_bent_line_are_refused_at_its_number(
    tmp_path_factory, bend, contents, key, value, data
):
    path = tmp_path_factory.mktemp("bent") / "cache.txt"
    store = MemoStore(path)
    for k, v in contents.items():
        store.put(k, v)
    store.save()
    lines = path.read_bytes().splitlines(keepends=True)
    at = data.draw(st.integers(0 if bend else 1, len(lines)), label="at")
    if bend is None:
        key = data.draw(st.sampled_from(sorted(contents)[:at]), label="repeated")
    line = f"{' '.join(map(str, key))} {format_rational(value)}\n".encode()
    path.write_bytes(b"".join(lines[:at] + [bend(line) if bend else line] + lines[at:]))
    with pytest.raises(CacheError, match=f"^{re.escape(str(path))}:{at + 1}: "):
        MemoStore(path).load(audit_samples=0)


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
    # the reader converts each distinct key field once and decodes a text
    # without a second check; neither may change a record
    path = tmp_path_factory.mktemp("saved") / "cache.txt"
    data = "".join(f"{N} {r} {n} {text}\n" for (N, r, n), text in sorted(records.items()))
    path.write_text(data)
    assert hbnum._saved_records(path, path.read_bytes()) == records
    store = MemoStore(path)
    assert store.load(audit_samples=0) == len(records)
    last = HBKey(10**31, 1, 0)  # past every key, so its record is written last
    store.put(last, Fraction(-5, 7))
    store.save()  # undecoded texts are written back as they were read
    assert path.read_text() == data + "10" + "0" * 30 + " 1 0 -5/7\n"
    for key, text in records.items():
        assert store.get(key) == parse_rational(text)


def test_memostore_audits_non_reduced_values(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text("2 1 4 -2/540\n")
    store = MemoStore(path)
    assert store.load(rng=Random(0)) == 1
    assert store.get(HBKey(2, 1, 4)) == Fraction(-1, 270)


def test_memostore_writes_undecoded_records_back_as_read(tmp_path):
    path = tmp_path / "cache.txt"
    # zeros may lead a numerator's digits and a denominator's
    saved = "2 1 4 -2/540\n2 1 5 -05/1134\n2 1 6 -1/05670\n"
    path.write_text(saved)
    store = MemoStore(path)
    store.load(audit_samples=0)
    hb(3, 1, store)
    store.save()
    assert path.read_text() == saved + "3 1 0 1/1\n3 1 1 -1/4\n"

    # a value that was read is written in lowest terms
    assert store.get(HBKey(2, 1, 4)) == Fraction(-1, 270)
    hb(3, 2, store)
    store.save()
    assert path.read_text().splitlines()[:3] == ["2 1 4 -1/270", "2 1 5 -05/1134", "2 1 6 -1/05670"]


def test_memostore_without_a_file_refuses_load_and_save():
    store = MemoStore()
    hb(2, 3, store)
    for method in (store.load, store.save):
        with pytest.raises(CacheError, match="^store has no backing file$"):
            method()


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
