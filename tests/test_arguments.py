"""One table of the public surface's arguments.  ``TABLE`` gives every public
callable's valid arguments and each parameter's kind; a kind gives the bad
inputs and the exact message that refuses each by ``exactnum``'s rule, before
any kernel runs or the store is read.  A test fails on any parameter of
``hgbern.__all__`` or of ``MemoStore``'s public methods that has no row."""

import ast
import inspect
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import hgbern
from hgbern import *  # noqa: F403
from hgbern import altforms, congruence, contfrac, exactnum, hbnum, hessenberg
from hgbern.contfrac import _series_row
from hgbern.hessenberg import weight_row

# values that are not rational: a float would be read through a denominator
# it does not have (0.2 is not 1/5), or turn an exact result into a float
_NOT_RATIONAL = (0.2, 1.0, float("nan"), complex(1, 0), "1/5")


def integer(least=None, field=None):
    """An int argument, refused as `field` (an ``HBKey`` field) or by its own
    name: True, two floats and a text by their type, then `least` - 1."""

    def bad(name, valid):
        name = field or name
        cases = [
            (x, f"{name} must be an int, got {x!r}")
            for x in (True, float(valid), valid + 0.5, str(valid))
        ]
        return cases + ([(least - 1, f"{name} must be >= {least}")] if least is not None else [])

    return bad


def rational(name, valid):
    message = "{} must be a rational number (int or Fraction), got {!r}"
    return [(x, message.format(name, x)) for x in _NOT_RATIONAL]


def rationals(name, valid):
    """A row of rational values, refused at its entry 1."""
    return [([valid[0], x, *valid[2:]], message) for x, message in rational(f"{name}[1]", None)]


def fields(**kinds):
    """A key (a tuple) or a record: each field's bad inputs in its place."""

    def bad(name, valid):
        for i, (field, kind) in enumerate(kinds.items()):
            record = not isinstance(valid, tuple)
            for x, message in kind(field, getattr(valid, field) if record else valid[i]):
                changed = (
                    replace(valid, **{field: x}) if record else (*valid[:i], x, *valid[i + 1 :])
                )
                yield changed, message

    return bad


def key_list(name, valid):
    """A list of keys, refused at its entry 0 by the bad field's name."""
    return [([key, *valid[1:]], message) for key, message in KEY(name, valid[0])]


def exempt(reason):
    """A parameter the rule does not cover, for `reason`."""
    return lambda name, valid: ()


KEY_N, KEY_R, KEY_n = integer(1, "N"), integer(1, "r"), integer(0, "n")
VALUE_n = integer(1, "n")  # a value route's n
KEY = fields(N=KEY_N, r=KEY_R, n=KEY_n)
_STORE = object()  # stands for the store a test passes
STORE = (_STORE, exempt("the store the test passes, which a refused call leaves as it was"))
OUT = (None, exempt("an output list the call appends to"))
RNG = (None, exempt("a random.Random"))
RESULT = exempt("a result's field, which the library builds")


_B1, _B2 = ([hb(N, n) for n in range(6)] for N in (1, 2))  # rows a relation reads
_PAIR = convergent_rec(2, 3)

# each public callable's parameters as (valid value, kind); the helpers
# weight_row and _series_row are the routes' and checks' own guards, and
# Poly.__getitem__ reads a public class's coefficients
TABLE = {
    # altforms: mr's weight index is the key's n
    mr: dict(N=(2, KEY_N), r=(2, KEY_R), e=(3, KEY_n)),
    hb_explicit_comp: dict(N=(2, KEY_N), n=(3, VALUE_n)),
    hb_explicit_binom: dict(N=(2, KEY_N), n=(3, VALUE_n)),
    hb_higher_explicit: dict(N=(2, KEY_N), r=(2, KEY_R), n=(3, VALUE_n)),
    hb_trudi: dict(N=(2, KEY_N), r=(2, KEY_R), n=(3, VALUE_n)),
    hb_higher_convolution: dict(base=(_B2, rationals), r=(2, integer(1))),
    hb_descent_step: dict(prev=(_B1, rationals), row=(_B2[:5], rationals), N=(2, integer())),
    hb_descent_nested: dict(prev=(_B1, rationals), N=(2, integer())),
    reciprocal_binom_inverse: dict(row=(_B2, rationals)),
    recover_mr_det: dict(row=(_B2, rationals)),
    # congruence
    ordp: dict(x=(Fraction(2, 25), rational), p=(5, integer())),
    ord_threshold: dict(p=(5, integer()), n=(2, integer(1)), nu=(1, integer(0)), m=(22, integer())),
    kummer_classical: dict(
        p=(5, integer()), m=(22, integer()), n=(2, integer()), nu=(1, integer(0)), store=STORE
    ),
    hb_factorial_congruence: dict(p=(3, integer()), N=(10, KEY_N), n=(6, KEY_n), store=STORE),
    hb_kummer_corollary: dict(
        p=(5, integer()), N=(626, KEY_N), n=(2, integer(1)), nu=(0, integer(0)), store=STORE
    ),
    hb_kummer_pair: dict(p=(5, integer()), N=(1 + 5**48, KEY_N), m=(22, integer()),
                         n=(2, integer(1)), nu=(1, integer(0)), store=STORE),
    CongruenceVerdict: dict.fromkeys(
        ("holds", "p", "modulus_exponent", "difference_ord", "lhs_residue", "rhs_residue",
         "threshold"), (None, RESULT)
    ),
    # contfrac: a convergent's indices are refused where approximation_defect reads them
    Poly: dict(coefficients=([1, Fraction(-1, 3)], rationals)),
    Poly.__getitem__: dict(self=(Poly([1, 2]), exempt("the polynomial")), power=(1, integer())),
    Series: dict(coefficients=((), RESULT)),
    ConvergentPair: dict(n=(3, RESULT), P=(_PAIR.P, RESULT), Q=(_PAIR.Q, RESULT), N=(2, RESULT)),
    convergent_rec: dict(N=(2, KEY_N), n=(3, KEY_n)),
    convergent_closed: dict(N=(2, KEY_N), n=(3, KEY_n)),
    approximation_defect: dict(pair=(_PAIR, fields(N=KEY_N, n=KEY_n)), store=STORE),
    _series_row: dict(N=(2, KEY_N), n=(3, KEY_n), store=STORE),
    identity_even: dict(N=(2, KEY_N), n=(2, VALUE_n), h=(1, integer(0)), store=STORE),
    identity_odd: dict(N=(2, KEY_N), n=(2, VALUE_n), h=(1, integer(0)), store=STORE),
    # h's range is the variant's, a name refused by its own check
    classical_identity: dict(
        variant=("odd", exempt("a name")), n=(2, VALUE_n), h=(1, integer()), store=STORE
    ),
    # exactnum: each count at its least value, which computes
    HBKey: dict(N=(2, KEY_N), r=(1, KEY_R), n=(3, KEY_n)),
    format_rational: dict(value=(Fraction(-1, 3), rational)),
    # ASCII digits only, as the cache reader reads them
    parse_rational: dict(text=("-1/3", lambda name, valid: [
        (x, f"not a rational literal: {x!r}") for x in ("١/٢", "0.2")
    ])),
    falling: dict(a=(3, integer()), k=(0, integer(0))),
    rising: dict(a=(3, integer()), k=(0, integer(0))),
    binom: dict(a=(5, integer()), k=(0, integer(0))),
    CompositionSpec: dict(total=(0, integer(0)), parts=(1, integer(1))),
    enumerate_compositions: dict(spec=(CompositionSpec(3, 2), exempt("its row checks it"))),
    enumerate_partition_vectors: dict(m=(1, integer(1))),
    # hbnum: a store makes any key an HBKey, so a float key field is refused
    # rather than read or write the int key's value
    MemoStore: dict(path=(None, exempt("a file path"))),
    hb: dict(N=(2, KEY_N), n=(3, KEY_n), store=STORE),
    classical: dict(n=(3, KEY_n), store=STORE),
    hb_higher: dict(
        N=(2, KEY_N), r=(2, KEY_R), n=(3, KEY_n), store=(None, exempt("storeless walk")), row=OUT
    ),
    recurrence_residual: dict(N=(2, KEY_N), r=(2, KEY_R), n=(3, VALUE_n), store=STORE),
    MemoStore.__len__: dict(self=STORE),
    MemoStore.__contains__: dict(self=STORE, key=((2, 1, 3), KEY)),
    MemoStore.get: dict(self=STORE, key=((2, 1, 3), KEY)),
    MemoStore.put: dict(self=STORE, key=((2, 1, 3), KEY), value=(Fraction(-5, 2), rational)),
    MemoStore.kept: dict(self=STORE, key=(("k",), exempt("derived data's own key")),
                         build=(list, exempt("a callable")), args=((), exempt("its arguments"))),
    MemoStore.items: dict(self=STORE),
    MemoStore.load: dict(self=STORE, audit_samples=(3, integer()), rng=RNG),  # -1: random's text
    MemoStore.save: dict(self=STORE),
    MemoStore.audit: dict(
        self=STORE, samples=(3, integer()), rng=RNG, keys=([(2, 1, 3)], key_list)
    ),
    MemoStore.mismatches: dict(self=STORE, keys=([(2, 1, 3), HBKey(2, 1, 4)], key_list)),
    # hessenberg: weight_row's depth is the key's n
    toeplitz_hessenberg_det: dict(
        a0=(1, rational), entries=([Fraction(1, 2), 3], rationals), leading=OUT
    ),
    trudi_expand: dict(a0=(1, rational), entries=([Fraction(1, 2), 3], rationals)),
    hb_higher_det: dict(N=(2, KEY_N), r=(2, KEY_R), n=(3, VALUE_n), row=OUT),
    weight_row: dict(N=(2, KEY_N), r=(2, KEY_R), upto=(3, KEY_n)),
    InversionVerdict: dict.fromkeys(
        ("convolution_ok", "alpha_from_r_ok", "r_from_alpha_ok"), (True, RESULT)
    ),
    inversion_pair_check: dict(alphas=([Fraction(1, 2), 2], rationals), rs=([1, 3], rationals)),
}

# two arguments at once, refused by the one checked first: HBKey checks
# every type before any range, and binom checks a before k
_FIRST = [
    (function, {"N": 0.5, "r": 0, "n": -1}, "N must be an int, got 0.5")
    for function in (HBKey, hb_higher, recurrence_residual)
] + [(binom, {"a": True, "k": -1}, "a must be an int, got True")]

# a bad key among good ones, where the seeded draw takes a good one or none:
# every key of the pool is refused by name, drawn or not
_POOL = [
    (MemoStore.audit, {"samples": samples, "keys": [(2, 1, 9.5), (2, 1, 3), (2, 1, 4)]},
     "n must be an int, got 9.5")
    for samples in (0, 1)
]

_CASES = [
    (function, {name: bad}, message)
    for function, params in TABLE.items()
    for name, (valid, kind) in params.items()
    for bad, message in kind(name, valid)
] + _FIRST + _POOL


def _call(function, store, **changed):
    args = []
    for name, parameter in inspect.signature(function).parameters.items():
        value = changed[name] if name in changed else TABLE[function][name][0]
        value = store if value is _STORE else value
        args += value if parameter.kind is parameter.VAR_POSITIONAL else [value]
    out = function(*args)
    return list(out) if inspect.isgenerator(out) else out


def _store(path):
    """A saved store with values and kept data: the identity checks' N = 2
    rows and lists, and B_{1,0..22}."""
    store = MemoStore(path)
    for h in range(5):
        identity_even(2, 2, h, store)
    classical(22, store)
    store.save()
    return store


# what computes: a refused call must run none of them
_KERNELS = (
    hbnum._row, hbnum._weights, hbnum._order_step, exactnum.cauchy_product,
    exactnum.enumerate_compositions, exactnum.enumerate_partition_vectors, hessenberg._over_lcm,
    hessenberg._convolution, hessenberg._weight_powers, hessenberg.toeplitz_hessenberg_det,
    hessenberg.trudi_expand, altforms.mr, altforms._binomial_convolution, contfrac._p_list,
    contfrac._q_list, congruence.ordp,
)


def _started(*args):
    pytest.fail("a kernel ran, or the store was read, before the arguments were checked")


@pytest.mark.parametrize(
    "function, changed, message",
    [pytest.param(*case, id=f"{case[0].__qualname__}-{case[1]}") for case in _CASES],
)
def test_a_bad_argument_is_refused_by_its_name_before_any_work(
    function, changed, message, tmp_path, patch_every_binding, monkeypatch
):
    store = _store(tmp_path / "cache.txt")
    before = store.items(), dict(store._kept), store.path.read_bytes()
    for kernel in _KERNELS:
        patch_every_binding(kernel, _started)
    for method in ("get", "put", "kept"):
        monkeypatch.setattr(store, method, _started)
    with pytest.raises(ValueError) as raised:
        _call(function, store, **changed)
    assert str(raised.value) == message
    assert (store.items(), store._kept, store.path.read_bytes()) == before


@pytest.mark.parametrize("function", TABLE, ids=lambda function: function.__qualname__)
def test_the_valid_arguments_of_every_row_compute(function, tmp_path):
    _call(function, _store(tmp_path / "cache.txt"))


def test_the_table_rows_every_parameter_of_the_public_surface():
    public = [getattr(hgbern, name) for name in hgbern.__all__] + [
        method for name, method in vars(MemoStore).items()
        if inspect.isfunction(method) and not re.match(r"_[^_]|__init__", name)
    ]
    rows = {function.__qualname__: set(params) for function, params in TABLE.items()}
    for function in public:
        if isinstance(function, type) and issubclass(function, Exception):
            continue  # it takes its message
        name = function.__qualname__
        assert rows.pop(name, None) == set(inspect.signature(function).parameters), name
    assert set(rows) == {"Poly.__getitem__", "_series_row", "weight_row"}


# an argument rule's words, restated: the type half, or the bound half for an index
_RULE_WORDS = re.compile(r"must be an int|(?:\b(?:N|r|n|nu)|\{\}) must be >=")
# (file, function) where the words name something that is not an integer
# argument, with the reason
_RULE_WORDS_ALLOWED = {
    ("altforms.py", "_top"): "the length of a row of values, which sets its n",
    ("altforms.py", "hb_higher_convolution"): "an empty base row, which has no n",
}


def test_only_exactnum_states_the_argument_rule():
    # every integer argument is refused by exactnum's rule; a message that
    # restates it elsewhere is a second copy that can drift from it
    found = set()

    def visit(node, owner, path):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = node.name
        if isinstance(node, ast.JoinedStr):
            parts = (v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
            if _RULE_WORDS.search("".join(parts)):
                found.add((path.name, owner))
            return
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _RULE_WORDS.search(node.value):
                found.add((path.name, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner, path)

    for path in Path(hgbern.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), None, path)
    # the scan sees the rule where it is stated, in f-strings too
    assert {("exactnum.py", "__new__"), ("exactnum.py", "_require_int")} <= found
    assert {key for key in found if key[0] != "exactnum.py"} == set(_RULE_WORDS_ALLOWED)
