"""Alternative exact routes to the same hypergeometric Bernoulli numbers.

Each function recomputes values that :mod:`hbnum` derives by recurrence,
through a structurally different identity: explicit composition sums,
binomial-weighted sums, convolution powers, parameter-descent relations,
partition sums, and determinant inversion.  Sweeping these routes against
the recurrence oracle is the package's core consistency check.

The composition-sum routes enumerate their index sets literally and are
exponential in n; they are verification tools, not bulk-table producers.
``mr`` evaluates the convolution weights by that literal enumeration, so the
Trudi and order-r explicit routes share no weight sum with the oracle or
with det, which take theirs as integer Cauchy powers.  The routes' powers
come from one table, ``hessenberg._weight_powers``: ``mr`` reads its base row
c_j = (N+j+1)...(N+e), ``hb_explicit_binom`` its powers 1..n and det's
``weight_row`` its power r.  The oracle's ``hbnum._weights`` builds its own
row with its own kernel, ``exactnum.cauchy_product``, and shares no code
with that table.

Every composition, partition, chain and convolution sum is computed in
integers: its terms are integer numerators over one common denominator,
summed per group -- part count, chain length or convolution power -- and
each group is reduced once into a ``Fraction``.  A row's lcm comes from
``hessenberg._over_lcm``, the routes' one lcm helper.  Neither it nor the
power table is one of the oracle's helpers: the oracle keeps its own lcm
and weight kernel.

The order-r explicit sum and the nested descent walk their index sets depth
first: the compositions of n, carrying each prefix's product, and the
decreasing chains from n, carrying the product of each chain's links.  So a
composition or a chain costs one multiply rather than one per part or link.
Each walk finishes in the parent frame the one extension that has no
extension of its own -- the prefix that leaves 1, the step to index 1 --
which halves the calls to 2^(n-2) and still gives that term its own product.
Neither walk merges what it visits: prefixes with equal remainders merged
would be the Cauchy-power sum of ``hb_explicit_binom``, and chains with
equal ends merged would be the recursion of ``hb_descent_step``.  The Trudi
sum takes each vector's power product, part count k and multinomial
k! / prod t_i! (from a factorial table built once per call) in one pass over
its multiplicities, the plain tuple the partition enumerator yields.

The relations over the numbers themselves (descent, convolution and the two
inversion checks) take the row of values they read; n is its last index.

The three exponential routes refuse an n past their limit with
``RoutePreconditionError`` before any work: ``hb_explicit_comp`` and
``hb_descent_nested`` above ``_COMP_MAX_N`` and ``_DESCENT_NESTED_MAX_N``,
``hb_trudi`` above ``_trudi_max_n(r)``.  Each limit sits where one call takes
about ten seconds (see README), and the CLI's route table reads these same
limits.  The library's own exponential walks refuse the same way:
``hb_higher_explicit`` above the smaller of the comp and trudi limits, and
``mr`` past the ``_STEP_BUDGET`` compositions that trudi's limit budgets,
so every point those routes admit stays admitted.  Before that, every
value route and ``mr`` check their indices as an ``exactnum.HBKey``, the
oracle's own guard, so a bool or a float index is refused as the oracle
refuses it; ``mr`` checks its weight index e as the key's n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from math import comb, factorial, lcm, prod
from typing import Sequence

from .exactnum import CompositionSpec, HBKey, binom, enumerate_compositions
# no route calls it; bench/test_bench.py checks that its tracer restores this
# binding, so the import stays until that test stops naming it
from .exactnum import cauchy_product  # noqa: F401
from .hessenberg import (
    _over_lcm,
    _require_index,
    _weight_powers,
    toeplitz_hessenberg_det,
    trudi_expand,
)

__all__ = [
    "RoutePreconditionError",
    "mr",
    "hb_explicit_comp",
    "hb_explicit_binom",
    "reciprocal_binom_inverse",
    "hb_higher_explicit",
    "hb_higher_convolution",
    "hb_descent_step",
    "hb_descent_nested",
    "hb_trudi",
    "recover_mr_det",
]


class RoutePreconditionError(ValueError):
    """An alternative route was invoked outside its domain (e.g. descent at N = 1)."""


# largest n of the 2^(n-2)-call walks of hb_explicit_comp and hb_descent_nested
_COMP_MAX_N = 22
_DESCENT_NESTED_MAX_N = 22
# steps one call of trudi or mr may take
_STEP_BUDGET = 5_000_000


@cache
def _trudi_max_n(r: int) -> int:
    """Largest n <= 52 whose trudi work stays within the step budget: the
    C(n+r, r) - 1 compositions behind its weights, plus its p(n) partition
    vectors at 16 steps each.  A step is about 2 us at N = 5 (see README)."""
    partitions = [1] + [0] * 52  # p(0)..p(52) by coin counting
    for part in range(1, 53):
        for total in range(part, 53):
            partitions[total] += partitions[total - part]
    r = max(r, 1)  # the route itself rejects r < 1
    n = 52
    while n > 0 and comb(n + r, r) + 16 * partitions[n] > _STEP_BUDGET:
        n -= 1
    return n


def _refuse_past(name: str, n: int, limit: int) -> None:
    """Raise before an exponential route starts a walk it cannot finish."""
    if n > limit:
        raise RoutePreconditionError(f"{name} requires n <= {limit}")


def _top(row: Sequence[Fraction]) -> int:
    """The index n of the row of values at 0..n a relation reads, n >= 1."""
    if len(row) < 2:
        raise ValueError("n must be >= 1")
    return len(row) - 1


def _binomial_convolution(a: list[int], b: list[int]) -> list[int]:
    """``c[m] = sum_j binom(m, j) a[m-j] b[j]`` for ``m < len(a)``: the
    multinomial sum over compositions, grouped by the last part j."""
    return [sum(comb(m, j) * a[m - j] * b[j] for j in range(m + 1)) for m in range(len(a))]


def mr(N: int, r: int, e: int) -> Fraction:
    """Convolution weight by literal enumeration of its composition sum.

    Every factor (N!)/(N+i)! is evaluated as 1/((N+1)...(N+i)) so the sum
    stays factorial-free.  Over D = (N+1)...(N+e) each factor is the integer
    c[i] / D, c the base row of ``hessenberg._weight_powers``, so every
    composition adds an integer product over D^r.  A call past the step
    budget, C(e+r-1, r-1) compositions, is refused before any is enumerated.
    The indices are checked as ``HBKey(N, r, e)``.
    """
    HBKey(N, r, e)
    if comb(e + r - 1, r - 1) > _STEP_BUDGET:
        raise RoutePreconditionError(f"mr requires C(e+r-1, r-1) <= {_STEP_BUDGET} compositions")
    c = next(_weight_powers(N, e))
    total = 0
    for comp in enumerate_compositions(CompositionSpec(e, r)):
        total += prod(map(c.__getitem__, comp))
    return Fraction(total, c[0] ** r)


def hb_explicit_comp(N: int, n: int) -> Fraction:
    """Explicit route: n! sum over positive compositions i_1+...+i_k = n of
    (-1)^k / prod_j ((N+1)...(N+i_j)), the order-r explicit route at r = 1."""
    _require_index(N, 1, n)
    _refuse_past("comp", n, _COMP_MAX_N)
    return hb_higher_explicit(N, 1, n)


def hb_explicit_binom(N: int, n: int) -> Fraction:
    """Binomial-weighted route: n! sum_k binom(n+1, k+1) (-1)^k S_k, where S_k
    runs over nonnegative k-part compositions of n.

    Each inner sum S_k is the x^n entry of the k-fold Cauchy power of
    1/((N+1)...(N+j)) -- the same sum, grouped -- which keeps this route
    polynomial-time instead of enumerating the far larger weak-composition
    index set.  The k-fold power is row k of ``hessenberg._weight_powers``,
    integers over its entry 0, and is reduced once per k.
    """
    _require_index(N, 1, n)
    total = Fraction(0)
    for k, power in zip(range(1, n + 1), _weight_powers(N, n)):
        total += Fraction((-1) ** k * binom(n + 1, k + 1) * power[n], power[0])
    return factorial(n) * total


def reciprocal_binom_inverse(row: Sequence[Fraction]) -> Fraction:
    """Alternating multinomial convolution of the numbers row = B_{N,0..n}:

        sum_k (-1)^k sum_{i_1+...+i_k = n, i_j >= 1}
            multinomial(i) B_{N,i_1} ... B_{N,i_k}

    which collapses to 1 / binom(N+n, N)."""
    n = _top(row)
    P, p = _over_lcm(row)
    p[0] = 0  # positive parts only
    power = p  # k-fold convolution, over P^k
    total = Fraction(0)
    for k in range(1, n + 1):
        if k > 1:
            power = _binomial_convolution(power, p)
        total += Fraction((-1) ** k * power[n], P**k)
    return total


def hb_higher_explicit(N: int, r: int, n: int) -> Fraction:
    """Order-r explicit route: n! sum_k (-1)^k over positive compositions of n
    of products of convolution weights, each weight evaluated by its literal
    composition sum (see ``mr``).

    Over the lcm W of the weights' denominators a k-part product is an
    integer over W^k.  ``_composition_products`` visits every composition
    once, carrying the product of its prefix, and adds each product into its
    part count's group; each group is reduced once."""
    _require_index(N, r, n)
    _refuse_past("hb_higher_explicit", n, min(_COMP_MAX_N, _trudi_max_n(r)))
    W, w = _over_lcm([mr(N, r, e) for e in range(n + 1)])
    groups = [0] * (n + 1)
    _composition_products(w, [x * w[1] for x in w], n, 0, 1, groups)
    total = Fraction(0)
    for k in range(1, n + 1):
        total += Fraction((-1) ** k * groups[k], W**k)
    return factorial(n) * total


def _composition_products(
    w: list[int], ends: list[int], remaining: int, k: int, head: int, groups: list[int]
) -> None:
    """Add ``head * w[i_1] * ... * w[i_j]`` into ``groups[k + j]`` for every
    positive composition ``i_1 + ... + i_j = remaining``; ``ends[i]`` is
    ``w[i] * w[1]``.

    One call per proper prefix that leaves at least 2, the empty one
    included: 2^(n-2) calls for the compositions of n >= 2, each extending
    its prefix's product by one factor per next part.  The prefix that leaves
    1 has no extension of its own, so its one composition is finished here,
    by ``ends``.  Two prefixes with the same remainder stay separate walks:
    merging them would make this the Cauchy-power sum of the ``binom`` route.
    (A module-level function: a nested recursive one would be a reference
    cycle.)"""
    k += 1
    groups[k] += head * w[remaining]  # the last part takes all that remains
    if remaining > 1:
        groups[k + 1] += head * ends[remaining - 1]  # then a last part of 1
        for part in range(1, remaining - 1):
            _composition_products(w, ends, remaining - part, k, head * w[part], groups)


def hb_higher_convolution(base: Sequence[Fraction], r: int) -> Fraction:
    """Order-r value as the multinomial convolution of r copies of the base
    sequence base = B_{N,0..n}: sum over n_1+...+n_r = n of multinomial(n_i)
    B_{N,n_1}...B_{N,n_r}, taken as r-1 binomial convolutions of the values'
    numerators over their lcm P, so the result is one integer over P^r."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if not base:
        raise ValueError("n must be >= 0")
    P, p = _over_lcm(base)
    power = p
    for _ in range(r - 1):
        power = _binomial_convolution(power, p)
    return Fraction(power[-1], P**r)


def hb_descent_step(prev: Sequence[Fraction], row: Sequence[Fraction], N: int) -> Fraction:
    """One-step descent in the parameter:

        B_{N,n} = N/(N+n) { B_{N-1,n}
                            + sum_{m=1}^{n-1} binom(n, n-m+1) B_{N,m} B_{N-1,n-m+1} }

    consuming prev = B_{N-1,0..n} and row = B_{N,0..n-1}."""
    if N < 2:
        raise RoutePreconditionError("descent requires N >= 2")
    n = _top(prev)
    if len(row) != n:
        raise ValueError(f"row must hold B_(N,0..{n - 1}), {n} values, not {len(row)}")
    acc = prev[n]
    for m in range(1, n):
        acc += binom(n, n - m + 1) * row[m] * prev[n - m + 1]
    return Fraction(N, N + n) * acc


def hb_descent_nested(prev: Sequence[Fraction], N: int) -> Fraction:
    """Fully unrolled descent: expresses the value through prev = B_{N-1,0..n}
    only, summing over strictly decreasing index chains n = i_0 > ... > i_m >= 1.

    A chain's term is prev[i_m] times one factor per link; over the common
    denominators of the parameter-(N-1) values and of the N/(N+i) both are
    integers, so each chain is an integer product.  ``_chain_products``
    visits every chain once, carrying the product of its links, and adds each
    term into its length m's group; each group is reduced once."""
    if N < 2:
        raise RoutePreconditionError("descent-nested requires N >= 2")
    n = _top(prev)
    _refuse_past("descent-nested", n, _DESCENT_NESTED_MAX_N)
    # prev[i] = p[i] / P, and the factor of the link a -> b of a chain,
    # prev[a-b+1] binom(a, a-b+1) N / (N+b), is f[a][b] / (P L)
    P, p = _over_lcm(prev)
    L = reduce(lcm, range(N + 1, N + n), 1)
    f = [
        [0, *(p[a - b + 1] * binom(a, a - b + 1) * N * (L // (N + b)) for b in range(1, a))]
        for a in range(n + 1)
    ]
    for row in f[2:]:
        row[1] *= p[1]  # f[a][1] also carries p[1]: a chain that steps to 1 ends there
    groups = [0] * n
    _chain_products(f, p, n, 0, 1, groups)
    total = Fraction(0)
    for m in range(n):
        total += Fraction(groups[m], P ** (m + 1) * L**m)
    return Fraction(N, N + n) * total


def _chain_products(
    f: list[list[int]], p: list[int], a: int, m: int, head: int, groups: list[int]
) -> None:
    """Add ``head`` times the term of every chain that continues a chain of
    m links ending at ``a`` (itself included) into ``groups`` by length.

    ``f[a][b]`` is the factor of the link a -> b, and ``f[a][1]`` also
    carries p[1].  One call per chain that does not end at 1: 2^(n-2) calls
    for the chains from n >= 2, each extending its product by one factor per
    link.  The step to 1 has no extension of its own, so that chain is
    finished here.  Chains with the same end stay separate walks: merging
    them would make this the recursion of the ``descent`` route."""
    groups[m] += head * p[a]  # the chain ends at a
    if a > 1:
        m += 1
        groups[m] += head * f[a][1]  # the step to 1, where it ends
        for b in range(2, a):
            _chain_products(f, p, b, m, head * f[a][b], groups)


def hb_trudi(N: int, r: int, n: int) -> Fraction:
    """Partition-sum route: n! sum over multiplicity vectors of n of
    multinomial(t) (-1)^{sum t} prod_i weight(i)^{t_i}, with the weights
    evaluated by their literal composition sums.

    That is (-1)^n n! times Trudi's expansion (:func:`trudi_expand`) of the
    Toeplitz-Hessenberg determinant with unit superdiagonal and entries
    weight(1..n)."""
    _require_index(N, r, n)
    _refuse_past("trudi", n, _trudi_max_n(r))
    weights = [mr(N, r, e) for e in range(1, n + 1)]
    return (-1) ** n * factorial(n) * trudi_expand(1, weights)


def recover_mr_det(row: Sequence[Fraction]) -> Fraction:
    """Inverse direction of the determinant route: rebuild the convolution
    weight at e = n from the numbers themselves, row = B^{(r)}_{N,0..n}, as
    the Toeplitz-Hessenberg determinant with entries (-1)^k B^{(r)}_{N,k} / k!.

    At r = 1 this recovers 1/((N+1)...(N+n)); at r = N = 1 it is 1/(n+1)!.
    """
    entries = [Fraction((-1) ** k * row[k], factorial(k)) for k in range(1, _top(row) + 1)]
    return toeplitz_hessenberg_det(1, entries)
