"""Exact computation and cross-verification of hypergeometric Bernoulli numbers.

The package computes the numbers B_{N,n} (and their higher-order variants
B_{N,n}^{(r)}) through several independent exact routes -- defining
recurrences, explicit composition sums, Toeplitz-Hessenberg determinants,
partition (Trudi) expansions, parameter-descent relations, convolutions and
continued-fraction convergents -- and provides p-adic machinery for
Kummer-style congruences relating them to the classical Bernoulli numbers.
All arithmetic is exact rational; there is no floating point anywhere.
"""

from .altforms import (
    RoutePreconditionError,
    hb_descent_nested,
    hb_descent_step,
    hb_explicit_binom,
    hb_explicit_comp,
    hb_higher_convolution,
    hb_higher_explicit,
    hb_trudi,
    mr,
    reciprocal_binom_inverse,
    recover_mr_det,
)
from .congruence import (
    CongruenceVerdict,
    HypothesisViolation,
    congruent,
    hb_factorial_congruence,
    hb_kummer_corollary,
    hb_kummer_pair,
    kummer_classical,
    ord_threshold,
    ordp,
)
from .contfrac import (
    ConvergentPair,
    Poly,
    Series,
    approximation_defect,
    classical_identity,
    convergent_closed,
    convergent_rec,
    identity_even,
    identity_odd,
)
from .exactnum import (
    CompositionSpec,
    binom,
    enumerate_compositions,
    enumerate_partition_vectors,
    falling,
    format_rational,
    parse_rational,
    rising,
)
from .hbnum import (
    CacheError,
    HBKey,
    MemoStore,
    classical,
    hb,
    hb_higher,
    recurrence_residual,
)
from .hessenberg import (
    InversionVerdict,
    hb_higher_det,
    inversion_pair_check,
    toeplitz_hessenberg_det,
    trudi_expand,
)

__version__ = "0.1.0"
