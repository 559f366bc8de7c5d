"""Exact computation and cross-verification of hypergeometric Bernoulli numbers.

The package computes the numbers B_{N,n} (and their higher-order variants
B_{N,n}^{(r)}) through several independent exact routes -- defining
recurrences, explicit composition sums, Toeplitz-Hessenberg determinants,
partition (Trudi) expansions, parameter-descent relations, convolutions and
continued-fraction convergents -- and provides p-adic machinery for
Kummer-style congruences relating them to the classical Bernoulli numbers.
All arithmetic is exact rational; there is no floating point anywhere.

The package exports exactly its modules' ``__all__`` lists: each module
states what of it is public, once, and nothing is named again here.
"""

from . import altforms, congruence, contfrac, exactnum, hbnum, hessenberg
from .altforms import *  # noqa: F403
from .congruence import *  # noqa: F403
from .contfrac import *  # noqa: F403
from .exactnum import *  # noqa: F403
from .hbnum import *  # noqa: F403
from .hessenberg import *  # noqa: F403

__all__ = [
    *altforms.__all__,
    *congruence.__all__,
    *contfrac.__all__,
    *exactnum.__all__,
    *hbnum.__all__,
    *hessenberg.__all__,
]

__version__ = "0.1.0"
