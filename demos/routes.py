"""Every route to the same number.

Computes B_{2,6} (and an order-2 cousin) through each independent formula the
package implements and shows that they collapse to the identical exact
rational.  This is the one-number version of `hgbern verify`.
"""

from fractions import Fraction

from hgbern import (
    MemoStore,
    hb,
    hb_descent_nested,
    hb_descent_step,
    hb_det,
    hb_explicit_binom,
    hb_explicit_comp,
    hb_higher,
    hb_higher_convolution,
    hb_higher_det,
    hb_higher_explicit,
    hb_trudi,
    format_rational,
)

N, n = 2, 6
print(f"target: parameter N = {N}, index n = {n}\n")

# the relations read rows of values: both descents B_{N-1,0..n}, the
# convolution B_{N,0..n}, and the one-step descent also B_{N,0..n-1}
store = MemoStore()
prev = [hb(N - 1, i, store) for i in range(n + 1)]
base = [hb(N, i, store) for i in range(n + 1)]

routes = {
    "recurrence": hb(N, n),
    "explicit composition sum": hb_explicit_comp(N, n),
    "binomial-weighted sum": hb_explicit_binom(N, n),
    "Toeplitz-Hessenberg determinant": hb_det(N, n),
    "Trudi partition expansion": hb_trudi(N, 1, n),
    "one-step descent from N-1": hb_descent_step(prev, base[:n], N),
    "nested descent (N-1 values only)": hb_descent_nested(prev, N),
}
for name, value in routes.items():
    print(f"  {name:36s} {format_rational(value)}")

assert len(set(routes.values())) == 1
print("\nall routes agree.\n")

r = 2
print(f"order-r family: N = {N}, r = {r}, n = {n}")
higher = {
    "recurrence": hb_higher(N, r, n),
    "explicit weight sum": hb_higher_explicit(N, r, n),
    "determinant": hb_higher_det(N, r, n),
    "Trudi expansion": hb_trudi(N, r, n),
    "convolution of the base row": hb_higher_convolution(base, r),
}
for name, value in higher.items():
    print(f"  {name:36s} {format_rational(value)}")
assert len(set(higher.values())) == 1
print("\nall routes agree.")

# the numbers stay exact however deep we go
deep = hb(3, 40)
assert isinstance(deep, Fraction)
print(f"\nfor scale, the n = 40 value at N = 3 has a "
      f"{len(str(deep.denominator))}-digit denominator.")
