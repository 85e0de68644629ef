"""Rational evaluation of Cartan polynomials, the oracle for the integer
residuals of `a2l2.envelope.doubled_residuals`.  A polynomial is a dict
from exponent tuples over x_1..x_l to exact coefficients."""

from __future__ import annotations

from fractions import Fraction


def mono(l: int, *ts: int) -> tuple[int, ...]:
    """Exponent tuple of the monomial x_t1 x_t2 ... in l variables, 1-based."""
    return tuple(ts.count(t) for t in range(1, l + 1))


def poly_eval(p, vals) -> Fraction:
    """Value of the polynomial p at the point vals, in Fractions."""
    vals = [Fraction(v) for v in vals]
    if any(len(k) != len(vals) for k in p):
        raise ValueError("wrong number of values")
    total = Fraction(0)
    for k, c in p.items():
        term = Fraction(c)
        for v, e in zip(vals, k):
            term *= v**e
        total += term
    return total


def eval_polys(polys, coroot_vals) -> list[Fraction]:
    """Values of the polynomials at the coroot coordinates c."""
    return [poly_eval(p, coroot_vals) for p in polys]
