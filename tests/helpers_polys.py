"""Rational evaluation of Cartan polynomials, the oracle for the integer
residuals of `a2l2.envelope.doubled_residuals`."""

from __future__ import annotations

from fractions import Fraction


def poly_eval(p, vals) -> Fraction:
    """Value of the CartanPoly p at the point vals, in Fractions."""
    vals = [Fraction(v) for v in vals]
    if len(vals) != p.nvars:
        raise ValueError("wrong number of values")
    total = Fraction(0)
    for k, c in p.terms.items():
        term = Fraction(c)
        for v, e in zip(vals, k):
            term *= v**e
        total += term
    return total


def eval_polys(polys, coroot_vals) -> list[Fraction]:
    """Values of the polynomials at the coroot coordinates c."""
    return [poly_eval(p, coroot_vals) for p in polys]
