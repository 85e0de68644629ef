"""Rational oracle for the admissibility decision.

`a2l2.affroots.check_admissible` works on rescaled integers.  This module
keeps the same decision in `Fraction` arithmetic: the pairing progression
of each root family read off the eps coordinates, the first integral
parameter of a rational progression, and the coroot rank from the general
`SpanSolver` rank (`linalg.rank_of`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from a2l2.affroots import (
    AdmissibilityReport,
    AffineWeight,
    RealRootFamily,
    positive_real_families,
    rho,
)
from a2l2.liealg import level_for
from a2l2.linalg import rank_of


def pairing_progression(
    lam: AffineWeight, fam: RealRootFamily
) -> tuple[Fraction, Fraction]:
    """(a, b) with (lam, (classical + p(m) delta)^vee) = a + b*m for every
    allowed m.  delta is isotropic, orthogonal to the eps block and pairs to
    the level k with lam, so the pairing is 2((lam, classical) + p(m) k) over
    the squared norm of the classical part."""
    n = fam.squared_norm
    k = lam.level
    proj = sum(c * lam.eps[i] for i, c in fam.classical)
    if fam.kind == "long":
        return 2 * (proj + k) / n, 4 * k / n
    return 2 * proj / n, 2 * k / n


def first_integral_parameter(
    a: Fraction, b: Fraction, m_min: int
) -> Optional[tuple[int, int]]:
    """Smallest m >= m_min with a + b*m an integer, plus the period of the
    arithmetic progression of such m; None when no integer value occurs."""
    a, b = Fraction(a), Fraction(b)
    q = b.denominator
    p = b.numerator
    scaled = a * q
    if scaled.denominator != 1:
        return None
    # solve p*m = -scaled (mod q); gcd(p, q) = 1 since b is reduced (b = 0
    # and integral b give q = 1, where every m solves it)
    inv = pow(p % q, -1, q)
    m0 = (-int(scaled) * inv) % q
    shift = (m_min - m0 + q - 1) // q  # ceil((m_min - m0) / q)
    return (m0 + q * shift, q)


def fraction_admissible(lam: AffineWeight) -> AdmissibilityReport:
    """`check_admissible` in rational arithmetic: one `pairing_progression`
    and one `first_integral_parameter` per family, and the rank of the
    integral families' eps supports from `rank_of`."""
    l = lam.rank
    if lam.level != level_for(l):
        raise ValueError("weight is not at the studied level")
    shifted = lam + rho(l)
    cond1_pass = True
    finite_parts = []
    for fam in positive_real_families(l):
        a, b = pairing_progression(shifted, fam)
        assert b > 0
        hit = first_integral_parameter(a, b, fam.m_min)
        if hit is not None:
            cond1_pass = cond1_pass and a + b * hit[0] > 0
            finite_parts.append(dict(fam.classical))
    rank = rank_of(finite_parts) + 1 if finite_parts else 0
    cond2_pass = rank == l + 1
    return AdmissibilityReport(
        cond1_pass, rank, cond2_pass, cond1_pass and cond2_pass
    )
