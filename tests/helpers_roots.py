"""Rational oracle for the admissibility decision.

`a2l2.affroots.check_admissible` decides admissibility in closed form at
the studied level.  This module keeps the general decision in `Fraction`
arithmetic: the table of positive real root families, the pairing
progression of each family read off the eps coordinates, the first
integral parameter of a rational progression, and the coroot rank from the
general `SpanSolver` rank (`linalg.rank_of`).
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from a2l2.affroots import AdmissibilityReport, AffineWeight, rho
from a2l2.liealg import level_for
from a2l2.linalg import rank_of


@dataclasses.dataclass(frozen=True)
class RealRootFamily:
    """One integer-parameter family of positive real roots
    classical + p(m) * delta, where p(m) = 2m+1 for the long family
    (classical then being twice a short horizontal root) and p(m) = m
    otherwise; m ranges over integers >= m_min.  `classical` lists the
    nonzero eps coefficients as (0-based index, coefficient) pairs in
    increasing index order."""

    kind: str  # "long" | "intermediate" | "short"
    classical: tuple[tuple[int, int], ...]
    m_min: int
    squared_norm: int  # (classical, classical): 4, 2 or 1


@lru_cache(maxsize=None)
def positive_real_families(l: int) -> tuple[RealRootFamily, ...]:
    """All positive real roots, grouped into integer-parameter families:
    long 2(+-eps_i) + (2m+1) delta with m >= 0; intermediate (l > 1 only)
    (+-eps_i +- eps_j) + m delta; short (+-eps_i) + m delta — for the
    latter two m >= 0 when the first eps coefficient is positive, else
    m >= 1."""
    if l < 1:
        raise ValueError("rank must be at least 1")
    signs = (1, -1)
    shorts = [((i, s),) for i in range(l) for s in signs]
    pairs = [
        ((i, si), (j, sj))
        for i in range(l) for j in range(i + 1, l)
        for si in signs for sj in signs
    ]
    fams = [RealRootFamily("long", ((i, 2 * s),), 0, 4) for ((i, s),) in shorts]
    for kind, norm, supports in (("intermediate", 2, pairs), ("short", 1, shorts)):
        for sup in supports:
            fams.append(RealRootFamily(kind, sup, 0 if sup[0][1] > 0 else 1, norm))
    return tuple(fams)


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
    """Admissibility in rational arithmetic: one `pairing_progression`
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
