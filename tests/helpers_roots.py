"""Rational oracle for the admissibility decision.

`a2l2.affroots.check_admissible` decides admissibility in closed form at
the studied level, on integers over a common denominator.  This module
keeps affine weights with `Fraction` coefficients and their arithmetic, the
Weyl vector, coroot pairings, the affine lift of a classified weight and the
general decision in `Fraction` arithmetic: the table of positive real root
families, the pairing progression of each family read off the eps
coordinates, the first integral parameter of a rational progression, and
the coroot rank from the general `SpanSolver` rank (`linalg.rank_of`).
`admissible_input` builds the integer input of `check_admissible` from a
weight, independently of the integer weight table of `a2l2.classify`, and
`pairwise_condition1` decides its condition 1 on that input one pair of
coordinates at a time.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Optional, Sequence

from a2l2 import affroots
from a2l2.affroots import AdmissibilityReport, check_admissible, ip
from a2l2.classify import all_highest_weights
from a2l2.liealg import level_for
from a2l2.linalg import rank_of


class AffineWeight(affroots.AffineWeight):
    """An affine weight with every coefficient a Fraction, with the vector
    arithmetic the oracles use."""

    __slots__ = ()

    def __new__(cls, eps, d_delta=0, k0=0) -> "AffineWeight":
        eps = tuple(Fraction(v) for v in eps)
        return super().__new__(cls, eps, Fraction(d_delta), Fraction(k0))

    @property
    def rank(self) -> int:
        return len(self.eps)

    @property
    def level(self) -> Fraction:
        """Value of the pairing with delta (the central charge direction)."""
        return self.k0

    def __add__(self, other: "AffineWeight") -> "AffineWeight":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return AffineWeight(
            tuple(a + b for a, b in zip(self.eps, other.eps)),
            self.d_delta + other.d_delta,
            self.k0 + other.k0,
        )

    def __sub__(self, other: "AffineWeight") -> "AffineWeight":
        return self + other.scale(-1)

    def scale(self, c) -> "AffineWeight":
        c = Fraction(c)
        return AffineWeight(tuple(c * a for a in self.eps), c * self.d_delta, c * self.k0)


def eps_unit(l: int, i: int) -> AffineWeight:
    """eps_i as an AffineWeight, 1-based."""
    if not 1 <= i <= l:
        raise ValueError("index out of range")
    return AffineWeight(tuple(int(j == i) for j in range(1, l + 1)))


def delta(l: int) -> AffineWeight:
    return AffineWeight((0,) * l, d_delta=1)


def simple_roots(l: int) -> tuple[AffineWeight, ...]:
    """`affroots.simple_roots`, with Fraction coefficients and arithmetic."""
    return tuple(AffineWeight(*a) for a in affroots.simple_roots(l))


def coroot_pairing(lam, root) -> Fraction:
    """(lam, root^vee) = 2 (lam, root) / (root, root); real roots only."""
    norm = ip(root, root)
    if norm == 0:
        raise ValueError("isotropic root has no coroot")
    return Fraction(2 * ip(lam, root), norm)


@lru_cache(maxsize=None)
def rho(l: int) -> AffineWeight:
    """The Weyl vector: (2l+1) Lambda0c + sum_i (l - i + 1/2) eps_i; pairs to
    1 with every simple coroot."""
    r = AffineWeight(
        tuple(Fraction(2 * (l - i) + 1, 2) for i in range(1, l + 1)),
        k0=2 * l + 1,
    )
    for a in simple_roots(l):
        if coroot_pairing(r, a) != 1:
            raise AssertionError("Weyl vector normalization failed")
    return r


def affinize(x, l: int) -> AffineWeight:
    """The lift of the finite weight with doubled coroot coordinates x to the
    studied level: eps coordinates m_l = c_l / 2, then m_j = c_j + m_{j+1}
    walking down, with c = x/2; no delta component."""
    if len(x) != l:
        raise ValueError("rank mismatch")
    eps = [Fraction(x[-1], 4)]
    for c in reversed(x[:-1]):
        eps.insert(0, Fraction(c, 2) + eps[0])
    return AffineWeight(eps, k0=level_for(l))


def admissible_input(lam: AffineWeight) -> tuple[list[int], int]:
    """The input (y, d) of `check_admissible` for lam: y_i / d =
    2(lam + rho, eps_i) with d the lcm of their denominators.  Refuses a
    weight that is not at the studied level, the only level the closed form
    decides."""
    l = lam.rank
    if lam.level != level_for(l):
        raise ValueError("weight is not at the studied level")
    doubled = [2 * c for c in (lam + rho(l)).eps]
    d = lcm(*(c.denominator for c in doubled))
    return [c.numerator * (d // c.denominator) for c in doubled], d


def pairwise_condition1(y: Sequence[int], d: int) -> bool:
    """Condition 1 of `check_admissible(y, d)` by a loop over every pair of
    coordinates, O(l^2): each integral pair value w = (y_i +- y_j)/d is
    tested at the first m of u = w (m >= 0) and of u = -w (m >= 1)."""
    h = 2 * len(y) + 1
    cond1_pass = True
    for i, yi in enumerate(y):
        if yi % d == 0:
            cond1_pass = cond1_pass and 0 < yi < h * d
        elif 2 * yi % d == 0:
            for z in (2 * yi // d, -2 * yi // d):
                m = (z + h) % 4 // 2
                cond1_pass = cond1_pass and z + (2 * m + 1) * h > 0
        for yj in y[i + 1:]:
            for pair in (yi + yj, yi - yj):
                w, rest = divmod(pair, d)  # u = +-w for s = +-1: one test
                if not rest:
                    for s, m_min in ((1, 0), (-1, 1)):
                        u = s * w
                        m = m_min + (u - m_min) % 2
                        cond1_pass = cond1_pass and u + m * h > 0
    return cond1_pass


def decide(lam: AffineWeight) -> AdmissibilityReport:
    """`check_admissible` on the integer input built from lam."""
    return check_admissible(*admissible_input(lam))


def coroot_perturbations(l: int) -> list[tuple[int, ...]]:
    """The weights one step of +-1/2 or +-1 away from a classified weight in
    one coroot coordinate, as doubled coordinates X, less the classified
    weights themselves; sorted."""
    classified = set(all_highest_weights(l))
    out = set()
    for x in classified:
        for i in range(l):
            for step in (-2, -1, 1, 2):
                out.add(x[:i] + (x[i] + step,) + x[i + 1:])
    return sorted(out - classified)


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
