"""Affine root-system arithmetic for the twisted algebra acting on the
odd-rank special linear series, in the realization whose horizontal
subalgebra is so(2l+1).

Everything here is exact: weights live in coordinates
(eps_1..eps_l, delta, central-dual), the bilinear form is the standard
one on that basis, real roots come in long / intermediate / short
families indexed by an integer parameter, and admissibility is decided
in closed form at the studied level -l-1/2: there 2(k + h^vee) = 2l+1 is
odd, so every integrality question about a shifted coroot pairing is a
parity of 2(lam + rho), and the coroot-span rank counts residue classes
of 2(lam + rho) mod 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .liealg import level_for


def _frac_tuple(vals) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in vals)


class _AffineCoordinates(NamedTuple):
    eps: tuple[Fraction, ...]
    d_delta: Fraction
    k0: Fraction


class AffineWeight(_AffineCoordinates):
    """A weight written as sum(eps[i] * eps_i) + d_delta * delta + k0 * Lambda0c,
    every coefficient stored as a Fraction."""

    __slots__ = ()

    def __new__(cls, eps, d_delta=0, k0=0) -> "AffineWeight":
        return super().__new__(cls, _frac_tuple(eps), Fraction(d_delta), Fraction(k0))

    @property
    def rank(self) -> int:
        return len(self.eps)

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
        return AffineWeight(
            tuple(c * a for a in self.eps), c * self.d_delta, c * self.k0
        )

    @property
    def level(self) -> Fraction:
        """Value of the pairing with delta (the central charge direction)."""
        return self.k0


def eps_unit(l: int, i: int) -> AffineWeight:
    """eps_i as an AffineWeight, 1-based."""
    if not 1 <= i <= l:
        raise ValueError("index out of range")
    return AffineWeight(tuple(Fraction(int(j == i)) for j in range(1, l + 1)))


def delta(l: int) -> AffineWeight:
    return AffineWeight((Fraction(0),) * l, d_delta=Fraction(1))


def ip(x: AffineWeight, y: AffineWeight) -> Fraction:
    """Symmetric bilinear form: eps_i orthonormal, (delta, Lambda0c) = 1,
    delta and Lambda0c isotropic and orthogonal to the eps block."""
    if x.rank != y.rank:
        raise ValueError("rank mismatch")
    total = sum((a * b for a, b in zip(x.eps, y.eps)), Fraction(0))
    return total + x.d_delta * y.k0 + x.k0 * y.d_delta


def coroot_pairing(lam: AffineWeight, root: AffineWeight) -> Fraction:
    """(lam, root^vee) = 2 (lam, root) / (root, root); real roots only."""
    norm = ip(root, root)
    if norm == 0:
        raise ValueError("isotropic root has no coroot")
    return 2 * ip(lam, root) / norm


# ----------------------------------------------------------- simple roots

def simple_roots(l: int) -> tuple[AffineWeight, ...]:
    """(alpha_0, ..., alpha_l): alpha_0 = delta - 2 eps_1, alpha_i = eps_i -
    eps_{i+1} for i < l, alpha_l = eps_l."""
    if l < 1:
        raise ValueError("rank must be at least 1")
    roots = [delta(l) - eps_unit(l, 1).scale(2)]
    for i in range(1, l):
        roots.append(eps_unit(l, i) - eps_unit(l, i + 1))
    roots.append(eps_unit(l, l))
    return tuple(roots)


@lru_cache(maxsize=None)
def rho(l: int) -> AffineWeight:
    """The Weyl vector: (2l+1) Lambda0c + sum_i (l - i + 1/2) eps_i; pairs to
    1 with every simple coroot."""
    r = AffineWeight(
        tuple(Fraction(2 * (l - i) + 1, 2) for i in range(1, l + 1)),
        k0=Fraction(2 * l + 1),
    )
    for a in simple_roots(l):
        if coroot_pairing(r, a) != 1:
            raise AssertionError("Weyl vector normalization failed")
    return r


# ------------------------------------------------------------ algebra data

class AlgebraData(NamedTuple):
    """Cartan matrix and structural constants of the rank-(l+1) twisted
    affine algebra."""

    l: int
    cartan_matrix: tuple[tuple[int, ...], ...]
    marks: tuple[int, ...]
    comarks: tuple[int, ...]
    h_dual: int


@lru_cache(maxsize=None)
def algebra_data(l: int) -> AlgebraData:
    if l < 1:
        raise ValueError("rank must be at least 1")
    if l == 1:
        matrix = ((2, -1), (-4, 2))
    else:
        rows = []
        for i in range(l + 1):
            row = [0] * (l + 1)
            row[i] = 2
            if i > 0:
                row[i - 1] = -2 if (i == 1 or i == l) else -1
            if i < l:
                row[i + 1] = -1
            rows.append(tuple(row))
        matrix = tuple(rows)
    marks = (1,) + (2,) * l
    comarks = (2,) * l + (1,)
    h_dual = sum(comarks)
    if h_dual != 2 * l + 1:
        raise AssertionError("dual Coxeter number mismatch")
    for i in range(l + 1):
        if sum(matrix[i][j] * marks[j] for j in range(l + 1)) != 0:
            raise AssertionError("marks are not a null vector of the matrix")
    for j in range(l + 1):
        if sum(comarks[i] * matrix[i][j] for i in range(l + 1)) != 0:
            raise AssertionError("comarks are not a null vector of the transpose")
    return AlgebraData(l, matrix, marks, comarks, h_dual)


def cartan_matrix_from_form(l: int) -> tuple[tuple[Fraction, ...], ...]:
    """Recompute the affine Cartan matrix as (alpha_j, alpha_i^vee)."""
    roots = simple_roots(l)
    return tuple(
        tuple(coroot_pairing(aj, ai) for aj in roots) for ai in roots
    )


# ------------------------------------------------------------ admissibility

class AdmissibilityReport(NamedTuple):
    """Verdict of `check_admissible`: both condition flags and the rank of
    the span of the integral coroots."""

    cond1_pass: bool
    cond2_rank: int
    cond2_pass: bool
    passed: bool


def check_admissible(lam: AffineWeight) -> AdmissibilityReport:
    """Two-condition admissibility decision for weights at the studied level.

    rho pairs to 1 with every simple coroot, so lam and lam + rho pair
    integrally with the same real roots and both conditions are read off
    the shifted weight, of level h/2 with h = 2l+1 odd.  With
    y_i = 2(lam + rho, eps_i), the shifted coroot pairings along the
    positive real roots (m >= 0, or m >= 1 when the first eps coefficient
    is negative) are
    - short +-eps_i + m delta: +-y_i + m h, integral iff y_i is an integer,
      first at the least m;
    - long 2(+-eps_i) + (2m+1) delta: (z + (2m+1) h)/4 with z = +-2 y_i,
      integral iff z is odd, first at the m in {0, 1} with
      z + (2m+1) h = 0 (mod 4);
    - intermediate s eps_i + t eps_j + m delta (i < j): (u + m h)/2 with
      u = s y_i + t y_j, integral iff u is an integer, first at the least
      m = u (mod 2).
    Condition 1 asks each first integral value to be positive (every
    progression increases with m); on the short roots, 0 < y_i < h.

    Condition 2 asks the integral coroots to span the (l+1)-dimensional
    coroot space.  Two integral members of a family differ by a nonzero
    multiple of the central coroot, so the span is that line plus the
    integral eps parts, a signed graph on the coordinates: eps_i - eps_j
    (eps_i + eps_j) is integral iff y_i = y_j (y_i = -y_j) mod 1, so the
    coordinates with y_i = +-r (mod 1) form one complete signed graph.  For
    r in {0, 1/2} a short or long half-edge makes it unbalanced, of rank
    its size; otherwise r != -r and it is balanced, of rank its size less
    one (Zaslavsky, "Signed graphs", Discrete Appl. Math. 4 (1982)).  The
    rank is l + 1 less the number b of classes {+-r} with r outside (1/2)Z,
    or 0 when no family is integral, that is when b = l; condition 2 holds
    iff every y_i is in (1/2)Z.  The loops run on the integers d y_i, d the
    lcm of the denominators of the y_i.
    """
    l = lam.rank
    if lam.level != level_for(l):
        raise ValueError("weight is not at the studied level")
    h = 2 * l + 1
    doubled = [2 * c for c in (lam + rho(l)).eps]
    d = math.lcm(*(c.denominator for c in doubled))
    y = [c.numerator * (d // c.denominator) for c in doubled]
    cond1_pass = True
    for i, yi in enumerate(y):
        if yi % d == 0:
            cond1_pass = cond1_pass and 0 < yi < h * d
        elif 2 * yi % d == 0:
            for z in (2 * yi // d, -2 * yi // d):
                m = (z + h) % 4 // 2
                cond1_pass = cond1_pass and z + (2 * m + 1) * h > 0
        for yj in y[i + 1:]:
            for s, m_min in ((1, 0), (-1, 1)):
                for t in (1, -1):
                    u, rest = divmod(s * yi + t * yj, d)
                    if not rest:
                        m = m_min + (u - m_min) % 2
                        cond1_pass = cond1_pass and u + m * h > 0
    balanced = len({min(yi % d, -yi % d) for yi in y if 2 * yi % d})
    rank = l + 1 - balanced if balanced < l else 0
    cond2_pass = rank == l + 1
    return AdmissibilityReport(cond1_pass, rank, cond2_pass, cond1_pass and cond2_pass)


def kw_positivity(lam: AffineWeight) -> bool:
    """Level plus dual Coxeter number must be positive (it equals l + 1/2
    at the studied level)."""
    l = lam.rank
    return lam.level + (2 * l + 1) > 0
