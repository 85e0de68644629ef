"""Affine root-system arithmetic for the twisted algebra acting on the
odd-rank special linear series, in the realization whose horizontal
subalgebra is so(2l+1).

Everything here is exact: weights live in coordinates
(eps_1..eps_l, delta, central-dual), the bilinear form is the standard
one on that basis, real roots come in long / intermediate / short
families indexed by an integer parameter, and admissibility is decided
in Python integers: the shifted weight is rescaled once to integer
coordinates, each family's first integral pairing is one linear
congruence, and the rank of the integral coroots is the rank of a signed
graph on the eps coordinates (Zaslavsky, "Signed graphs", Discrete Appl.
Math. 4 (1982)).
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .liealg import level_for


def _frac_tuple(vals) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in vals)


@dataclasses.dataclass(frozen=True)
class AffineWeight:
    """A weight written as sum(eps[i] * eps_i) + d_delta * delta + k0 * Lambda0c."""

    eps: tuple[Fraction, ...]
    d_delta: Fraction = Fraction(0)
    k0: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "eps", _frac_tuple(self.eps))
        object.__setattr__(self, "d_delta", Fraction(self.d_delta))
        object.__setattr__(self, "k0", Fraction(self.k0))

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

@dataclasses.dataclass(frozen=True)
class AlgebraData:
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


# ------------------------------------------------------- real root families

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


# ------------------------------------------------------------ admissibility

def first_integral_member(a: int, b: int, n: int, m_min: int) -> Optional[int]:
    """Smallest m >= m_min with (a + b*m)/n an integer (n > 0), or None when
    no m gives one.  The solutions of b*m = -a (mod n) exist exactly when
    g = gcd(b, n) divides a, and then form one residue class mod n/g."""
    g = math.gcd(b, n)
    if a % g:
        return None
    period = n // g
    m0 = -(a // g) * pow(b // g, -1, period) % period
    return m0 + period * ((m_min - m0 + period - 1) // period)  # ceiling lift


def signed_graph_rank(l: int, supports) -> int:
    """Rank over the rationals of the vectors +-eps_i +- eps_j, c eps_i given
    by their eps supports ((index, coefficient) pairs over the l coordinates).

    They are the edges and half-edges of a signed graph on the coordinates:
    eps_i - eps_j is a positive edge, eps_i + eps_j a negative one, and
    c eps_i a half-edge.  The rank of its frame matroid is the number of
    touched coordinates minus the number of balanced components (Zaslavsky,
    "Signed graphs", Discrete Appl. Math. 4 (1982)).  A component is
    balanced when it has no half-edge and its coordinates take parities
    that are equal across every positive edge and differ across every
    negative one; a union-find (by size) keeps each coordinate's parity
    relative to its parent."""
    parent = list(range(l))
    odd = [0] * l
    size = [1] * l
    touched = [False] * l
    balanced = [True] * l  # read at roots only
    for sup in supports:
        i = sup[0][0]
        touched[i] = True
        root, parity = i, 0
        while parent[root] != root:
            parity ^= odd[root]
            root = parent[root]
        if len(sup) == 1:
            balanced[root] = False
            continue
        (_, si), (j, sj) = sup
        touched[j] = True
        other, other_parity = j, 0
        while parent[other] != other:
            other_parity ^= odd[other]
            other = parent[other]
        sign = int(si * sj > 0)  # eps_i + eps_j asks for differing parities
        if root == other:
            if parity ^ other_parity != sign:
                balanced[root] = False
            continue
        if size[root] < size[other]:
            root, other = other, root
        parent[other] = root
        odd[other] = parity ^ other_parity ^ sign
        size[root] += size[other]
        balanced[root] = balanced[root] and balanced[other]
    return sum(touched) - sum(
        1 for i in range(l) if touched[i] and parent[i] == i and balanced[i]
    )


@dataclasses.dataclass(frozen=True)
class AdmissibilityReport:
    """Verdict of `check_admissible`: both condition flags and the rank of
    the span of the integral coroots."""

    cond1_pass: bool
    cond2_rank: int
    cond2_pass: bool
    passed: bool


def check_admissible(lam: AffineWeight) -> AdmissibilityReport:
    """Two-condition admissibility decision for weights at the studied level.

    The coroot of the real root classical + p(m) delta (p(m) = 2m+1 for the
    long families, m otherwise) pairs with a weight mu of level k to
    2((mu, classical) + p(m) k) / |classical|^2.  Rescaling the shifted
    weight lam + rho once by D, the lcm of the denominators of its eps
    coordinates and its level, gives integers E_i and K, and the shifted
    pairing along a family becomes (A + B m) / N with A = 2(sum c E_i), plus
    2K for a long family, B = 4K (long) or 2K, and N = |classical|^2 D.
    The first integral value at m >= m_min is one integer congruence
    (`first_integral_member`).

    rho pairs to 1 with every simple coroot and every real coroot is an
    integer combination of simple coroots, so lam and lam + rho pair
    integrally with the same real roots: one solve on the shifted pairing
    per family serves both conditions.

    Condition 1: along every positive family B > 0, so the integral values
    (if any) form an increasing arithmetic progression and it suffices to
    check that the first one is positive.  Condition 2: the coroots pairing
    integrally with the weight must span the full (l+1)-dimensional coroot
    space over the rationals.  The coroot of classical + p(m) delta is
    2/|classical|^2 (classical + p(m) K), K the central coroot (the degree
    direction never enters).  An integral family has integral members at
    every period, and two of them differ by a nonzero multiple of K, so the
    integral coroots span K plus the families' finite parts: the rank is one
    plus the rank of their eps supports (`signed_graph_rank`), or 0 when no
    family is integral.
    """
    l = lam.rank
    if lam.level != level_for(l):
        raise ValueError("weight is not at the studied level")
    shifted = lam + rho(l)
    coords = shifted.eps + (shifted.level,)
    d = math.lcm(*(c.denominator for c in coords))
    *eps, k = (c.numerator * (d // c.denominator) for c in coords)
    if k <= 0:
        raise AssertionError("condition-1 progression must increase")
    cond1_pass = True
    supports = []
    for fam in positive_real_families(l):
        a = 0
        for i, c in fam.classical:
            a += c * eps[i]
        if fam.kind == "long":
            a, b = 2 * (a + k), 4 * k
        else:
            a, b = 2 * a, 2 * k
        m = first_integral_member(a, b, fam.squared_norm * d, fam.m_min)
        if m is not None:
            cond1_pass = cond1_pass and a + b * m > 0
            supports.append(fam.classical)
    rank = signed_graph_rank(l, supports) + 1 if supports else 0
    cond2_pass = rank == l + 1
    return AdmissibilityReport(
        cond1_pass, rank, cond2_pass, cond1_pass and cond2_pass
    )


def kw_positivity(lam: AffineWeight) -> bool:
    """Level plus dual Coxeter number must be positive (it equals l + 1/2
    at the studied level)."""
    l = lam.rank
    return lam.level + (2 * l + 1) > 0
