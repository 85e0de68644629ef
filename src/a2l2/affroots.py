"""Affine root-system data for the twisted algebra acting on the odd-rank
special linear series, in the realization whose horizontal subalgebra is
so(2l+1), and the admissibility decision at the studied level.

Weights live in coordinates (eps_1..eps_l, delta, central-dual) with the
standard bilinear form on that basis.  The simple roots have integer
coordinates, so the Cartan matrix is recomputed from the form in ints.
Admissibility is decided in closed form at the studied level -l-1/2: there
2(k + h^vee) = 2l+1 is odd, so every integrality question about a shifted
coroot pairing is a parity of 2(lam + rho), and the coroot-span rank counts
residue classes of 2(lam + rho) mod 1.  The decision reads 2(lam + rho) as
integers over a common denominator, so it builds no weight and no Fraction.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence


class AffineWeight(NamedTuple):
    """The weight sum(eps[i] * eps_i) + d_delta * delta + k0 * Lambda0c,
    with exact coefficients."""

    eps: tuple
    d_delta: int = 0
    k0: int = 0


def ip(x: AffineWeight, y: AffineWeight):
    """Symmetric bilinear form: eps_i orthonormal, (delta, Lambda0c) = 1,
    delta and Lambda0c isotropic and orthogonal to the eps block."""
    if len(x.eps) != len(y.eps):
        raise ValueError("rank mismatch")
    total = sum(a * b for a, b in zip(x.eps, y.eps))
    return total + x.d_delta * y.k0 + x.k0 * y.d_delta


# ----------------------------------------------------------- simple roots

def simple_roots(l: int) -> tuple[AffineWeight, ...]:
    """(alpha_0, ..., alpha_l): alpha_0 = delta - 2 eps_1, alpha_i = eps_i -
    eps_{i+1} for i < l, alpha_l = eps_l; every coordinate an int."""
    if l < 1:
        raise ValueError("rank must be at least 1")

    def eps(*entries: tuple[int, int]) -> tuple[int, ...]:
        out = [0] * l
        for i, c in entries:
            out[i] = c
        return tuple(out)

    return (
        AffineWeight(eps((0, -2)), d_delta=1),
        *(AffineWeight(eps((i, 1), (i + 1, -1))) for i in range(l - 1)),
        AffineWeight(eps((l - 1, 1))),
    )


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


def cartan_matrix_from_form(l: int) -> tuple[tuple[int, ...], ...]:
    """Recompute the affine Cartan matrix as (alpha_j, alpha_i^vee) =
    2 (alpha_j, alpha_i) / (alpha_i, alpha_i), in ints; raises ValueError
    on an entry that is not an integer."""
    roots = simple_roots(l)
    rows = []
    for ai in roots:
        norm = ip(ai, ai)
        row = []
        for aj in roots:
            entry, rest = divmod(2 * ip(aj, ai), norm)
            if rest:
                raise ValueError("non-integer Cartan entry")
            row.append(entry)
        rows.append(tuple(row))
    return tuple(rows)


# ------------------------------------------------------------ admissibility

class AdmissibilityReport(NamedTuple):
    """Verdict of `check_admissible`: both condition flags and the rank of
    the span of the integral coroots."""

    cond1_pass: bool
    cond2_rank: int
    cond2_pass: bool
    passed: bool


def check_admissible(y: Sequence[int], d: int) -> AdmissibilityReport:
    """Two-condition admissibility decision for a weight lam at the studied
    level, read from the integers y_i with y_i / d = 2(lam + rho, eps_i) over
    a common denominator d > 0 (any common denominator gives the same
    decision).

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
    - intermediate s (eps_i + t eps_j) + m delta (i < j): (s w + m h)/2,
      w = y_i + t y_j, integral iff w is an integer; both first values,
      s = +-1, are positive iff 0 < w < 2h (w even) or -h < w < h (w odd).
    Condition 1 asks each first integral value to be positive (every
    progression increases with m); on the short roots, 0 < y_i < h.  Each
    class of y_j mod 2 fixes the parity of w, which is monotone in y_j, so
    a window is tested at the least and greatest later y_j of each class.

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
    iff every y_i is in (1/2)Z.  Below, y_i stands for the integer d y_i.
    """
    l = len(y)
    h = 2 * l + 1
    cond1_pass, later = True, {}  # later: y_j mod 2d -> (least, greatest)
    for yi in reversed(y):
        if yi % d == 0:
            cond1_pass = cond1_pass and 0 < yi < h * d
        elif 2 * yi % d == 0:
            for z in (2 * yi // d, -2 * yi // d):
                m = (z + h) % 4 // 2
                cond1_pass = cond1_pass and z + (2 * m + 1) * h > 0
        for c, (lo, hi) in later.items():
            for r, a, b in ((yi + c, yi + lo, yi + hi), (yi - c, yi - hi, yi - lo)):
                if r % d == 0:  # d w runs from a to b; w is odd iff r % 2d
                    low, high = (-h, h) if r % (2 * d) else (0, 2 * h)
                    cond1_pass = cond1_pass and low * d < a and b < high * d
        lo, hi = later.get(yi % (2 * d), (yi, yi))
        later[yi % (2 * d)] = (min(lo, yi), max(hi, yi))
    balanced = len({min(yi % d, -yi % d) for yi in y if 2 * yi % d})
    rank = l + 1 - balanced if balanced < l else 0
    cond2_pass = rank == l + 1
    return AdmissibilityReport(cond1_pass, rank, cond2_pass, cond1_pass and cond2_pass)

