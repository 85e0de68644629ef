"""Exact incremental row reduction over sparse rational vectors.

Vectors are dicts mapping hashable, mutually comparable keys to exact
coefficients, with zero entries never stored.  A coefficient is a Python
int when its value is integral and a Fraction otherwise, never a float:
`exact` is that rule, the kernel stores every result through it (inline in
`vec_add_term`, its hottest call), and an int and the equal Fraction print,
compare and hash alike, so integral values stay on int arithmetic and every
division is a Fraction.  `vec_add_term`, `vec_add_into` and `vec_scale` are
the one sparse kernel that every exact algebra in the package (matrices,
vacuum states, envelope elements, polynomials) adds and scales through.
`SpanSolver` keeps an echelon (not fully reduced) row basis in ints, so
rank, membership and coordinate queries are forward reductions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Hashable

Coeff = int | Fraction
Vec = dict[Hashable, Coeff]


def exact(x: Coeff) -> Coeff:
    """The coefficient rule: an integral value as an int, else the Fraction."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


def vec_add_term(dst: Vec, key: Hashable, c: Coeff) -> None:
    """dst[key] += c, dropping the entry if it cancels to zero."""
    y = dst.get(key, 0) + c
    if y:  # the rule of `exact`, inline in the kernel's hottest call
        dst[key] = y if type(y) is int or y.denominator != 1 else y.numerator
    else:
        dst.pop(key, None)


def vec_scale(v: Vec, c: Coeff) -> Vec:
    if not c:
        return {}
    return {k: exact(c * x) for k, x in v.items()}


def vec_integral(v: Vec) -> Vec:
    """v times the lcm of its denominators: the same line, in ints."""
    return vec_scale(v, lcm(*(c.denominator for c in v.values())))


def vec_add_into(dst: Vec, src: Vec, c: Coeff = 1) -> None:
    """dst += c*src, dropping entries that cancel to zero."""
    if not c:
        return
    for k, x in src.items():
        vec_add_term(dst, k, c * x)


class SpanSolver:
    """Incremental span of sparse vectors over the rationals, solved in ints.

    `add` extends the span and reports whether the vector was new;
    `coords` writes a vector as an exact combination of the previously
    added independent generators (by their insertion index).  The rows stay
    in echelon form, which is all that rank, membership and coordinates
    need.  Elimination cross-multiplies instead of dividing (fraction-free,
    as in Bareiss, Math. Comp. 22 (1968)), so the one division is the one
    `coords` makes.
    """

    def __init__(self) -> None:
        # int echelon rows, never rewritten once stored: each pivot is its
        # row's least key, positive, and held by no later row; row i =
        # -sum combo[i][t] * gen_t, and each pair is kept primitive
        self._rows: list[Vec] = []
        self._combos: list[Vec] = []
        self._row_of: dict[Hashable, int] = {}  # pivot key -> row index

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, v: Vec) -> tuple[Vec, Vec, int]:
        """(r, combo, s) in ints with s * v = r + sum combo*gens, s > 0 and r
        zero at every pivot."""
        if all(type(c) is int for c in v.values()):
            s, r = 1, dict(v)
        else:
            s = lcm(*(c.denominator for c in v.values()))
            r = {k: c.numerator * (s // c.denominator) for k, c in v.items()}
        combo: Vec = {}
        # A row holds no key below its pivot, so clearing the least pivot r
        # holds never brings back a smaller one: at most `rank` steps.
        row_of = self._row_of
        while pivots := [k for k in r if k in row_of]:
            k = min(pivots)
            i = row_of[k]
            d, r, combo = _eliminate(r, combo, self._rows[i], self._combos[i], k)
            s *= d
        return r, combo, s

    def add(self, v: Vec) -> bool:
        """Extend the span by v; True iff v was independent of the span."""
        r, combo, s = self._reduce(v)
        if not r:
            return False
        piv = min(r)
        combo[self.rank] = -s  # v is generator number `rank`
        r, combo = _primitive(r, combo, r[piv])
        self._row_of[piv] = len(self._rows)
        self._rows.append(r)
        self._combos.append(combo)
        return True

    def coords(self, v: Vec) -> Vec | None:
        """Exact coordinates of v over the independent generators, or None.

        Only meaningful when every `add` so far returned True (a basis);
        generator indices are insertion indices.
        """
        r, combo, s = self._reduce(v)
        if r:
            return None
        return combo if s == 1 else vec_scale(combo, Fraction(1, s))


def _eliminate(dst: Vec, dst_combo: Vec, row: Vec, combo: Vec, k) -> tuple[int, Vec, Vec]:
    """(d, d*dst - c*row, d*dst_combo - c*combo), with c/d = dst[k]/row[k] in
    lowest terms and d > 0 (row[k] > 0), so that the new dst is zero at k."""
    g = gcd(row[k], dst[k])
    d, c = row[k] // g, dst[k] // g
    if d != 1:
        dst, dst_combo = vec_scale(dst, d), vec_scale(dst_combo, d)
    vec_add_into(dst, row, -c)
    vec_add_into(dst_combo, combo, -c)
    return d, dst, dst_combo


def _primitive(row: Vec, combo: Vec, sign: int) -> tuple[Vec, Vec]:
    """row and combo divided by their common gcd, times the sign of `sign`."""
    g = gcd(*row.values(), *combo.values()) * (1 if sign > 0 else -1)
    return {k: x // g for k, x in row.items()}, {t: x // g for t, x in combo.items()}


def rank_of(vectors: list[Vec]) -> int:
    """Rank of the span."""
    s = SpanSolver()
    for v in vectors:
        s.add(v)
    return s.rank
