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
rank and membership queries are forward reductions; a caller that needs
coordinates adds each generator beside its own identity key and reads them
off what `reduce` leaves there, as `vacuum.ModeBasis.expand` does.
"""

from __future__ import annotations

from collections.abc import KeysView
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
    """Incremental span of sparse vectors over the rationals, held in ints.

    `add` extends the span and reports whether the vector was new; `reduce`
    clears a vector of its denominators and of every pivot it holds, so
    that it lies in the span iff nothing is left.  The rows stay in echelon
    form, which is all that rank and membership need.  Elimination
    cross-multiplies instead of dividing (fraction-free, as in Bareiss,
    Math. Comp. 22 (1968)), so the solver never divides.
    """

    def __init__(self) -> None:
        # int echelon rows, primitive and never rewritten once stored: each
        # pivot is its row's least key, positive, and held by no later row
        self._rows: list[Vec] = []
        self._row_of: dict[Hashable, int] = {}  # pivot key -> row index

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> KeysView:
        """The pivot keys, one per row."""
        return self._row_of.keys()

    def reduce(self, v: Vec) -> tuple[Vec, int]:
        """(r, s) in ints with s > 0, s*v - r in the span and r zero at
        every pivot."""
        if all(type(c) is int for c in v.values()):
            s, r = 1, dict(v)
        else:
            s = lcm(*(c.denominator for c in v.values()))
            r = {k: c.numerator * (s // c.denominator) for k, c in v.items()}
        # A row holds no key below its pivot, so clearing the least pivot r
        # holds never brings back a smaller one: at most `rank` steps.
        row_of = self._row_of
        while pivots := [k for k in r if k in row_of]:
            k = min(pivots)
            row = self._rows[row_of[k]]
            # r*d - row*c is zero at k, with c/d = r[k]/row[k] in lowest terms
            g = gcd(row[k], r[k])
            d, c = row[k] // g, r[k] // g
            if d != 1:
                r, s = vec_scale(r, d), s * d
            vec_add_into(r, row, -c)
        return r, s

    def add(self, v: Vec) -> bool:
        """Extend the span by v; True iff v was independent of the span."""
        r, _ = self.reduce(v)
        if not r:
            return False
        piv = min(r)
        g = gcd(*r.values()) * (1 if r[piv] > 0 else -1)
        self._row_of[piv] = len(self._rows)
        self._rows.append({k: x // g for k, x in r.items()})
        return True


def rank_of(vectors: list[Vec]) -> int:
    """Rank of the span."""
    s = SpanSolver()
    for v in vectors:
        s.add(v)
    return s.rank
