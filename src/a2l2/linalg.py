"""Exact incremental row reduction over sparse rational vectors.

Vectors are dicts mapping hashable, mutually comparable keys to exact
coefficients, with zero entries never stored.  A coefficient is a Python
int when its value is integral and a Fraction otherwise, never a float:
`exact` is that rule, the kernel stores every result through it, and an
int and the equal Fraction print, compare and hash alike.  Integral values
thus stay on the fast int arithmetic, and every division is a Fraction.
`vec_add_term`, `vec_add_into` and `vec_scale` are the one sparse kernel
that every exact algebra in the package (matrices, vacuum states, envelope
elements, polynomials) adds and scales through, and `format_sum` is the
one printer of an exact signed sum.  `SpanSolver` keeps a fully reduced
(Gauss-Jordan) row basis, so rank, membership, and coordinate queries are
all single reduction passes with no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Hashable, Iterable

Coeff = int | Fraction
Vec = dict[Hashable, Coeff]


def exact(x: Coeff) -> Coeff:
    """The coefficient rule: an integral value as an int, else the Fraction."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


def vec_add_term(dst: Vec, key: Hashable, c: Coeff) -> None:
    """dst[key] += c, dropping the entry if it cancels to zero."""
    y = dst.get(key, 0) + c
    if y:
        dst[key] = exact(y)
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


def format_sum(terms: Iterable[tuple[Coeff, str]]) -> str:
    """Print (coefficient, label) pairs, in the given order, as a signed sum.

    A coefficient of +-1 is dropped before a label, an empty label is the
    unit term (printed as its bare magnitude), and no terms print as "0".
    """
    pieces: list[str] = []
    for c, label in terms:
        mag = abs(c)
        if not label:
            body = str(mag)
        elif mag == 1:
            body = label
        else:
            body = f"{mag}*{label}"
        if pieces:
            pieces.append(f"- {body}" if c < 0 else f"+ {body}")
        else:
            pieces.append(f"-{body}" if c < 0 else body)
    return " ".join(pieces) if pieces else "0"


class SpanSolver:
    """Incremental span of sparse vectors over the rationals.

    `add` extends the span and reports whether the vector was new;
    `coords` writes a vector as an exact combination of the previously
    added independent generators (by their insertion index).
    """

    def __init__(self) -> None:
        self._rows: list[Vec] = []          # reduced rows, pivot coeff 1
        self._combos: list[Vec] = []        # row i = sum combo[i][t] * gen_t
        self._pivots: list[Hashable] = []   # pivot key of row i
        self._row_of: dict[Hashable, int] = {}  # pivot key -> row index

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, v: Vec) -> tuple[Vec, Vec]:
        """Return (remainder, combo) with v = remainder + sum combo*gens."""
        r = dict(v)
        combo: Vec = {}
        # Rows are mutually reduced, so subtracting one never touches another
        # row's pivot: one pass, in row order, over the pivots v itself holds.
        row_of = self._row_of
        for i in sorted(row_of[k] for k in v if k in row_of):
            c = r[self._pivots[i]]
            vec_add_into(r, self._rows[i], -c)
            vec_add_into(combo, self._combos[i], c)
        return r, combo

    def add(self, v: Vec) -> bool:
        """Extend the span by v; True iff v was independent of the span."""
        r, combo = self._reduce(v)
        if not r:
            return False
        piv = min(r.keys())
        s = r[piv]
        inv = exact(Fraction(1, s))
        row = vec_scale(r, inv)
        # index of the new generator: one per earlier independent add
        new_combo: Vec = {self.rank: inv}
        vec_add_into(new_combo, combo, -inv)
        # keep older rows free of the new pivot (full Gauss-Jordan)
        for i in range(len(self._rows)):
            c = self._rows[i].get(piv)
            if c:
                vec_add_into(self._rows[i], row, -c)
                vec_add_into(self._combos[i], new_combo, -c)
        self._rows.append(row)
        self._combos.append(new_combo)
        self._row_of[piv] = len(self._pivots)
        self._pivots.append(piv)
        return True

    def coords(self, v: Vec) -> Vec | None:
        """Exact coordinates of v over the independent generators, or None.

        Only meaningful when every `add` so far returned True (a basis);
        generator indices are insertion indices.
        """
        r, combo = self._reduce(v)
        if r:
            return None
        return combo


def rank_of(vectors: list[Vec]) -> int:
    """Rank of the span; adding stops at the number of distinct keys, its bound."""
    bound = len(set().union(*vectors))
    s = SpanSolver()
    for v in vectors:
        if s.rank == bound:
            break
        s.add(v)
    return s.rank
