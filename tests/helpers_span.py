"""Coordinate solves over a span, two ways.

`FractionSpan` is the oracle: row echelon form over Fractions with pivot 1,
each row with its combination of the independent generators, sharing no
code with `linalg.SpanSolver`.  `IdentitySpan` solves on the kernel by the
textbook [A | I] reduction, as `vacuum.ModeBasis.expand` does: each
independent generator goes into a `SpanSolver` beside its own identity key,
and a vector reduces to -s times its coordinates on those keys.
"""

from __future__ import annotations

from fractions import Fraction

from a2l2.linalg import SpanSolver, vec_scale

F = Fraction


class FractionSpan:
    """Oracle: row echelon form over Fractions with pivot 1, each row with
    its combination of the independent generators, reduced in insertion
    order."""

    def __init__(self) -> None:
        self.rows: list[tuple[object, dict, dict]] = []  # (pivot, row, combo)

    def reduce(self, v):
        r = {k: F(c) for k, c in v.items() if c}
        combo: dict = {}
        for piv, row, row_combo in self.rows:
            c = r.get(piv)
            if c:
                for key, x in row.items():
                    r[key] = r.get(key, 0) - c * x
                for t, x in row_combo.items():
                    combo[t] = combo.get(t, 0) + c * x
                r = {key: x for key, x in r.items() if x}
        return r, {t: x for t, x in combo.items() if x}

    def add(self, v) -> bool:
        r, combo = self.reduce(v)
        if not r:
            return False
        piv = min(r)
        s = r[piv]
        row_combo = {t: -x / s for t, x in combo.items()}
        row_combo[len(self.rows)] = 1 / s
        self.rows.append((piv, {key: x / s for key, x in r.items()}, row_combo))
        return True

    def coords(self, v):
        r, combo = self.reduce(v)
        return None if r else combo


class IdentitySpan:
    """[A | I] on a `SpanSolver`: key k of a vector becomes (0, k) and the
    identity key of generator t is (1, t), which sorts after every (0, k).
    `coords` writes a vector over the independent generators, by their
    insertion index, an int wherever integral, or gives None outside the
    span."""

    def __init__(self) -> None:
        self.solver = SpanSolver()

    @property
    def rank(self) -> int:
        return self.solver.rank

    def _residue(self, v) -> tuple[dict, int, bool]:
        """(r, s, inside): `SpanSolver.reduce` of v, and whether r holds
        identity keys only."""
        r, s = self.solver.reduce({(0, k): c for k, c in v.items()})
        return r, s, all(side == 1 for side, _ in r)

    def add(self, v) -> bool:
        if self._residue(v)[2]:
            return False
        return self.solver.add({**{(0, k): c for k, c in v.items()}, (1, self.rank): 1})

    def coords(self, v):
        r, s, inside = self._residue(v)
        if not inside:
            return None
        coords = {t: -c for (_, t), c in r.items()}
        return coords if s == 1 else vec_scale(coords, F(1, s))
