"""An oracle for the adjoint action on the envelope that does no rewriting.

Symmetrization beta: S(g0) -> U(g0) is an isomorphism of g0-modules.  On
degree <= 2 it reads beta(ab) = ab - [a, b]/2 for basis indices a <= b, so
beta^-1(ab) = ab + [a, b]/2, and the adjoint action on S(g0) is the
derivation that brackets one factor at a time and sorts the result.  All
three read only the table's `bracket_coords`: no `normal_form`, no `mul`
and no PBW order beyond sorting index tuples.  An element of S(g0) is a
dict from sorted index tuples to coefficients, like one of U(g0).
"""

from __future__ import annotations

from fractions import Fraction

from a2l2.envelope import PBWAlgebra, UEAElt
from a2l2.linalg import Coeff, vec_add_into, vec_add_term

SymElt = dict[tuple[int, ...], Coeff]


def _symmetrize(alg: PBWAlgebra, u: dict, half: Fraction) -> dict:
    """Each sorted word ab of degree 2 gains half times [a, b]; words of
    degree 0 and 1 stay as they are."""
    out: dict = {}
    for word, c in u.items():
        if len(word) > 2:
            raise ValueError("the oracle covers degree <= 2 only")
        vec_add_term(out, word, c)
        if len(word) == 2:
            vec_add_into(out, {(r,): b for r, b in alg.bracket_coords(*word).items()}, c * half)
    return out


def sym_from_uea(alg: PBWAlgebra, u: UEAElt) -> SymElt:
    """beta^-1 of an ordered envelope element of degree <= 2."""
    return _symmetrize(alg, u, Fraction(1, 2))


def uea_from_sym(alg: PBWAlgebra, p: SymElt) -> UEAElt:
    """beta of a symmetric element of degree <= 2."""
    return _symmetrize(alg, p, Fraction(-1, 2))


def sym_ad(alg: PBWAlgebra, cx: dict[int, Coeff], p: SymElt) -> SymElt:
    """x.p for x of coordinates `cx`, the derivation of S(g0) that extends
    ad x: each factor t of a word in turn is replaced by [x, t]."""
    out: SymElt = {}
    for word, c in p.items():
        for pos, t in enumerate(word):
            rest = word[:pos] + word[pos + 1:]
            for s, a in cx.items():
                for r, b in alg.bracket_coords(s, t).items():
                    vec_add_term(out, tuple(sorted(rest + (r,))), c * a * b)
    return out
