"""Finite-dimensional core: sl(2l+1), its trace form, the order-2 involution,
the even/odd grading, and the type-B fixed-point subalgebra.

A matrix is a `Matrix`: a plain sparse dict from index pairs (i, j),
1 <= i, j <= n, to exact coefficients, added and scaled through the `linalg`
kernel like every other exact object of the package.  The involution is
E[i,j] -> -(-1)^(i-j) E[n+1-j, n+1-i]; its fixed subalgebra is so(2l+1)
and the (-1)-eigenspace is the little adjoint module.  Every even- or
odd-part matrix the package names (generators, split basis, the closed
forms' factors) is `nu_pair(l, i, j, sign)` = E[i,j] + sign * nu(E[i,j]),
or a difference of two diagonal ones.

`split_basis(l)` is the one ordered basis graded by nu: even part, then odd
part.  It is rescaled so that every bracket constant and trace-form value
over it is an integer: the vector labelled Ep[i,j] or Em[i,j] is
nu_pair(l, i, j, +-1)/2, and the basis holds it times `split_scale(l, i, j)`;
Ea[i] is held twice, as nu_pair(l, i, n+1-i, -1), and the Cartan elements
and the d[i] as they are.  Its `scales` record each factor, for the one
printer that converts back.

`entry_weights` reads every weight of the algebra half off matrix entries,
and `common_weight` sums weights over words of basis indices.  `level_for`
is the studied level as the algebra half reads it, a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from . import level
from .linalg import Coeff, exact, vec_add_into, vec_add_term, vec_scale

Matrix = dict[tuple[int, int], Coeff]


def level_for(l: int) -> Fraction:
    """The level at which the extra singular vector appears, as a Fraction."""
    return Fraction(*level(l))


def E(i: int, j: int) -> Matrix:
    """Elementary matrix E[i,j]."""
    return {(i, j): 1}


def H(i: int) -> Matrix:
    """Standard Cartan element E[i,i] - E[i+1,i+1]."""
    return {(i, i): 1, (i + 1, i + 1): -1}


def bracket(a: Matrix, b: Matrix) -> Matrix:
    """Matrix commutator [a,b] = ab - ba."""
    t: Matrix = {}
    for (i, j), c in a.items():
        for (p, q), d in b.items():
            if j == p:
                vec_add_term(t, (i, q), c * d)
            if q == i:
                vec_add_term(t, (p, j), -(c * d))
    return t


def invariant_form(a: Matrix, b: Matrix) -> Coeff:
    """Trace form tr(ab); normalizes the highest root to squared length 2."""
    total = 0
    for (i, j), c in a.items():
        d = b.get((j, i))
        if d:
            total = total + c * d
    return exact(total)


def nu(a: Matrix, n: int) -> Matrix:
    """The order-2 automorphism E[i,j] -> -(-1)^(i-j) E[n+1-j, n+1-i] of gl(n)."""
    t: Matrix = {}
    for (i, j), c in a.items():
        sign = 1 if (i - j) % 2 else -1  # -(-1)^(i-j)
        vec_add_term(t, (n + 1 - j, n + 1 - i), sign * c)
    return t


def nu_pair(l: int, i: int, j: int, sign: int) -> Matrix:
    """E[i,j] + sign * nu(E[i,j]) in sl(2l+1): even for sign 1, odd for -1."""
    a = E(i, j)
    vec_add_into(a, nu(a, 2 * l + 1), sign)
    return a


def _nu_diag(l: int, i: int, sign: int) -> Matrix:
    """nu_pair(l, i, i, sign) - nu_pair(l, i+1, i+1, sign)."""
    a = nu_pair(l, i, i, sign)
    vec_add_into(a, nu_pair(l, i + 1, i + 1, sign), -1)
    return a


class BTypeGenerators(NamedTuple):
    """Chevalley-style generators of the fixed subalgebra so(2l+1), each a
    tuple of length l.

    For i < l, (e_i, f_i, h_i) is the triple of node i, with
    h_i = H_i + H_{2l+1-i}.  The last node has e_l, f_l and
    [e_l, f_l] = H_l + H_{l+1}; `h` ends with twice that, hbar_l, the Cartan
    element of the sqrt(2)-normalized triple, used as the last Cartan
    coordinate.
    """

    e: tuple[Matrix, ...]
    f: tuple[Matrix, ...]
    h: tuple[Matrix, ...]


@lru_cache(maxsize=None)
def b_type_generators(l: int) -> BTypeGenerators:
    """Generators of the even part as a type-B_l simple Lie algebra."""
    if l < 1:
        raise ValueError("rank l must be >= 1")
    e = tuple(nu_pair(l, i, i + 1, 1) for i in range(1, l + 1))
    f = tuple(nu_pair(l, i + 1, i, 1) for i in range(1, l + 1))
    h = tuple(_nu_diag(l, i, 1) for i in range(1, l)) + (vec_scale(_nu_diag(l, l, 1), 2),)
    return BTypeGenerators(e, f, h)


def entry_weights(
    elems: Iterable[Matrix], cartan: Sequence[Matrix]
) -> tuple[tuple[Coeff, ...], ...]:
    """Weight of each matrix of `elems` under the diagonal matrices `cartan`,
    read off the entries: under a diagonal h, E[i,j] has weight
    h[i,i] - h[j,j].  Raises ValueError unless every Cartan matrix is
    diagonal and every matrix of `elems` a nonzero weight vector."""
    if any(i != j for h in cartan for i, j in h):
        raise ValueError("Cartan matrix is not diagonal")
    out = []
    for k, x in enumerate(elems):
        found = {tuple(h.get((i, i), 0) - h.get((j, j), 0) for h in cartan) for i, j in x}
        if len(found) != 1:
            raise ValueError(f"matrix {k} is not a weight vector")
        out.append(found.pop())
    return tuple(out)


def common_weight(
    weights: Sequence[tuple[Coeff, ...]], words: Iterable[Iterable[int]]
) -> tuple[Coeff, ...]:
    """The weight all `words` share, where a word of basis indices weighs
    the sum of its indices' `weights`: zero when there are no words, and
    ValueError when two words weigh differently."""
    common = None
    for word in words:
        total = [0] * len(weights[0])
        for s in word:
            for c, w in enumerate(weights[s]):
                total[c] += w
        if common is None:
            common = total
        elif total != common:
            raise ValueError("the words mix weights")
    return tuple(common or [0] * len(weights[0]))


def computed_b_cartan(l: int) -> list[list[int]]:
    """Cartan matrix of the fixed subalgebra, read off its generators.

    Rows run over (h_1..h_{l-1}, hbar_l), columns over (e_1..e_l); entry
    (i,j) is the weight of e_j under row_i."""
    gens = b_type_generators(l)
    return [list(row) for row in zip(*entry_weights(gens.e, gens.h))]


def split_scale(l: int, i: int, j: int) -> int:
    """Factor of the split-basis vector with index pair (i, j): 4 for a short
    root, whose pair meets the middle index l+1, and 2 otherwise."""
    return 4 if l + 1 in (i, j) else 2


@lru_cache(maxsize=None)
def split_basis(l: int) -> tuple[tuple[Matrix, ...], tuple[str, ...], tuple[int, ...]]:
    """(elems, labels, scales) of the split basis of sl(2l+1), the one place
    that decides its layout.

    The even part comes first: l^2 lowering vectors, the l Cartan elements
    (h_1..h_{l-1}, hbar_l), l^2 raising vectors.  Then the odd part: the Em
    pairs, the Ea and the d.  `elems[k]` is `scales[k]` times the vector
    `labels[k]` names."""
    if l < 1:
        raise ValueError("rank l must be >= 1")
    n = 2 * l + 1

    def row(i: int, j: int, sign: int) -> tuple[Matrix, str, int]:
        scale = split_scale(l, i, j)
        label = f"{'Ep' if sign == 1 else 'Em'}[{i},{j}]"
        return vec_scale(nu_pair(l, i, j, sign), scale // 2), label, scale

    # one pair i < j per nu-orbit {E[i,j], E[n+1-j,n+1-i]}; the anti-diagonal
    # orbits (i + j = n + 1) project to zero in the even part
    reps = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1 - i)]
    rows = [row(j, i, 1) for i, j in reps]
    cart_labels = [f"h[{i}]" for i in range(1, l)] + [f"hb[{l}]"]
    rows += [(h, label, 1) for h, label in zip(b_type_generators(l).h, cart_labels)]
    rows += [row(i, j, s) for s in (1, -1) for i, j in reps] + [row(j, i, -1) for i, j in reps]
    # anti-diagonal entries are purely odd; held twice, like a long Em
    rows += [(nu_pair(l, i, n + 1 - i, -1), f"Ea[{i}]", 2) for i in range(1, n + 1) if i != l + 1]
    rows += [(_nu_diag(l, i, -1), f"d[{i}]", 1) for i in range(1, l + 1)]
    if len(reps) != l * l or len(rows) != n * n - 1:
        raise AssertionError("split basis has wrong size")
    elems, labels, scales = zip(*rows)
    return elems, labels, scales
