"""Finite-dimensional core: sl(2l+1), its trace form, the order-2 involution,
the even/odd grading, and the type-B fixed-point subalgebra.

Elements are sparse matrices over the rationals.  The involution is
x -> involution image with E[i,j] -> -(-1)^(i-j) E[n+1-j, n+1-i]; its fixed
subalgebra is so(2l+1) and the (-1)-eigenspace is the little adjoint module.

The split basis (even part, then odd part) is rescaled so that every bracket
constant and trace-form value over it is an integer: the vector labelled
Ep[i,j] or Em[i,j] is (E[i,j] +- nu(E[i,j]))/2, and the basis holds it times
`split_scale(l, i, j)`; Ea[i] is held twice, and the Cartan elements and the
d[i] as they are.  `G0BasisInfo.scales` records the factor of each even
element, for the one printer that converts back.

It also holds the studied level, `level_for`, as the algebra half reads it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import format_sum
from .linalg import Coeff, exact, rank_of, vec_add_into, vec_add_term, vec_scale


def level_for(l: int) -> Fraction:
    """The level -(2l+1)/2 at which the extra singular vector appears."""
    return Fraction(-(2 * l + 1), 2)


class LieElt:
    """Sparse matrix in gl(n), n = 2l+1 odd; supports the ambient bracket."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict | None = None) -> None:
        if n < 3 or n % 2 == 0:
            raise ValueError(f"matrix size must be odd and >= 3, got {n}")
        self.n = n
        clean: dict[tuple[int, int], Coeff] = {}
        for (i, j), c in (terms or {}).items():
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"index {(i, j)} out of range for n={n}")
            c = exact(Fraction(c))
            if c:
                clean[(i, j)] = c
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LieElt") -> "LieElt":
        if self.n != other.n:
            raise ValueError("matrix size mismatch")
        t = dict(self.terms)
        vec_add_into(t, other.terms)
        out = LieElt.__new__(LieElt)
        out.n, out.terms = self.n, t
        return out

    def __neg__(self) -> "LieElt":
        out = LieElt.__new__(LieElt)
        out.n = self.n
        out.terms = {k: -c for k, c in self.terms.items()}
        return out

    def __sub__(self, other: "LieElt") -> "LieElt":
        return self + (-other)

    def __rmul__(self, c) -> "LieElt":
        out = LieElt.__new__(LieElt)
        out.n = self.n
        out.terms = vec_scale(self.terms, Fraction(c))
        return out

    __mul__ = __rmul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LieElt)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    def __repr__(self) -> str:
        terms = ((c, f"E[{i},{j}]") for (i, j), c in sorted(self.terms.items()))
        return f"LieElt(n={self.n}, {format_sum(terms)})"

    def entry_vector(self) -> dict:
        """Sparse (i,j)->coeff dict for linear algebra over elements."""
        return dict(self.terms)


def E(n: int, i: int, j: int) -> LieElt:
    """Elementary matrix E[i,j]."""
    return LieElt(n, {(i, j): 1})


def H(n: int, i: int) -> LieElt:
    """Standard Cartan element E[i,i] - E[i+1,i+1], 1 <= i <= n-1."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"H index {i} out of range for n={n}")
    return LieElt(n, {(i, i): 1, (i + 1, i + 1): -1})


def bracket(a: LieElt, b: LieElt) -> LieElt:
    """Matrix commutator [a,b] = ab - ba."""
    if a.n != b.n:
        raise ValueError("matrix size mismatch")
    t: dict[tuple[int, int], Coeff] = {}
    for (i, j), c in a.terms.items():
        for (p, q), d in b.terms.items():
            if j == p:
                vec_add_term(t, (i, q), c * d)
            if q == i:
                vec_add_term(t, (p, j), -(c * d))
    out = LieElt.__new__(LieElt)
    out.n, out.terms = a.n, t
    return out


def invariant_form(a: LieElt, b: LieElt) -> Coeff:
    """Trace form tr(ab); normalizes the highest root to squared length 2."""
    if a.n != b.n:
        raise ValueError("matrix size mismatch")
    total = 0
    for (i, j), c in a.terms.items():
        d = b.terms.get((j, i))
        if d:
            total = total + c * d
    return exact(total)


def nu(a: LieElt) -> LieElt:
    """The order-2 automorphism E[i,j] -> -(-1)^(i-j) E[n+1-j, n+1-i]."""
    n = a.n
    t: dict[tuple[int, int], Coeff] = {}
    for (i, j), c in a.terms.items():
        sign = 1 if (i - j) % 2 else -1  # -(-1)^(i-j)
        vec_add_term(t, (n + 1 - j, n + 1 - i), sign * c)
    out = LieElt.__new__(LieElt)
    out.n, out.terms = n, t
    return out


class GradedPair(NamedTuple):
    plus: LieElt   # fixed by the involution (even part)
    minus: LieElt  # negated by the involution (odd part)


def split_pm(a: LieElt) -> GradedPair:
    """Eigen-split a = plus + minus with plus = (a + nu(a))/2."""
    na = nu(a)
    half = Fraction(1, 2)
    return GradedPair(half * (a + na), half * (a - na))


class BTypeGenerators(NamedTuple):
    """Chevalley-style generators of the fixed subalgebra so(2l+1).

    `e`, `f`, `h` hold the first l-1 triples; the last node comes as the
    triple (`e_l`, `f_l`, `h_l`) together with `hbar_l` = 2*h_l, the Cartan
    element of the sqrt(2)-normalized triple, used as the last Cartan
    coordinate.
    """

    l: int
    e: tuple[LieElt, ...]
    f: tuple[LieElt, ...]
    h: tuple[LieElt, ...]
    e_l: LieElt
    f_l: LieElt
    h_l: LieElt
    hbar_l: LieElt

    def cartan_elements(self) -> tuple[LieElt, ...]:
        """(h_1, ..., h_{l-1}, hbar_l): the Cartan basis used everywhere."""
        return self.h + (self.hbar_l,)

    def raising_elements(self) -> tuple[LieElt, ...]:
        return self.e + (self.e_l,)


@lru_cache(maxsize=None)
def b_type_generators(l: int) -> BTypeGenerators:
    """Generators of the even part as a type-B_l simple Lie algebra."""
    if l < 1:
        raise ValueError("rank l must be >= 1")
    n = 2 * l + 1
    e = tuple(E(n, i, i + 1) + E(n, 2 * l + 1 - i, 2 * l + 2 - i) for i in range(1, l))
    f = tuple(E(n, i + 1, i) + E(n, 2 * l + 2 - i, 2 * l + 1 - i) for i in range(1, l))
    h = tuple(H(n, i) + H(n, 2 * l + 1 - i) for i in range(1, l))
    e_l = E(n, l, l + 1) + E(n, l + 1, l + 2)
    f_l = E(n, l + 1, l) + E(n, l + 2, l + 1)
    h_l = H(n, l) + H(n, l + 1)
    return BTypeGenerators(
        l=l, e=e, f=f, h=h, e_l=e_l, f_l=f_l, h_l=h_l, hbar_l=2 * h_l
    )


def eigen_ratio(image: LieElt, vec: LieElt) -> Coeff:
    """Scalar r with image = r*vec; raises if image is not a multiple."""
    if image.is_zero():
        return 0
    key = min(vec.terms.keys())
    r = exact(Fraction(image.terms.get(key, 0), vec.terms[key]))
    if image != r * vec:
        raise ValueError("not an eigenvector")
    return r


def computed_b_cartan(l: int) -> list[list[int]]:
    """Cartan matrix of the fixed subalgebra, from brackets alone.

    Rows run over (h_1..h_{l-1}, hbar_l), columns over (e_1..e_{l-1}, e_l);
    entry (i,j) is the eigenvalue of ad(row_i) on column_j.
    """
    gens = b_type_generators(l)
    rows = gens.cartan_elements()
    cols = gens.raising_elements()
    out: list[list[int]] = []
    for hrow in rows:
        r: list[int] = []
        for ecol in cols:
            val = eigen_ratio(bracket(hrow, ecol), ecol)
            if val.denominator != 1:
                raise ValueError("non-integer Cartan entry")
            r.append(int(val))
        out.append(r)
    return out


def split_scale(l: int, i: int, j: int) -> int:
    """Factor of the split-basis vector with index pair (i, j): 4 for a short
    root, whose pair meets the middle index l+1, and 2 otherwise."""
    return 4 if l + 1 in (i, j) else 2


def _split_vector(l: int, i: int, j: int, sign: int) -> LieElt:
    """split_scale(l, i, j) * (E[i,j] + sign * nu(E[i,j])) / 2, without a
    division: E +- nu(E) for a long root, twice that for a short one."""
    a = E(2 * l + 1, i, j)
    half_scale = split_scale(l, i, j) // 2
    return half_scale * (a + nu(a) if sign > 0 else a - nu(a))


class G0BasisInfo(NamedTuple):
    """Ordered basis of the even part: negatives, Cartan, positives.

    `elems[k]` is `scales[k]` times the vector `labels[k]` names."""

    l: int
    elems: tuple[LieElt, ...]
    labels: tuple[str, ...]
    scales: tuple[int, ...]
    neg_count: int
    cartan_count: int
    pos_count: int
    pos_rep_pairs: tuple[tuple[int, int], ...]

    @property
    def dim(self) -> int:
        return len(self.elems)

    @property
    def cartan_start(self) -> int:
        return self.neg_count

    @property
    def pos_start(self) -> int:
        return self.neg_count + self.cartan_count


def _orbit_partner(n: int, i: int, j: int) -> tuple[int, int]:
    return (n + 1 - j, n + 1 - i)


@lru_cache(maxsize=None)
def g0_basis_info(l: int) -> G0BasisInfo:
    if l < 1:
        raise ValueError("rank l must be >= 1")
    n = 2 * l + 1
    reps: list[tuple[int, int]] = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if i + j == n + 1:
                continue  # anti-diagonal orbits project to zero in the even part
            if (i, j) <= _orbit_partner(n, i, j):
                reps.append((i, j))
    reps.sort()
    neg = [_split_vector(l, j, i, 1) for (i, j) in reps]
    neg_labels = [f"Ep[{j},{i}]" for (i, j) in reps]
    gens = b_type_generators(l)
    cart = list(gens.cartan_elements())
    cart_labels = [f"h[{i}]" for i in range(1, l)] + [f"hb[{l}]"]
    pos = [_split_vector(l, i, j, 1) for (i, j) in reps]
    pos_labels = [f"Ep[{i},{j}]" for (i, j) in reps]
    elems = tuple(neg + cart + pos)
    if len(elems) != l * (2 * l + 1):
        raise AssertionError("even-part basis has wrong size")
    rep_scales = [split_scale(l, i, j) for (i, j) in reps]
    return G0BasisInfo(
        l=l,
        elems=elems,
        labels=tuple(neg_labels + cart_labels + pos_labels),
        scales=tuple(rep_scales + [1] * len(cart) + rep_scales),
        neg_count=len(neg),
        cartan_count=len(cart),
        pos_count=len(pos),
        pos_rep_pairs=tuple(reps),
    )


class G1BasisInfo(NamedTuple):
    """Ordered basis of the odd part: Em pairs, then Ea, then d.

    `elems[k]` is the vector `labels[k]` names times its split scale (Em),
    twice (Ea) or once (d)."""

    l: int
    elems: tuple[LieElt, ...]
    labels: tuple[str, ...]


@lru_cache(maxsize=None)
def g1_basis_info(l: int) -> G1BasisInfo:
    if l < 1:
        raise ValueError("rank l must be >= 1")
    n = 2 * l + 1
    info = g0_basis_info(l)
    elems: list[LieElt] = []
    labels: list[str] = []
    for (i, j) in info.pos_rep_pairs:
        elems.append(_split_vector(l, i, j, -1))
        labels.append(f"Em[{i},{j}]")
    for (i, j) in info.pos_rep_pairs:
        elems.append(_split_vector(l, j, i, -1))
        labels.append(f"Em[{j},{i}]")
    for i in range(1, n + 1):
        if i != l + 1:
            # anti-diagonal entries are purely odd; held twice, like a long Em
            elems.append(2 * E(n, i, n + 1 - i))
            labels.append(f"Ea[{i}]")
    # traceless odd diagonal: v_i = E[i,i] + E[n+1-i,n+1-i]
    def v(i: int) -> LieElt:
        return E(n, i, i) + E(n, n + 1 - i, n + 1 - i)

    for i in range(1, l):
        elems.append(v(i) - v(i + 1))
        labels.append(f"d[{i}]")
    elems.append(v(l) - 2 * E(n, l + 1, l + 1))
    labels.append(f"d[{l}]")
    if len(elems) != 2 * l * l + 3 * l:
        raise AssertionError("odd-part basis has wrong size")
    return G1BasisInfo(l=l, elems=tuple(elems), labels=tuple(labels))


def g1_basis(l: int) -> list[LieElt]:
    """Basis of the odd part of the grading."""
    return list(g1_basis_info(l).elems)


def g1_zero_weight_dim(l: int) -> int:
    """Dimension of the joint ad-kernel of the even Cartan inside the odd part."""
    cart = b_type_generators(l).cartan_elements()
    basis = g1_basis_info(l).elems
    rows = [
        {(c, k): v for c, h in enumerate(cart) for k, v in bracket(h, x).terms.items()}
        for x in basis
    ]
    return len(basis) - rank_of(rows)


def eplus(l: int, i: int, j: int) -> LieElt:
    """Even-part projection of the elementary matrix E[i,j]."""
    return split_pm(E(2 * l + 1, i, j)).plus
