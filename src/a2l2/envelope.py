"""Ordered-monomial calculus in the enveloping algebra of the even part.

The algebra (`PBWAlgebra`) is the split `vacuum.ModeBasis` itself, so this
module imports `vacuum`, and one table per rank serves both algebras.
Elements are sparse dictionaries mapping monomials (tuples of basis indices,
non-decreasing in the fixed basis order: negative block, Cartan block,
positive block) to exact coefficients.

The Cartan-polynomial map sends a weight-zero element u to the polynomial
p_u with u . v = p_u(lambda) v on any highest-weight vector v of weight
lambda; it drops every ordered monomial containing a raising factor and reads
the remaining pure-Cartan monomials as monomials in the Cartan coordinates.
A polynomial is a plain sparse dict too, from exponent tuples to exact
coefficients (`Poly`); `linear_cofactor` is the one place that splits it as
x_j times an affine-linear form, for its display and for the zero set.
"""

from __future__ import annotations

from math import lcm
from operator import mul
from typing import Iterable, Iterator, Sequence

from . import format_sum
from .liealg import Matrix
from .linalg import Coeff, exact, vec_add_into, vec_add_term, vec_integral
from .vacuum import ModeBasis

# monomial = tuple of basis indices in non-decreasing order
UEAElt = dict[tuple[int, ...], Coeff]
# monomial = tuple of exponents of the Cartan coordinates x_1..x_l
Poly = dict[tuple[int, ...], Coeff]


class PBWAlgebra(ModeBasis):
    """Enveloping algebra of the even part over its ordered basis: the split
    mode basis over `liealg.split_basis(l)`, whose brackets, labels, scales,
    Cartan block, weights and `weight_of` it inherits.  Its monomials index
    its first `g0_count` elements, the even part: l^2 lowering elements, the
    Cartan elements (h_1..h_{l-1}, hbar_l) at l^2..l^2+l-1, then the raising
    block from l^2+l.  Every weight is read off the matrices, which checks
    that each basis element, and so each monomial, is a weight vector.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # coordinates of x -> {t: coordinates of [x, t]}, filled by `ad`
        self._ad_images: dict[frozenset, dict[int, dict[int, Coeff]]] = {}

    # ------------------------------------------------------------ coords

    def lie_coords(self, x: Matrix) -> dict[int, Coeff]:
        """Coordinates of an even-part element in the ordered basis."""
        v = self.expand(x)
        if any(s >= self.g0_count for s in v):
            raise ValueError("element is not in the even part")
        return v

    def lie2uea(self, x: Matrix) -> UEAElt:
        """Degree-one element of the envelope from an even-part matrix."""
        return {(s,): c for s, c in self.lie_coords(x).items()}

    # ------------------------------------------------------- normal form

    def normal_form(self, words: UEAElt) -> UEAElt:
        """Order a sum of words of at most two basis indices by one swap:
        (s, t) with s > t is (t, s) + [s, t]; the unit, single letters and
        ordered pairs pass through.  Every element the pipeline builds has
        degree at most 2, so a longer word raises ValueError.  Callers sum
        their words first, so that each distinct word is rewritten once."""
        out: UEAElt = {}
        for w, c in words.items():
            if len(w) > 2:
                raise ValueError(f"word {w} is longer than two letters")
            if len(w) == 2 and w[0] > w[1]:
                for r, b in self.bracket_coords(*w).items():
                    vec_add_term(out, (r,), c * b)
                w = w[::-1]
            vec_add_term(out, w, c)
        return out

    def mul(self, u: UEAElt, v: UEAElt) -> UEAElt:
        words: UEAElt = {}
        for wu, cu in u.items():
            for wv, cv in v.items():
                vec_add_term(words, wu + wv, cu * cv)
        return self.normal_form(words)

    # ---------------------------------------------------------- ad action

    def ad(self, cx: dict[int, Coeff], u: UEAElt) -> UEAElt:
        """Adjoint action x.u = xu - ux, extended as a derivation, for x of
        coordinates `cx` (see `lie_coords`).

        The words of x.u are summed unordered, then rewritten together, and
        [x, t] is expanded once per x and basis index t."""
        ad_x = self._ad_images.setdefault(frozenset(cx.items()), {})
        words: UEAElt = {}
        for word, c in u.items():
            for pos, t in enumerate(word):
                image = ad_x.get(t)
                if image is None:
                    image = ad_x[t] = {}
                    for s, a in cx.items():
                        vec_add_into(image, self.bracket_coords(s, t), a)
                for r, b in image.items():
                    vec_add_term(words, word[:pos] + (r,) + word[pos + 1 :], c * b)
        return self.normal_form(words)

    # ------------------------------------------------- Cartan polynomial

    def cartan_polynomial(self, u: UEAElt) -> Poly:
        """Eigenvalue polynomial of a weight-zero element on highest-weight
        vectors, in the Cartan coordinates (h_1..h_{l-1}, hbar_l)."""
        if any(self.weight_of(u)):
            raise ValueError("element is not of weight zero")
        lo, hi = self.cartan_indices[0], self.cartan_indices[-1] + 1
        poly: Poly = {}
        for word, c in u.items():
            if any(s >= hi for s in word):
                continue  # ends in a raising factor: kills highest-weight vectors
            if any(s < lo for s in word):
                raise ValueError("weight-zero monomial with unmatched lowering factor")
            expo = [0] * (hi - lo)
            for s in word:
                expo[s - lo] += 1
            vec_add_term(poly, tuple(expo), c)
        return poly


# ------------------------------------------------------------ polynomials
#
# A polynomial in the Cartan coordinates x_1..x_l is a `Poly`: x_i is the
# value on h_i for i < l and on hbar_l for i = l, and each key is an
# exponent tuple of length l.


def linear_cofactor(p: Poly, j: int) -> tuple[Coeff, dict[int, Coeff]] | None:
    """(constant, {t: coefficient of x_t}) of the affine-linear q with
    p = x_j q, variables 1-based; None unless x_j divides every monomial
    of p and the quotient has degree at most one."""
    const: Coeff = 0
    coeffs: dict[int, Coeff] = {}
    for k, c in p.items():
        q = list(k)
        q[j - 1] -= 1
        if q[j - 1] < 0 or sum(q) > 1:
            return None
        if 1 in q:
            coeffs[q.index(1) + 1] = c
        else:
            const = c
    return const, coeffs


def factored_h_string(p: Poly) -> str:
    """Render in the display coordinates h_1..h_l, with x_l = 2 h_l, as
    hj*(linear) for the first j that splits off, else expanded."""
    if not p:
        return "0"
    h = {k: c * 2 ** k[-1] for k, c in p.items()}
    for j in range(1, len(next(iter(h))) + 1):
        lin = linear_cofactor(h, j)
        if lin is not None:
            const, coeffs = lin
            terms = [(coeffs[t], f"h{t}") for t in sorted(coeffs)]
            if const:
                terms.append((const, ""))
            return f"h{j}*({format_sum(terms)})"
    terms = []
    for k, c in sorted(h.items(), key=lambda kv: (-sum(kv[0]), kv[0])):
        powers = enumerate(k, start=1)
        factors = [f"h{j}" if e == 1 else f"h{j}^{e}" for j, e in powers if e]
        terms.append((c, "*".join(factors)))
    return format_sum(terms)


# ------------------------------------------- zeros at half-integral points
#
# The classified weights have coordinates x in (1/2)Z, so both functions
# below work on the doubled coordinates X = 2x, in ints.


def zero_set(polys: Sequence[Poly]) -> frozenset[tuple[int, ...]]:
    """The common zeros of a triangular factored system, as doubled
    coordinates X = 2x; every zero must lie in (1/2)Z.

    Requires the j-th polynomial to factor as x_j times an affine-linear
    form in x_j..x_l with nonzero x_j coefficient.  Every common zero picks
    one vanishing factor per polynomial, so a depth-first walk over those
    choices is exhaustive: it solves x_l first, then down to x_1, and each
    solved suffix is shared by the branches below it.  Each form is scaled
    to integer coefficients in X; a zero with a coordinate outside (1/2)Z
    raises ValueError.  Duplicates collapse in the returned set."""
    l = len(polys)
    forms = []  # a with a[0] + sum_t a[t] X_t = 0 iff the cofactor vanishes
    for j, p in enumerate(polys, start=1):
        if any(len(k) != l for k in p):
            raise ValueError("polynomial arity mismatch")
        lin = linear_cofactor(p, j)
        if lin is None:
            raise ValueError(f"polynomial {j} is not x_{j} times an affine-linear form")
        const, coeffs = lin
        if min(coeffs, default=j) < j:
            raise ValueError(f"cofactor of x_{j} depends on earlier variables")
        if j not in coeffs:
            raise ValueError(f"cofactor of x_{j} is degenerate in x_{j}")
        row = [2 * const, *(coeffs.get(t, 0) for t in range(1, l + 1))]
        s = lcm(*(c.denominator for c in row))
        forms.append([int(c * s) for c in row])
    out = set()
    stack: list[tuple[int, ...]] = [()]  # solved suffixes X_{j+1}..X_l
    while stack:
        suffix = stack.pop()
        j = l - len(suffix)
        if j == 0:
            out.add(suffix)
            continue
        a = forms[j - 1]
        x, rest = divmod(-a[0] - sum(map(mul, a[j + 1:], suffix)), a[j])
        if rest:
            raise ValueError(f"a common zero has x_{j} outside (1/2)Z")
        stack.append((0,) + suffix)
        if x:
            stack.append((x,) + suffix)
    return frozenset(out)


def doubled_residuals(
    polys: Sequence[Poly], points: Iterable[tuple[int, ...]]
) -> Iterator[list[int]]:
    """For each point X, the values of the polynomials at x = X/2, each
    times 2^deg and the lcm of its denominators: the expanded polynomial
    with integer coefficients c * lcm * 2^(deg - |term|), evaluated on the
    sparse (variable, exponent) terms in ints.  A value is 0 exactly where
    the polynomial vanishes."""
    systems = []
    for p in polys:
        deg = max(map(sum, p), default=0)
        systems.append([
            (c << (deg - sum(k)), [(v, e) for v, e in enumerate(k) if e])
            for k, c in vec_integral(p).items()
        ])
    arities = {len(k) for p in polys for k in p}
    for x in points:
        if arities - {len(x)}:
            raise ValueError("polynomial arity does not match the point")
        values = []
        for terms in systems:
            total = 0
            for c, powers in terms:
                for v, e in powers:
                    c *= x[v] ** e
                total += c
            values.append(total)
        yield values


def uea_string(u: UEAElt, alg: "PBWAlgebra") -> str:
    """Render an envelope element as signed products of basis labels.

    The one place that converts back from the rescaled basis: a basis
    element is its label's vector times its scale, so each coefficient is
    multiplied by the product of its word's scales."""
    labels, scales = alg.labels, alg.scales

    def labelled(key: tuple[int, ...]) -> Coeff:
        c = u[key]
        for i in key:
            c *= scales[i]
        return exact(c)

    return format_sum((labelled(key), "*".join(labels[i] for i in key)) for key in sorted(u))
