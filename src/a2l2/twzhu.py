"""Projection of vacuum-module states onto the envelope of the even part.

The grading by the involution assigns even factors integral weights and odd
factors half-integral ones; projecting a normal-ordered state to the degree
zero part of the associated associative algebra follows four rules:

  * the vacuum maps to the unit;
  * a monomial with an odd number of odd factors maps to zero;
  * an even factor at depth d multiplies the projection of the rest by the
    factor itself, on the right, with sign (-1)^(d-1);
  * an odd factor at depth d is traded for shallower states through the
    binomial expansion of (1+z)^(1/2): minus the sum over j >= 1 of
    binom(1/2, j) times the projection of the state with that factor moved
    to mode (-d+j).

The image of the singular vector, its partner under one lowering step, the
resulting highest-weight eigenvalue polynomials, the module the image
generates under the adjoint action of the even part and its weight-zero part
are computed here, with closed forms to compare against.  Each stage is an
`lru_cache`d function of the rank l, built once and shared, except the
singular vector itself, which `vacuum.singular_vector` caches per mode basis
and which is read here over the split table.
`projection_context(l)` builds the rank's split table, the one `ModeBasis`
that is also its PBW algebra, graded by the involution: `_odd_count` reads
a factor as odd when its index is `g0_count` or more.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm, prod

from .envelope import PBWAlgebra, Poly, UEAElt
from .liealg import b_type_generators, bracket, nu_pair, split_basis
from .linalg import SpanSolver, rank_of, vec_add_into, vec_integral, vec_scale
from .vacuum import Monomial, State, mode_action, singular_vector


def _binom_half(j: int) -> Fraction:
    """binom(1/2, j) -- the twist has order 2, whence the exponent 1/2."""
    num = Fraction(1)
    for t in range(j):
        num *= Fraction(1, 2) - t
    for t in range(2, j + 1):
        num /= t
    return num


@lru_cache(maxsize=None)
def projection_context(l: int) -> PBWAlgebra:
    """The rank's split table, `split_basis(l)` with its even part first,
    held once as the PBW algebra: the modes and the envelope both read it."""
    elems, labels, scales = split_basis(l)
    return PBWAlgebra(l, elems, labels, g0_count=l * (2 * l + 1), scales=scales)


def _odd_count(mono: Monomial, g0: int) -> int:
    return sum(1 for idx, _ in mono if idx >= g0)


def project_monomial(l: int, mono: Monomial) -> UEAElt:
    """Projection of one monomial over the split mode basis of rank l."""
    if not mono:
        return {(): 1}
    split = projection_context(l)
    if _odd_count(mono, split.g0_count) % 2 == 1:
        return {}
    (idx, depth), rest = mono[0], mono[1:]
    if idx < split.g0_count:
        prod = split.mul(project_monomial(l, rest), {(idx,): 1})
        return vec_scale(prod, -1 if (depth - 1) % 2 else 1)
    result: UEAElt = {}
    for j in range(1, depth + sum(d for _, d in rest) + 1):
        if moved := mode_action(split, {idx: 1}, -depth + j, {rest: 1}):
            vec_add_into(result, project(l, moved), -_binom_half(j))
    return result


def project(l: int, s: State) -> UEAElt:
    """Project a state over the split mode basis of rank l onto the envelope
    of the even part."""
    out: UEAElt = {}
    for mono, c in s.items():
        vec_add_into(out, project_monomial(l, mono), c)
    return out


# -------------------------------------------------------- singular image


@lru_cache(maxsize=None)
def zhu_singular_image(l: int) -> UEAElt:
    """Projection of the degree-2 singular vector, computed once and shared:
    callers must not modify it."""
    return project(l, singular_vector(projection_context(l)))


def zhu_image_closed_form(l: int) -> UEAElt:
    """Sum over i < 2l of (even part of E[i+1,2l+1]) * (even part of E[1,i+1]),
    where the even part of E[i,j] is nu_pair(l, i, j, 1) / 2."""
    alg = projection_context(l)
    n = 2 * l + 1
    out: UEAElt = {}
    for i in range(1, 2 * l):
        a = alg.lie2uea(nu_pair(l, i + 1, n, 1))
        b = alg.lie2uea(nu_pair(l, 1, i + 1, 1))
        vec_add_into(out, alg.mul(a, b), Fraction(1, 4))
    return out


# ------------------------------------------------------- lowered partner


@lru_cache(maxsize=None)
def compute_v1(l: int) -> UEAElt:
    """Twice the adjoint action of the middle-column lowering element on
    the singular image, computed once and shared: callers must not modify it."""
    alg = projection_context(l)
    x = alg.lie_coords(nu_pair(l, l + 1, 1, 1))
    return vec_scale(alg.ad(x, zhu_singular_image(l)), 2)


def v1_closed_form(l: int) -> UEAElt:
    """Four-block closed expression for the lowered image, multiplied out
    factor by factor in the written order, each an even nu_pair(l, i, j, 1)."""
    alg = projection_context(l)
    sign_l = Fraction(1 if l % 2 == 0 else -1)

    def factor(i: int, j: int) -> UEAElt:
        return alg.lie2uea(nu_pair(l, i, j, 1))

    out: UEAElt = {}
    for i in range(1, l):
        vec_add_into(out, alg.mul(factor(1, i + 1), factor(i + 1, l + 1)), sign_l)
    mid = factor(1, l + 1)
    vec_add_into(out, alg.mul(factor(1, 1), mid), sign_l)
    vec_add_into(out, mid, -sign_l / 2)
    for i in range(l + 1, 2 * l):
        vec_add_into(out, alg.mul(factor(i + 1, l + 1), factor(1, i + 1)), sign_l)
    return out


# -------------------------------------------------------- polynomials


def lowered_elements(l: int) -> list[UEAElt]:
    """Weight-zero elements u_1..u_l obtained by lowering the partner along
    each staircase of simple lowering generators: u_j applies f_l, ..., f_{j+1}
    and then f_1, ..., f_j.  The first half is a prefix of the one for j - 1,
    so the chain is built once: l - 1 + l(l+1)/2 adjoint actions in all, run
    in ints on v1 and the f_t cleared of denominators, divided out at the end."""
    alg = projection_context(l)
    chain = [compute_v1(l), *(alg.lie_coords(f) for f in b_type_generators(l).f)]
    dens = [lcm(*(c.denominator for c in x.values())) for x in chain]
    v1, *fs = [vec_scale(x, d) for x, d in zip(chain, dens)]
    prefixes = [v1]  # prefixes[i]: f_l, ..., f_{l-i+1} applied
    for t in range(l - 1, 0, -1):  # f_l, ..., f_2
        prefixes.append(alg.ad(fs[t], prefixes[-1]))
    out: list[UEAElt] = []
    for j in range(1, l + 1):
        u = prefixes[l - j]
        for t in range(0, j):  # f_1, ..., f_j
            u = alg.ad(fs[t], u)
        out.append(vec_scale(u, Fraction(-1 if j % 2 == 0 else 1, prod(dens))))
    return out


@lru_cache(maxsize=None)
def lowered_polynomials(l: int) -> list[Poly]:
    """Highest-weight eigenvalue polynomials p_1..p_l of the lowered elements,
    computed once and shared: callers must not modify them."""
    alg = projection_context(l)
    return [alg.cartan_polynomial(u) for u in lowered_elements(l)]


def reference_polynomials(l: int, plus_half: bool = False) -> list[Poly]:
    """Closed-form polynomials in the Cartan coordinates.

    p_j = x_j (x_j + 2 x_{j+1} + .. + 2 x_{l-1} + x_l + (l-j) + c)   (j < l)
    p_l = (1/4) x_l (x_l + 2c)
    with c = -1/2, or +1/2 for the rejected sign variant."""
    c = Fraction(1, 2) if plus_half else Fraction(-1, 2)

    def x(*ts: int) -> tuple[int, ...]:
        """Exponent tuple of the monomial x_t1 x_t2 ..., 1-based."""
        return tuple(ts.count(t) for t in range(1, l + 1))

    out: list[Poly] = []
    for j in range(1, l):
        p = {x(j, j): 1, x(j, l): 1, x(j): l - j + c}
        p.update({x(j, t): 2 for t in range(j + 1, l)})
        out.append(p)
    out.append({x(l, l): Fraction(1, 4), x(l): c / 2})
    return out


# ------------------------------------------------------------ the orbit


@lru_cache(maxsize=None)
def r0_basis(l: int) -> tuple[list[UEAElt], list[UEAElt]]:
    """Basis of the closure of the singular image under the adjoint action
    of the even part, and its weight-zero members, in the basis's order.

    The seed is checked to be a highest-weight vector: every raising
    generator kills it, else ValueError.  Then U(g0).seed = U(n-).seed by
    PBW, and the simple lowering generators generate n-, so the closure
    under those l generators alone is the whole submodule.  Each returned
    vector is a lowering word applied to the seed, so its weight is the
    seed's (ValueError if mixed) plus those of the generators applied.  The
    span does not change when the seed or a generator is scaled, so both are
    cleared of denominators and the closure runs on ints.

    A lowering that provably vanishes is skipped: if f_i kills u and
    [f_i, f_j] = 0 for i != j, then f_i f_j u = f_j f_i u = 0.  So each
    queued vector carries its weight, the zero set of its parent and the
    index j that made it, and only calls that would return 0 are left out.
    The basis is computed once and shared: callers must not modify it.
    """
    alg = projection_context(l)
    gens = b_type_generators(l)
    seed = vec_integral(zhu_singular_image(l))
    if any(alg.ad(alg.lie_coords(e), seed) for e in gens.e):
        raise ValueError("singular image is not a highest-weight vector")
    lowering = [vec_integral(alg.lie_coords(f)) for f in gens.f]
    drops = [alg.weight_of({(s,): c for s, c in f.items()}) for f in lowering]
    commute = [[i != j and not bracket(a, b) for j, b in enumerate(gens.f)]
               for i, a in enumerate(gens.f)]
    solver = SpanSolver()
    out = [seed] if solver.add(seed) else []
    queue = [(u, alg.weight_of(u), (), 0) for u in out]  # (u, weight, parent zeros, j)
    members = [u for u, weight, _, _ in queue if not any(weight)]
    while queue:
        u, weight, parent_zeros, j = queue.pop()
        # the children share `zeros`, complete before any is popped
        zeros = {i for i in parent_zeros if commute[i][j]}
        for i, f in enumerate(lowering):
            if i in zeros:
                continue
            w = alg.ad(f, u)
            if not w:
                zeros.add(i)
            elif solver.add(w):
                wt = tuple(a + b for a, b in zip(weight, drops[i]))
                out.append(w)
                if not any(wt):
                    members.append(w)
                queue.append((w, wt, zeros, i))
    return out, members


def poly_span_equal(pa: list[Poly], pb: list[Poly]) -> bool:
    """True iff the two families span the same space of polynomials."""
    return rank_of(pa) == rank_of(pb) == rank_of(pa + pb)
