"""Tests for the projection onto the even-part envelope, the singular image,
its lowered partner, the eigenvalue polynomials, and the adjoint closure."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from helpers_polys import mono, poly_eval

from a2l2 import twzhu
from a2l2.checks import run_checks
from a2l2.envelope import factored_h_string, uea_string, uea_unit
from a2l2.liealg import (
    b_type_generators,
    bracket,
    invariant_form,
)
from a2l2.linalg import SpanSolver, vec_add_into, vec_integral, vec_scale
from a2l2.twzhu import (
    ProjectionContext,
    _binom_half,
    compute_v1,
    lowered_elements,
    lowered_polynomials,
    poly_span_equal,
    project,
    projection_context,
    r0_basis,
    r0_zero_weight_members,
    reference_polynomials,
    v1_closed_form,
    zhu_image_closed_form,
    zhu_singular_image,
)
from a2l2.vacuum import (
    mode_action,
    singular_vector,
    split_mode_basis,
    standard_mode_basis,
    state_from_ops,
)

from helpers_spin import g0_basis, spin_hw_coefficient, split_pm, verify_spin_homomorphism
from test_liealg import sample_sparse
from test_vacuum import zero_mode_orbit


def test_binom_half_values():
    assert _binom_half(1) == Fraction(1, 2)
    assert _binom_half(2) == Fraction(-1, 8)
    assert _binom_half(3) == Fraction(1, 16)


# ------------------------------------------------------------- projection

def test_project_pinned_values_rank1():
    ctx = projection_context(1)
    basis = ctx.split
    # even factor at depth 2 flips sign: image of hb1(-2)|0> is -hb1
    hbar = b_type_generators(1).h[-1]
    s = state_from_ops(basis, [(hbar, -2)])
    assert project(basis, s, ctx) == {(1,): Fraction(-1)}
    # ordered even pair: raising then lowering multiplies on the right
    ep = basis.elems[2]  # Ep[1,2]
    em = basis.elems[0]  # Ep[2,1]
    s = state_from_ops(basis, [(ep, -1), (em, -1)])
    assert project(basis, s, ctx) == {(0, 2): Fraction(1)}
    # single odd factor dies
    odd = basis.elems[basis.g0_count]
    s = state_from_ops(basis, [(odd, -1)])
    assert project(basis, s, ctx) == {}
    s = state_from_ops(basis, [(odd, -2)])
    assert project(basis, s, ctx) == {}


def test_project_pair_closed_form_100_samples():
    rng = random.Random(314)
    for _ in range(100):
        l = rng.choice([1, 2])
        ctx = projection_context(l)
        alg = ctx.alg
        k = ctx.split.k
        a = sample_sparse(rng, l)
        b = sample_sparse(rng, l)
        s = state_from_ops(ctx.split, [(a, -1), (b, -1)])
        got = project(ctx.split, s, ctx)
        ap, am = split_pm(a, 2 * l + 1)
        bp, bm = split_pm(b, 2 * l + 1)
        want = {}
        if bp and ap:
            vec_add_into(want, alg.mul(alg.lie2uea(bp), alg.lie2uea(ap)))
        comm = bracket(am, bm)
        if comm:
            vec_add_into(want, alg.lie2uea(comm), Fraction(-1, 2))
        pairing = invariant_form(am, bm)
        if pairing:
            vec_add_into(want, uea_unit(), k * pairing / 8)
        assert got == want


def test_project_intertwines_zero_modes():
    # projecting x(0).w equals the adjoint action of x on the projection
    for l in (1, 2):
        ctx = projection_context(l)
        alg = ctx.alg
        basis = standard_mode_basis(l)
        orbit = zero_mode_orbit(singular_vector(l), l)
        sample = orbit[:: max(1, len(orbit) // 4)]
        gens = g0_basis(l)[:: max(1, len(g0_basis(l)) // 5)]
        for w in sample:
            pw = project(basis, w, ctx)
            for x in gens:
                lhs = project(basis, mode_action(basis, (x, 0), w), ctx)
                assert lhs == alg.ad(alg.lie_coords(x), pw)


def test_project_odd_shortcut_agrees():
    rng = random.Random(99)
    for l in (1, 2):
        with_cut = projection_context(l)
        # a fresh context that sees no odd factor never takes the shortcut
        without = ProjectionContext(l)
        without._odd_count = lambda mono: 0
        v, standard = singular_vector(l), standard_mode_basis(l)
        assert project(standard, v, with_cut) == project(standard, v, without)
        basis = split_mode_basis(l)
        for _ in range(10):
            ops = []
            for _ in range(rng.randint(1, 2)):
                x = basis.elems[rng.randrange(len(basis.elems))]
                ops.append((x, -rng.randint(1, 2)))
            s = state_from_ops(basis, ops)
            assert project(basis, s, with_cut) == project(basis, s, without)


# ---------------------------------------------------------- singular image

def test_singular_image_matches_closed_form():
    for l in (1, 2, 3):
        ctx = projection_context(l)
        assert zhu_singular_image(ctx) == zhu_image_closed_form(ctx)


def test_singular_image_literal_rank1():
    ctx = projection_context(1)
    # Ep[1,2]*Ep[1,2], over a basis that holds Ep[1,2] four times over
    assert zhu_singular_image(ctx) == {(2, 2): Fraction(1, 16)}
    assert uea_string(zhu_singular_image(ctx), ctx.alg) == "Ep[1,2]*Ep[1,2]"


def test_singular_image_weight():
    for l in (1, 2, 3):
        ctx = projection_context(l)
        img = zhu_singular_image(ctx)
        expect = [Fraction(0)] * l
        if l == 1:
            expect[0] = Fraction(4)
        else:
            expect[0] = Fraction(2)
        assert ctx.alg.weight_of(img) == tuple(expect)


# --------------------------------------------------------- lowered partner

def test_v1_matches_closed_form():
    for l in (1, 2, 3):
        ctx = projection_context(l)
        assert compute_v1(ctx) == v1_closed_form(ctx)


def test_v1_literal_rank1():
    ctx = projection_context(1)
    assert compute_v1(ctx) == {(1, 2): Fraction(-1, 4), (2,): Fraction(1, 4)}
    assert uea_string(compute_v1(ctx), ctx.alg) == "-hb[1]*Ep[1,2] + Ep[1,2]"


# ------------------------------------------------------------- polynomials

def test_lowered_elements_have_weight_zero():
    for l in (1, 2, 3):
        ctx = projection_context(l)
        zero = tuple(Fraction(0) for _ in range(l))
        for u in lowered_elements(ctx):
            assert ctx.alg.weight_of(u) == zero


@pytest.mark.parametrize("l", (1, 2, 3, 4))
def test_lowered_elements_share_the_prefix_chain(monkeypatch, l):
    ctx = ProjectionContext(l)
    v1 = compute_v1(ctx)
    real_ad = ctx.alg.ad
    calls = []

    def counted(x, u):
        calls.append(x)
        return real_ad(x, u)

    monkeypatch.setattr(ctx.alg, "ad", counted)
    got = lowered_elements(ctx)
    assert len(calls) == l - 1 + l * (l + 1) // 2
    # each staircase applied from v1 on its own gives the same elements
    fs = [ctx.alg.lie_coords(f) for f in b_type_generators(l).f]
    for j, u in enumerate(got, start=1):
        w = v1
        for t in [*range(l - 1, j - 1, -1), *range(j)]:  # f_l..f_{j+1}, f_1..f_j
            w = real_ad(fs[t], w)
        assert u == vec_scale(w, -1 if j % 2 == 0 else 1)


def test_lowered_polynomials_match_reference():
    for l in (1, 2, 3):
        ctx = projection_context(l)
        polys = lowered_polynomials(ctx)
        assert polys == reference_polynomials(l)
        assert polys != reference_polynomials(l, plus_half=True)


def test_lowered_polynomial_strings():
    ctx = projection_context(3)
    strings = [factored_h_string(p) for p in lowered_polynomials(ctx)]
    assert strings == [
        "h1*(h1 + 2*h2 + 2*h3 + 3/2)",
        "h2*(h2 + 2*h3 + 1/2)",
        "h3*(h3 - 1/2)",
    ]
    ctx1 = projection_context(1)
    assert [factored_h_string(p) for p in lowered_polynomials(ctx1)] == [
        "h1*(h1 - 1/2)"
    ]


def test_lowered_elements_vanish_at_both_dominant_integral_weights():
    # trivial weight: constant term; top spin weight: spinor-module oracle
    for l in (1, 2, 3):
        verify_spin_homomorphism(l)
        ctx = projection_context(l)
        for u in lowered_elements(ctx):
            assert u.get((), Fraction(0)) == 0
            assert spin_hw_coefficient(l, u) == 0


def test_reference_polynomial_eval_spot_checks():
    # rank 2: p_1 = x1(x1 + x2 + 1/2), p_2 = x2(x2 - 1)/4
    p1, p2 = reference_polynomials(2)
    assert poly_eval(p1, (Fraction(-1, 2), Fraction(0))) == 0
    assert poly_eval(p1, (Fraction(1), Fraction(1))) == Fraction(5, 2)
    assert poly_eval(p2, (Fraction(0), Fraction(1))) == 0
    assert poly_eval(p2, (Fraction(0), Fraction(3))) == Fraction(3, 2)


def reference_formula(l, c, x):
    """The closed forms of `reference_polynomials`' docstring at the point
    x (0-based here), term by term in Fractions."""
    out = []
    for j in range(l - 1):
        inner = x[j] + 2 * sum(x[j + 1 : l - 1], Fraction(0)) + x[l - 1]
        out.append(x[j] * (inner + (l - 1 - j) + c))
    out.append(Fraction(1, 4) * x[l - 1] * (x[l - 1] + 2 * c))
    return out


def test_reference_polynomials_match_formula_at_random_points():
    rng = random.Random(2718)
    for l in range(1, 7):
        for plus_half, c in ((False, Fraction(-1, 2)), (True, Fraction(1, 2))):
            polys = reference_polynomials(l, plus_half=plus_half)
            assert len(polys) == l
            for _ in range(10):
                x = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(l)]
                got = [poly_eval(p, x) for p in polys]
                assert got == reference_formula(l, c, x), (l, plus_half, x)


# ------------------------------------------------------------ the closure

def test_r0_dimension_and_zero_weight_polynomials():
    for l in (1, 2, 3):
        ctx = projection_context(l)
        basis = r0_basis(ctx)
        assert len(basis) == 2 * l * l + 3 * l
        members = r0_zero_weight_members(ctx)
        assert len(members) == l
        member_polys = [ctx.alg.cartan_polynomial(u) for u in members]
        refs = reference_polynomials(l)
        assert poly_span_equal(member_polys, refs)
        assert not poly_span_equal(member_polys, [{mono(l, 1): 1}])


def r0_oracle(ctx):
    """The closure of the singular image under ad of every PBW basis element
    of the even part: no highest-weight assumption."""
    alg = ctx.alg
    solver = SpanSolver()
    out, queue = [], []
    seed = zhu_singular_image(ctx)
    if solver.add(dict(seed)):
        out.append(seed)
        queue.append(seed)
    while queue:
        u = queue.pop()
        for s in range(alg.dim):
            w = alg.ad({s: Fraction(1)}, u)
            if w and solver.add(dict(w)):
                out.append(w)
                queue.append(w)
    return out


def span_of(vectors):
    solver = SpanSolver()
    for v in vectors:
        solver.add(dict(v))
    return solver


@pytest.mark.parametrize("l", (1, 2, 3, 4))
def test_r0_lowering_closure_matches_full_basis_oracle(l):
    ctx = projection_context(l)
    basis = r0_basis(ctx)
    oracle = r0_oracle(ctx)
    assert len(basis) == len(oracle) == 2 * l * l + 3 * l
    basis_span, oracle_span = span_of(basis), span_of(oracle)
    assert all(basis_span.coords(dict(v)) is not None for v in oracle)
    assert all(oracle_span.coords(dict(v)) is not None for v in basis)
    assert all(ctx.alg.weight_of(u) is not None for u in basis)


def naive_lowering_closure(ctx):
    """The closure under the l simple lowering generators with every
    ad(f_i, u) computed, in the order `r0_basis` visits them."""
    alg = ctx.alg
    seed = vec_integral(zhu_singular_image(ctx))
    lowering = [vec_integral(alg.lie_coords(f)) for f in b_type_generators(ctx.l).f]
    solver = SpanSolver()
    out = [seed] if solver.add(seed) else []
    queue = list(out)
    while queue:
        u = queue.pop()
        for f in lowering:
            w = alg.ad(f, u)
            if w and solver.add(w):
                out.append(w)
                queue.append(w)
    return out


def counted_ad(ctx) -> list:
    """Record every call of `ctx.alg.ad` from now on in the returned list."""
    calls = []
    ad = ctx.alg.ad

    def counted(x, u):
        calls.append(x)
        return ad(x, u)

    ctx.alg.ad = counted
    return calls


@pytest.mark.parametrize("l", (1, 2, 3, 4, 5, 6))
def test_r0_skips_only_vanishing_lowerings(l):
    # a skipped call is one that returns 0, so the vectors and their order
    # are those of the closure that computes every ad(f_i, u)
    ctx = ProjectionContext(l)
    calls = counted_ad(ctx)
    assert r0_basis(ctx) == naive_lowering_closure(ProjectionContext(l))
    if l == 6:
        # 546 calls without the skip: 6 raising checks and 540 lowerings
        assert len(calls) == 302


def plant_lowered_image(ctx):
    """Replace the singular image of `ctx` by ad(f_1) of it, which the
    raising generator e_1 does not kill."""
    f_1 = ctx.alg.lie_coords(b_type_generators(ctx.l).f[0])
    ctx._image = ctx.alg.ad(f_1, zhu_singular_image(ctx))
    return ctx


@pytest.mark.parametrize("l", (1, 2))
def test_r0_rejects_seed_that_is_not_highest_weight(l):
    with pytest.raises(ValueError, match="not a highest-weight vector"):
        r0_basis(plant_lowered_image(ProjectionContext(l)))


@pytest.fixture
def cold_projection_cache():
    twzhu.projection_context.cache_clear()
    yield
    twzhu.projection_context.cache_clear()


@pytest.mark.parametrize("l", (1, 2))
def test_r0_check_fails_on_seed_that_is_not_highest_weight(
    cold_projection_cache, l
):
    plant_lowered_image(projection_context(l))
    report = run_checks(l, "r0-dim")
    (result,) = report.checks
    assert report.overall == "fail"
    assert result.status == "fail"
    assert result.details == {
        "error": "ValueError: singular image is not a highest-weight vector"
    }
