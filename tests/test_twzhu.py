"""Tests for the projection onto the even-part envelope, the singular image,
its lowered partner, the eigenvalue polynomials, and the adjoint closure."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial

import pytest
from helpers_polys import mono, poly_eval

from a2l2 import twzhu
from a2l2.checks import run_checks
from a2l2.envelope import PBWAlgebra, factored_h_string, uea_string
from a2l2.liealg import (
    b_type_generators,
    bracket,
    invariant_form,
)
from a2l2.linalg import SpanSolver, vec_add_into, vec_integral, vec_scale
from a2l2.twzhu import (
    _binom_half,
    compute_v1,
    lowered_elements,
    lowered_polynomials,
    poly_span_equal,
    project,
    projection_context,
    r0_basis,
    reference_polynomials,
    v1_closed_form,
    zhu_image_closed_form,
    zhu_singular_image,
)
from a2l2.vacuum import (
    convert_state,
    mode_action,
    singular_vector,
    standard_mode_basis,
    state_from_ops,
)

from helpers_spin import g0_basis, spin_hw_coefficient, split_pm, verify_spin_homomorphism
from helpers_sym import sym_ad, sym_from_uea, uea_from_sym
from test_liealg import sample_sparse
from test_vacuum import zero_mode_orbit


def test_binom_half_values():
    assert _binom_half(1) == Fraction(1, 2)
    assert _binom_half(2) == Fraction(-1, 8)
    assert _binom_half(3) == Fraction(1, 16)


# ------------------------------------------------------------- projection

def test_project_pinned_values_rank1():
    basis = projection_context(1)
    # even factor at depth 2 flips sign: image of hb1(-2)|0> is -hb1
    hbar = b_type_generators(1).h[-1]
    s = state_from_ops(basis, [(hbar, -2)])
    assert project(1, s) == {(1,): Fraction(-1)}
    # ordered even pair: raising then lowering multiplies on the right
    ep = basis.elems[2]  # Ep[1,2]
    em = basis.elems[0]  # Ep[2,1]
    s = state_from_ops(basis, [(ep, -1), (em, -1)])
    assert project(1, s) == {(0, 2): Fraction(1)}
    # single odd factor dies
    odd = basis.elems[basis.g0_count]
    s = state_from_ops(basis, [(odd, -1)])
    assert project(1, s) == {}
    s = state_from_ops(basis, [(odd, -2)])
    assert project(1, s) == {}


def test_project_pair_closed_form_100_samples():
    rng = random.Random(314)
    for _ in range(100):
        l = rng.choice([1, 2])
        alg = projection_context(l)
        a = sample_sparse(rng, l)
        b = sample_sparse(rng, l)
        got = project(l, state_from_ops(alg, [(a, -1), (b, -1)]))
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
            vec_add_into(want, {(): 1}, alg.k * pairing / 8)
        assert got == want


def project_standard(l, s):
    """Project a state over the standard mode basis of rank l."""
    return project(l, convert_state(standard_mode_basis(l), s, projection_context(l)))


def test_project_intertwines_zero_modes():
    # projecting x(0).w equals the adjoint action of x on the projection
    for l in (1, 2):
        alg = projection_context(l)
        basis = standard_mode_basis(l)
        orbit = zero_mode_orbit(singular_vector(l), l)
        sample = orbit[:: max(1, len(orbit) // 4)]
        gens = g0_basis(l)[:: max(1, len(g0_basis(l)) // 5)]
        for w in sample:
            pw = project_standard(l, w)
            for x in gens:
                lhs = project_standard(l, mode_action(basis, basis.expand(x), 0, w))
                assert lhs == alg.ad(alg.lie_coords(x), pw)


def test_project_odd_shortcut_agrees(monkeypatch):
    rng = random.Random(99)
    states = []
    for l in (1, 2):
        basis = projection_context(l)
        states.append((l, convert_state(standard_mode_basis(l), singular_vector(l), basis)))
        for _ in range(10):
            ops = []
            for _ in range(rng.randint(1, 2)):
                x = basis.elems[rng.randrange(len(basis.elems))]
                ops.append((x, -rng.randint(1, 2)))
            states.append((l, state_from_ops(basis, ops)))
    with_cut = [project(l, s) for l, s in states]
    # a projection that sees no odd factor never takes the shortcut
    monkeypatch.setattr(twzhu, "_odd_count", lambda mono, g0: 0)
    assert [project(l, s) for l, s in states] == with_cut


# ---------------------------------------------------------- singular image

def test_singular_image_matches_closed_form():
    for l in (1, 2, 3):
        assert zhu_singular_image(l) == zhu_image_closed_form(l)


def test_singular_image_literal_rank1():
    # Ep[1,2]*Ep[1,2], over a basis that holds Ep[1,2] four times over
    assert zhu_singular_image(1) == {(2, 2): Fraction(1, 16)}
    assert uea_string(zhu_singular_image(1), projection_context(1)) == "Ep[1,2]*Ep[1,2]"


def test_singular_image_weight():
    for l in (1, 2, 3):
        img = zhu_singular_image(l)
        expect = [Fraction(0)] * l
        if l == 1:
            expect[0] = Fraction(4)
        else:
            expect[0] = Fraction(2)
        assert projection_context(l).weight_of(img) == tuple(expect)


# --------------------------------------------------------- lowered partner

def test_v1_matches_closed_form():
    for l in (1, 2, 3):
        assert compute_v1(l) == v1_closed_form(l)


def test_v1_literal_rank1():
    assert compute_v1(1) == {(1, 2): Fraction(-1, 4), (2,): Fraction(1, 4)}
    assert uea_string(compute_v1(1), projection_context(1)) == "-hb[1]*Ep[1,2] + Ep[1,2]"


# ------------------------------------------------------------- polynomials

def test_lowered_elements_have_weight_zero():
    for l in (1, 2, 3):
        zero = tuple(Fraction(0) for _ in range(l))
        for u in lowered_elements(l):
            assert projection_context(l).weight_of(u) == zero


def counted_ad(monkeypatch) -> list:
    """Record every `PBWAlgebra.ad` call of this test in the returned list."""
    calls = []
    ad = PBWAlgebra.ad

    def counted(self, x, u):
        calls.append(x)
        return ad(self, x, u)

    monkeypatch.setattr(PBWAlgebra, "ad", counted)
    return calls


@pytest.mark.parametrize("l", (1, 2, 3, 4))
def test_lowered_elements_share_the_prefix_chain(monkeypatch, l):
    alg, v1 = projection_context(l), compute_v1(l)
    real_ad = alg.ad
    calls = counted_ad(monkeypatch)
    got = lowered_elements(l)
    assert len(calls) == l - 1 + l * (l + 1) // 2
    # each staircase applied from v1 on its own gives the same elements
    fs = [alg.lie_coords(f) for f in b_type_generators(l).f]
    for j, u in enumerate(got, start=1):
        w = v1
        for t in [*range(l - 1, j - 1, -1), *range(j)]:  # f_l..f_{j+1}, f_1..f_j
            w = real_ad(fs[t], w)
        assert u == vec_scale(w, -1 if j % 2 == 0 else 1)


@pytest.mark.parametrize("l", (1, 2, 3, 4))
def test_lowered_chain_runs_on_ints(monkeypatch, l):
    # v1 and the f_t are cleared of denominators once, so every adjoint
    # action of the chain reads and returns ints
    compute_v1(l)
    seen = []
    ad = PBWAlgebra.ad

    def recorded(self, x, u):
        w = ad(self, x, u)
        seen.extend([*x.values(), *u.values(), *w.values()])
        return w

    monkeypatch.setattr(PBWAlgebra, "ad", recorded)
    lowered_elements(l)
    assert seen and all(type(c) is int for c in seen)


@pytest.mark.parametrize("l", range(1, 9))
def test_ad_chain_matches_the_symmetric_algebra_oracle(l):
    # the chain of `compute_v1` and `lowered_elements` run in S(g0), where
    # ad is a derivation on sorted words and nothing is rewritten, then
    # carried back to the envelope by symmetrization
    alg = projection_context(l)
    x = alg.lie_coords({(l + 1, 1): 1, (2 * l + 1, l + 1): -((-1) ** l)})
    v1 = vec_scale(sym_ad(alg, x, sym_from_uea(alg, zhu_singular_image(l))), 2)
    assert uea_from_sym(alg, v1) == compute_v1(l)
    fs = [alg.lie_coords(f) for f in b_type_generators(l).f]
    for j, u in enumerate(lowered_elements(l), start=1):
        p = v1
        for t in [*range(l - 1, j - 1, -1), *range(j)]:  # f_l..f_{j+1}, f_1..f_j
            p = sym_ad(alg, fs[t], p)
        assert u == uea_from_sym(alg, vec_scale(p, -1 if j % 2 == 0 else 1))


def test_symmetric_oracle_round_trips_and_stops_at_degree_three():
    alg = projection_context(2)
    u = {(): 3, (1,): Fraction(1, 2), (0, 6): 1, (2, 9): -2}
    assert uea_from_sym(alg, sym_from_uea(alg, u)) == u
    assert sym_from_uea(alg, {(0, 6): 1}) != {(0, 6): 1}  # [f_1, e_1] != 0
    with pytest.raises(ValueError, match="degree <= 2"):
        sym_from_uea(alg, {(0, 1, 2): 1})


def test_lowered_polynomials_match_reference():
    for l in (1, 2, 3):
        polys = lowered_polynomials(l)
        assert polys == reference_polynomials(l)
        assert polys != reference_polynomials(l, plus_half=True)


def test_lowered_polynomial_strings():
    strings = [factored_h_string(p) for p in lowered_polynomials(3)]
    assert strings == [
        "h1*(h1 + 2*h2 + 2*h3 + 3/2)",
        "h2*(h2 + 2*h3 + 1/2)",
        "h3*(h3 - 1/2)",
    ]
    assert [factored_h_string(p) for p in lowered_polynomials(1)] == [
        "h1*(h1 - 1/2)"
    ]


def test_lowered_elements_vanish_at_both_dominant_integral_weights():
    # trivial weight: constant term; top spin weight: spinor-module oracle
    for l in (1, 2, 3):
        verify_spin_homomorphism(l)
        for u in lowered_elements(l):
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
        basis, members = r0_basis(l)
        assert len(basis) == 2 * l * l + 3 * l
        assert len(members) == l
        member_polys = [projection_context(l).cartan_polynomial(u) for u in members]
        refs = reference_polynomials(l)
        assert poly_span_equal(member_polys, refs)
        assert not poly_span_equal(member_polys, [{mono(l, 1): 1}])


def r0_oracle(l):
    """The closure of the singular image under ad of every PBW basis element
    of the even part: no highest-weight assumption."""
    alg = projection_context(l)
    solver = SpanSolver()
    out, queue = [], []
    seed = zhu_singular_image(l)
    if solver.add(dict(seed)):
        out.append(seed)
        queue.append(seed)
    while queue:
        u = queue.pop()
        for s in range(alg.g0_count):
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
    basis, _ = r0_basis(l)
    oracle = r0_oracle(l)
    assert len(basis) == len(oracle) == 2 * l * l + 3 * l
    basis_span, oracle_span = span_of(basis), span_of(oracle)
    assert all(basis_span.coords(dict(v)) is not None for v in oracle)
    assert all(oracle_span.coords(dict(v)) is not None for v in basis)
    for u in basis:
        projection_context(l).weight_of(u)  # raises if u mixes weights


def naive_lowering_closure(l, symmetric=False):
    """The closure under the l simple lowering generators with every
    ad(f_i, u) computed, in the order `r0_basis` visits them.  With
    `symmetric`, beta^-1 of that closure, run in S(g0) by the derivation of
    `helpers_sym` from the same integral seed and lowering coordinates, its
    own span and nothing rewritten."""
    alg = projection_context(l)
    seed = vec_integral(zhu_singular_image(l))
    ad = alg.ad
    if symmetric:
        seed, ad = sym_from_uea(alg, seed), partial(sym_ad, alg)
    lowering = [vec_integral(alg.lie_coords(f)) for f in b_type_generators(l).f]
    solver = SpanSolver()
    out = [seed] if solver.add(seed) else []
    queue = list(out)
    while queue:
        u = queue.pop()
        for f in lowering:
            w = ad(f, u)
            if w and solver.add(w):
                out.append(w)
                queue.append(w)
    return out


@pytest.mark.parametrize("l", range(1, 9))
def test_r0_closure_matches_the_symmetric_algebra_oracle(l):
    # symmetrization is an isomorphism of g0-modules, so it keeps linear
    # independence: the closure in S(g0) carries back to r0_basis's vectors,
    # one scalar apart each, in order
    alg = projection_context(l)
    orbit, _ = r0_basis(l)
    closure = naive_lowering_closure(l, symmetric=True)
    assert len(closure) == len(orbit)
    for p, u in zip(closure, orbit):
        image, key = uea_from_sym(alg, p), min(u)
        assert image and vec_scale(u, Fraction(image.get(key, 0)) / u[key]) == image


@pytest.mark.parametrize("l", (1, 2, 3, 4, 5, 6))
def test_r0_skips_only_vanishing_lowerings(monkeypatch, l):
    # a skipped call is one that returns 0, so the vectors and their order
    # are those of the closure that computes every ad(f_i, u)
    naive = naive_lowering_closure(l)
    twzhu.r0_basis.cache_clear()
    calls = counted_ad(monkeypatch)
    orbit, _ = r0_basis(l)
    assert orbit == naive
    if l == 6:
        # 546 calls without the skip: 6 raising checks and 540 lowerings
        assert len(calls) == 302


@pytest.mark.parametrize("l", range(1, 9))
def test_r0_members_match_the_word_scan(l):
    # the oracle reads the weight of every word of every orbit vector, which
    # the weights carried along the closure replace
    alg = projection_context(l)
    orbit, members = r0_basis(l)
    assert len(members) == l
    assert members == [u for u in orbit if not any(alg.weight_of(u))]


@pytest.fixture
def cold_r0():
    twzhu.r0_basis.cache_clear()
    yield
    twzhu.r0_basis.cache_clear()


@pytest.mark.parametrize("l", (1, 2, 6))
def test_r0_reads_weights_once_per_generator(monkeypatch, cold_r0, l):
    calls = []
    weight_of = PBWAlgebra.weight_of

    def counted(self, u):
        calls.append(u)
        return weight_of(self, u)

    monkeypatch.setattr(PBWAlgebra, "weight_of", counted)
    r0_basis(l)
    # the seed once, then each lowering generator on its one-letter words
    assert len(calls) == l + 1
    assert all(len(word) == 1 for u in calls[:-1] for word in u)


@pytest.mark.parametrize("l", (1, 2, 3, 4))
def test_r0_carries_each_vectors_weight(monkeypatch, cold_r0, l):
    # with the seed's weight read less mu, the members returned are the
    # vectors whose carried weight is mu; taking mu through every weight of
    # the orbit shows each carried weight equal to the vector's own
    alg = projection_context(l)
    orbit, _ = r0_basis(l)
    weights = [alg.weight_of(u) for u in orbit]
    weight_of = PBWAlgebra.weight_of
    for mu in sorted(set(weights)):

        def shifted(self, u, mu=mu):
            wt = weight_of(self, u)
            if any(len(word) != 1 for word in u):  # the seed, not a generator
                wt = tuple(a - b for a, b in zip(wt, mu))
            return wt

        monkeypatch.setattr(PBWAlgebra, "weight_of", shifted)
        twzhu.r0_basis.cache_clear()
        _, members = r0_basis(l)
        assert members == [u for u, wt in zip(orbit, weights) if wt == mu], mu


@pytest.fixture
def lowered_seed(monkeypatch):
    """`r0_basis` reads ad(f_1) of the singular image as its seed, which the
    raising generator e_1 does not kill."""
    image = twzhu.zhu_singular_image

    def lowered(l):
        alg = projection_context(l)
        return alg.ad(alg.lie_coords(b_type_generators(l).f[0]), image(l))

    monkeypatch.setattr(twzhu, "zhu_singular_image", lowered)
    twzhu.r0_basis.cache_clear()
    yield
    twzhu.r0_basis.cache_clear()


@pytest.mark.parametrize("l", (1, 2))
def test_r0_rejects_seed_that_is_not_highest_weight(lowered_seed, l):
    with pytest.raises(ValueError, match="not a highest-weight vector"):
        r0_basis(l)


@pytest.mark.parametrize("l", (1, 2))
def test_r0_check_fails_on_seed_that_is_not_highest_weight(lowered_seed, l):
    report = run_checks(l, "r0-dim")
    (result,) = report.checks
    assert report.overall == "fail"
    assert result.status == "fail"
    assert result.details == {
        "error": "ValueError: singular image is not a highest-weight vector"
    }
