"""Tests for the affine root-system layer: bilinear form, Cartan data,
real-root families, Weyl vector, and the admissibility decision procedure.

`check_admissible` reads integers over a common denominator; its input is
built here by `helpers_roots.admissible_input` from a weight with Fraction
coefficients, and its verdicts are compared with the rational oracles."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from a2l2 import level
from a2l2.affroots import (
    AdmissibilityReport,
    algebra_data,
    cartan_matrix_from_form,
    check_admissible,
    ip,
)
from a2l2.classify import admissibility, all_highest_weights, eps4
from a2l2.liealg import b_type_generators, bracket, level_for
from a2l2.linalg import SpanSolver
from helpers_roots import (
    AffineWeight,
    RealRootFamily,
    affinize,
    coroot_pairing,
    coroot_perturbations,
    decide,
    delta,
    eps_unit,
    first_integral_parameter,
    fraction_admissible,
    pairing_progression,
    pairwise_condition1,
    positive_real_families,
    rho,
    simple_roots,
)
from helpers_spin import eigen_ratio


def is_zero(w: AffineWeight) -> bool:
    return not any(w.eps) and not w.d_delta and not w.k0


def classical_part(l: int, fam: RealRootFamily) -> AffineWeight:
    """The horizontal root of a family, built from its eps support."""
    eps = [0] * l
    for i, c in fam.classical:
        eps[i] = c
    return AffineWeight(tuple(eps))


@lru_cache(maxsize=None)
def root_at(l: int, fam: RealRootFamily, m: int) -> AffineWeight:
    """The root classical + p(m) delta of a family, built explicitly
    (cached: the admissibility oracle builds each root many times)."""
    if m < fam.m_min:
        raise ValueError("parameter below the family minimum")
    p = 2 * m + 1 if fam.kind == "long" else m
    return classical_part(l, fam) + delta(l).scale(p)


def finite_weight(coeffs) -> AffineWeight:
    """Weight with the given eps-coefficients and no affine components."""
    return AffineWeight(tuple(Fraction(v) for v in coeffs))


def lambda0(l: int) -> AffineWeight:
    return AffineWeight((Fraction(0),) * l, k0=Fraction(1))


def fundamental_weights(l: int) -> tuple[AffineWeight, ...]:
    """(omega_1, ..., omega_l) for the horizontal so(2l+1):
    omega_i = eps_1 + ... + eps_i for i < l, omega_l = (eps_1+...+eps_l)/2."""
    out = []
    for i in range(1, l + 1):
        w = finite_weight([Fraction(int(j <= i)) for j in range(1, l + 1)])
        if i == l:
            w = w.scale(Fraction(1, 2))
        out.append(w)
    return tuple(out)


# random weights per rank for the oracle comparison (the oracle's cost
# grows like l^3 per weight)
RANDOM_WEIGHTS = {1: 60, 2: 60, 3: 40, 4: 30, 5: 20}
WIDE_DENOMINATORS = (1, 2, 3, 4, 5, 6, 8, 12)

PINNED_MATRICES = {
    1: ((2, -1), (-4, 2)),
    2: ((2, -1, 0), (-2, 2, -1), (0, -2, 2)),
    3: ((2, -1, 0, 0), (-2, 2, -1, 0), (0, -1, 2, -1), (0, 0, -2, 2)),
}


# ------------------------------------------------------------ bilinear form

def test_form_gram_entries():
    for l in (1, 2, 3):
        d, c = delta(l), lambda0(l)
        assert ip(d, c) == 1
        assert ip(d, d) == 0
        assert ip(c, c) == 0
        for i in range(1, l + 1):
            e = eps_unit(l, i)
            assert ip(d, e) == 0
            assert ip(c, e) == 0
            for j in range(1, l + 1):
                assert ip(e, eps_unit(l, j)) == (1 if i == j else 0)


def test_delta_orthogonal_to_every_classical_root():
    for l in (1, 2, 3):
        d = delta(l)
        roots = simple_roots(l)
        assert ip(d, roots[0]) == 0  # the affine simple root
        for fam in positive_real_families(l):
            assert ip(d, classical_part(l, fam)) == 0
        assert ip(d, lambda0(l)) == 1


def test_simple_root_norms():
    for l in (1, 2, 3):
        roots = simple_roots(l)
        assert ip(roots[0], roots[0]) == 4
        for mid in roots[1:-1]:
            assert ip(mid, mid) == 2
        assert ip(roots[-1], roots[-1]) == 1


def test_form_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        ip(delta(1), delta(2))


# -------------------------------------------------------------- Cartan data

def test_algebra_data_matches_pinned_and_form_oracle():
    for l in (1, 2, 3):
        data = algebra_data(l)
        assert data.cartan_matrix == PINNED_MATRICES[l]
        # independent recomputation as (alpha_j, alpha_i-dual) from the form
        assert cartan_matrix_from_form(l) == PINNED_MATRICES[l]
    assert cartan_matrix_from_form(4) == algebra_data(4).cartan_matrix


def test_marks_comarks_and_dual_coxeter():
    for l in (1, 2, 3, 4):
        data = algebra_data(l)
        a, av, m = data.marks, data.comarks, data.cartan_matrix
        assert a == (1,) + (2,) * l
        assert av == (2,) * l + (1,)
        assert data.h_dual == 2 * l + 1 == sum(av)
        size = l + 1
        for i in range(size):
            assert sum(m[i][j] * a[j] for j in range(size)) == 0
        for j in range(size):
            assert sum(av[i] * m[i][j] for i in range(size)) == 0


def test_affine_node_coroot_finite_part():
    # row 0 of the Cartan matrix via the bracket action of the finite part
    for l in (1, 2, 3):
        data = algebra_data(l)
        gens = b_type_generators(l)
        n = 2 * l + 1
        h0_finite = {(n, n): 1, (1, 1): -1}
        for j, x in enumerate(gens.e, start=1):
            assert eigen_ratio(bracket(h0_finite, x), x) == (
                data.cartan_matrix[0][j]
            )


def test_algebra_data_rejects_bad_rank():
    with pytest.raises(ValueError):
        algebra_data(0)


# --------------------------------------------------------------- Weyl vector

def test_rho_pinned_values():
    r1 = rho(1)
    assert r1.k0 == 3 and r1.eps == (Fraction(1, 2),) and r1.d_delta == 0
    r2 = rho(2)
    assert r2.k0 == 5 and r2.eps == (Fraction(3, 2), Fraction(1, 2))


def test_rho_pairs_to_one_with_every_simple_coroot():
    for l in (1, 2, 3, 4):
        r = rho(l)
        for a in simple_roots(l):
            assert coroot_pairing(r, a) == 1


def test_rho_pairs_integrally_with_every_real_coroot():
    # hence lam and lam + rho have the same integral roots, and both
    # conditions are read off the shifted pairing
    for l in range(1, 7):
        for fam in positive_real_families(l):
            a, b = pairing_progression(rho(l), fam)
            assert a.denominator == b.denominator == 1
    for l in (1, 2, 3):
        for fam in positive_real_families(l):
            for m in range(fam.m_min, fam.m_min + 5):
                assert coroot_pairing(rho(l), root_at(l, fam, m)).denominator == 1


def test_fundamental_weight_duality():
    for l in (1, 2, 3):
        omegas = fundamental_weights(l)
        finite_simples = simple_roots(l)[1:]
        for i, w in enumerate(omegas):
            for j, a in enumerate(finite_simples):
                assert coroot_pairing(w, a) == (1 if i == j else 0)


def test_coroot_pairing_rejects_isotropic():
    with pytest.raises(ValueError):
        coroot_pairing(rho(2), delta(2))


# ------------------------------------------------------- real root families

def test_family_counts_and_norms():
    expected = {1: (2, 0, 2), 2: (4, 4, 4), 3: (6, 12, 6)}
    for l, (n_long, n_mid, n_short) in expected.items():
        fams = positive_real_families(l)
        by_kind = {"long": [], "intermediate": [], "short": []}
        for f in fams:
            by_kind[f.kind].append(f)
        assert len(by_kind["long"]) == n_long
        assert len(by_kind["intermediate"]) == n_mid
        assert len(by_kind["short"]) == n_short
        # long roots carry odd multiples 2m+1 of delta, the others m
        for f in by_kind["long"]:
            assert f.squared_norm == 4
            assert [root_at(l, f, m).d_delta for m in (0, 1, 2)] == [1, 3, 5]
        for f in by_kind["intermediate"]:
            assert f.squared_norm == 2
            assert [root_at(l, f, m).d_delta for m in (1, 2)] == [1, 2]
        for f in by_kind["short"]:
            assert f.squared_norm == 1
            assert [root_at(l, f, m).d_delta for m in (1, 2)] == [1, 2]
        # the affine simple root delta - 2 eps_1 opens a long family at m = 0
        alpha0 = simple_roots(l)[0]
        assert alpha0 in [root_at(l, f, 0) for f in by_kind["long"]]


def test_family_roots_are_positive_and_have_stated_norms():
    for l in (1, 2, 3):
        for fam in positive_real_families(l):
            for m in range(fam.m_min, fam.m_min + 4):
                root = root_at(l, fam, m)
                assert ip(root, root) == fam.squared_norm
                coeff = root.d_delta
                assert coeff > 0 or (
                    coeff == 0 and next(c for c in root.eps if c) > 0
                )
            with pytest.raises(ValueError):
                root_at(l, fam, fam.m_min - 1)
        # the closed-form progression against coroot pairings with built
        # roots: every family, at rho, every classified weight, and shifted
        r = rho(l)
        weights = [r]
        for mu in all_highest_weights(l):
            lam = affinize(mu, l)
            weights += [lam, lam + r]
        for lam in weights:
            for fam in positive_real_families(l):
                a, b = pairing_progression(lam, fam)
                for m in range(fam.m_min, fam.m_min + 5):
                    assert coroot_pairing(lam, root_at(l, fam, m)) == a + b * m


def test_rho_and_families_computed_once_per_rank():
    # the rational oracle and the integer input read one cached Weyl vector
    # and family table per rank
    rho.cache_clear()
    positive_real_families.cache_clear()
    for mu in all_highest_weights(3):
        lam = affinize(mu, 3)
        decide(lam)
        fraction_admissible(lam)
    assert rho.cache_info().misses == 1
    assert positive_real_families.cache_info().misses == 1


def reflection_orbit(l: int, max_delta: int) -> set[AffineWeight]:
    """The positive real roots with delta coefficient at most max_delta, as
    the orbit of the simple roots under the simple reflections, read from
    the Cartan matrix and the simple roots alone.

    Roots are coefficient vectors over alpha_0..alpha_l, and s_i lowers only
    the alpha_i coefficient, by (beta, alpha_i^vee).  A positive real root
    that is not simple pairs positively with some simple coroot, and that
    reflection takes it to a lower positive real root; so every positive
    real root is reached from a simple root through positive roots whose
    alpha_0 coefficient, which is the delta coefficient, never exceeds its
    own."""
    matrix = algebra_data(l).cartan_matrix
    size = l + 1
    frontier = [tuple(int(i == j) for j in range(size)) for i in range(size)]
    seen = set(frontier)
    while frontier:
        beta = frontier.pop()
        for i in range(size):
            image = list(beta)
            image[i] -= sum(matrix[i][j] * beta[j] for j in range(size))
            image = tuple(image)
            if min(image) >= 0 and image[0] <= max_delta and image not in seen:
                seen.add(image)
                frontier.append(image)
    simple = simple_roots(l)
    zero = AffineWeight((0,) * l)
    return {
        sum((a.scale(c) for a, c in zip(simple, coeffs)), zero)
        for coeffs in seen
    }


def first_condition1_values(lam: AffineWeight, roots) -> dict:
    """Eps part of each root string -> the first integral shifted coroot
    pairing along it (by delta coefficient), or None if none occurs."""
    shifted = lam + rho(lam.rank)
    strings: dict = {}
    for root in sorted(roots, key=lambda r: r.d_delta):
        values = strings.setdefault(root.eps, [])
        values.append(coroot_pairing(shifted, root))
    return {
        eps: next((v for v in values if v.denominator == 1), None)
        for eps, values in strings.items()
    }


def oracle_condition1_values(lam: AffineWeight) -> dict:
    """Eps part of each family -> the first integral shifted pairing of the
    rational oracle's progression along it, or None."""
    l = lam.rank
    shifted = lam + rho(l)
    values = {}
    for fam in positive_real_families(l):
        a, b = pairing_progression(shifted, fam)
        hit = first_integral_parameter(a, b, fam.m_min)
        values[classical_part(l, fam).eps] = None if hit is None else a + b * hit[0]
    return values


@pytest.mark.parametrize("l", (1, 2, 3, 4))
def test_reflection_orbit_matches_family_table(l):
    # eps coordinates in (1/2)Z put every family's integral members one
    # congruence period (at most 2) apart, so delta coefficients up to 5
    # reach one period past every m_min
    max_delta = 5
    orbit = reflection_orbit(l, max_delta)
    table = {
        root_at(l, fam, m)
        for fam in positive_real_families(l)
        for m in range(fam.m_min, max_delta + 1)
        if root_at(l, fam, m).d_delta <= max_delta
    }
    assert orbit == table
    rng = random.Random(l)
    weights = [affinize(mu, l) for mu in all_highest_weights(l)]
    # -eps_l/2: its shifted pairing with the short root eps_l is 0
    weights.append(
        AffineWeight((0,) * (l - 1) + (Fraction(-1, 2),), k0=level_for(l))
    )
    weights += [
        AffineWeight(
            tuple(Fraction(rng.randint(-6, 6), 2) for _ in range(l)),
            k0=level_for(l),
        )
        for _ in range(24)
    ]
    zero_first_values = 0
    for lam in weights:
        firsts = first_condition1_values(lam, orbit)
        assert firsts == oracle_condition1_values(lam)
        values = [v for v in firsts.values() if v is not None]
        zero_first_values += 0 in values
        assert decide(lam).cond1_pass == all(v > 0 for v in values)
    # a first value of 0 tells condition 1's > from >=
    assert zero_first_values > 0


def test_rank1_has_no_intermediate_family():
    kinds = {f.kind for f in positive_real_families(1)}
    assert kinds == {"long", "short"}


# --------------------------------------------- congruence progression oracle

def _brute_first_integral(a, b, m_min, horizon=300):
    hits = [
        m
        for m in range(m_min, m_min + horizon)
        if (a + b * m).denominator == 1
    ]
    if not hits:
        return None
    if len(hits) == 1:
        return (hits[0], 1)
    return (hits[0], hits[1] - hits[0])


def test_first_integral_parameter_against_brute_force():
    rng = random.Random(2024)
    for _ in range(400):
        a = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        b = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        m_min = rng.randint(0, 3)
        got = first_integral_parameter(a, b, m_min)
        want = _brute_first_integral(a, b, m_min)
        if want is None:
            assert got is None
        elif b == 0:
            assert got == (m_min, 1)
        else:
            assert got == want


def test_first_integral_parameter_pinned():
    # 3/4 + (3/2) m never integral; 1/2 + (3/2) m integral at m=1, period 2
    assert first_integral_parameter(Fraction(3, 4), Fraction(3, 2), 0) is None
    assert first_integral_parameter(Fraction(1, 2), Fraction(3, 2), 0) == (1, 2)
    assert first_integral_parameter(Fraction(0), Fraction(-3), 1) == (1, 1)
    assert first_integral_parameter(Fraction(1, 3), Fraction(2), 0) is None


# ------------------------------------------------------------- admissibility

def _weights_rank1():
    lam_plain = AffineWeight((Fraction(0),), k0=Fraction(-3, 2))
    lam_primed = AffineWeight((Fraction(1, 2),), k0=Fraction(-3, 2))
    return lam_plain, lam_primed


def test_rank1_pairing_witnesses():
    lam_plain, lam_primed = _weights_rank1()
    a1 = eps_unit(1, 1)  # the finite simple root
    d_minus = delta(1) - a1
    assert coroot_pairing(lam_plain, a1) == 0
    assert coroot_pairing(lam_plain, d_minus) == -3
    assert coroot_pairing(lam_primed, a1) == 1
    assert coroot_pairing(lam_primed, d_minus) == -4


def _families_of_kind(l, kind):
    return [f for f in positive_real_families(l) if f.kind == kind]


def test_rank1_admissibility_reports():
    for lam in _weights_rank1():
        report = decide(lam)
        assert report.passed and report.cond1_pass and report.cond2_pass
        assert report.cond2_rank == 2
        # long families never meet an integer: the shifted pairing is
        # 3/4 * (2m+1) +- 1/2 +- (finite part, eps_1)
        shifted = lam + rho(1)
        longs = _families_of_kind(1, "long")
        assert len(longs) == 2
        for fam in longs:
            a, b = pairing_progression(shifted, fam)
            assert first_integral_parameter(a, b, fam.m_min) is None
        # short families are integral at every parameter
        shorts = _families_of_kind(1, "short")
        assert len(shorts) == 2
        first_pairing = {}
        for fam in shorts:
            a, b = pairing_progression(lam, fam)
            m_star, _ = first_integral_parameter(a, b, fam.m_min)
            first_pairing[fam.classical] = a + b * m_star
        if lam.eps == (Fraction(0),):
            assert first_pairing[((0, 1),)] == 0
            assert first_pairing[((0, -1),)] == -3
        else:
            assert first_pairing[((0, -1),)] == -4


def test_rank1_condition1_values_all_positive_integers_when_integral():
    for lam in _weights_rank1():
        shifted = lam + rho(1)
        for fam in positive_real_families(1):
            a, b = pairing_progression(shifted, fam)
            assert b > 0
            hit = first_integral_parameter(a, b, fam.m_min)
            if hit is not None:
                value = a + b * hit[0]
                assert value > 0
                assert value.denominator == 1


def _progression(lam: AffineWeight, l: int, fam: RealRootFamily):
    """(a, b) with (lam, root_at(l, fam, m)^vee) = a + b*m, read off two
    built roots."""
    m0 = fam.m_min
    v0 = coroot_pairing(lam, root_at(l, fam, m0))
    b = coroot_pairing(lam, root_at(l, fam, m0 + 1)) - v0
    return v0 - b * m0, b


def _coroot(root: AffineWeight) -> dict:
    """2 root / (root, root) as a sparse vector: eps coordinates under keys
    0..l-1, the central coefficient (from delta) under key l."""
    s = 2 / ip(root, root)
    v = {i: s * c for i, c in enumerate(root.eps) if c}
    if root.d_delta:
        v[root.rank] = s * root.d_delta
    return v


def admissible_oracle(lam: AffineWeight) -> AdmissibilityReport:
    """Admissibility by an explicit span search: the roots are built as
    weights, each progression is read off two coroot pairings, and two
    coroots of every integral family go into a `SpanSolver`."""
    l = lam.rank
    shifted = lam + rho(l)
    cond1_pass = True
    solver = SpanSolver()
    for fam in positive_real_families(l):
        a, b = _progression(shifted, l, fam)
        assert b > 0
        hit = first_integral_parameter(a, b, fam.m_min)
        if hit is not None:
            cond1_pass = cond1_pass and a + b * hit[0] > 0
        hit = first_integral_parameter(*_progression(lam, l, fam), fam.m_min)
        if hit is not None:
            m_star, period = hit
            for m in (m_star, m_star + period):
                solver.add(_coroot(root_at(l, fam, m)))
    cond2_pass = solver.rank == l + 1
    return AdmissibilityReport(
        cond1_pass, solver.rank, cond2_pass, cond1_pass and cond2_pass
    )


def test_admissible_matches_oracle_on_classified_weights():
    for l in (1, 2, 3, 4):
        for mu in all_highest_weights(l):
            lam = affinize(mu, l)
            assert decide(lam) == admissible_oracle(lam)


def test_admissible_matches_fraction_oracle_to_rank_8():
    # both integer inputs: the lcm-denominator one built from the rational
    # lift, and the table's 4(lam + rho) over 2 from the doubled coordinates
    for l in range(1, 9):
        for mu in all_highest_weights(l):
            lam = affinize(mu, l)
            expected = fraction_admissible(lam)
            assert decide(lam) == expected
            assert admissibility(mu) == expected


@pytest.mark.parametrize("l", (1, 2, 3))
def test_admissible_matches_oracles_on_coroot_perturbations(l):
    # one step of +-1/2 or +-1 in one coroot coordinate of a classified
    # weight: inputs near the accepted ones that the decision must reject
    # or accept exactly as the oracles do
    verdicts = set()
    for x in coroot_perturbations(l):
        lam = affinize(x, l)
        expected = fraction_admissible(lam)
        assert expected == admissible_oracle(lam)
        assert decide(lam) == expected
        assert admissibility(x) == expected
        verdicts.add(expected.passed)
    assert verdicts == {False, True}


def random_weight(rng: random.Random, l: int, max_den: int) -> AffineWeight:
    """A weight at the studied level with eps coordinates in [-3, 3] over
    one random denominator up to max_den."""
    den = rng.randint(1, max_den)
    eps = tuple(Fraction(rng.randint(-3 * den, 3 * den), den) for _ in range(l))
    return AffineWeight(eps, k0=level_for(l))


def test_admissible_matches_oracle_on_random_weights():
    rng = random.Random(6)
    seen = set()
    for l, count in RANDOM_WEIGHTS.items():
        for _ in range(count):
            lam = random_weight(rng, l, 6)
            report = decide(lam)
            assert report == admissible_oracle(lam)
            assert report == fraction_admissible(lam)
            seen.add((report.cond1_pass, report.cond2_pass))
            seen.add(report.cond2_rank)
    # both single failures and the empty span were met
    assert {(False, True), (True, False), (False, False), 0} <= seen
    # an integral family adds the central line and a finite part, so the
    # rank is never 1
    assert {2, 3, 4, 5, 6} <= seen and 1 not in seen


def test_admissible_matches_oracle_on_wide_denominators():
    # denominators 7, 9 and 10 give a rescaling d other than 1, 2 and 4;
    # coordinates in [-30, 30] put first integral values far from 0 on both
    # sides, past h on the short roots
    rng = random.Random(12)
    narrow = [
        random_weight(rng, l, 12)
        for l, count in RANDOM_WEIGHTS.items()
        for _ in range(count)
    ]
    wide = []
    for l, count in RANDOM_WEIGHTS.items():
        for _ in range(count):
            den = rng.choice(WIDE_DENOMINATORS)
            eps = (Fraction(rng.randint(-30 * den, 30 * den), den) for _ in range(l))
            wide.append(AffineWeight(tuple(eps), k0=level_for(l)))
    assert {7, 9, 10} <= {c.denominator for lam in narrow for c in lam.eps}
    for weights in (narrow, wide):
        seen = set()
        for lam in weights:
            report = decide(lam)
            assert report == admissible_oracle(lam)
            assert report == fraction_admissible(lam)
            seen.add((report.cond1_pass, report.cond2_pass))
            seen.add(report.cond2_rank)
        # all four outcomes of the two conditions, and the empty span
        assert {(False, True), (True, False), (False, False), (True, True)} <= seen
        assert {0, 2, 3, 4, 5, 6} <= seen and 1 not in seen


def test_condition1_matches_pair_loop_on_random_integer_inputs():
    # strictly decreasing entries in (0, h d) pass often; every other draw
    # moves one entry anywhere in [-h d, 2 h d], where most fail
    rng = random.Random(24)
    verdicts = []
    for n in range(20_000):
        l, d = rng.randint(1, 8), rng.choice((1, 2, 3, 4, 6))
        h = 2 * l + 1
        y = sorted(rng.sample(range(1, h * d), l), reverse=True)
        if n % 2:
            y[rng.randrange(l)] = rng.randint(-h * d, 2 * h * d)
        verdict = pairwise_condition1(y, d)
        assert check_admissible(y, d).cond1_pass == verdict, (y, d)
        verdicts.append(verdict)
    assert 4_000 < sum(verdicts) < 16_000


def test_condition1_matches_pair_loop_on_classified_weights():
    for l in range(1, 13):
        for x in all_highest_weights(l):
            y = eps4([c + 2 for c in x])
            assert admissibility(x).cond1_pass == pairwise_condition1(y, 2), x


def test_check_admissible_rejects_wrong_level():
    # the closed form decides only the studied level, so every place that
    # turns a weight into its input refuses another level
    off_level = AffineWeight((Fraction(0),), k0=Fraction(0))
    with pytest.raises(ValueError):
        decide(off_level)
    with pytest.raises(ValueError):
        fraction_admissible(off_level)


def test_admissibility_failure_case_detected():
    # at the studied level, a generic irrational-looking rational finite part
    # breaks condition 2 (only the long families stay integral)
    lam = AffineWeight((Fraction(1, 7), Fraction(0)), k0=Fraction(-5, 2))
    report = decide(lam)
    assert not report.cond2_pass
    assert not report.passed
    # -eps_1/2 at rank 1 breaks condition 1 alone: its shifted pairing is
    # 0 on the short family +eps_1 at m = 0
    lam = AffineWeight((Fraction(-1, 2),), k0=Fraction(-3, 2))
    report = decide(lam)
    assert not report.cond1_pass
    assert report.cond2_pass and report.cond2_rank == 2
    assert not report.passed


def test_kw_positivity():
    # every lift has the level of its rank, so l alone decides positivity:
    # the level's numerator and denominator decide it in ints, and the
    # rational level plus the dual Coxeter number agrees
    for l in (1, 2, 3, 8, 14):
        num, den = level(l)
        assert (num, den) == (-(2 * l + 1), 2)
        assert num + algebra_data(l).h_dual * den == 2 * l + 1 > 0
        assert level_for(l) + algebra_data(l).h_dual == Fraction(2 * l + 1, 2) > 0


def test_finite_weight_helper_and_arithmetic():
    w = finite_weight([1, Fraction(1, 2)])
    assert w.eps == (Fraction(1), Fraction(1, 2))
    assert (w + w).eps == (Fraction(2), Fraction(1))
    assert is_zero(w - w)
    assert w.scale(2).eps == (Fraction(2), Fraction(1))
    assert w.level == 0
