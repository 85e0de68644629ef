"""Acceptance gate: the thirteen headline guarantees, one test each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one printed
pass/fail line per criterion.  Every test prints its line before asserting,
so a red run still shows which guarantee broke and how long the computation
took against its wall-clock budget.  All comparisons are exact (rational
arithmetic end to end); the only tolerances are the time budgets stated on
the printed lines.
"""

from __future__ import annotations

import time
from fractions import Fraction

import test_envelope
import test_liealg
import test_twzhu
import test_vacuum
from helpers_roots import (
    affinize,
    coroot_pairing,
    delta,
    eps_unit,
    first_integral_parameter,
    pairing_progression,
    positive_real_families,
    rho,
)
from helpers_sweep import nu_state
from test_liealg import eplus

from a2l2 import level
from a2l2.checks import run_checks
from a2l2.classify import (
    admissibility_table,
    all_highest_weights,
    dominant_integral,
    mu_weight,
)
from a2l2.envelope import zero_set
from a2l2.liealg import computed_b_cartan
from a2l2.linalg import vec_add_into
from a2l2.twzhu import (
    compute_v1,
    lowered_polynomials,
    poly_span_equal,
    projection_context,
    r0_basis,
    reference_polynomials,
    v1_closed_form,
    zhu_singular_image,
)
from a2l2.vacuum import (
    check_singular,
    positive_mode_sweep,
    singular_vector,
    standard_mode_basis,
)

RANKS = (1, 2, 3)


def _criterion(
    n: int,
    ok: bool,
    text: str,
    elapsed: float | None = None,
    budget: float | None = None,
) -> None:
    """Print one gate line, then assert the verdict and the time budget."""
    within = budget is None or (elapsed is not None and elapsed < budget)
    status = "PASS" if (ok and within) else "FAIL"
    suffix = ""
    if elapsed is not None:
        suffix = f" [{elapsed:.3f}s"
        if budget is not None:
            suffix += f", budget {budget:g}s"
        suffix += "]"
    print(f"criterion {n:02d} [{status}] {text}{suffix}")
    assert ok, f"criterion {n:02d}: {text}"
    if budget is not None:
        assert elapsed is not None and elapsed < budget, (
            f"criterion {n:02d}: budget exceeded ({elapsed:.3f}s >= {budget:g}s)"
        )


def _expected_odd_orthogonal_cartan(l: int) -> list[list[int]]:
    """Cartan matrix of so(2l+1) in the standard simple-root order: tridiagonal
    with 2 on the diagonal, -1 off it, except the last row ends ... -2, 2."""
    if l == 1:
        return [[2]]
    rows = [[0] * l for _ in range(l)]
    for i in range(l):
        rows[i][i] = 2
        if i + 1 < l:
            rows[i][i + 1] = -1
            rows[i + 1][i] = -1
    rows[l - 1][l - 2] = -2
    return rows


def test_criterion_01_even_subalgebra_cartan_matrix():
    t0 = time.perf_counter()
    ok = all(
        computed_b_cartan(l) == _expected_odd_orthogonal_cartan(l) for l in RANKS
    )
    _criterion(
        1,
        ok,
        "Cartan matrix computed from the even-subalgebra Chevalley generators "
        "is the odd orthogonal (B-type) matrix, ranks 1-3, exact",
        time.perf_counter() - t0,
        1.0,
    )


def test_criterion_02_odd_part_zero_weight_dimension():
    t0 = time.perf_counter()
    ok = all(test_liealg.odd_zero_weight_dim(l) == l for l in RANKS)
    _criterion(
        2,
        ok,
        "zero-weight subspace of the odd part has dimension equal to the rank, "
        "ranks 1-3",
        time.perf_counter() - t0,
        1.0,
    )


def test_criterion_03_singularity_with_redundant_sweep():
    t0 = time.perf_counter()
    ok = True
    for l in RANKS:
        basis = standard_mode_basis(l)
        v = singular_vector(basis)
        ok = ok and check_singular(basis, v)
        ok = ok and positive_mode_sweep(basis, v)
    _criterion(
        3,
        ok,
        "degree-2 vector is annihilated by every raising operator, including "
        "the redundant full positive-mode sweep, ranks 1-3",
        time.perf_counter() - t0,
        5.0,
    )


def test_criterion_04_involution_fixes_the_vector():
    ok = True
    for l in RANKS:
        basis = standard_mode_basis(l)
        v = singular_vector(basis)
        ok = ok and nu_state(basis, v) == v
    _criterion(
        4,
        ok,
        "order-2 involution fixes the degree-2 vector exactly, ranks 1-3",
    )


def test_criterion_05_associative_image_closed_form():
    ok = True
    for l in RANKS:
        alg = projection_context(l)
        n = 2 * l + 1
        want = {}
        for i in range(1, 2 * l):
            left = alg.lie2uea(eplus(l, i + 1, n))
            right = alg.lie2uea(eplus(l, 1, i + 1))
            vec_add_into(want, alg.mul(left, right))
        ok = ok and zhu_singular_image(l) == want
    _criterion(
        5,
        ok,
        "projected vector equals the sum of even-part raising products "
        "after normal ordering, exact, ranks 1-3",
    )


def test_criterion_06_lowered_image_closed_form():
    ok = True
    for l in RANKS:
        ok = ok and compute_v1(l) == v1_closed_form(l)
    _criterion(
        6,
        ok,
        "twice the adjoint-lowered image equals its four-block closed form "
        "after normal ordering, exact, ranks 1-3",
    )


def test_criterion_07_factored_polynomials_and_rejected_variant():
    ok = True
    for l in RANKS:
        polys = lowered_polynomials(l)
        ok = ok and polys == reference_polynomials(l)
        # The sign variant with +1/2 in place of -1/2 must NOT match:
        # the suite records which of the two written forms the computation
        # actually supports.
        ok = ok and polys != reference_polynomials(l, plus_half=True)
    _criterion(
        7,
        ok,
        "Cartan polynomials match the -1/2 factored family exactly and "
        "reject the +1/2 variant, ranks 1-3",
    )


def test_criterion_08_zero_weight_span():
    ok = True
    for l in RANKS:
        orbit, members = r0_basis(l)
        ok = ok and len(orbit) == 2 * l * l + 3 * l
        ok = ok and len(members) == l
        member_polys = [projection_context(l).cartan_polynomial(u) for u in members]
        ok = ok and poly_span_equal(member_polys, lowered_polynomials(l))
    _criterion(
        8,
        ok,
        "zero-weight part of the generated module has dimension equal to the "
        "rank and its polynomial span equals the factored family, ranks 1-3",
    )


def test_criterion_09_classification_zero_set():
    ok = True
    for l in RANKS:
        found = zero_set(lowered_polynomials(l))
        expected = frozenset(all_highest_weights(l))
        ok = ok and len(found) == 2**l and found == expected
    _criterion(
        9,
        ok,
        "common zero set of the polynomials equals the closed-form weight "
        "list (2^rank weights), exact set equality, ranks 1-3",
    )


def test_criterion_10_dominant_integral_pair():
    ok = True
    for l in RANKS:
        weights = all_highest_weights(l)
        zero = mu_weight(l, (), False)
        last_fundamental = mu_weight(l, (), True)
        # doubled coroot coordinates: 2 * (0, ..., 0, 1) for w_l
        ok = ok and zero == (0,) * l
        ok = ok and last_fundamental == (0,) * (l - 1) + (2,)
        ok = ok and frozenset(x for x in weights if dominant_integral(x)) == frozenset(
            {zero, last_fundamental}
        )
    _criterion(
        10,
        ok,
        "exactly two classified weights are dominant integral: zero and the "
        "last fundamental weight, ranks 1-3",
    )


def test_criterion_11_admissibility():
    t0 = time.perf_counter()
    ok = True
    for l in RANKS:
        for _, report in admissibility_table(l):
            ok = ok and report.passed and report.cond2_rank == l + 1

    # Rank-1 witnesses: the two distinguished weights pair to 0 and -3
    # (unprimed) and to 1 and -4 (primed) against the finite simple coroot
    # and the affine-node coroot.
    lam = affinize(mu_weight(1, (), False), 1)
    lam_p = affinize(mu_weight(1, (), True), 1)
    short_root = eps_unit(1, 1)
    affine_node_root = delta(1) - short_root
    ok = ok and coroot_pairing(lam, short_root) == 0
    ok = ok and coroot_pairing(lam, affine_node_root) == -3
    ok = ok and coroot_pairing(lam_p, short_root) == 1
    ok = ok and coroot_pairing(lam_p, affine_node_root) == -4

    # Rank-1 long-root pattern: the shifted pairings along both long-root
    # progressions always carry denominator 4, so they are never integers
    # and the first condition holds vacuously there.
    longs = [f for f in positive_real_families(1) if f.kind == "long"]
    ok = ok and len(longs) == 2
    for weight in (lam, lam_p):
        shifted = weight + rho(1)
        for fam in longs:
            a, b = pairing_progression(shifted, fam)
            ok = ok and first_integral_parameter(a, b, fam.m_min) is None

    _criterion(
        11,
        ok,
        "all 2^rank classified weights are admissible with full coroot span, "
        "reproducing the rank-1 pairings 0/-3 and 1/-4 and the long-root "
        "never-integral pattern, ranks 1-3",
        time.perf_counter() - t0,
        5.0,
    )


def test_criterion_12_positivity_of_shifted_level():
    ok = True
    for l in RANKS:
        num, den = level(l)
        ok = ok and num + (2 * l + 1) * den > 0
        for mu in all_highest_weights(l):
            lam = affinize(mu, l)
            ok = ok and lam.level + (2 * l + 1) == Fraction(2 * l + 1, 2)
    _criterion(
        12,
        ok,
        "level plus dual Coxeter number equals rank + 1/2 > 0 for every "
        "classified weight, ranks 1-3",
    )


def test_criterion_13_property_suites_and_budget():
    t0 = time.perf_counter()
    # Zero tolerated failures: each suite raises on its first counterexample.
    test_liealg.test_nu_involution_automorphism_form_200_samples()
    test_vacuum.test_affine_commutation_relation_50_samples()
    test_envelope.test_normal_form_confluence_100_words()
    test_twzhu.test_project_pair_closed_form_100_samples()
    ok = True
    for l in RANKS:
        ok = ok and run_checks(l, "all").overall == "pass"
    _criterion(
        13,
        ok,
        "property suites (involution invariance x200, mode commutation x50, "
        "rewrite confluence x100, projection pairs x100) report zero "
        "failures, and every registered check passes at ranks 1-3",
        time.perf_counter() - t0,
        60.0,
    )


def test_criterion_13_optional_rank_4():
    t0 = time.perf_counter()
    ok = run_checks(4, "all").overall == "pass"
    _criterion(
        13,
        ok,
        "every registered check passes at rank 4",
        time.perf_counter() - t0,
        600.0,
    )
