"""Tests for the integer weight table (the weight formulas in doubled
coroot coordinates, eps coordinates, rendering), the zero-set walk and the
integer residuals of the polynomial system, the dominant-integral
predicate, and the affine lift, plus the end-to-end
classification-to-admissibility pipeline."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import pytest
from helpers_polys import eval_polys, mono
from helpers_roots import affinize, decide, delta, rho

from a2l2.affroots import algebra_data, ip
from a2l2.classify import (
    admissibility_table,
    all_highest_weights,
    dominant_integral,
    eps4,
    mu_weight,
    omega_string,
    weight_strings,
)
from a2l2.envelope import doubled_residuals, zero_set
from a2l2.twzhu import lowered_polynomials, reference_polynomials


F = Fraction


def halves(x) -> tuple[Fraction, ...]:
    """The coroot coordinates c = X/2 of doubled coordinates X."""
    return tuple(F(v, 2) for v in x)


def doubled_from_eps(coords) -> tuple[int, ...]:
    """Doubled coroot coordinates of the weight with these eps coefficients:
    c_j = m_j - m_{j+1}, c_l = 2 m_l."""
    coords = tuple(F(v) for v in coords)
    l = len(coords)
    vals = [coords[j] - coords[j + 1] for j in range(l - 1)] + [2 * coords[l - 1]]
    assert all((2 * c).denominator == 1 for c in vals)
    return tuple(int(2 * c) for c in vals)


# ---------------------------------------------------------- weight formulas

def test_mu_weight_pinned_values():
    # doubled coroot coordinates X = 2c
    for l in (1, 2, 3):
        assert mu_weight(l, (), False) == (0,) * l
        omega_l = tuple(0 if i < l - 1 else 2 for i in range(l))
        assert mu_weight(l, (), True) == omega_l
    assert halves(mu_weight(2, (1,), False)) == (F(-1, 2), F(0))
    assert halves(mu_weight(2, (1,), True)) == (F(-3, 2), F(1))
    # rank 3, both indices chosen: hand-evaluated coefficient streams
    assert halves(mu_weight(3, (1, 2), False)) == (F(-1, 2), F(-1, 2), F(0))
    assert halves(mu_weight(3, (1, 2), True)) == (F(1, 2), F(-3, 2), F(1))
    assert halves(mu_weight(3, (1,), False)) == (F(-3, 2), F(0), F(0))
    assert halves(mu_weight(3, (2,), True)) == (F(0), F(-3, 2), F(1))
    assert all(type(c) is int for l in (1, 2, 3, 4) for x in all_highest_weights(l) for c in x)


def test_mu_weight_validation():
    with pytest.raises(ValueError):
        mu_weight(1, (1,), False)
    with pytest.raises(ValueError):
        mu_weight(3, (2, 1), False)
    with pytest.raises(ValueError):
        mu_weight(3, (1, 1), False)
    with pytest.raises(ValueError):
        mu_weight(2, (5,), True)
    with pytest.raises(ValueError):
        mu_weight(0, (), False)


def test_all_highest_weights_enumeration():
    for l in (1, 2, 3):
        ws = all_highest_weights(l)
        assert len(ws) == 2**l
        assert len(set(ws)) == 2**l
        assert ws[0] == mu_weight(l, (), False)
        assert ws[1] == mu_weight(l, (), True)


def test_coroot_eps_coordinate_conversion():
    # eps4 is 4 times the eps coordinates; the top fundamental weight is
    # half the sum of the eps basis
    for l in (1, 2, 3):
        assert eps4(mu_weight(l, (), True)) == (2,) * l
        for x in all_highest_weights(l):
            eps = tuple(F(v, 4) for v in eps4(x))
            assert doubled_from_eps(eps) == x
            assert eps == affinize(x, l).eps
    assert eps4((2, 0)) == (4, 0)
    assert eps4((0, 2)) == (2, 2)


def test_omega_string_rendering():
    assert omega_string(mu_weight(1, (), False)) == "0"
    assert omega_string(mu_weight(1, (), True)) == "w1"
    assert omega_string(mu_weight(2, (1,), False)) == "-1/2*w1"
    assert omega_string(mu_weight(2, (1,), True)) == "-3/2*w1 + w2"
    assert omega_string((4, -2, 1)) == "2*w1 - w2 + 1/2*w3"
    for l in (1, 2, 3):
        assert weight_strings(l) == tuple(map(omega_string, all_highest_weights(l)))


# ------------------------------------------------------------- evaluations

def test_eval_polys_all_zero_on_classified_weights():
    # the integer residuals of the expanded polynomials and their rational
    # values both vanish on every weight of the table
    for l in (1, 2, 3):
        polys = lowered_polynomials(l)
        weights = all_highest_weights(l)
        assert list(doubled_residuals(polys, weights)) == [[0] * l] * 2**l
        for x in weights:
            assert eval_polys(polys, halves(x)) == [F(0)] * l


def test_eval_polys_nonzero_elsewhere():
    # each integer residual is the rational value times 2^deg and the lcm
    # of the polynomial's denominators
    for l in (2, 3):
        polys = reference_polynomials(l)
        probes = [(2,) * l, (1, -3) + (5,) * (l - 2), (-1,) * l]
        for x, got in zip(probes, doubled_residuals(polys, probes)):
            values = eval_polys(polys, halves(x))
            assert any(values)
            for p, value, residual in zip(polys, values, got):
                deg = max(sum(k) for k in p)
                den = lcm(*(F(c).denominator for c in p.values()))
                assert type(residual) is int
                assert residual == value * den * 2**deg


def test_eval_polys_arity_mismatch():
    with pytest.raises(ValueError):
        eval_polys(reference_polynomials(2), (F(0),))
    with pytest.raises(ValueError):
        list(doubled_residuals(reference_polynomials(2), [(0,)]))


# ---------------------------------------------------------- zero-set walk

def test_zero_set_oracle_matches_weight_formulas():
    for l in (1, 2, 3):
        expected = frozenset(all_highest_weights(l))
        assert len(expected) == 2**l
        assert zero_set(reference_polynomials(l)) == expected
        assert zero_set(lowered_polynomials(l)) == expected


def test_zero_set_agrees_with_sympy_solver():
    # an oracle sharing no assumption with the zero-set walk: sympy solves
    # the polynomial system directly, without the triangular factored form
    sympy = pytest.importorskip("sympy")
    for l in (1, 2, 3, 4):
        polys = lowered_polynomials(l)
        xs = sympy.symbols(f"x1:{l + 1}")
        system = [
            sympy.Add(*(
                sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(x**e for x, e in zip(xs, exps)))
                for exps, c in p.items()
            ))
            for p in polys
        ]
        solutions = sympy.solve_poly_system(system, *xs)
        found = {tuple(F(int(v.p), int(v.q)) for v in sol) for sol in solutions}
        assert len(solutions) == 2**l
        assert found == {halves(x) for x in zero_set(polys)}
        assert found == {halves(x) for x in all_highest_weights(l)}


def test_zero_set_oracle_rank1_literal():
    got = zero_set(reference_polynomials(1))
    assert got == frozenset({(0,), (2,)})


def test_plus_half_variant_classifies_differently():
    # the alternative constant would produce a different zero set entirely
    for l in (1, 2, 3):
        variant = zero_set(reference_polynomials(l, plus_half=True))
        assert variant != frozenset(all_highest_weights(l))


def test_zero_set_oracle_divides_exactly():
    # x1 (3 x1 + x2 + 3/2) and x2 (2 x2 - 3): the forms scale to ints in
    # the doubled coordinates, and the walk divides by 3 exactly
    p1 = {(2, 0): 3, (1, 1): 1, (1, 0): F(3, 2)}
    p2 = {(0, 2): 2, (0, 1): -3}
    assert zero_set([p1, p2]) == frozenset({(0, 0), (-1, 0), (0, 3), (-2, 3)})
    # x1 (3 x1 + x2 + 1) and x2 (3 x2 - 2): the roots are thirds and ninths,
    # outside (1/2)Z, and the walk raises rather than rounds
    p1 = {(2, 0): 3, (1, 1): 1, (1, 0): 1}
    p2 = {(0, 2): 3, (0, 1): -2}
    assert all(type(c) is int for p in (p1, p2) for c in p.values())
    with pytest.raises(ValueError, match="outside"):
        zero_set([p1, p2])


def test_zero_set_oracle_structural_errors():
    not_divisible = {(1,): 1, (0,): 1}
    with pytest.raises(ValueError):
        zero_set([not_divisible])
    quadratic_cofactor = {(3,): 1}
    with pytest.raises(ValueError):
        zero_set([quadratic_cofactor])
    # cofactor depending on an earlier variable breaks triangularity
    bad = [{mono(2, 1, 1): 1}, {mono(2, 1, 2): 1}]
    with pytest.raises(ValueError):
        zero_set(bad)
    # degenerate: cofactor of x_1 missing x_1 entirely
    degen = [{mono(2, 1, 2): 1}, {mono(2, 2, 2): 1}]
    with pytest.raises(ValueError):
        zero_set(degen)
    with pytest.raises(ValueError):
        zero_set([{mono(2, 1): 1}])


# ------------------------------------------------------------ dominant set

def test_dominant_integral_filter():
    for l in (1, 2, 3):
        kept = frozenset(x for x in all_highest_weights(l) if dominant_integral(x))
        assert kept == frozenset({mu_weight(l, (), False), mu_weight(l, (), True)})
        assert len(kept) == 2


def test_dominant_integral_predicate():
    assert dominant_integral((0, 6))
    assert not dominant_integral((-2, 0))
    assert not dominant_integral((1,))


# ------------------------------------------------------------- affine lift

def test_affinize_pinned_rank1():
    lam = affinize(mu_weight(1, (), False), 1)
    assert lam.eps == (F(0),) and lam.k0 == F(-3, 2) and lam.d_delta == 0
    lam_primed = affinize(mu_weight(1, (), True), 1)
    assert lam_primed.eps == (F(1, 2),) and lam_primed.k0 == F(-3, 2)


def test_affinize_level_read_back():
    # the lift is at the studied level, and the table's shifted coordinates
    # 4(lam + rho) are those of the lift
    for l in (1, 2, 3):
        for x in all_highest_weights(l):
            lam = affinize(x, l)
            assert ip(lam, delta(l)) == F(-(2 * l + 1), 2)
            shifted = eps4([c + 2 for c in x])
            assert shifted == tuple(4 * c for c in (lam + rho(l)).eps)
    with pytest.raises(ValueError):
        affinize(mu_weight(2, (), False), 3)


# ----------------------------------------------------- end-to-end pipeline

def test_all_classified_weights_admissible_and_positive():
    for l in (1, 2, 3):
        for x, report in admissibility_table(l):
            assert affinize(x, l).level + algebra_data(l).h_dual > 0
            assert report.passed, (l, x)
            assert report.cond2_rank == l + 1
            assert report == decide(affinize(x, l))
