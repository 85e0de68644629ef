"""Tests for the highest-weight enumeration, the zero-set oracle, the
dominant-integral filter, and the affine lift, plus the end-to-end
classification-to-admissibility pipeline."""

from __future__ import annotations

from fractions import Fraction

import pytest

from a2l2.affroots import check_admissible, ip, delta, kw_positivity
from a2l2.classify import (
    FiniteWeight,
    affinize,
    all_highest_weights,
    dominant_integral_filter,
    eval_polys,
    mu_weight,
    zero_set_oracle,
)
from a2l2.envelope import CartanPoly
from a2l2.twzhu import (
    lowered_polynomials,
    projection_context,
    reference_polynomials,
)


F = Fraction


def from_eps(coords) -> FiniteWeight:
    """Build a finite weight from eps-coefficients."""
    coords = tuple(F(v) for v in coords)
    l = len(coords)
    vals = [coords[j] - coords[j + 1] for j in range(l - 1)]
    vals.append(2 * coords[l - 1])
    return FiniteWeight(tuple(vals))


# ---------------------------------------------------------- weight formulas

def test_mu_weight_pinned_values():
    for l in (1, 2, 3):
        assert mu_weight(l, (), False).coroot_vals == (F(0),) * l
        omega_l = tuple(F(0) if i < l - 1 else F(1) for i in range(l))
        assert mu_weight(l, (), True).coroot_vals == omega_l
    assert mu_weight(2, (1,), False).coroot_vals == (F(-1, 2), F(0))
    assert mu_weight(2, (1,), True).coroot_vals == (F(-3, 2), F(1))
    # rank 3, both indices chosen: hand-evaluated coefficient streams
    assert mu_weight(3, (1, 2), False).coroot_vals == (F(-1, 2), F(-1, 2), F(0))
    assert mu_weight(3, (1, 2), True).coroot_vals == (F(1, 2), F(-3, 2), F(1))
    assert mu_weight(3, (1,), False).coroot_vals == (F(-3, 2), F(0), F(0))
    assert mu_weight(3, (2,), True).coroot_vals == (F(0), F(-3, 2), F(1))


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
    # top fundamental weight is half the sum of the eps basis
    for l in (1, 2, 3):
        top = mu_weight(l, (), True)
        assert top.eps_coords == (F(1, 2),) * l
        for w in all_highest_weights(l):
            assert from_eps(w.eps_coords) == w
    assert FiniteWeight((F(1), F(0))).eps_coords == (F(1), F(0))
    assert FiniteWeight((F(0), F(1))).eps_coords == (F(1, 2), F(1, 2))


def test_omega_string_rendering():
    assert mu_weight(1, (), False).omega_string() == "0"
    assert mu_weight(1, (), True).omega_string() == "w1"
    assert mu_weight(2, (1,), False).omega_string() == "-1/2*w1"
    assert mu_weight(2, (1,), True).omega_string() == "-3/2*w1 + w2"


# ------------------------------------------------------------- evaluations

def test_eval_polys_all_zero_on_classified_weights():
    for l in (1, 2, 3):
        ctx = projection_context(l)
        polys = lowered_polynomials(ctx)
        for w in all_highest_weights(l):
            assert eval_polys(polys, w) == [F(0)] * l


def test_eval_polys_nonzero_elsewhere():
    polys = reference_polynomials(2)
    probe = FiniteWeight((F(1), F(1)))
    values = eval_polys(polys, probe)
    assert any(values)


def test_eval_polys_arity_mismatch():
    with pytest.raises(ValueError):
        eval_polys(reference_polynomials(2), FiniteWeight((F(0),)))


# ---------------------------------------------------------- zero-set oracle

def test_zero_set_oracle_matches_weight_formulas():
    for l in (1, 2, 3):
        expected = frozenset(all_highest_weights(l))
        assert len(expected) == 2**l
        assert zero_set_oracle(reference_polynomials(l)) == expected
        ctx = projection_context(l)
        assert zero_set_oracle(lowered_polynomials(ctx)) == expected


def test_zero_set_agrees_with_sympy_solver():
    # an oracle sharing no assumption with zero_set_oracle: sympy solves the
    # polynomial system directly, without the triangular factored form
    sympy = pytest.importorskip("sympy")
    for l in (1, 2, 3, 4):
        polys = lowered_polynomials(projection_context(l))
        xs = sympy.symbols(f"x1:{l + 1}")
        system = [
            sympy.Add(*(
                sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(x**e for x, e in zip(xs, exps)))
                for exps, c in p.terms.items()
            ))
            for p in polys
        ]
        solutions = sympy.solve_poly_system(system, *xs)
        found = {
            FiniteWeight(tuple(F(int(v.p), int(v.q)) for v in sol))
            for sol in solutions
        }
        assert len(solutions) == 2**l
        assert found == zero_set_oracle(polys)
        assert found == set(all_highest_weights(l))


def test_zero_set_oracle_rank1_literal():
    got = zero_set_oracle(reference_polynomials(1))
    assert got == frozenset({FiniteWeight((F(0),)), FiniteWeight((F(1),))})


def test_plus_half_variant_classifies_differently():
    # the alternative constant would produce a different zero set entirely
    for l in (1, 2, 3):
        variant = zero_set_oracle(reference_polynomials(l, plus_half=True))
        assert variant != frozenset(all_highest_weights(l))


def test_zero_set_oracle_divides_exactly():
    # x1 (3 x1 + x2 + 1) and x2 (3 x2 - 2): every constant and coefficient is
    # an int, and the roots are thirds and ninths, which no float holds
    x1, x2 = CartanPoly.variable(2, 1), CartanPoly.variable(2, 2)
    p1 = x1.mul(x1.scale(3).add(x2).add(CartanPoly.const(2, 1)))
    p2 = x2.mul(x2.scale(3).add(CartanPoly.const(2, -2)))
    assert all(type(c) is int for p in (p1, p2) for c in p.terms.values())
    assert zero_set_oracle([p1, p2]) == frozenset(
        FiniteWeight(v)
        for v in ((0, 0), (F(-1, 3), 0), (0, F(2, 3)), (F(-5, 9), F(2, 3)))
    )


def test_zero_set_oracle_structural_errors():
    x1 = CartanPoly.variable(1, 1)
    not_divisible = x1.add(CartanPoly.const(1, 1))
    with pytest.raises(ValueError):
        zero_set_oracle([not_divisible])
    quadratic_cofactor = x1.mul(x1).mul(x1)
    with pytest.raises(ValueError):
        zero_set_oracle([quadratic_cofactor])
    # cofactor depending on an earlier variable breaks triangularity
    x1_2, x2_2 = CartanPoly.variable(2, 1), CartanPoly.variable(2, 2)
    bad = [x1_2.mul(x1_2), x2_2.mul(x1_2)]
    with pytest.raises(ValueError):
        zero_set_oracle(bad)
    # degenerate: cofactor of x_1 missing x_1 entirely
    degen = [x1_2.mul(x2_2), x2_2.mul(x2_2)]
    with pytest.raises(ValueError):
        zero_set_oracle(degen)
    with pytest.raises(ValueError):
        zero_set_oracle([CartanPoly.variable(2, 1)])


# ------------------------------------------------------------ dominant set

def test_dominant_integral_filter():
    for l in (1, 2, 3):
        ws = all_highest_weights(l)
        kept = dominant_integral_filter(ws)
        assert kept == frozenset({mu_weight(l, (), False), mu_weight(l, (), True)})
        assert len(kept) == 2


def test_dominant_integral_predicate():
    assert FiniteWeight((F(0), F(3))).is_dominant_integral()
    assert not FiniteWeight((F(-1), F(0))).is_dominant_integral()
    assert not FiniteWeight((F(1, 2),)).is_dominant_integral()


# ------------------------------------------------------------- affine lift

def test_affinize_pinned_rank1():
    lam = affinize(mu_weight(1, (), False), 1)
    assert lam.eps == (F(0),) and lam.k0 == F(-3, 2) and lam.d_delta == 0
    lam_primed = affinize(mu_weight(1, (), True), 1)
    assert lam_primed.eps == (F(1, 2),) and lam_primed.k0 == F(-3, 2)


def test_affinize_level_read_back():
    for l in (1, 2, 3):
        for w in all_highest_weights(l):
            lam = affinize(w, l)
            assert ip(lam, delta(l)) == F(-(2 * l + 1), 2)
    with pytest.raises(ValueError):
        affinize(mu_weight(2, (), False), 3)


# ----------------------------------------------------- end-to-end pipeline

def test_all_classified_weights_admissible_and_positive():
    for l in (1, 2, 3):
        for w in all_highest_weights(l):
            lam = affinize(w, l)
            report = check_admissible(lam)
            assert report.passed, (l, w.coroot_vals)
            assert report.cond2_rank == l + 1
            assert kw_positivity(lam)
