"""Tests for the finite Lie algebra core.

The type-B Cartan matrix oracle is written here first, independent of the
library, and frozen values are asserted against it.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from a2l2.liealg import (
    E,
    H,
    LieElt,
    b_type_generators,
    bracket,
    computed_b_cartan,
    eigen_ratio,
    eplus,
    g0_basis_info,
    g1_basis,
    g1_zero_weight_dim,
    invariant_form,
    nu,
    split_pm,
)
from a2l2.linalg import SpanSolver

from helpers_spin import QuadScalar, g0_basis


# ---------------------------------------------------------------- helpers

def trace(a: LieElt) -> Fraction:
    return sum((c for (i, j), c in a.terms.items() if i == j), Fraction(0))


def in_even_part(a: LieElt) -> bool:
    return nu(a) == a


def in_odd_part(a: LieElt) -> bool:
    return nu(a) == -a


def sample_sparse(rng, l: int, max_terms: int = 3, traceless: bool = True) -> LieElt:
    """Random sparse element for property tests (seeded RNG passed in)."""
    n = 2 * l + 1
    t: dict[tuple[int, int], Fraction] = {}
    for _ in range(rng.randint(1, max_terms)):
        i = rng.randint(1, n)
        j = rng.randint(1, n)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if i == j and traceless:
            if i == n:
                continue
            # use H-style traceless diagonal contributions
            for key, val in H(n, i).terms.items():
                t[key] = t.get(key, Fraction(0)) + c * val
            continue
        t[(i, j)] = t.get((i, j), Fraction(0)) + c
    return LieElt(n, t)


# ---------------------------------------------------------------- oracle

def expected_b_cartan(l: int) -> list[list[int]]:
    """Textbook type-B_l Cartan matrix, short root last.

    Entry (i,j) = pairing of simple root j with simple coroot i:
    tridiagonal 2/-1 with the corner (l, l-1) entry -2.
    """
    if l == 1:
        return [[2]]
    m = [[0] * l for _ in range(l)]
    for i in range(l):
        m[i][i] = 2
    for i in range(l - 1):
        m[i][i + 1] = -1
        m[i + 1][i] = -1
    m[l - 1][l - 2] = -2
    return m


# ---------------------------------------------------------------- bracket

def test_bracket_elementary_identities():
    assert bracket(E(3, 1, 2), E(3, 2, 3)) == E(3, 1, 3)
    assert bracket(E(3, 1, 2), E(3, 2, 1)) == H(3, 1)
    assert bracket(E(5, 1, 2), E(5, 3, 4)).is_zero()


def test_bracket_antisymmetry_and_bilinearity():
    rng = random.Random(11)
    for _ in range(50):
        l = rng.choice([1, 2, 3])
        a = sample_sparse(rng, l)
        b = sample_sparse(rng, l)
        assert bracket(a, a).is_zero()
        assert bracket(a, b) == -bracket(b, a)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        assert bracket(c * a, b) == c * bracket(a, b)


def test_bracket_rank_mismatch():
    with pytest.raises(ValueError):
        bracket(E(3, 1, 2), E(5, 1, 2))


def test_jacobi_identity_100_triples():
    rng = random.Random(7)
    for _ in range(100):
        l = rng.choice([1, 2, 3])
        a, b, c = (sample_sparse(rng, l) for _ in range(3))
        lhs = bracket(a, bracket(b, c)) + bracket(b, bracket(c, a)) + bracket(c, bracket(a, b))
        assert lhs.is_zero()


# ------------------------------------------------------------- eigen ratio

def test_eigen_ratio_divides_exactly():
    # int entries on both sides: the ratio is an int or a Fraction, never a float
    two_e = E(3, 1, 2) + E(3, 1, 2)
    r = eigen_ratio(bracket(H(3, 1), two_e), two_e)
    assert r == 2 and type(r) is int
    half = eigen_ratio(E(3, 1, 2), two_e)
    assert half == Fraction(1, 2) and type(half) is Fraction


# ---------------------------------------------------------------- trace form

def test_invariant_form_examples():
    assert invariant_form(E(3, 1, 2), E(3, 2, 1)) == 1
    assert invariant_form(H(3, 1), H(3, 1)) == 2
    assert invariant_form(E(3, 1, 2), E(3, 1, 2)) == 0


def test_invariant_form_symmetric_and_invariant():
    rng = random.Random(23)
    for _ in range(60):
        l = rng.choice([1, 2, 3])
        a, b, x = (sample_sparse(rng, l) for _ in range(3))
        assert invariant_form(a, b) == invariant_form(b, a)
        assert invariant_form(bracket(x, a), b) + invariant_form(a, bracket(x, b)) == 0


# ---------------------------------------------------------------- involution

def test_nu_pinned_images():
    for l in (1, 2, 3):
        n = 2 * l + 1
        assert nu(E(n, 1, n)) == -E(n, 1, n)  # top-root matrix is odd
        for i in range(1, n):
            assert nu(H(n, i)) == H(n, n - i)
    assert nu(E(3, 2, 3)) == E(3, 1, 2)


def test_nu_involution_automorphism_form_200_samples():
    rng = random.Random(5)
    for _ in range(200):
        l = rng.choice([1, 2, 3])
        a = sample_sparse(rng, l)
        b = sample_sparse(rng, l)
        assert nu(nu(a)) == a
        assert nu(bracket(a, b)) == bracket(nu(a), nu(b))
        assert invariant_form(nu(a), nu(b)) == invariant_form(a, b)


# ---------------------------------------------------------------- grading

def test_split_pm_examples():
    n = 3
    p, m = split_pm(E(n, 1, 3))
    assert p.is_zero() and m == E(n, 1, 3)
    p, m = split_pm(E(3, 1, 2))
    assert p == Fraction(1, 2) * (E(3, 1, 2) + E(3, 2, 3))
    assert m == Fraction(1, 2) * (E(3, 1, 2) - E(3, 2, 3))
    h = H(3, 1) + H(3, 2)  # fixed by the involution
    p, m = split_pm(h)
    assert p == h and m.is_zero()


def test_split_pm_reconstruction_and_eigenspaces():
    rng = random.Random(31)
    for _ in range(60):
        l = rng.choice([1, 2, 3])
        a = sample_sparse(rng, l)
        p, m = split_pm(a)
        assert p + m == a
        assert in_even_part(p)
        assert in_odd_part(m)


# ---------------------------------------------------------------- B_l generators

def test_generator_pinned_values():
    g2 = b_type_generators(2)
    assert g2.h[0] == H(5, 1) + H(5, 4)  # h_i = H_i + H_{2l+1-i}
    assert g2.hbar_l == 2 * (H(5, 2) + H(5, 3))
    g1 = b_type_generators(1)
    assert g1.hbar_l == 2 * (H(3, 1) + H(3, 2))
    assert g1.e_l == E(3, 1, 2) + E(3, 2, 3)


def test_generators_live_in_even_part():
    for l in (1, 2, 3):
        g = b_type_generators(l)
        for x in g.e + g.f + g.h + (g.e_l, g.f_l, g.h_l, g.hbar_l):
            assert in_even_part(x)


def test_sqrt2_normalized_triple():
    for l in (1, 2, 3):
        g = b_type_generators(l)
        # sqrt(2)^2 = 2 relates the normalized and plain triples
        assert 2 * bracket(g.e_l, g.f_l) == g.hbar_l
        assert bracket(g.e_l, g.f_l) == g.h_l


def test_cartan_matrix_matches_type_b():
    for l in (1, 2, 3, 4):
        assert computed_b_cartan(l) == expected_b_cartan(l)


def test_rank_zero_rejected():
    with pytest.raises(ValueError):
        b_type_generators(0)
    with pytest.raises(ValueError):
        g0_basis(0)


# ---------------------------------------------------------------- bases

def test_g0_basis_counts_and_order():
    for l, d in ((1, 3), (2, 10), (3, 21)):
        info = g0_basis_info(l)
        assert info.dim == d == l * (2 * l + 1)
        assert info.neg_count == l * l
        assert info.cartan_count == l
        assert info.pos_count == l * l
        gens = b_type_generators(l)
        assert info.elems[info.cartan_start:info.pos_start] == gens.cartan_elements()
        # positive block: even projections of upper representatives, each
        # times its split scale
        for k, (i, j) in enumerate(info.pos_rep_pairs):
            scale = info.scales[info.pos_start + k]
            assert scale == (4 if l + 1 in (i, j) else 2)
            assert info.elems[info.pos_start + k] == scale * eplus(l, i, j)
            assert i < j and i + j != 2 * l + 2
        assert info.scales[info.cartan_start:info.pos_start] == (1,) * l


def test_anti_diagonal_even_projection_vanishes():
    for l in (1, 2, 3):
        n = 2 * l + 1
        for i in range(1, n + 1):
            j = n + 1 - i
            if i != j:
                assert eplus(l, i, j).is_zero()


def test_eigen_split_dimensions():
    # even + odd bases together span sl(2l+1) exactly
    for l in (1, 2, 3):
        n = 2 * l + 1
        solver = SpanSolver()
        count = 0
        for x in g0_basis(l) + g1_basis(l):
            assert solver.add(x.entry_vector())
            count += 1
        assert count == n * n - 1
        assert all(trace(x) == 0 for x in g0_basis(l) + g1_basis(l))


def test_g1_zero_weight_dimension():
    assert g1_zero_weight_dim(1) == 1
    assert g1_zero_weight_dim(2) == 2
    assert g1_zero_weight_dim(3) == 3


def test_g1_basis_is_odd():
    for l in (1, 2, 3):
        for x in g1_basis(l):
            assert in_odd_part(x)


# ---------------------------------------------------------------- misc

def test_zero_and_validation():
    assert LieElt(3).is_zero()
    with pytest.raises(ValueError):
        LieElt(4)  # even size rejected
    with pytest.raises(ValueError):
        E(3, 0, 1)
    with pytest.raises(ValueError):
        H(3, 3)


def test_quadscalar_ring():
    s = QuadScalar(0, 1)
    assert s * s == 2
    assert (QuadScalar(1, 1) * QuadScalar(1, -1)) == -1
    assert QuadScalar(Fraction(1, 2)) + Fraction(1, 2) == 1
    assert bool(QuadScalar(0, 0)) is False
