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
    Matrix,
    b_type_generators,
    bracket,
    common_weight,
    computed_b_cartan,
    entry_weights,
    invariant_form,
    nu,
    nu_pair,
    split_basis,
)
from a2l2.linalg import SpanSolver, rank_of, vec_add_into, vec_add_term, vec_scale
from a2l2.twzhu import projection_context

from helpers_spin import QuadScalar, eigen_ratio, g0_basis, lin, split_pm


# ---------------------------------------------------------------- helpers

def trace(a: Matrix) -> Fraction:
    return sum((c for (i, j), c in a.items() if i == j), Fraction(0))


def in_even_part(a: Matrix, n: int) -> bool:
    return nu(a, n) == a


def in_odd_part(a: Matrix, n: int) -> bool:
    return nu(a, n) == vec_scale(a, -1)


def g1_basis(l: int) -> list[Matrix]:
    return list(split_basis(l)[0][l * (2 * l + 1):])


def eplus(l: int, i: int, j: int) -> Matrix:
    """Even-part projection (E[i,j] + nu(E[i,j]))/2 of the elementary matrix,
    through `nu` alone: the oracle for the package's even factors."""
    a = E(i, j)
    vec_add_into(a, nu(a, 2 * l + 1))
    return vec_scale(a, Fraction(1, 2))


def sample_sparse(rng, l: int, max_terms: int = 3, traceless: bool = True) -> Matrix:
    """Random sparse element for property tests (seeded RNG passed in)."""
    n = 2 * l + 1
    t: Matrix = {}
    for _ in range(rng.randint(1, max_terms)):
        i = rng.randint(1, n)
        j = rng.randint(1, n)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if i == j and traceless:
            if i == n:
                continue
            # use H-style traceless diagonal contributions
            vec_add_into(t, H(i), c)
            continue
        vec_add_term(t, (i, j), c)
    return t


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
    assert bracket(E(1, 2), E(2, 3)) == E(1, 3)
    assert bracket(E(1, 2), E(2, 1)) == H(1)
    assert bracket(E(1, 2), E(3, 4)) == {}


def test_bracket_antisymmetry_and_bilinearity():
    rng = random.Random(11)
    for _ in range(50):
        l = rng.choice([1, 2, 3])
        a = sample_sparse(rng, l)
        b = sample_sparse(rng, l)
        assert bracket(a, a) == {}
        assert bracket(a, b) == vec_scale(bracket(b, a), -1)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        assert bracket(vec_scale(a, c), b) == vec_scale(bracket(a, b), c)


def test_jacobi_identity_100_triples():
    rng = random.Random(7)
    for _ in range(100):
        l = rng.choice([1, 2, 3])
        a, b, c = (sample_sparse(rng, l) for _ in range(3))
        lhs = lin(
            (1, bracket(a, bracket(b, c))),
            (1, bracket(b, bracket(c, a))),
            (1, bracket(c, bracket(a, b))),
        )
        assert lhs == {}


# ------------------------------------------------------------- eigen ratio

def test_eigen_ratio_divides_exactly():
    # int entries on both sides: the ratio is an int or a Fraction, never a float
    two_e = lin((1, E(1, 2)), (1, E(1, 2)))
    r = eigen_ratio(bracket(H(1), two_e), two_e)
    assert r == 2 and type(r) is int
    half = eigen_ratio(E(1, 2), two_e)
    assert half == Fraction(1, 2) and type(half) is Fraction


# ---------------------------------------------------------------- trace form

def test_invariant_form_examples():
    assert invariant_form(E(1, 2), E(2, 1)) == 1
    assert invariant_form(H(1), H(1)) == 2
    assert invariant_form(E(1, 2), E(1, 2)) == 0


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
        assert nu(E(1, n), n) == {(1, n): -1}  # top-root matrix is odd
        for i in range(1, n):
            assert nu(H(i), n) == H(n - i)
    assert nu(E(2, 3), 3) == E(1, 2)


def test_nu_involution_automorphism_form_200_samples():
    rng = random.Random(5)
    for _ in range(200):
        l = rng.choice([1, 2, 3])
        n = 2 * l + 1
        a = sample_sparse(rng, l)
        b = sample_sparse(rng, l)
        assert nu(nu(a, n), n) == a
        assert nu(bracket(a, b), n) == bracket(nu(a, n), nu(b, n))
        assert invariant_form(nu(a, n), nu(b, n)) == invariant_form(a, b)


# ---------------------------------------------------------------- grading

def test_split_pm_examples():
    n = 3
    half = Fraction(1, 2)
    p, m = split_pm(E(1, 3), n)
    assert p == {} and m == E(1, 3)
    p, m = split_pm(E(1, 2), n)
    assert p == lin((half, E(1, 2)), (half, E(2, 3)))
    assert m == lin((half, E(1, 2)), (-half, E(2, 3)))
    h = lin((1, H(1)), (1, H(2)))  # fixed by the involution
    p, m = split_pm(h, n)
    assert p == h and m == {}


def test_split_pm_reconstruction_and_eigenspaces():
    rng = random.Random(31)
    for _ in range(60):
        l = rng.choice([1, 2, 3])
        n = 2 * l + 1
        a = sample_sparse(rng, l)
        p, m = split_pm(a, n)
        assert lin((1, p), (1, m)) == a
        assert in_even_part(p, n)
        assert in_odd_part(m, n)


# ---------------------------------------------------------------- B_l generators

def test_generator_pinned_values():
    g2 = b_type_generators(2)
    assert g2.h[0] == lin((1, H(1)), (1, H(4)))  # h_i = H_i + H_{2l+1-i}
    assert g2.h[-1] == lin((2, H(2)), (2, H(3)))  # hbar_l
    g1 = b_type_generators(1)
    assert g1.h[-1] == lin((2, H(1)), (2, H(2)))
    assert g1.e[-1] == lin((1, E(1, 2)), (1, E(2, 3)))
    for l in (1, 2, 3):
        assert all(len(x) == l for x in b_type_generators(l))


@pytest.mark.parametrize("l", (1, 2, 3, 4))
def test_nu_pair_reproduces_the_hand_written_generators(l):
    # every generator, Ea and d row written out entry by entry, against
    # their construction as one nu_pair or a difference of two diagonal ones
    n = 2 * l + 1
    gens = b_type_generators(l)
    assert gens.e == tuple({(i, i + 1): 1, (n - i, n + 1 - i): 1} for i in range(1, l + 1))
    assert gens.f == tuple({(i + 1, i): 1, (n + 1 - i, n - i): 1} for i in range(1, l + 1))
    assert gens.h == tuple(
        {(i, i): 1, (i + 1, i + 1): -1, (n - i, n - i): 1, (n + 1 - i, n + 1 - i): -1}
        for i in range(1, l)
    ) + ({(l, l): 2, (l + 2, l + 2): -2},)
    elems, labels, _ = split_basis(l)
    row = dict(zip(labels, elems))
    for i in range(1, n + 1):
        if i != l + 1:
            assert row[f"Ea[{i}]"] == {(i, n + 1 - i): 2}
    for i in range(1, l):
        assert row[f"d[{i}]"] == {
            (i, i): 1, (n + 1 - i, n + 1 - i): 1, (i + 1, i + 1): -1, (n - i, n - i): -1
        }
    assert row[f"d[{l}]"] == {(l, l): 1, (l + 2, l + 2): 1, (l + 1, l + 1): -2}

    # the lowering element of v1 and the factors of its closed form, with
    # the signs -(-1)^k of nu written out as ints
    def minus_sign(k: int) -> int:
        return 1 if k % 2 else -1

    assert nu_pair(l, l + 1, 1, 1) == {(l + 1, 1): 1, (n, l + 1): minus_sign(l)}
    assert nu_pair(l, 1, 1, 1) == {(1, 1): 1, (n, n): -1}
    for i in range(1, 2 * l):
        assert nu_pair(l, 1, i + 1, 1) == {(1, i + 1): 1, (n - i, n): minus_sign(i)}
        if i != l:
            assert nu_pair(l, i + 1, l + 1, 1) == {
                (i + 1, l + 1): 1, (l + 1, n - i): minus_sign(l - i)
            }


def test_nu_pair_is_the_sign_eigenvector_of_nu():
    for l in (1, 2, 3):
        n = 2 * l + 1
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert in_even_part(nu_pair(l, i, j, 1), n)
                assert in_odd_part(nu_pair(l, i, j, -1), n)
                assert nu_pair(l, i, j, 1) == vec_scale(eplus(l, i, j), 2)


def test_generators_live_in_even_part():
    for l in (1, 2, 3):
        g = b_type_generators(l)
        h_l = bracket(g.e[-1], g.f[-1])
        for x in g.e + g.f + g.h + (h_l,):
            assert in_even_part(x, 2 * l + 1)


def test_sqrt2_normalized_triple():
    for l in (1, 2, 3):
        g = b_type_generators(l)
        e_l, f_l, hbar_l = g.e[-1], g.f[-1], g.h[-1]
        h_l = lin((1, H(l)), (1, H(l + 1)))
        # sqrt(2)^2 = 2 relates the normalized and plain triples
        assert vec_scale(bracket(e_l, f_l), 2) == hbar_l
        assert bracket(e_l, f_l) == h_l


def test_cartan_matrix_matches_type_b():
    for l in (1, 2, 3, 4):
        assert computed_b_cartan(l) == expected_b_cartan(l)


def test_rank_zero_rejected():
    with pytest.raises(ValueError):
        b_type_generators(0)
    with pytest.raises(ValueError):
        g0_basis(0)


# ---------------------------------------------------------------- bases

def test_split_basis_counts_and_order():
    for l, d in ((1, 3), (2, 10), (3, 21)):
        n, sq = 2 * l + 1, l * l
        elems, labels, scales = split_basis(l)
        assert d == l * (2 * l + 1)
        assert len(elems) == len(labels) == len(scales) == d + 2 * sq + 3 * l
        # even part: l^2 lowering, l Cartan, l^2 raising
        assert elems[sq:sq + l] == b_type_generators(l).h
        assert labels[sq:sq + l] == tuple(f"h[{i}]" for i in range(1, l)) + (f"hb[{l}]",)
        assert scales[sq:sq + l] == (1,) * l
        pairs = [tuple(map(int, x[3:-1].split(","))) for x in labels[sq + l:d]]
        assert len(pairs) == sq
        for k, (i, j) in enumerate(pairs):
            # raising and lowering blocks: even projections of an upper
            # representative and of its transpose, each times its split scale
            scale = scales[sq + l + k]
            assert scale == scales[k] == (4 if l + 1 in (i, j) else 2)
            assert i < j and i + j != n + 1
            assert labels[sq + l + k] == f"Ep[{i},{j}]" and labels[k] == f"Ep[{j},{i}]"
            assert elems[sq + l + k] == vec_scale(eplus(l, i, j), scale)
            assert elems[k] == vec_scale(eplus(l, j, i), scale)
        # odd part: the Em pairs over the same representatives, Ea, d
        odd = [f"Em[{i},{j}]" for i, j in pairs] + [f"Em[{j},{i}]" for i, j in pairs]
        odd += [f"Ea[{i}]" for i in range(1, n + 1) if i != l + 1]
        odd += [f"d[{i}]" for i in range(1, l + 1)]
        assert labels[d:] == tuple(odd)
        assert len(odd) == 2 * sq + 3 * l
        assert scales[d:] == scales[sq + l:d] * 2 + (2,) * (2 * l) + (1,) * l
        for k, (i, j) in enumerate(pairs):
            for x, (a, b) in ((elems[d + k], (i, j)), (elems[d + sq + k], (j, i))):
                assert x == vec_scale(split_pm(E(a, b), n)[1], scales[d + k])
        for k, i in enumerate(i for i in range(1, n + 1) if i != l + 1):
            assert elems[d + 2 * sq + k] == {(i, n + 1 - i): 2}


def test_anti_diagonal_even_projection_vanishes():
    for l in (1, 2, 3):
        n = 2 * l + 1
        for i in range(1, n + 1):
            j = n + 1 - i
            if i != j:
                assert eplus(l, i, j) == {}


def test_eigen_split_dimensions():
    # even + odd bases together span sl(2l+1) exactly
    for l in (1, 2, 3):
        n = 2 * l + 1
        solver = SpanSolver()
        count = 0
        for x in g0_basis(l) + g1_basis(l):
            assert solver.add(x)
            count += 1
        assert count == n * n - 1
        assert all(trace(x) == 0 for x in g0_basis(l) + g1_basis(l))


def odd_zero_weight_dim(l: int) -> int:
    """The odd split basis elements of weight zero under the even Cartan
    block, counted off the weights the rank's one table holds, as the
    `g1-dim` check counts them."""
    table = projection_context(l)
    return sum(1 for wt in table.weights[table.g0_count:] if not any(wt))


def test_g1_zero_weight_dimension():
    assert odd_zero_weight_dim(1) == 1
    assert odd_zero_weight_dim(2) == 2
    assert odd_zero_weight_dim(3) == 3


@pytest.mark.parametrize("l", range(1, 7))
def test_weight_reader_matches_the_bracket_code_it_replaced(l):
    """The Cartan matrix and the odd zero-weight dimension, read off matrix
    entries (the latter through the split table's weights), against the
    bracket computations they replaced."""
    gens = b_type_generators(l)
    by_brackets = [[eigen_ratio(bracket(h, e), e) for e in gens.e] for h in gens.h]
    assert computed_b_cartan(l) == by_brackets
    odd = split_basis(l)[0][l * (2 * l + 1):]
    rows = [
        {(c, k): v for c, h in enumerate(gens.h) for k, v in bracket(h, x).items()}
        for x in odd
    ]
    assert odd_zero_weight_dim(l) == len(odd) - rank_of(rows)


def test_entry_weights_and_common_weight():
    cartan = (H(1), H(2))
    assert entry_weights((E(1, 2), E(3, 1), H(2)), cartan) == ((2, -1), (-1, -1), (0, 0))
    weights = ((2, -1), (-1, 2), (0, 0))
    # words of basis indices weigh the sum of their indices' weights
    assert common_weight(weights, [(0, 1), (2, 0, 1)]) == (1, 1)
    assert common_weight(weights, []) == (0, 0)
    with pytest.raises(ValueError, match="mix weights"):
        common_weight(weights, [(0,), (1,)])


def test_g1_basis_is_odd():
    for l in (1, 2, 3):
        for x in g1_basis(l):
            assert in_odd_part(x, 2 * l + 1)


# ---------------------------------------------------------------- misc

def test_zero_and_validation():
    # the zero matrix is the empty dict: a sum that cancels stores no entry
    assert lin((1, E(1, 2)), (-1, E(1, 2))) == {}
    assert eigen_ratio({}, E(1, 2)) == 0
    with pytest.raises(ValueError):
        eigen_ratio(E(1, 2), E(2, 1))  # not a multiple


def test_quadscalar_ring():
    s = QuadScalar(0, 1)
    assert s * s == 2
    assert (QuadScalar(1, 1) * QuadScalar(1, -1)) == -1
    assert QuadScalar(Fraction(1, 2)) + Fraction(1, 2) == 1
    assert bool(QuadScalar(0, 0)) is False
