"""Tests for ordered-monomial rewriting, the adjoint action, and the
Cartan-polynomial map, checked against the independent spinor-module oracle
in helpers_spin.

The library orders only words of at most two letters, the degree the
pipeline never leaves.  The general PBW properties (associativity, the
spinor homomorphism, the derivation rule) need longer words, so their
suites run the library's `mul` and `ad` over `GeneralWordAlgebra`, whose
`normal_form` is the rightmost-first reference rewrite below."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from a2l2.envelope import PBWAlgebra, factored_h_string, linear_cofactor
from a2l2.liealg import E, b_type_generators, bracket, split_basis
from a2l2.linalg import vec_add_into, vec_add_term, vec_scale
from a2l2.twzhu import projection_context
from a2l2.vacuum import standard_mode_basis

from helpers_polys import mono, poly_eval
from helpers_spin import (
    spin_highest_weight_checks,
    spin_hw_coefficient,
    spin_matrix_of,
    verify_spin_homomorphism,
    _mat_eq,
)


def normal_form_rightmost(alg, word, coeff):
    """Reference rewrite that resolves the rightmost adjacent inversion
    first; the library resolves the leftmost one."""
    out = {}
    pending = [(tuple(word), Fraction(coeff))]
    while pending:
        w, c = pending.pop()
        if not c:
            continue
        pos = next((i for i in range(len(w) - 2, -1, -1) if w[i] > w[i + 1]), None)
        if pos is None:
            vec_add_term(out, w, c)
            continue
        s, t = w[pos], w[pos + 1]
        pending.append((w[:pos] + (t, s) + w[pos + 2 :], c))
        for r, b in alg.bracket_coords(s, t).items():
            pending.append((w[:pos] + (r,) + w[pos + 2 :], c * b))
    return out


class GeneralWordAlgebra(PBWAlgebra):
    """The rank's split table as a PBW algebra on words of any length: its
    `normal_form` sums `normal_form_rightmost` over the words, and its
    `mul`, `ad` and `cartan_polynomial` are the library's."""

    def normal_form(self, words):
        out = {}
        for w, c in words.items():
            vec_add_into(out, normal_form_rightmost(self, w, c))
        return out


def general_algebra(l):
    """Built from `split_basis(l)` as `projection_context` builds the
    library's algebra, and not cached, so that it dies with its test."""
    elems, labels, scales = split_basis(l)
    return GeneralWordAlgebra(l, elems, labels, g0_count=l * (2 * l + 1), scales=scales)


def _random_uea(rng, alg, max_monomials=2, max_degree=2):
    u = {}
    for _ in range(rng.randint(1, max_monomials)):
        deg = rng.randint(0, max_degree)
        word = tuple(sorted(rng.randrange(alg.g0_count) for _ in range(deg)))
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        vec_add_into(u, {word: c})
    return u


def _random_lie(rng, l, alg, max_terms=2):
    out = {}
    for _ in range(rng.randint(1, max_terms)):
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        vec_add_into(out, split_basis(l)[0][rng.randrange(alg.g0_count)], c)
    return out


# ------------------------------------------------------------ normal form

def test_normal_form_pinned_values_rank1():
    alg = projection_context(1)
    # basis order: lowering Ep[2,1] (0), Cartan hb[1] (1), raising Ep[1,2] (2);
    # the short-root vectors are held four times over, so the Cartan
    # correction 1/8 of Ep[1,2]*Ep[2,1] becomes 16/8
    assert alg.labels[:alg.g0_count] == ("Ep[2,1]", "hb[1]", "Ep[1,2]")
    assert alg.scales[:alg.g0_count] == (4, 1, 4)
    nf = alg.normal_form({(2, 0): 1})
    assert nf == {(0, 2): 1, (1,): 2}


def test_normal_form_pinned_values_rank2():
    alg = projection_context(2)
    gens = b_type_generators(2)
    e1 = alg.lie2uea(gens.e[0])
    f1 = alg.lie2uea(gens.f[0])
    # e_1 = E + nu(E) for E = E[1,2] is exactly the long basis vector
    # 2*Ep[1,2]
    assert e1 == {(6,): 1}
    assert f1 == {(0,): 1}
    # reordering a raising-then-lowering pair leaves the Cartan correction
    prod = alg.mul(e1, f1)
    h1_coords = alg.lie2uea(gens.h[0])
    expected = {(0, 6): 1}
    vec_add_into(expected, h1_coords)
    assert prod == expected


def test_normal_form_sorted_word_is_fixed():
    alg = general_algebra(2)
    word = (0, 0, 4, 7)
    assert alg.normal_form({word: Fraction(3, 2)}) == {word: Fraction(3, 2)}


def test_normal_form_confluence_100_words():
    # the library's one swap against the rightmost-first reference, on the
    # words of at most two letters that the library orders
    rng = random.Random(101)
    for _ in range(100):
        l = rng.choice([1, 2])
        alg = projection_context(l)
        length = rng.randint(0, 2)
        word = tuple(rng.randrange(alg.g0_count) for _ in range(length))
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        first = alg.normal_form({word: c})
        last = normal_form_rightmost(alg, word, c)
        assert first == last
        for mono in first:
            assert list(mono) == sorted(mono)


def test_normal_form_of_a_sum_is_the_sum_of_normal_forms():
    rng = random.Random(102)
    for _ in range(50):
        alg = projection_context(rng.choice([1, 2]))
        words = {}
        expected = {}
        for _ in range(rng.randint(1, 4)):
            word = tuple(rng.randrange(alg.g0_count) for _ in range(rng.randint(0, 2)))
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            vec_add_into(words, {word: c})
            vec_add_into(expected, normal_form_rightmost(alg, word, c))
        assert alg.normal_form(words) == expected


@pytest.mark.parametrize("l", (1, 2, 3))
def test_normal_form_matches_the_reference_on_every_word_of_two_letters(l):
    alg = projection_context(l)
    n = alg.g0_count
    # the unit, n letters and n^2 pairs: 441 pairs over the 21 letters at l = 3
    words = [()] + [(s,) for s in range(n)] + [(s, t) for s in range(n) for t in range(n)]
    for word in words:
        assert alg.normal_form({word: 1}) == normal_form_rightmost(alg, word, 1)


def test_normal_form_and_mul_refuse_words_longer_than_two():
    # every element the pipeline builds has degree at most 2, so a longer
    # word means that some stage left it: even an ordered one raises
    alg = projection_context(2)
    with pytest.raises(ValueError, match="longer than two letters"):
        alg.normal_form({(0, 4, 7): 1})
    with pytest.raises(ValueError, match="longer than two letters"):
        alg.mul({(0, 4): 1}, {(7,): 1})


def test_mul_associative_and_unit():
    rng = random.Random(55)
    algs = {l: general_algebra(l) for l in (1, 2)}
    for _ in range(30):
        alg = algs[rng.choice([1, 2])]
        u, v, w = (_random_uea(rng, alg) for _ in range(3))
        assert alg.mul(alg.mul(u, v), w) == alg.mul(u, alg.mul(v, w))
        assert alg.mul(u, {(): 1}) == u


def test_mul_matches_spinor_matrices():
    rng = random.Random(77)
    verify_spin_homomorphism(2)
    alg = general_algebra(2)
    for _ in range(20):
        u, v = (_random_uea(rng, alg) for _ in range(2))
        lhs = spin_matrix_of(2, alg.mul(u, v))
        rhs_u = spin_matrix_of(2, u)
        rhs_v = spin_matrix_of(2, v)
        from helpers_spin import _mat_mul

        assert _mat_eq(lhs, _mat_mul(rhs_u, rhs_v))


# ---------------------------------------------------------- adjoint action

def test_ad_is_derivation_and_bracket_compatible():
    rng = random.Random(303)
    algs = {l: general_algebra(l) for l in (1, 2)}
    for _ in range(50):
        l = rng.choice([1, 2])
        alg = algs[l]
        x = _random_lie(rng, l, alg)
        y = _random_lie(rng, l, alg)
        u = _random_uea(rng, alg)
        v = _random_uea(rng, alg)
        cx, cy = alg.lie_coords(x), alg.lie_coords(y)
        prod = alg.mul(u, v)
        lhs = alg.ad(cx, prod)
        rhs = {}
        vec_add_into(rhs, alg.mul(alg.ad(cx, u), v))
        vec_add_into(rhs, alg.mul(u, alg.ad(cx, v)))
        assert lhs == rhs
        comm = {}
        vec_add_into(comm, alg.ad(cx, alg.ad(cy, u)))
        vec_add_into(comm, alg.ad(cy, alg.ad(cx, u)), Fraction(-1))
        assert comm == alg.ad(alg.lie_coords(bracket(x, y)), u)


def test_ad_matches_commutator_multiplication():
    rng = random.Random(404)
    algs = {l: general_algebra(l) for l in (1, 2)}
    for _ in range(20):
        l = rng.choice([1, 2])
        alg = algs[l]
        x = _random_lie(rng, l, alg)
        u = _random_uea(rng, alg)
        xu = alg.lie2uea(x)
        direct = {}
        vec_add_into(direct, alg.mul(xu, u))
        vec_add_into(direct, alg.mul(u, xu), Fraction(-1))
        assert alg.ad(alg.lie_coords(x), u) == direct


def test_lie_coords_rejects_odd_elements():
    alg = projection_context(2)
    with pytest.raises(ValueError):
        alg.lie_coords(E(1, 5))


# ------------------------------------------------------ Cartan polynomial

def test_cartan_polynomial_pinned_examples():
    alg = projection_context(2)
    gens = b_type_generators(2)
    h1 = alg.lie2uea(gens.h[0])
    hb = alg.lie2uea(gens.h[-1])
    assert alg.cartan_polynomial(h1) == {(1, 0): Fraction(1)}
    assert alg.cartan_polynomial(alg.mul(hb, hb)) == {(0, 2): Fraction(1)}
    e1 = alg.lie2uea(gens.e[0])
    f1 = alg.lie2uea(gens.f[0])
    assert alg.cartan_polynomial(alg.mul(e1, f1)) == {(1, 0): Fraction(1)}
    assert alg.cartan_polynomial(alg.mul(f1, e1)) == {}
    el = alg.lie2uea(gens.e[-1])
    fl = alg.lie2uea(gens.f[-1])
    assert alg.cartan_polynomial(alg.mul(el, fl)) == {(0, 1): Fraction(1, 2)}
    with pytest.raises(ValueError):
        alg.cartan_polynomial(e1)


def test_cartan_polynomial_against_spin_oracle():
    for l in (1, 2, 3):
        assert verify_spin_homomorphism(l)
        assert spin_highest_weight_checks(l)
        alg = general_algebra(l)
        gens = b_type_generators(l)
        el = alg.lie2uea(gens.e[-1])
        fl = alg.lie2uea(gens.f[-1])
        hb = alg.lie2uea(gens.h[-1])
        candidates = [
            alg.mul(el, fl),
            alg.mul(fl, el),
            alg.mul(hb, hb),
            alg.mul(el, alg.mul(fl, hb)),
        ]
        if l >= 2:
            e1 = alg.lie2uea(gens.e[0])
            f1 = alg.lie2uea(gens.f[0])
            candidates.append(alg.mul(e1, f1))
            mixed = vec_scale(alg.mul(el, fl), Fraction(-2, 3))
            vec_add_into(mixed, {(): 1}, Fraction(5))
            candidates.append(mixed)
        top = tuple([Fraction(0)] * (l - 1) + [Fraction(1)])
        for u in candidates:
            p = alg.cartan_polynomial(u)
            assert poly_eval(p, (Fraction(0),) * l) == u.get((), Fraction(0))
            assert poly_eval(p, top) == spin_hw_coefficient(l, u)


def test_weight_of_mixed_and_pure():
    alg = projection_context(2)
    gens = b_type_generators(2)
    e1 = alg.lie2uea(gens.e[0])
    assert alg.weight_of(e1) == (Fraction(2), Fraction(-2))
    mix = dict(e1)
    vec_add_into(mix, {(): 1})
    with pytest.raises(ValueError, match="mix weights"):
        alg.weight_of(mix)
    with pytest.raises(ValueError, match="mix weights"):
        alg.cartan_polynomial(mix)
    assert alg.weight_of({}) == (Fraction(0), Fraction(0))
    # the standard mode basis reads its words through the same method
    standard = standard_mode_basis(2)
    e12, e21 = standard.elems.index(E(1, 2)), standard.elems.index(E(2, 1))
    assert standard.weight_of([(e12,)]) == (2, -1, 0, 0)
    assert standard.weight_of([(e12, e21), ()]) == (0, 0, 0, 0)
    with pytest.raises(ValueError, match="mix weights"):
        standard.weight_of([(e12,), ()])
    assert standard.weight_of([]) == (0, 0, 0, 0)


# ------------------------------------------------------------- rendering

def test_factored_h_strings():
    quarter = Fraction(1, 4)
    p1 = {(2,): quarter, (1,): -quarter}
    assert factored_h_string(p1) == "h1*(h1 - 1/2)"
    p2 = {(2, 0): Fraction(1), (1, 1): Fraction(1), (1, 0): Fraction(1, 2)}
    assert factored_h_string(p2) == "h1*(h1 + 2*h2 + 1/2)"
    p3 = {
        (2, 0, 0): Fraction(1),
        (1, 1, 0): Fraction(2),
        (1, 0, 1): Fraction(1),
        (1, 0, 0): Fraction(3, 2),
    }
    assert factored_h_string(p3) == "h1*(h1 + 2*h2 + 2*h3 + 3/2)"
    assert factored_h_string({}) == "0"
    generic = {(2, 0): Fraction(1), (0, 1): Fraction(1)}
    assert factored_h_string(generic) == "h1^2 + 2*h2"
    # x1 divides every monomial but leaves x1 x2 + 1, which is not linear,
    # and x2 does not divide x1: printed expanded
    nonlinear = {(2, 1): Fraction(1), (1, 0): Fraction(1)}
    assert factored_h_string(nonlinear) == "2*h1^2*h2 + h1"
    # the first variable that splits off is the one printed outside
    assert factored_h_string({(1, 1): Fraction(1, 2)}) == "h1*(h2)"


def test_poly_arithmetic_and_eval():
    # p = x1 (x1 + x2 + 1/2)
    p = {mono(2, 1, 1): 1, mono(2, 1, 2): 1, mono(2, 1): Fraction(1, 2)}
    assert poly_eval(p, (Fraction(2), Fraction(-1))) == 2 * (2 - 1 + Fraction(1, 2))
    assert linear_cofactor(p, 1) == (Fraction(1, 2), {1: 1, 2: 1})
    assert linear_cofactor(p, 2) is None
    # x1 x2 splits off either variable; x1 (x1 + x2) x2 off neither
    assert linear_cofactor({mono(2, 1, 2): 3}, 1) == (0, {2: 3})
    assert linear_cofactor({mono(2, 1, 2): 3}, 2) == (0, {1: 3})
    cubic = {mono(2, 1, 1, 2): 1, mono(2, 1, 2, 2): 1}
    assert linear_cofactor(cubic, 1) is None
    assert linear_cofactor(cubic, 2) is None
    # a bare x_j has the constant cofactor 1; the zero polynomial has 0
    assert linear_cofactor({mono(2, 2): 1}, 2) == (1, {})
    assert linear_cofactor({}, 1) == (0, {})
