"""Every pipeline stage holds exact coefficients: an int when the value is
integral and a Fraction otherwise, never a float."""

from __future__ import annotations

from fractions import Fraction

import pytest
from helpers_span import IdentitySpan
from helpers_sweep import nu_state
from test_liealg import eplus

from a2l2.envelope import zero_set
from a2l2.liealg import b_type_generators, nu, nu_pair
from a2l2.twzhu import (
    compute_v1,
    lowered_polynomials,
    projection_context,
    r0_basis,
    v1_closed_form,
    zhu_image_closed_form,
    zhu_singular_image,
)
from a2l2.vacuum import singular_vector, standard_mode_basis


def assert_exact(values, stage: str) -> None:
    for c in values:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (
            stage,
            c,
        )


@pytest.mark.parametrize("l", (1, 2, 3, 4))
def test_pipeline_coefficients_are_ints_or_fractions(l):
    standard = standard_mode_basis(l)
    v = singular_vector(standard)
    assert_exact(v.values(), "singular vector")
    assert_exact(nu_state(standard, v).values(), "nu image")
    split = projection_context(l)
    dim = len(split.elems)
    # the rescaled split basis has integral structure constants and Gram
    # values, so the one table the mode and PBW algebras share is all ints
    for s in range(dim):
        for t in range(dim):
            for c in split.bracket_coords(s, t).values():
                assert type(c) is int, ("split bracket", s, t, c)
            assert type(split.gram(s, t)) is int, ("split Gram", s, t)
    for weight in projection_context(l).weights:
        assert all(type(c) is int for c in weight), weight
    assert_exact(zhu_singular_image(l).values(), "Zhu image")
    assert_exact(zhu_image_closed_form(l).values(), "Zhu image closed form")
    assert_exact(compute_v1(l).values(), "v1")
    assert_exact(v1_closed_form(l).values(), "v1 closed form")
    polys = lowered_polynomials(l)
    for p in polys:
        assert_exact(p.values(), "lowered polynomial")
    orbit, _ = r0_basis(l)
    for u in orbit:
        assert_exact(u.values(), "r0 basis")
    # the classified weights are half-integral: the zero-set walk returns
    # their doubled coordinates as ints, and raises on any other zero
    for x in zero_set(polys):
        assert all(type(c) is int for c in x), x


@pytest.mark.parametrize("l", (1, 2, 3, 4))
def test_matrices_are_ints_or_fractions(l):
    # a matrix is a plain dict, so no constructor normalizes its entries:
    # every basis, generator and nu pair must be built exact, and so must
    # the even-projection oracle the tests compare against
    n = 2 * l + 1
    gens = b_type_generators(l)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    matrices = {
        "standard basis": standard_mode_basis(l).elems,
        "split basis": projection_context(l).elems,
        "e": gens.e,
        "f": gens.f,
        "h": gens.h,
        "nu_pair +1": [nu_pair(l, i, j, 1) for i, j in pairs],
        "nu_pair -1": [nu_pair(l, i, j, -1) for i, j in pairs],
        "eplus oracle": [eplus(l, i, j) for i, j in pairs],
    }
    for stage, elems in matrices.items():
        for m in elems:
            assert_exact(m.values(), stage)
            assert 0 not in m.values(), (stage, m)


@pytest.mark.parametrize("l", (5, 6, 7, 8))
def test_split_table_is_integral_above_the_pipeline_ranks(l):
    # a fresh, uncached table, so the full one is dropped after the test
    split = projection_context.__wrapped__(l)
    dim = len(split.elems)
    for s in range(dim):
        for t in range(dim):
            split.bracket_coords(s, t)  # raises on a constant that is not an int
            split.gram(s, t)



@pytest.mark.parametrize("l", (1, 2, 3))
def test_split_coordinates_are_ints_wherever_integral(l):
    # the split basis holds multiples of the labelled vectors, so the
    # standard basis has coordinates with denominators 2 and 4 over it,
    # next to integral ones
    split = projection_context(l)
    seen = set()
    for x in standard_mode_basis(l).elems + split.elems:
        for y in (x, nu(x, 2 * l + 1)):
            coords = split.expand(y).values()
            assert_exact(coords, "split coordinates")
            seen.update(type(c) for c in coords)
    assert seen == {int, Fraction}


def test_span_coords_are_ints_wherever_integral():
    s = IdentitySpan()
    gens = [{0: Fraction(2, 3), 1: 4}, {1: Fraction(-1, 6), 2: 1}, {0: 3, 2: Fraction(5, 4)}]
    assert all(s.add(g) for g in gens)
    # 2 g0 - g1 - g2
    v = {0: Fraction(4, 3) - 3, 1: 8 + Fraction(1, 6), 2: -1 - Fraction(5, 4)}
    coords = s.coords(v)
    assert coords == {0: 2, 1: -1, 2: -1}
    assert all(type(c) is int for c in coords.values())
    half = s.coords({0: Fraction(1, 3), 1: 2})
    assert half == {0: Fraction(1, 2)} and type(half[0]) is Fraction
