"""Tests for the sparse exact kernel that every algebra adds and scales
through (no stored zero ever survives an addition or a scaling), for the
span solver on int input, and for the one printer of exact signed sums."""

from __future__ import annotations

import random
from fractions import Fraction

from a2l2.envelope import CartanPoly
from a2l2.liealg import E, H
from a2l2.linalg import (
    SpanSolver,
    format_sum,
    rank_of,
    vec_add_into,
    vec_add_term,
    vec_scale,
)
from a2l2.vacuum import VermaState, standard_mode_basis, state_from_ops

F = Fraction


def test_add_term_drops_cancelled_entry():
    v = {"a": F(1, 2), "b": F(3)}
    vec_add_term(v, "a", F(-1, 2))
    assert v == {"b": F(3)}
    vec_add_term(v, "c", F(2, 3))
    assert v == {"b": F(3), "c": F(2, 3)}
    vec_add_term(v, "d", F(0))
    assert "d" not in v
    assert all(v.values())


def test_add_into_with_zero_factor_leaves_dst():
    dst = {1: F(1), 2: F(-5, 7)}
    vec_add_into(dst, {1: F(4), 3: F(1)}, F(0))
    assert dst == {1: F(1), 2: F(-5, 7)}
    vec_add_into(dst, {1: F(1), 2: F(5, 7)}, F(-1))
    assert dst == {2: F(-10, 7)}


def test_scale_by_zero_is_empty():
    assert vec_scale({(1, 2): F(3), (): F(-1)}, F(0)) == {}
    assert vec_scale({"x": F(3)}, F(1, 3)) == {"x": F(1)}


def test_self_difference_is_empty_in_every_algebra():
    n = 5
    x = F(2, 3) * E(n, 1, 2) + H(n, 3) - E(n, 4, 1)
    assert (x - x).terms == {}
    assert (x - x).is_zero()

    basis = standard_mode_basis(2)
    k = F(-5, 2)
    s = state_from_ops(basis, k, [(E(n, 1, 5), -1), (H(n, 2), -1)])
    s = s + state_from_ops(basis, k, [(E(n, 1, 5), -2)]).scale(F(-3, 2))
    # VermaState rejects a stored zero coefficient, so this also checks
    # that subtraction drops every cancelled monomial
    diff = s - s
    assert isinstance(diff, VermaState) and diff.terms == {}
    assert s.scale(0).terms == {}

    p = CartanPoly.variable(2, 1).mul(CartanPoly.variable(2, 2)).add(
        CartanPoly.const(2, F(1, 2))
    )
    assert p.add(p.scale(-1)).terms == {}
    assert p.scale(0).is_zero()


def test_span_solver_stays_exact_on_int_input():
    # eps supports reach the solver as int coefficients
    assert rank_of([{0: 2}, {0: 1, 1: -1}, {0: 1, 1: 1}, {1: -2}]) == 2
    s = SpanSolver()
    assert s.add({0: 2, 1: 1}) and s.add({1: 3})
    coords = s.coords({0: 1})
    assert coords == {0: F(1, 2), 1: F(-1, 6)}
    assert all(type(c) is Fraction for c in coords.values())


def test_rank_of_empty_input():
    assert rank_of([]) == 0
    assert rank_of([{}]) == 0
    assert rank_of([{}, {}]) == 0


def test_rank_of_stops_once_the_span_fills_its_keys(monkeypatch):
    added = []
    add = SpanSolver.add

    def counted(self, v):
        added.append(v)
        return add(self, v)

    monkeypatch.setattr(SpanSolver, "add", counted)
    vectors = [{0: 1, 1: 1}, {1: 2}, {0: 3}, {0: 1, 1: -1}, {1: F(1, 2)}]
    assert rank_of(vectors) == 2
    assert added == vectors[:2]
    # a dependent vector before the span fills is still reduced
    added.clear()
    vectors = [{0: 1, 2: 1}, {0: 2, 2: 2}, {1: 1}, {2: 1}, {0: 1, 1: 1}]
    assert rank_of(vectors) == 3
    assert added == vectors[:4]


def test_rank_of_matches_full_span_solver_on_random_lists():
    rng = random.Random(11)
    for _ in range(200):
        keys = rng.randint(1, 6)
        vectors = [
            {
                k: F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
                for k in rng.sample(range(keys), rng.randint(0, keys))
            }
            for _ in range(rng.randint(0, 9))
        ]
        full = SpanSolver()
        for v in vectors:
            full.add(v)
        assert rank_of(vectors) == full.rank


def test_format_sum_rule():
    assert format_sum([]) == "0"
    assert format_sum([(F(3), "")]) == "3"
    assert format_sum([(F(-1), "")]) == "-1"
    assert format_sum([(F(1), "x"), (F(-1), "y")]) == "x - y"
    assert format_sum([(F(-1), "x"), (F(1), "y")]) == "-x + y"
    assert format_sum([(F(-2), "x"), (F(2), "y"), (F(-1, 2), "")]) == (
        "-2*x + 2*y - 1/2"
    )
    assert format_sum([(F(3, 2), "x")]) == "3/2*x"
    assert format_sum(iter([(F(1), "a*b"), (F(-3, 2), "c")])) == "a*b - 3/2*c"
