"""Tests for the sparse exact kernel that every algebra adds and scales
through (no stored zero ever survives an addition or a scaling), for the
integer span solver against a Fraction row-echelon oracle, and for the one
printer of exact signed sums."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from a2l2 import format_sum
from a2l2.liealg import E, H
from a2l2.linalg import (
    SpanSolver,
    rank_of,
    vec_add_into,
    vec_add_term,
    vec_scale,
)
from a2l2.vacuum import standard_mode_basis, state_from_ops

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
    # a matrix, 2/3 E[1,2] + H[3] - E[4,1], is a kernel dict itself
    x = {(1, 2): F(2, 3)}
    vec_add_into(x, H(3))
    vec_add_into(x, E(4, 1), -1)
    y = dict(x)
    vec_add_into(y, x, -1)
    assert y == {}

    # a vacuum-module state is a kernel dict over its basis
    basis = standard_mode_basis(2)
    s = state_from_ops(basis, [(E(1, 5), -1), (H(2), -1)])
    vec_add_into(s, state_from_ops(basis, [(E(1, 5), -2)]), F(-3, 2))
    assert s and all(s.values())
    diff = dict(s)
    vec_add_into(diff, s, -1)
    assert diff == {}
    assert vec_scale(s, 0) == {}

    # a Cartan polynomial, x1 x2 + 1/2, is a kernel dict itself
    p = {(1, 1): 1, (0, 0): F(1, 2)}
    q = dict(p)
    vec_add_into(q, p, -1)
    assert q == {}
    assert vec_scale(p, 0) == {}


def test_span_solver_stays_exact_on_int_input():
    # eps supports reach the solver as int coefficients
    assert rank_of([{0: 2}, {0: 1, 1: -1}, {0: 1, 1: 1}, {1: -2}]) == 2
    s = SpanSolver()
    assert s.add({0: 2, 1: 1}) and s.add({1: 3})
    coords = s.coords({0: 1})
    assert coords == {0: F(1, 2), 1: F(-1, 6)}
    assert all(type(c) is Fraction for c in coords.values())


class FractionSpan:
    """Oracle: row echelon form over Fractions with pivot 1, each row with
    its combination of the independent generators, reduced in insertion
    order."""

    def __init__(self) -> None:
        self.rows: list[tuple[object, dict, dict]] = []  # (pivot, row, combo)

    def reduce(self, v):
        r = {k: F(c) for k, c in v.items() if c}
        combo: dict = {}
        for piv, row, row_combo in self.rows:
            c = r.get(piv)
            if c:
                for key, x in row.items():
                    r[key] = r.get(key, 0) - c * x
                for t, x in row_combo.items():
                    combo[t] = combo.get(t, 0) + c * x
                r = {key: x for key, x in r.items() if x}
        return r, {t: x for t, x in combo.items() if x}

    def add(self, v) -> bool:
        r, combo = self.reduce(v)
        if not r:
            return False
        piv = min(r)
        s = r[piv]
        row_combo = {t: -x / s for t, x in combo.items()}
        row_combo[len(self.rows)] = 1 / s
        self.rows.append((piv, {key: x / s for key, x in r.items()}, row_combo))
        return True

    def coords(self, v):
        r, combo = self.reduce(v)
        return None if r else combo


def random_fraction(rng: random.Random) -> Fraction:
    return F(rng.choice([n for n in range(-9, 10) if n]), rng.randint(1, 12))


def random_vectors(rng: random.Random, keys: int, count: int) -> list[dict]:
    """Sparse vectors with denominators 1..12, mixed with repeats, rational
    combinations of earlier vectors and zero vectors."""
    out: list[dict] = []
    for _ in range(count):
        kind = rng.random()
        if out and kind < 0.15:
            out.append(dict(rng.choice(out)))
        elif len(out) >= 2 and kind < 0.35:
            v: dict = {}
            for u in rng.sample(out, 2):
                vec_add_into(v, u, random_fraction(rng))
            out.append(v)
        elif kind < 0.4:
            out.append({})
        else:
            support = rng.sample(range(keys), rng.randint(1, keys))
            out.append({k: random_fraction(rng) for k in support})
    return out


def assert_integral_echelon_rows(s: SpanSolver) -> None:
    """Rows and combinations in ints, each pair primitive, every pivot
    positive and its row's least key, and no row holding the pivot of a row
    stored before it."""
    for piv, i in s._row_of.items():
        row, combo = s._rows[i], s._combos[i]
        assert all(type(x) is int for x in (*row.values(), *combo.values()))
        assert row[piv] > 0 and piv == min(row)
        assert gcd(*row.values(), *combo.values()) == 1
        assert all(piv not in later for later in s._rows[i + 1 :])


# Tuple keys of mixed length, some prefixes of others, as PBW words are:
# they compare lexicographically, in an order unlike that of their index.
TUPLE_KEYS = [(2,), (0, 1), (1,), (), (0,), (1, 1, 0), (0, 0, 2), (1, 0)]


def tuple_keys(v: dict) -> dict:
    return {TUPLE_KEYS[k]: c for k, c in v.items()}


@pytest.mark.parametrize("rekey", [dict, tuple_keys], ids=["int", "tuple"])
def test_span_solver_matches_fraction_oracle_on_random_vectors(rekey):
    rng = random.Random(2024)
    for _ in range(150):
        keys = rng.randint(1, 7)
        solver, oracle = SpanSolver(), FractionSpan()
        added = []
        for v in map(rekey, random_vectors(rng, keys, rng.randint(1, 12))):
            assert solver.add(v) == oracle.add(v), v
            assert solver.rank == len(oracle.rows)
            added.append(v)
        assert_integral_echelon_rows(solver)
        probes = list(map(rekey, random_vectors(rng, keys + 1, 6)))
        for _ in range(4):
            probe: dict = {}
            for u in rng.sample(added, min(3, len(added))):
                vec_add_into(probe, u, random_fraction(rng))
            probes.append(probe)
        for probe in probes:
            assert solver.coords(probe) == oracle.coords(probe), probe


def test_span_solver_coords_follow_the_generators_added():
    rng = random.Random(7)
    for _ in range(100):
        keys = rng.randint(1, 6)
        solver = SpanSolver()
        gens = []
        for v in random_vectors(rng, keys, 8):
            if solver.add(v):
                gens.append(v)
        coeffs = [random_fraction(rng) for _ in gens]
        v: dict = {}
        for g, c in zip(gens, coeffs):
            vec_add_into(v, g, c)
        expected = {t: c for t, c in enumerate(coeffs)}
        assert solver.coords(v) == expected


def test_span_add_constructs_no_fraction(monkeypatch):
    vectors = random_vectors(random.Random(5), 6, 40)
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    s = SpanSolver()
    for v in vectors:
        s.add(v)
    assert s.rank >= 5 and made == []
    # the one division, in `coords`, is seen
    assert s.coords({k: 1 for k in range(6)}) is not None and made


def test_rank_of_empty_input():
    assert rank_of([]) == 0
    assert rank_of([{}]) == 0
    assert rank_of([{}, {}]) == 0


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
    # int coefficients over a common denominator print in lowest terms
    assert format_sum([(3, "x"), (-2, "y"), (-4, "z"), (1, "")], 2) == (
        "3/2*x - y - 2*z + 1/2"
    )
    assert format_sum([(-6, "x"), (2, "")], 4) == "-3/2*x + 1/2"


class CountedKey(int):
    """An int key whose hashes are counted: every dict or set lookup of it
    hashes it once."""

    hashes = 0

    def __hash__(self) -> int:
        CountedKey.hashes += 1
        return int.__hash__(self)


def _key_hashes_of_a_basis(n: int) -> int:
    """Key hashes made while adding n independent vectors, each with a new
    pivot below every older one and one key that the first row holds."""
    keys = [CountedKey(k) for k in range(n)]
    s = SpanSolver()
    CountedKey.hashes = 0
    assert s.add({keys[-1]: 1})
    for k in reversed(keys[:-1]):
        assert s.add({k: 1, keys[-1]: 1})
    assert s.rank == n
    return CountedKey.hashes


def test_span_add_makes_a_bounded_number_of_key_hashes_per_add():
    # Each add reduces its vector against only the rows whose pivots it
    # holds, looking each key up a bounded number of times.  Scanning every
    # row instead would hash a key once per row, quadratic in the size of
    # the basis.
    small, large = _key_hashes_of_a_basis(200), _key_hashes_of_a_basis(400)
    assert large < 2.5 * small
    assert large < 20 * 400
    s = SpanSolver()
    for k in range(49):
        assert s.add({k: 2, 99: 1})
    assert s.add({99: 1})
    assert s.coords({5: 2, 99: 1}) == {5: 1}
    assert s.coords({5: 2}) == {5: 1, 49: -1}


def test_span_add_never_rewrites_a_stored_row():
    s = SpanSolver()
    for k in range(49):
        assert s.add({k: 2, 99: 1})
    snapshot = [dict(row) for row in s._rows], [dict(c) for c in s._combos]
    assert s.add({99: 1})
    assert (s._rows[:49], s._combos[:49]) == snapshot
    assert s.coords({5: 2, 99: 1}) == {5: 1}
