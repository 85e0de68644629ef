"""Tests for mode operators, normal ordering with central terms, the
degree-2 singular vector, and its zero-mode orbit."""

from __future__ import annotations

import gc
import random
import weakref
from fractions import Fraction

import pytest
from test_mutants import PER_RANK_CACHES

from a2l2 import checks
from a2l2.checks import run_checks
from a2l2.liealg import (
    E,
    H,
    b_type_generators,
    bracket,
    entry_weights,
    invariant_form,
    level_for,
    nu,
    split_basis,
)
from a2l2.linalg import Coeff, SpanSolver, vec_add_into, vec_add_term
from a2l2.twzhu import project, projection_context, split_singular_vector
from a2l2.vacuum import (
    DEPTH_CAP,
    ModeBasis,
    State,
    check_singular,
    convert_state,
    mode_action,
    positive_mode_sweep,
    singular_vector,
    standard_mode_basis,
    state_from_ops,
    state_string,
    sweep_operators,
)
from a2l2 import vacuum as vacuum_module
from helpers_spin import eigen_ratio, split_pm
from helpers_sweep import full_positive_mode_sweep, nu_state, perturbed_singular_vectors, plus


def zero_mode_orbit(v: State, l: int) -> list[State]:
    """Basis of the closure of v, a state over the standard basis, under
    even-part zero modes."""
    basis = standard_mode_basis(l)
    solver = SpanSolver()
    out: list[State] = []
    queue: list[State] = []
    if solver.add(v):
        out.append(v)
        queue.append(v)
    elems = split_basis(l)[0][: l * (2 * l + 1)]
    while queue:
        w = queue.pop()
        for x in elems:
            u = mode_action(basis, basis.expand(x), 0, w)
            if u and solver.add(u):
                out.append(u)
                queue.append(u)
    return out


def orbit_contains(states: list[State], s: State) -> bool:
    solver = SpanSolver()
    for w in states:
        solver.add(w)
    return solver.coords(s) is not None


def _rand_state(rng, basis, max_ops=2):
    ops = []
    for _ in range(rng.randint(0, max_ops)):
        x = basis.elems[rng.randrange(len(basis.elems))]
        ops.append((x, -rng.randint(1, 2)))
    return state_from_ops(basis, ops)


def _normal_order(
    basis: ModeBasis, word: tuple[tuple[int, int], ...], coeff: Coeff = 1
) -> State:
    """Normal-order a word of (index, mode) operators applied to the vacuum,
    by a loop over whole words: the oracle for `mode_action`, which moves
    one operator at a time into a normal-ordered monomial.

    A non-negative mode annihilates the vacuum, so a word whose rightmost
    factor is one is zero and is never pushed."""
    out: State = {}
    if not coeff or (word and word[-1][1] >= 0):
        return out
    pending = [(tuple(word), coeff)]
    while pending:
        w, c = pending.pop()
        if not w:
            vec_add_term(out, (), c)
            continue
        # the rightmost annihilator, else the leftmost creation pair out of
        # (mode asc, index asc) order
        pos = next((i for i in range(len(w) - 2, -1, -1) if w[i][1] >= 0), None)
        if pos is None:
            pos = next(
                (
                    i
                    for i in range(len(w) - 1)
                    if (w[i][1], w[i][0]) > (w[i + 1][1], w[i + 1][0])
                ),
                None,
            )
        if pos is None:
            total = sum(-m for _, m in w)
            if total > DEPTH_CAP:
                raise ValueError(f"monomial depth {total} exceeds cap {DEPTH_CAP}")
            vec_add_term(out, tuple((idx, -m) for idx, m in w), c)
            continue
        (s_idx, m), (t_idx, n) = w[pos], w[pos + 1]
        head, tail = w[:pos], w[pos + 2 :]
        # push no word that ends in an annihilator: with no tail the swap
        # does when m >= 0, a bracket at a non-negative mode does, and the
        # central term does when head ends in one
        if tail or m < 0:
            pending.append((head + (w[pos + 1], w[pos]) + tail, c))
        if tail or m + n < 0:
            for r, b in basis.bracket_coords(s_idx, t_idx).items():
                pending.append((head + ((r, m + n),) + tail, c * b))
        if m + n == 0 and m != 0 and (tail or not head or head[-1][1] < 0):
            g = basis.gram(s_idx, t_idx)
            if g:
                pending.append((head + tail, c * m * g * basis.k))
    return out


# ------------------------------------------------------------ mode action

def test_mode_pinned_examples_rank1():
    basis = standard_mode_basis(1)
    k = level_for(1)
    assert k == basis.k == Fraction(-3, 2)
    # labels fix the index layout used in the monomial literals below
    assert basis.labels == (
        "H[1]", "H[2]", "E[1,2]", "E[1,3]", "E[2,1]", "E[2,3]", "E[3,1]", "E[3,2]"
    )
    # annihilator meeting its partner across the vacuum leaves the level
    s = state_from_ops(basis, [(E(2, 1), 1), (E(1, 2), -1)])
    assert s == {(): Fraction(-3, 2)}
    # diagonal contraction picks up the form <H1,H1> = 2
    s = state_from_ops(basis, [(H(1), 1), (H(1), -1)])
    assert s == {(): -3}
    # zero mode acts by the bracket
    s = state_from_ops(basis, [(E(1, 2), 0), (E(2, 3), -1)])
    assert s == {((3, 1),): Fraction(1)}
    # reordering two creations leaves a deeper correction term
    s = state_from_ops(basis, [(E(1, 3), -1), (H(1), -1)])
    assert s == {((0, 1), (3, 1)): Fraction(1), ((3, 2),): Fraction(-1)}
    # already-ordered creations are stored as written
    s = state_from_ops(basis, [(H(1), -2), (E(1, 2), -1)])
    assert s == {((0, 2), (2, 1)): Fraction(1)}


def test_positive_modes_annihilate_vacuum():
    basis = standard_mode_basis(2)
    v = state_from_ops(basis, [])
    assert v == {(): 1}
    for x in basis.elems[:4]:
        for m in (0, 1, 3):
            assert mode_action(basis, basis.expand(x), m, v) == {}


def test_affine_commutation_relation_50_samples():
    rng = random.Random(2024)
    for _ in range(50):
        l = rng.choice([1, 2])
        basis = standard_mode_basis(l)
        k = level_for(l)
        w = _rand_state(rng, basis)
        x = basis.elems[rng.randrange(len(basis.elems))]
        y = basis.elems[rng.randrange(len(basis.elems))]
        m = rng.randint(-2, 2)
        n = rng.randint(-2, 2)

        def act(z, mode, state):
            return mode_action(basis, basis.expand(z), mode, state)

        lhs = plus(
            (act(x, m, act(y, n, w)), 1),
            (act(y, n, act(x, m, w)), -1),
        )
        from a2l2.liealg import bracket, invariant_form

        rhs = act(bracket(x, y), m + n, w)
        if m + n == 0 and m != 0:
            vec_add_into(rhs, w, m * invariant_form(x, y) * k)
        assert lhs == rhs


def test_normal_order_of_several_annihilators_50_samples():
    # the whole-word rewrite of the oracle equals the operators applied one
    # at a time, with creation and annihilation operators mixed
    rng = random.Random(2025)
    for _ in range(50):
        l = rng.choice([1, 2])
        basis = standard_mode_basis(l)
        w = _rand_state(rng, basis)
        ops = [(rng.randrange(len(basis.elems)), rng.randint(-2, 2)) for _ in range(2)]
        one_by_one = w
        for idx, mode in reversed(ops):
            one_by_one = mode_action(basis, {idx: 1}, mode, one_by_one)
        rewritten: dict = {}
        for mono, c in w.items():
            word = tuple(ops) + tuple((idx, -depth) for idx, depth in mono)
            vec_add_into(rewritten, _normal_order(basis, word, c))
        assert rewritten == one_by_one


# -------------------------------------------------------------- involution

def test_nu_state_basics():
    basis = standard_mode_basis(1)
    s = state_from_ops(basis, [(E(2, 3), -1)])
    assert nu_state(basis, s) == state_from_ops(basis, [(nu(E(2, 3), 3), -1)])
    rng = random.Random(9)
    for _ in range(20):
        l = rng.choice([1, 2])
        b = standard_mode_basis(l)
        w = _rand_state(rng, b)
        assert nu_state(b, nu_state(b, w)) == w


# `nu-fixed` reads the involution as the parity of the split table, and the
# factorwise oracle must reach the same verdict

def test_singular_vector_is_nu_fixed(monkeypatch):
    monkeypatch.setenv("A2L2_MAX_L", "6")
    for l in range(1, 7):
        v = singular_vector(l)
        assert nu_state(standard_mode_basis(l), v) == v
        assert run_checks(l, "nu-fixed").checks[0].details == {"fixed_by_twist": True}


@pytest.mark.parametrize("l", (2, 3))
def test_parity_rule_and_nu_oracle_reject_a_nu_odd_perturbation(monkeypatch, l):
    # v + (x - nu(x))(-2)|0> for x = E[1,2], a term that nu negates
    standard, split = standard_mode_basis(l), projection_context(l)
    odd = plus((E(1, 2), 1), (nu(E(1, 2), 2 * l + 1), -1))
    w = plus((singular_vector(l), 1), (state_from_ops(standard, [(odd, -2)]), 1))
    assert nu_state(standard, w) != w
    monkeypatch.setattr(checks, "split_singular_vector",
                        lambda _: convert_state(standard, w, split))
    assert run_checks(l, "nu-fixed").checks[0].details == {"fixed_by_twist": False}


# --------------------------------------------------------- singular vector

def test_singular_vector_literal_rank1():
    v = singular_vector(1)
    third = Fraction(1, 3)
    assert v == {
        ((0, 1), (3, 1)): third,
        ((1, 1), (3, 1)): -third,
        ((2, 1), (5, 1)): Fraction(1),
        ((3, 2),): Fraction(-1, 2),
    }


def test_singular_vector_annihilated():
    for l in (1, 2, 3):
        v = singular_vector(l)
        assert check_singular(standard_mode_basis(l), v)


def test_check_singular_rejects_non_singular():
    basis = standard_mode_basis(1)
    s = state_from_ops(basis, [(E(1, 2), -1)])
    assert not check_singular(basis, s)


def test_positive_mode_sweep_on_singular_vectors():
    for l in (1, 2, 3):
        v = singular_vector(l)
        assert positive_mode_sweep(standard_mode_basis(l), v)


def test_positive_mode_sweep_rejects_fractional_perturbations():
    # both checks scale their input to integers; a perturbation by 1/(2l+1),
    # a denominator the singular vector already has, must still show
    for l in (1, 2, 3):
        basis, v = standard_mode_basis(l), singular_vector(l)
        eps = Fraction(1, 2 * l + 1)
        extra = state_from_ops(basis, [(H(1), -2)])
        mono = min(m for m in v if len(m) == 2)
        terms = dict(v)
        terms[mono] += eps
        for s in (plus((v, 1), (extra, eps)), terms):
            assert not positive_mode_sweep(basis, s)
            assert not check_singular(basis, s)


@pytest.mark.parametrize("l", (1, 2, 3))
def test_positive_mode_sweep_agrees_with_full_sweep_oracle(l):
    basis = standard_mode_basis(l)
    states = perturbed_singular_vectors(l)
    verdicts = [full_positive_mode_sweep(basis, s) for s in states]
    assert [positive_mode_sweep(basis, s) for s in states] == verdicts
    # the singular vector passes, its two fractional perturbations fail
    assert verdicts[0] and not verdicts[1] and not verdicts[2]


@pytest.mark.parametrize("l", (1, 2, 3))
def test_operators_the_sweep_skips_act_as_zero(l):
    basis = standard_mode_basis(l)
    for s in perturbed_singular_vectors(l):
        acting = set(sweep_operators(basis, s))
        for idx, x in enumerate(basis.elems):
            for m in (1, 2):
                if (idx, m) not in acting:
                    got = mode_action(basis, basis.expand(x), m, s)
                    assert got == {}, (basis.labels[idx], m)


@pytest.mark.parametrize("l", (1, 2, 3, 6))
def test_sweep_acts_with_6l_operators_on_the_singular_vector(monkeypatch, l):
    basis, v = standard_mode_basis(l), singular_vector(l)  # built before the count starts
    calls = []
    action = vacuum_module.mode_action

    def counted(basis, coords, mode, s):
        calls.append((coords, mode))
        return action(basis, coords, mode, s)

    monkeypatch.setattr(vacuum_module, "mode_action", counted)
    assert positive_mode_sweep(basis, v)
    assert len(calls) == len(sweep_operators(basis, v)) == 6 * l


@pytest.mark.parametrize("l", (1, 2, 3))
def test_no_basis_element_is_solved_for(monkeypatch, l):
    # a basis element acts as {idx: 1}: neither the sweep nor the projection
    # solves for one.  Identity, not equality: [E12, E23] is a matrix equal
    # to E13 that the bracket does solve for.
    standard, split = standard_mode_basis(l), projection_context(l)
    v, split_v = singular_vector(l), split_singular_vector(l)
    solved = []
    expand = ModeBasis.expand

    def recorded(self, x):
        if any(x is y for y in self.elems):
            solved.append(x)
        return expand(self, x)

    monkeypatch.setattr(ModeBasis, "expand", recorded)
    assert positive_mode_sweep(standard, v)
    assert project(l, split_v)
    assert solved == []


@pytest.mark.parametrize("l", (1, 2, 3, 4))
def test_sweep_adds_only_integral_coefficients(monkeypatch, l):
    # both checks promise ints: the level enters each rewrite at most once,
    # times a coefficient already scaled by its denominator
    basis, v = standard_mode_basis(l), singular_vector(l)
    added = []
    add_term, add_into = vacuum_module.vec_add_term, vacuum_module.vec_add_into

    def counted_term(dst, key, c):
        added.append(c)
        add_term(dst, key, c)

    def counted_into(dst, src, c=1):
        added.extend(c * x for x in src.values())
        add_into(dst, src, c)

    monkeypatch.setattr(vacuum_module, "vec_add_term", counted_term)
    monkeypatch.setattr(vacuum_module, "vec_add_into", counted_into)
    assert positive_mode_sweep(basis, v)
    assert added and all(c.denominator == 1 for c in added)
    added.clear()
    assert check_singular(basis, v)
    assert added and all(c.denominator == 1 for c in added)


@pytest.mark.parametrize("l", (1, 2, 3))
def test_support_masks_drop_no_bracket_or_gram_value(l):
    # the masks decide the zero constants first; the long way computes all
    for basis in (standard_mode_basis(l), projection_context(l)):
        for s, a in enumerate(basis.elems):
            for t, b in enumerate(basis.elems):
                assert basis.bracket_coords(s, t) == basis.expand(bracket(a, b))
                assert basis.gram(s, t) == invariant_form(a, b)


def test_no_bracket_is_formed_for_disjoint_supports(monkeypatch):
    # [a, b] is zero unless a column of one is a row of the other, so the
    # algebra checks form no matrix product for any other pair
    def meets(a, b):
        return {j for _, j in a} & {i for i, _ in b}

    formed = []
    real_bracket = vacuum_module.bracket

    def recorded(a, b):
        formed.append((a, b))
        return real_bracket(a, b)

    for cached in PER_RANK_CACHES:
        cached.cache_clear()
    monkeypatch.setattr(vacuum_module, "bracket", recorded)
    algebra_checks = ["singular", "nu-fixed", "zhu-image", "v1-closed-form",
                      "polynomials", "r0-dim"]
    assert run_checks(2, algebra_checks).overall == "pass"
    assert formed
    assert all(meets(a, b) or meets(b, a) for a, b in formed)
    for cached in PER_RANK_CACHES:
        cached.cache_clear()


def test_weights_read_from_entries_match_eigenvalues():
    # both mode bases are weight bases, each under its own Cartan block
    for l in (1, 2, 3, 4):
        standard = standard_mode_basis(l)
        cartan = [H(i) for i in range(1, 2 * l + 1)]
        assert [standard.elems[s] for s in standard.cartan_indices] == cartan
        for x, wt in zip(standard.elems, standard.weights):
            assert wt == tuple(eigen_ratio(bracket(h, x), x) for h in cartan)
        split = projection_context(l)
        cartan = b_type_generators(l).h
        assert tuple(split.elems[s] for s in split.cartan_indices) == cartan
        for x, wt in zip(split.elems, split.weights):
            assert wt == tuple(eigen_ratio(bracket(h, x), x) for h in cartan)
    # a matrix that is not a weight vector, and a Cartan matrix that is not
    # diagonal, are refused
    with pytest.raises(ValueError, match="not a weight vector"):
        entry_weights(({(1, 2): 1, (2, 1): 1},), cartan)
    with pytest.raises(ValueError, match="not diagonal"):
        entry_weights(split.elems, (split.elems[0],))


def test_mode_basis_refuses_fractional_constants():
    # the split basis before rescaling: [Ep[1,2], Ep[2,1]] = hb[1]/8 and
    # the trace form of the pair is 1/2
    hbar = b_type_generators(1).h[-1]
    up, down = (split_pm(E(i, j), 3)[0] for i, j in ((1, 2), (2, 1)))
    basis = ModeBasis(1, (down, hbar, up), ("Ep[2,1]", "hb[1]", "Ep[1,2]"))
    with pytest.raises(ValueError, match="not an integer"):
        basis.bracket_coords(2, 0)
    with pytest.raises(ValueError, match="not an integer"):
        basis.gram(2, 0)


def test_expand_returns_a_dict_of_its_own():
    # `expand` hands back the dict its solve built, with no copy, so a
    # caller that edits it must leave the basis and later solves untouched
    basis = standard_mode_basis(2)
    for x in (E(1, 2), {**E(1, 2), **H(2)}, {(1, 1): 1, (5, 5): -1}):
        first = basis.expand(x)
        kept = dict(first)
        first.clear()
        first[0] = 7
        assert basis.expand(x) == kept


def test_mode_bases_die_with_the_per_rank_caches():
    # a basis is held by the per-rank caches that built it and by nothing
    # else, so once they are cleared, the basis and its weights die with them
    for cached in PER_RANK_CACHES:
        cached.cache_clear()
    assert run_checks(2).overall == "pass"
    built = [weakref.ref(standard_mode_basis(2)), weakref.ref(projection_context(2))]
    for cached in PER_RANK_CACHES:
        cached.cache_clear()
    gc.collect()
    assert [ref() for ref in built] == [None, None]


def test_singular_vector_weight_is_top_root():
    for l in (1, 2, 3):
        v = singular_vector(l)
        w = standard_mode_basis(l).weight_of([idx for idx, _ in mono] for mono in v)
        expect = tuple(
            Fraction(1 if i in (1, 2 * l) else 0) for i in range(1, 2 * l + 1)
        )
        assert w == expect


# -------------------------------------------------------- zero-mode orbit

def so_weight(basis: ModeBasis, s: State) -> tuple[Fraction, ...]:
    """Common eigenvalue tuple of s under the so(2l+1) Cartan
    (h_1..h_{l-1}, hbar_l); fails if s mixes weights."""
    cartan = b_type_generators(basis.l).h
    elems = basis.elems
    weights = {
        tuple(
            sum(
                (eigen_ratio(bracket(h, elems[idx]), elems[idx]) for idx, _ in mono),
                Fraction(0),
            )
            for h in cartan
        )
        for mono in s
    }
    assert len(weights) == 1
    return weights.pop()


def test_zero_mode_orbit_dimensions_and_stability():
    for l, dim in ((1, 5), (2, 14), (3, 27)):
        v = singular_vector(l)
        orbit = zero_mode_orbit(v, l)
        assert len(orbit) == dim == 2 * l * l + 3 * l
        zero_wt = tuple(Fraction(0) for _ in range(l))
        basis = standard_mode_basis(l)
        zero_count = sum(1 for s in orbit if so_weight(basis, s) == zero_wt)
        assert zero_count == l
        for s in orbit:
            assert orbit_contains(orbit, nu_state(basis, s))


# ----------------------------------------------------------- conversions

def test_convert_state_round_trip():
    for l in (1, 2):
        v = singular_vector(l)
        standard, split = standard_mode_basis(l), projection_context(l)
        there = convert_state(standard, v, split)
        back = convert_state(split, there, standard)
        assert back == v
        assert there


def test_projection_context_is_the_one_holder_of_the_split_table():
    # the rank's PBW algebra is its split mode basis: the one table of
    # structure constants, laid out by `split_basis`, even part first
    from a2l2.envelope import PBWAlgebra

    # a cold run at one rank holds two tables: the standard basis and the
    # split one, which no stage copies into a second holder
    for cached in PER_RANK_CACHES:
        cached.cache_clear()
    gc.collect()
    assert run_checks(3).overall == "pass"
    gc.collect()
    live = [x for x in gc.get_objects() if isinstance(x, (ModeBasis, PBWAlgebra))]
    assert len(live) == 2, live
    for l in (1, 2, 3):
        alg = projection_context(l)
        assert isinstance(alg, ModeBasis)
        assert (alg.elems, alg.labels, alg.scales) == split_basis(l)
        assert alg.g0_count == l * (2 * l + 1)
        assert alg.cartan_indices == tuple(range(l * l, l * l + l))
        cartan = tuple(alg.elems[s] for s in alg.cartan_indices)
        assert cartan == b_type_generators(l).h


# ------------------------------------------------------------- invariants

def test_state_validation_and_depth_cap():
    basis = standard_mode_basis(1)
    with pytest.raises(ValueError):
        state_from_ops(basis, [(H(1), -1)] * 9)
    # exactly at the cap is fine
    s = state_from_ops(basis, [(H(1), -1)] * 8)
    assert s


def assert_canonical(basis: ModeBasis, s: State) -> None:
    """Every monomial of s is in canonical order (depth descending, then
    index ascending), with depths >= 1 summing to at most the cap and
    indices in range, and no coefficient is zero."""
    for mono, c in s.items():
        assert c, mono
        assert list(mono) == sorted(mono, key=lambda f: (-f[1], f[0])), mono
        assert all(depth >= 1 for _, depth in mono), mono
        assert all(0 <= idx < len(basis.elems) for idx, _ in mono), mono
        assert sum(depth for _, depth in mono) <= DEPTH_CAP, mono


@pytest.mark.parametrize("l", (1, 2, 3))
def test_every_state_operation_keeps_monomials_canonical(l):
    rng = random.Random(40 + l)
    standard, split = standard_mode_basis(l), projection_context(l)
    seen = 0
    for _ in range(12):
        basis, other = (standard, split) if rng.random() < 0.5 else (split, standard)
        ops = [
            (basis.elems[rng.randrange(len(basis.elems))], rng.randint(-2, 1))
            for _ in range(rng.randint(0, 3))
        ]
        s = state_from_ops(basis, ops)
        x = other.elems[rng.randrange(len(other.elems))]
        for b, t in (
            (basis, s),
            (basis, mode_action(basis, basis.expand(x), rng.randint(-2, 2), s)),
            (basis, nu_state(basis, s)),
            (other, convert_state(basis, s, other)),
        ):
            assert_canonical(b, t)
            seen += len(t)
    assert seen  # the samples are not all zero


def test_state_string_rank1():
    v = singular_vector(1)
    basis = standard_mode_basis(1)
    assert state_string(basis, v) == (
        "1/3*H[1](-1)E[1,3](-1)|0> - 1/3*H[2](-1)E[1,3](-1)|0> "
        "+ E[1,2](-1)E[2,3](-1)|0> - 1/2*E[1,3](-2)|0>"
    )
    assert state_string(basis, {}) == "0"
