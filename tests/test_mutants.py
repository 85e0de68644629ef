"""Mutation gate: each seeded defect must turn `run_checks` red.

A check suite that stays green under a wrong level, a dropped central term,
a wrong coefficient in the singular vector's recipe, a sign flip in a closed
form, weights read with the wrong sign, weights carried wrongly along the r0
closure, a coroot span one short or a sign-flipped involution shows nothing.
Each defect is applied by monkeypatch, and the per-rank caches are cleared
before and after every case, so no stage computed under a defect outlives
it.

Further seeded defects leave `run_checks` green at l = 1..3, and other
tests kill them:

- `binom(-1/2, j)` for `binom(1/2, j)` in the projection (`test_twzhu.py`);
- `m_min + 1` in the root family table of `helpers_roots.py`: the
  reflection-orbit root oracle of `test_affroots.py`, which builds the
  positive real roots from the Cartan matrix without the table;
- in the closed form of `check_admissible`: `<=` for `<` at the lower end
  of an intermediate window (a first value 0 let through), the even window
  (0, 2h) emptied to (0, 0) (what m >= 0 for a negative first coordinate
  does to even w), half-integer classes counted as balanced and `<=` for
  `<` in 0 < y_i < h: the rational admissibility oracle on seeded random
  weights and on the +-1/2 and +-1 coroot perturbations of the classified
  weights, below;
- only the weight 0 in degree 1 of the raising sweep's grading, which the
  singular vector passes anyway: the full sweep of `helpers_sweep.py` on
  perturbed singular vectors, below.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import random
from fractions import Fraction

import pytest
from helpers_roots import (
    admissible_input,
    affinize,
    coroot_perturbations,
    fraction_admissible,
)
from helpers_sweep import full_positive_mode_sweep, perturbed_singular_vectors
from test_affroots import random_weight

import a2l2
from a2l2 import affroots, checks, classify, liealg, twzhu, vacuum
from a2l2.checks import run_checks

# every `lru_cache` function that a module of the package defines, found by
# scanning, so that no stage cache is left out as stages are added
PER_RANK_CACHES = tuple(
    fn
    for info in pkgutil.iter_modules(a2l2.__path__)
    for module in [importlib.import_module(f"a2l2.{info.name}")]
    for fn in vars(module).values()
    if hasattr(fn, "cache_clear") and fn.__module__ == module.__name__
)


def wrong_level(monkeypatch):
    """Level -(2l-1)/2 in place of -(2l+1)/2, wherever its two ints are
    read: the mode bases take theirs through `liealg.level_for` as they are
    built."""
    def level(l):
        return -(2 * l - 1), 2

    for module in (a2l2, liealg, checks):
        monkeypatch.setattr(module, "level", level)


def no_central_term(monkeypatch):
    """A zero invariant form drops the central term of the mode action."""
    monkeypatch.setattr(vacuum.ModeBasis, "gram", lambda self, s, t: Fraction(0))


def shifted_top_coefficient(monkeypatch):
    """The E[1,n](-2) term of the singular vector's recipe takes -(2l+1)/2
    for -(2l-1)/2, over both mode bases, which read the one recipe.  Only
    `singular` fails, as the checks that read the vector depend on it and
    skip; alone, `nu-fixed` fails too, while `zhu-image` stays green, since
    E[1,n] is purely odd and the term projects to 0."""
    mutant = source_mutant(
        "singular_vector",
        "Fraction(-(2 * l - 1), 2)",
        "Fraction(-(2 * l + 1), 2)",
        module=vacuum,
    )
    # the checks and the projection call it through their own imports
    for module in (checks, twzhu):
        monkeypatch.setattr(module, "singular_vector", mutant)


def flipped_v1_sign(monkeypatch):
    """One coefficient of the closed form of v1 changes sign."""
    closed_form = twzhu.v1_closed_form

    def flipped(l):
        v = closed_form(l)
        key = min(v)
        v[key] = -v[key]
        return v

    monkeypatch.setattr(checks, "v1_closed_form", flipped)


def reversed_entry_weights(monkeypatch):
    """The weight reader takes h[j,j] - h[i,i] for E[i,j], negating every
    weight the mode bases read."""
    mutant = source_mutant(
        "entry_weights",
        "h.get((i, i), 0) - h.get((j, j), 0)",
        "h.get((j, j), 0) - h.get((i, i), 0)",
        module=liealg,
    )
    monkeypatch.setattr(vacuum, "entry_weights", mutant)


def parent_weight_carried(monkeypatch):
    """The r0 closure adds the weight of the lowering that made the parent,
    not of the one applied: the same at l = 1, with one generator."""
    mutant = source_mutant("r0_basis", "drops[i]", "drops[j]", module=twzhu)
    # the check calls it through its own import
    monkeypatch.setattr(checks, "r0_basis", mutant)


def short_coroot_span(monkeypatch):
    """The coroot-span rank leaves out the central coroot."""
    mutant = source_mutant(
        "check_admissible",
        "rank = l + 1 - balanced",
        "rank = l - balanced",
    )
    # the classification table calls it through its own import
    monkeypatch.setattr(classify, "check_admissible", mutant)


# each defect with the check that turns red under it, and the ranks at
# which it does
DEFECTS = (
    (wrong_level, "singular", (1, 2, 3)),
    (no_central_term, "singular", (1, 2, 3)),
    (shifted_top_coefficient, "singular", (1, 2, 3)),
    (flipped_v1_sign, "v1-closed-form", (1, 2, 3)),
    (reversed_entry_weights, "singular", (1, 2, 3)),
    (parent_weight_carried, "r0-dim", (2, 3)),
    (short_coroot_span, "admissible", (1, 2, 3)),
)


@pytest.fixture
def cold_caches():
    for cached in PER_RANK_CACHES:
        cached.cache_clear()
    yield
    for cached in PER_RANK_CACHES:
        cached.cache_clear()


@pytest.mark.parametrize(
    "defect,killer,l",
    [
        pytest.param(defect, killer, l, id=f"{defect.__name__}-{l}")
        for defect, killer, ranks in DEFECTS
        for l in ranks
    ],
)
def test_seeded_defect_turns_run_checks_red(
    monkeypatch, cold_caches, defect, killer, l
):
    defect(monkeypatch)
    report = run_checks(l)
    failed = [c.id for c in report.checks if c.status == "fail"]
    assert report.overall == "fail"
    assert failed == [killer]


@pytest.mark.parametrize("l", (1, 2, 3))
def test_recipe_defect_is_seen_over_the_split_table(monkeypatch, cold_caches, l):
    """With `singular` deselected, the vector built over the split table
    fails `nu-fixed` on its own under the shifted coefficient."""
    shifted_top_coefficient(monkeypatch)
    report = run_checks(l, ["nu-fixed", "zhu-image"])
    assert [c.id for c in report.checks if c.status == "fail"] == ["nu-fixed"]


def test_flipped_nu_sign_turns_run_checks_red(monkeypatch, cold_caches):
    """nu with +(-1)^(i-j) for -(-1)^(i-j): the generators, the split basis,
    the lowering element and both closed forms all read it.  At l = 1..3
    `cartan-matrix`, `g1-dim` and `zhu-image` turn red, so the defect is not
    one of `DEFECTS`, whose cases each fail exactly one check."""
    mutant = source_mutant(
        "nu", "1 if (i - j) % 2 else -1", "-1 if (i - j) % 2 else 1", module=liealg
    )
    for module in (liealg, checks):
        monkeypatch.setattr(module, "nu", mutant)
    for l in (1, 2, 3):
        for cached in PER_RANK_CACHES:
            cached.cache_clear()
        report = run_checks(l)
        assert report.overall == "fail", l


# defects of the closed-form admissibility decision: (function, source
# text, its replacement)
INTEGER_PATH_DEFECTS = {
    "condition1_ge": ("check_admissible", "low * d < a", "low * d <= a"),
    "negative_m_min": ("check_admissible", "(0, 2 * h)", "(0, 0)"),
    "half_integers_balanced": (
        "check_admissible", "for yi in y if 2 * yi % d", "for yi in y if yi % d"
    ),
    "short_upper_le": ("check_admissible", "0 < yi < h * d", "0 < yi <= h * d"),
}


def source_mutant(name: str, old: str, new: str, module=affroots):
    """`module.<name>` recompiled from its source with `old`, which must
    occur exactly once, replaced by `new`.  It runs in a copy of the module
    namespace, so the module itself is untouched until patched."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(source.replace(old, new), namespace)
    return namespace[name]


@pytest.fixture(scope="module")
def random_weights_with_oracle():
    rng = random.Random(300)
    weights = [random_weight(rng, 1 + n % 6, 6) for n in range(300)]
    weights += [affinize(x, l) for l in (1, 2, 3) for x in coroot_perturbations(l)]
    return [(admissible_input(lam), fraction_admissible(lam)) for lam in weights]


@pytest.mark.parametrize("defect", sorted(INTEGER_PATH_DEFECTS))
def test_integer_path_defect_disagrees_with_fraction_oracle(
    monkeypatch, random_weights_with_oracle, defect
):
    name, old, new = INTEGER_PATH_DEFECTS[defect]
    monkeypatch.setattr(affroots, name, source_mutant(name, old, new))
    wrong = [
        y_d
        for y_d, expected in random_weights_with_oracle
        if affroots.check_admissible(*y_d) != expected
    ]
    assert wrong


@pytest.mark.parametrize("l", (2, 3))
@pytest.mark.parametrize("defect", sorted(INTEGER_PATH_DEFECTS))
def test_integer_path_defect_misjudges_a_coroot_perturbation(monkeypatch, defect, l):
    """Through the table's input, 4(lam + rho) over 2, the perturbations of
    the classified weights alone catch each lenient closed form."""
    name, old, new = INTEGER_PATH_DEFECTS[defect]
    monkeypatch.setattr(classify, name, source_mutant(name, old, new))
    wrong = [
        x
        for x in coroot_perturbations(l)
        if classify.admissibility(x) != fraction_admissible(affinize(x, l))
    ]
    assert wrong


def test_sweep_without_roots_in_degree_one_disagrees_with_full_sweep(monkeypatch):
    """Taking the weights of degree 1 as {0} skips operators that map a
    depth-2 term onto a root vector; the full sweep sees them act."""
    mutant = source_mutant(
        "sweep_operators", "{zero, *weights}", "{zero}", module=vacuum
    )
    monkeypatch.setattr(vacuum, "sweep_operators", mutant)
    wrong = [
        s
        for l in (1, 2, 3)
        for s in perturbed_singular_vectors(l)
        if vacuum.positive_mode_sweep(basis := vacuum.standard_mode_basis(l), s)
        != full_positive_mode_sweep(basis, s)
    ]
    assert wrong
