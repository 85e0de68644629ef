"""Mutation gate: each seeded defect must turn `run_checks` red.

A check suite that stays green under a wrong level, a dropped central term,
a sign flip in a closed form or a coroot span one short shows nothing.
Each defect is applied by monkeypatch, and the per-rank caches are cleared
before and after every case, so no stage computed under a defect outlives
it.

Three further seeded defects leave `run_checks` green at l = 1..3, and
only other tests kill them: `binom(-1/2, j)` for `binom(1/2, j)` in the
projection (`test_twzhu.py`), and `m_min + 1` in the root families and
`>=` for `>` in condition 1 of `check_admissible` (`test_affroots.py`).
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from a2l2 import affroots, checks, classify, liealg, linalg, twzhu, vacuum
from a2l2.checks import run_checks

PER_RANK_CACHES = (
    vacuum.singular_vector,
    twzhu.projection_context,
    vacuum.standard_mode_basis,
    vacuum.split_mode_basis,
    affroots.rho,
    affroots.positive_real_families,
)


def wrong_level(monkeypatch):
    """Level -(2l-1)/2 in place of -(2l+1)/2, wherever it is read."""
    def level(l):
        return Fraction(-(2 * l - 1), 2)

    for module in (liealg, vacuum, twzhu, checks, classify, affroots):
        monkeypatch.setattr(module, "level_for", level)


def no_central_term(monkeypatch):
    """A zero invariant form drops the central term of `_normal_order`."""
    monkeypatch.setattr(vacuum.ModeBasis, "gram", lambda self, s, t: Fraction(0))


def flipped_v1_sign(monkeypatch):
    """One coefficient of the closed form of v1 changes sign."""
    closed_form = twzhu.v1_closed_form

    def flipped(ctx):
        v = dict(closed_form(ctx))
        key = min(v)
        v[key] = -v[key]
        return v

    monkeypatch.setattr(checks, "v1_closed_form", flipped)


def short_coroot_span(monkeypatch):
    """The rank of the integral families' finite parts comes out one less."""
    monkeypatch.setattr(
        affroots, "rank_of", lambda vectors: linalg.rank_of(vectors) - 1
    )


# each defect with the check that turns red under it
DEFECTS = (
    (wrong_level, "singular"),
    (no_central_term, "singular"),
    (flipped_v1_sign, "v1-closed-form"),
    (short_coroot_span, "admissible"),
)


@pytest.fixture
def cold_caches():
    for cached in PER_RANK_CACHES:
        cached.cache_clear()
    yield
    for cached in PER_RANK_CACHES:
        cached.cache_clear()


@pytest.mark.parametrize("l", (1, 2, 3))
@pytest.mark.parametrize(
    "defect,killer", DEFECTS, ids=[d.__name__ for d, _ in DEFECTS]
)
def test_seeded_defect_turns_run_checks_red(
    monkeypatch, cold_caches, defect, killer, l
):
    defect(monkeypatch)
    report = run_checks(l)
    failed = [c.id for c in report.checks if c.status == "fail"]
    assert report.overall == "fail"
    assert failed == [killer]
