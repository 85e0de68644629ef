"""Oracle for the raising sweep, and perturbed singular vectors to feed it.

`full_positive_mode_sweep` acts with every basis operator at modes 1 and 2,
2 * dim of them, with no grading argument to skip any; the package's sweep
must reach the same verdict on every state.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from a2l2.liealg import H
from a2l2.vacuum import (
    VermaState,
    mode_action,
    singular_vector,
    state_from_ops,
    vacuum,
)


def full_positive_mode_sweep(s: VermaState) -> bool:
    """True iff all 2 * dim basis operators at modes 1 and 2 kill s."""
    scale = lcm(*(c.denominator for c in s.terms.values())) * s.k.denominator
    scaled = s.scale(scale)
    for x in s.basis.elems:
        for m in (1, 2):
            if not mode_action((x, m), scaled).is_zero():
                return False
    return True


def _seeded_state(rng: random.Random, v: VermaState, depth: int) -> VermaState:
    """The vacuum, x(-1)|0>, or one of x(-2)|0> and x(-1)y(-1)|0>, for
    basis elements x, y drawn by rng."""
    basis, k = v.basis, v.k
    if depth == 0:
        return vacuum(basis, k)

    def pick():
        return basis.elems[rng.randrange(len(basis.elems))]

    if depth == 1:
        return state_from_ops(basis, k, [(pick(), -1)])
    if rng.random() < 0.5:
        return state_from_ops(basis, k, [(pick(), -2)])
    return state_from_ops(basis, k, [(pick(), -1), (pick(), -1)])


def perturbed_singular_vectors(l: int, seed: int = 7, per_depth: int = 4) -> list[VermaState]:
    """The singular vector of rank l, its two fractional perturbations, and
    seeded perturbations by states of depth 0, 1 and 2."""
    v = singular_vector(l)
    eps = Fraction(1, 2 * l + 1)
    out = [v, v + state_from_ops(v.basis, v.k, [(H(1), -2)]).scale(eps)]
    mono = min(m for m in v.terms if len(m) == 2)
    terms = dict(v.terms)
    terms[mono] += eps
    out.append(VermaState(v.basis, v.k, terms))
    rng = random.Random(seed * 100 + l)
    for depth in (0, 1, 2):
        for _ in range(per_depth):
            extra = _seeded_state(rng, v, depth)
            if extra.is_zero():
                continue
            c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
            out.append(v + extra.scale(c))
    return out
