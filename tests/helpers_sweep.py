"""Oracles for the raising sweep, the involution and the change of mode
basis, and perturbed singular vectors to feed them.

`full_positive_mode_sweep` acts with every basis operator at modes 1 and 2,
2 * dim of them, with no grading argument to skip any; the package's sweep
must reach the same verdict on every state.  `nu_state` applies the
involution to a state factor by factor, over any mode basis; the package
reads it instead as the parity of the split table.  `convert_state`
re-expresses a state over another mode basis monomial by monomial; the
package instead builds the singular vector over each basis from its recipe.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from a2l2.liealg import H, nu
from a2l2.linalg import vec_add_into, vec_scale
from a2l2.vacuum import (
    ModeBasis,
    State,
    mode_action,
    singular_vector,
    standard_mode_basis,
    state_from_ops,
)


def full_positive_mode_sweep(basis: ModeBasis, s: State) -> bool:
    """True iff all 2 * dim basis operators at modes 1 and 2 kill s."""
    scale = lcm(*(c.denominator for c in s.values())) * basis.k.denominator
    scaled = vec_scale(s, scale)
    for x in basis.elems:
        for m in (1, 2):
            if mode_action(basis, basis.expand(x), m, scaled):
                return False
    return True


def nu_state(basis: ModeBasis, s: State) -> State:
    """Apply the involution factorwise to every creation monomial: the images
    of a monomial's factors act on the vacuum one at a time, rightmost first."""
    n = 2 * basis.l + 1
    out: State = {}
    for mono, c in s.items():
        image: State = {(): c}
        for idx, depth in reversed(mono):
            image = mode_action(basis, basis.expand(nu(basis.elems[idx], n)), -depth, image)
        vec_add_into(out, image)
    return out


def convert_state(basis: ModeBasis, s: State, target: ModeBasis) -> State:
    """Re-express a state over another basis of the same finite algebra, one
    monomial at a time."""
    out: State = {}
    for mono, c in s.items():
        ops = [(basis.elems[idx], -depth) for idx, depth in mono]
        vec_add_into(out, state_from_ops(target, ops), c)
    return out


def _seeded_state(rng: random.Random, basis: ModeBasis, depth: int) -> State:
    """The vacuum, x(-1)|0>, or one of x(-2)|0> and x(-1)y(-1)|0>, for
    basis elements x, y drawn by rng."""
    if depth == 0:
        return state_from_ops(basis, [])

    def pick():
        return basis.elems[rng.randrange(len(basis.elems))]

    if depth == 1:
        return state_from_ops(basis, [(pick(), -1)])
    if rng.random() < 0.5:
        return state_from_ops(basis, [(pick(), -2)])
    return state_from_ops(basis, [(pick(), -1), (pick(), -1)])


def plus(*terms: tuple[State, Fraction | int]) -> State:
    """The sum of c * s over the (s, c) pairs, through the kernel."""
    out: State = {}
    for s, c in terms:
        vec_add_into(out, s, c)
    return out


def perturbed_singular_vectors(l: int, seed: int = 7, per_depth: int = 4) -> list[State]:
    """The singular vector of rank l, its two fractional perturbations, and
    seeded perturbations by states of depth 0, 1 and 2, all over
    `standard_mode_basis(l)`."""
    basis = standard_mode_basis(l)
    v = singular_vector(basis)
    eps = Fraction(1, 2 * l + 1)
    out = [v, plus((v, 1), (state_from_ops(basis, [(H(1), -2)]), eps))]
    mono = min(m for m in v if len(m) == 2)
    terms = dict(v)
    terms[mono] += eps
    out.append(terms)
    rng = random.Random(seed * 100 + l)
    for depth in (0, 1, 2):
        for _ in range(per_depth):
            extra = _seeded_state(rng, basis, depth)
            if not extra:
                continue
            c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
            out.append(plus((v, 1), (extra, c)))
    return out
