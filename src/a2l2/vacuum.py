"""Vacuum module over the affinization: mode operators on states.

A state is a finite sum of normal-ordered creation monomials applied to the
vacuum, held as a plain kernel dict from monomial to coefficient over a
`ModeBasis`, which also carries the level; every function on states takes
that basis first.  The basis is the standard one, or the split one that
`liealg.split_basis` lays out: the envelope's `PBWAlgebra`, a subclass held
once per rank by `twzhu.projection_context`; only it holds a memo, of `ad`.
`mode_action` takes x(m) as the coordinates of x, as the envelope's `ad`
does, so a basis element is {idx: 1} and only a matrix is solved for.
A monomial is a tuple of (basis index, depth) pairs with depth >= 1, stored
deepest-first with ties broken by basis index, and `_act` is the one place
that makes them: it moves one mode operator into a normal-ordered monomial
by the affine commutation rule

    [a(m), b(n)] = [a,b](m+n) + m * delta(m+n, 0) * <a,b> * level,

with non-negative modes annihilating the vacuum.  The recursion terminates:
each call acts on the shorter rest of the monomial, or, in the swap, with
the first factor a(-d), which sorts strictly before the operator x(m), on a
term of x(m) rest, which is no longer than the monomial and lies in the same
degree of the result.  Within one degree the modes are bounded below, so no
path of calls is infinite.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add
from typing import Iterable

from . import format_sum
from .liealg import (
    E,
    H,
    Matrix,
    bracket,
    common_weight,
    entry_weights,
    invariant_form,
    level_for,
)
from .linalg import (
    Coeff,
    SpanSolver,
    vec_add_into,
    vec_add_term,
    vec_integral,
    vec_scale,
)

DEPTH_CAP = 8  # total creation depth allowed in any stored monomial

# monomial: tuple of (basis index, depth), depth desc then index asc
Monomial = tuple[tuple[int, int], ...]
State = dict[Monomial, Coeff]


class ModeBasis:
    """Ordered basis of the finite algebra, and the level of the vacuum
    module over it, which the rank fixes.

    The split basis also sets `g0_count`, the size of its leading even part,
    which the involution fixes while it negates the rest, and `scales`, the
    factor of each element over the vector its label names; both are None
    on the standard basis.  Each basis reads its weights under its own
    Cartan block (`cartan_indices`): the diagonal elements of its even part,
    or of the whole basis when it is ungraded, and `weight_of` sums them.

    Every bracket constant and Gram value over the basis must be an int
    (else ValueError), which keeps the rewriting on integer arithmetic; each
    is computed on every call, unless the index supports show it is zero."""

    def __init__(self, l: int, elems: tuple[Matrix, ...], labels: tuple[str, ...],
                 g0_count: int | None = None,
                 scales: tuple[int, ...] | None = None) -> None:
        self.l = l
        self.k = level_for(l)
        self.elems = tuple(elems)
        self.labels = tuple(labels)
        self.g0_count = g0_count
        self.scales = scales
        self._span = SpanSolver()
        for x in self.elems:
            if not self._span.add(x):
                raise AssertionError("mode basis is not independent")
        self.cartan_indices = tuple(
            s for s, x in enumerate(self.elems[:g0_count]) if all(i == j for i, j in x)
        )
        self._rows = tuple(sum({1 << i for i, _ in x}) for x in self.elems)
        self._cols = tuple(sum({1 << j for _, j in x}) for x in self.elems)

    def expand(self, x: Matrix) -> dict[int, Coeff]:
        """Coordinates of x in the basis, an int wherever integral."""
        v = self._span.coords(x)
        if v is None:
            raise ValueError("element is outside the mode basis span")
        return v

    def bracket_coords(self, s: int, t: int) -> dict[int, Coeff]:
        if not (self._cols[s] & self._rows[t] or self._cols[t] & self._rows[s]):
            return {}
        got = self.expand(x) if (x := bracket(self.elems[s], self.elems[t])) else {}
        _require_ints(got.values(), "bracket", (s, t))
        return got

    def gram(self, s: int, t: int) -> int:
        if not self._cols[s] & self._rows[t]:
            return 0
        got = invariant_form(self.elems[s], self.elems[t])
        _require_ints((got,), "Gram value", (s, t))
        return got

    @cached_property
    def weights(self) -> tuple[tuple[int, ...], ...]:
        """Weight of each element under the Cartan block, read off the matrix
        entries: H_1..H_{2l} on the standard basis, (h_1..h_{l-1}, hbar_l)
        on the split one.  Raises ValueError unless every element is a
        weight vector, as on both."""
        return entry_weights(self.elems, [self.elems[s] for s in self.cartan_indices])

    def weight_of(self, words: Iterable[Iterable[int]]) -> tuple[Coeff, ...]:
        """Common weight of words of basis indices; ValueError if they mix."""
        return common_weight(self.weights, words)


def _require_ints(values, what: str, key) -> None:
    if any(type(c) is not int for c in values):
        raise ValueError(f"{what} {key} of the mode basis is not an integer")


@lru_cache(maxsize=None)
def standard_mode_basis(l: int) -> ModeBasis:
    """Cartan differences H_1..H_{2l}, then off-diagonal units in index order."""
    n = 2 * l + 1
    elems: list[Matrix] = [H(i) for i in range(1, n)]
    labels: list[str] = [f"H[{i}]" for i in range(1, n)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                elems.append(E(i, j))
                labels.append(f"E[{i},{j}]")
    return ModeBasis(l, tuple(elems), tuple(labels))


def _act(basis: ModeBasis, s: int, mode: int, mono: Monomial, c: Coeff,
         out: State) -> None:
    """out += c * x_s(mode) mono|0>, in normal order.

    With a(-d) the first factor of mono: an x_s(mode) that sorts at or
    before it is prepended (its mode is then negative), and one acting on
    the vacuum is prepended or annihilates.  Else x(mode) a(-d) rest =
    a(-d) x(mode) rest + [x, a](mode - d) rest + the central term."""
    if not mono or (mode, s) <= (-mono[0][1], mono[0][0]):
        if mode < 0:
            total = sum(d for _, d in mono) - mode
            if total > DEPTH_CAP:
                raise ValueError(f"monomial depth {total} exceeds cap {DEPTH_CAP}")
            vec_add_term(out, ((s, -mode),) + mono, c)
        return
    (t, d), rest = mono[0], mono[1:]
    swapped: State = {}
    _act(basis, s, mode, rest, c, swapped)
    for m, cm in swapped.items():
        _act(basis, t, -d, m, cm, out)
    if rest or mode < d:  # else [x, a](mode - d) kills the vacuum
        for r, b in basis.bracket_coords(s, t).items():
            _act(basis, r, mode - d, rest, c * b, out)
    if mode == d and (g := basis.gram(s, t)):
        vec_add_term(out, rest, c * mode * g * basis.k)


def mode_action(basis: ModeBasis, coords: dict[int, Coeff], mode: int, state: State) -> State:
    """x(mode) state, for the x of the given basis coordinates: a basis
    element is {idx: 1}, and a matrix is `basis.expand`ed by the caller."""
    out: State = {}
    for mono, c in state.items():
        for s, a in coords.items():
            _act(basis, s, mode, mono, c * a, out)
    return out


def state_from_ops(basis: ModeBasis, ops: list[tuple[Matrix, int]]) -> State:
    """Apply mode operators to the vacuum, rightmost operator first."""
    s: State = {(): 1}
    for x, mode in reversed(ops):
        s = mode_action(basis, basis.expand(x), mode, s)
    return s


@lru_cache(maxsize=None)
def singular_vector(l: int) -> State:
    """Degree-2 singular vector of the vacuum module at the special level,
    over `standard_mode_basis(l)`, built once per rank and shared: callers
    must not modify it."""
    n = 2 * l + 1
    basis = standard_mode_basis(l)
    top = E(1, n)
    total: State = {}
    for i in range(1, 2 * l + 1):
        c = Fraction(2 * l - 2 * i + 1, 2 * l + 1)
        vec_add_into(total, state_from_ops(basis, [(top, -1), (H(i), -1)]), c)
    for i in range(1, 2 * l):
        vec_add_into(total, state_from_ops(basis, [(E(1, i + 1), -1), (E(i + 1, n), -1)]))
    vec_add_into(total, state_from_ops(basis, [(top, -2)]), Fraction(-(2 * l - 1), 2))
    return total


def _integral_multiple(basis: ModeBasis, s: State) -> State:
    """s times the lcm of its denominators times the level's: the checks test
    it instead, as a nonzero scale keeps a zero test, and an operator acts on
    it in ints, as the constants are ints and the central term, consuming the
    only annihilator, brings in the level at most once per rewrite."""
    return vec_scale(vec_integral(s), basis.k.denominator)


def check_singular(basis: ModeBasis, s: State) -> bool:
    """True iff the raising zero modes and the affine raising mode kill
    `_integral_multiple` of s, and so s."""
    n = 2 * basis.l + 1
    ops = [(E(i, i + 1), 0) for i in range(1, n)] + [(E(n, 1), 1)]
    scaled = _integral_multiple(basis, s)
    return not any(mode_action(basis, basis.expand(x), m, scaled) for x, m in ops)


def sweep_operators(basis: ModeBasis, s: State) -> list[tuple[int, int]]:
    """The (basis index, mode) pairs, modes 1 and 2, whose action on s the
    grading of the vacuum module does not force to be zero.

    x(m) maps a term of weight mu and depth D into degree D - m, at weight
    wt(x) + mu.  Degree 0 holds only weight 0, and degree 1 only the weights
    of the basis elements and 0, so x(m) can act nonzero on the term only if
    D - m >= 2 or that weight occurs in degree D - m.  The weights are read
    term by term, so a state that mixes weights is still swept in full."""
    weights = basis.weights
    zero = (0,) * len(basis.cartan_indices)
    degree_weights = ({zero}, {zero, *weights})
    terms = {
        (basis.weight_of(([idx for idx, _ in mono],)), sum(d for _, d in mono))
        for mono in s
    }
    return [
        (idx, m)
        for idx, wt in enumerate(weights)
        for m in (1, 2)
        if any(
            depth - m >= 2
            or (depth >= m and tuple(map(add, wt, mu)) in degree_weights[depth - m])
            for mu, depth in terms
        )
    ]


def positive_mode_sweep(basis: ModeBasis, s: State) -> bool:
    """True iff every basis operator at modes 1 and 2 kills s.

    Only the operators of `sweep_operators` act, since the grading kills the
    rest: 6l of the 2 * dim operators on the singular vector, acting on
    `_integral_multiple` of s.  The basis must consist of weight vectors."""
    scaled = _integral_multiple(basis, s)
    return not any(
        mode_action(basis, {idx: 1}, m, scaled) for idx, m in sweep_operators(basis, s)
    )


def convert_state(basis: ModeBasis, s: State, target: ModeBasis) -> State:
    """Re-express a state over another basis of the same finite algebra, one
    factor of each monomial at a time, rightmost first."""
    out: State = {}
    for mono, c in s.items():
        image: State = {(): c}
        for idx, depth in reversed(mono):
            image = mode_action(target, target.expand(basis.elems[idx]), -depth, image)
        vec_add_into(out, image)
    return out


def state_string(basis: ModeBasis, s: State) -> str:
    """Single-line rendering: factors as label(-depth), vacuum as |0>."""
    terms = []
    for mono, c in sorted(s.items()):
        factors = "".join(f"{basis.labels[idx]}({-depth})" for idx, depth in mono)
        terms.append((c, factors + "|0>"))
    return format_sum(terms)
