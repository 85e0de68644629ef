"""Classification layer: enumerate the candidate highest weights for the
even-part horizontal algebra, evaluate the eigenvalue polynomials on them,
brute-force the polynomial zero set from the factored structure, filter the
dominant integral ones, and lift finite weights to the affine level."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional, Sequence

from .affroots import AdmissibilityReport, AffineWeight, _frac_tuple, check_admissible
from .liealg import level_for
from .linalg import format_sum

if TYPE_CHECKING:  # annotations only: classify runs without the envelope
    from .envelope import CartanPoly


class _CorootValues(NamedTuple):
    coroot_vals: tuple[Fraction, ...]


class FiniteWeight(_CorootValues):
    """Weight of so(2l+1) stored by its values on the simple coroots
    (h_1, ..., h_{l-1}, hbar_l), as Fractions; the coefficient of the i-th
    fundamental weight equals coroot_vals[i-1]."""

    __slots__ = ()

    def __new__(cls, coroot_vals) -> "FiniteWeight":
        return super().__new__(cls, _frac_tuple(coroot_vals))

    @property
    def rank(self) -> int:
        return len(self.coroot_vals)

    @property
    def eps_coords(self) -> tuple[Fraction, ...]:
        """Coefficients on eps_1..eps_l: m_l = c_l / 2, then
        m_j = c_j + m_{j+1} walking down from j = l-1."""
        l = self.rank
        out = [Fraction(0)] * l
        out[l - 1] = self.coroot_vals[l - 1] / 2
        for j in range(l - 2, -1, -1):
            out[j] = self.coroot_vals[j] + out[j + 1]
        return tuple(out)

    def is_zero(self) -> bool:
        return not any(self.coroot_vals)

    def is_dominant_integral(self) -> bool:
        return all(c.denominator == 1 and c >= 0 for c in self.coroot_vals)

    def omega_string(self) -> str:
        """Render as a combination of fundamental weights w1..wl."""
        vals = enumerate(self.coroot_vals, start=1)
        return format_sum((c, f"w{i}") for i, c in vals if c)


def mu_weight(l: int, subset: Sequence[int], primed: bool) -> FiniteWeight:
    """The candidate highest weight attached to an increasing subset of
    {1..l-1}: each chosen index i_j carries the fundamental weight w_{i_j}
    with coefficient i_j + 2*sum_{s>j} (-1)^{s-j} i_s +- (-1)^{k-j+1} shift,
    where the shift is l - 1/2 (unprimed) or l + 1/2 (primed); the primed
    weights additionally contain w_l."""
    if l < 1:
        raise ValueError("rank must be at least 1")
    idx = tuple(int(i) for i in subset)
    if any(not 1 <= i <= l - 1 for i in idx):
        raise ValueError("subset entries must lie in 1..l-1")
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError("subset must be strictly increasing")
    k = len(idx)
    shift = Fraction(2 * l + 1, 2) if primed else Fraction(2 * l - 1, 2)
    vals = [Fraction(0)] * l
    for j in range(1, k + 1):
        coeff = Fraction(idx[j - 1])
        for s in range(j + 1, k + 1):
            coeff += 2 * (-1) ** (s - j) * idx[s - 1]
        coeff += (-1) ** (k - j + 1) * shift
        vals[idx[j - 1] - 1] += coeff
    if primed:
        vals[l - 1] += 1
    return FiniteWeight(tuple(vals))


@lru_cache(maxsize=None)
def all_highest_weights(l: int) -> tuple[FiniteWeight, ...]:
    """All 2^l candidate weights: subsets of {1..l-1} in binary order, the
    unprimed weight before the primed one.  Built once per rank and shared:
    the weights are frozen."""
    out = []
    for mask in range(2 ** (l - 1)):
        subset = tuple(i for i in range(1, l) if mask >> (i - 1) & 1)
        for primed in (False, True):
            out.append(mu_weight(l, subset, primed))
    return tuple(out)


def eval_polys(
    polys: Sequence[CartanPoly], mu: FiniteWeight
) -> list[Fraction]:
    """Values of the polynomials at the weight's coroot coordinates."""
    for p in polys:
        if p.nvars != mu.rank:
            raise ValueError("polynomial arity does not match the weight")
    return [p.eval(mu.coroot_vals) for p in polys]


def zero_set_oracle(polys: Sequence[CartanPoly]) -> frozenset[FiniteWeight]:
    """Independent brute-force zero set of a triangular factored system.

    Requires the j-th polynomial to factor as x_j times an affine-linear
    form in x_j..x_l with nonzero x_j coefficient.  Every common zero picks
    one vanishing factor per polynomial, so enumerating all 2^l branch
    choices and solving each triangular system (x_l first, then down to
    x_1) is exhaustive; duplicates collapse in the returned set."""
    l = len(polys)
    quotients = []
    for j, p in enumerate(polys, start=1):
        if p.nvars != l:
            raise ValueError("polynomial arity mismatch")
        q = p.divide_by_var(j)
        if q is None:
            raise ValueError(f"polynomial {j} is not divisible by x_{j}")
        lp = q.linear_parts()
        if lp is None:
            raise ValueError(f"cofactor of x_{j} is not affine-linear")
        const, coeffs = lp
        if any(coeffs[t] for t in range(j - 1)):
            raise ValueError(f"cofactor of x_{j} depends on earlier variables")
        if coeffs[j - 1] == 0:
            raise ValueError(f"cofactor of x_{j} is degenerate in x_{j}")
        quotients.append((const, coeffs))
    out = set()
    for mask in range(2**l):
        vals: list[Optional[Fraction]] = [None] * l
        for j in range(l, 0, -1):
            if mask >> (j - 1) & 1:
                const, coeffs = quotients[j - 1]
                rhs = -const
                for t in range(j, l):
                    rhs -= coeffs[t] * vals[t]
                vals[j - 1] = Fraction(rhs, coeffs[j - 1])
            else:
                vals[j - 1] = Fraction(0)
        out.add(FiniteWeight(tuple(vals)))
    return frozenset(out)


def dominant_integral_filter(
    weights: Iterable[FiniteWeight],
) -> frozenset[FiniteWeight]:
    return frozenset(w for w in weights if w.is_dominant_integral())


def affinize(mu: FiniteWeight, l: int) -> AffineWeight:
    """Lift to the affine weight at the studied level: eps-coordinates from
    the finite weight, no delta component, central coefficient -(2l+1)/2."""
    if mu.rank != l:
        raise ValueError("rank mismatch")
    return AffineWeight(mu.eps_coords, k0=level_for(l))


def admissibility_table(
    l: int,
) -> Iterator[tuple[FiniteWeight, AffineWeight, AdmissibilityReport]]:
    """(weight, affine lift, admissibility report) for every classified
    weight, in the order of `all_highest_weights`."""
    for w in all_highest_weights(l):
        lam = affinize(w, l)
        yield w, lam, check_admissible(lam)
