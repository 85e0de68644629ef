"""Classification layer: one integer table per rank of the 2^l candidate
highest weights of the even-part horizontal algebra so(2l+1), with their
dominance and admissibility.

A weight is held by its doubled coroot coordinates X = 2c, where c_i is
its value on h_i (i < l) and on hbar_l: integers, as every candidate has
c in (1/2)Z.  Its eps coordinates and the shifted 4(lam + rho) that the
admissibility decision reads each come from one suffix sum of X, and each
weight is rendered once per rank.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

from . import format_sum
from .affroots import AdmissibilityReport, check_admissible


def mu_weight(l: int, subset: Sequence[int], primed: bool) -> tuple[int, ...]:
    """The candidate highest weight attached to an increasing subset of
    {1..l-1}, as X = 2c: each chosen index i_j carries the fundamental weight
    w_{i_j} with coefficient i_j + 2*sum_{s>j} (-1)^{s-j} i_s +- (-1)^{k-j+1}
    shift, where the shift is l - 1/2 (unprimed) or l + 1/2 (primed); the
    primed weights additionally contain w_l."""
    if l < 1:
        raise ValueError("rank must be at least 1")
    idx = tuple(int(i) for i in subset)
    if any(not 1 <= i <= l - 1 for i in idx):
        raise ValueError("subset entries must lie in 1..l-1")
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError("subset must be strictly increasing")
    shift = 2 * l + 1 if primed else 2 * l - 1
    x = [0] * l
    alternating = 0  # sum_{s>j} (-1)^{s-j} i_s, from j = k down
    sign = -1  # (-1)^{k-j+1}
    for i in reversed(idx):
        x[i - 1] = 2 * i + 4 * alternating + sign * shift
        alternating, sign = -i - alternating, -sign
    if primed:
        x[l - 1] += 2
    return tuple(x)


@lru_cache(maxsize=None)
def all_highest_weights(l: int) -> tuple[tuple[int, ...], ...]:
    """All 2^l candidate weights: subsets of {1..l-1} in binary order, the
    unprimed weight before the primed one."""
    out = []
    for mask in range(2 ** (l - 1)):
        subset = tuple(i for i in range(1, l) if mask >> (i - 1) & 1)
        for primed in (False, True):
            out.append(mu_weight(l, subset, primed))
    return tuple(out)


def dominant_integral(x: Sequence[int]) -> bool:
    """Every coroot coordinate X_i / 2 is a nonnegative integer."""
    return all(c >= 0 and c % 2 == 0 for c in x)


def eps4(x: Sequence[int]) -> tuple[int, ...]:
    """4 (lam, eps_i) for i = 1..l, from m_l = c_l / 2 and m_j = c_j + m_{j+1}:
    4 m_l = X_l, then 4 m_j = 2 X_j + 4 m_{j+1} walking down."""
    out = list(x)
    for j in range(len(x) - 2, -1, -1):
        out[j] = 2 * x[j] + out[j + 1]
    return tuple(out)


def omega_string(x: Sequence[int]) -> str:
    """Render X/2 as a combination of fundamental weights w1..wl."""
    return format_sum(((c, f"w{i}") for i, c in enumerate(x, start=1) if c), 2)


@lru_cache(maxsize=None)
def weight_strings(l: int) -> tuple[str, ...]:
    """`omega_string` of each weight of `all_highest_weights(l)`, rendered
    once per rank for every check and command that prints weights."""
    return tuple(map(omega_string, all_highest_weights(l)))


def admissibility(x: Sequence[int]) -> AdmissibilityReport:
    """The admissibility report of the weight with X = x, lifted to the
    studied level.  rho has every coroot coordinate 1, so 4(lam + rho) =
    eps4(X + 2), which is 2(lam + rho) over the denominator 2."""
    return check_admissible(eps4([c + 2 for c in x]), 2)


def admissibility_table(
    l: int,
) -> Iterator[tuple[tuple[int, ...], AdmissibilityReport]]:
    """(X, admissibility report) for every classified weight, in the order
    of `all_highest_weights`."""
    for x in all_highest_weights(l):
        yield x, admissibility(x)
