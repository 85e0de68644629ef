"""Exact-arithmetic verification of the twisted highest-weight classification
for the simple affine vertex algebra of sl(2l+1) at level -(2l+1)/2.

Subpackages cover the finite Lie algebra core (`liealg`), PBW calculus
(`envelope`), the level-k vacuum module (`vacuum`), the twisted zero-mode
projection (`twzhu`), the twisted affine root system and admissibility
(`affroots`), the integer weight table of the classification (`classify`),
and the batch check runner behind the ``a2l2`` command line tool (`checks`,
`cli`), over one sparse exact kernel (`linalg`).  The envelope's PBW algebra
is the split mode basis of `vacuum`, which `envelope` imports: one split basis
per rank serves both, computes its constants as they are read, and carries the
involution as its grading.

All arithmetic is exact: rational numbers throughout, each coefficient a
Python int when its value is integral and a Fraction otherwise, never a
float.  The classification half runs on ints alone: a weight is held by
its doubled coroot coordinates.

The package module holds what every command reads: the rank cap
(`A2L2_MAX_L`), the studied level as two ints and as text, the JSON
encoding of exact rationals and the one printer of an exact signed sum.
None of it needs `fractions`, so `classify` runs without loading it.
"""

from __future__ import annotations

import os
from math import gcd

__version__ = "0.1.0"

DEFAULT_MAX_RANK = 4


def max_rank() -> int:
    """Largest admitted rank; the A2L2_MAX_L environment variable sets it.

    Raises ValueError unless the variable is unset or an integer >= 1."""
    raw = os.environ.get("A2L2_MAX_L")
    if raw is None:
        return DEFAULT_MAX_RANK
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"A2L2_MAX_L must be an integer >= 1, got {raw!r}")
    return value


def validated_rank(l: int) -> int:
    """Return l if it is an admitted rank; raise ValueError otherwise."""
    cap = max_rank()
    if isinstance(l, bool) or not isinstance(l, int) or not 1 <= l <= cap:
        raise ValueError(
            f"rank must be an integer in 1..{cap}, got {l!r}"
            " (raise the cap with A2L2_MAX_L)"
        )
    return l


def level(l: int) -> tuple[int, int]:
    """The studied level -(2l+1)/2, as its numerator and denominator."""
    return -(2 * l + 1), 2


def level_string(l: int) -> str:
    """The studied level as text."""
    return "%d/%d" % level(l)


def _exact(x, d: int = 1) -> int | str:
    """JSON encoding of the exact rational x/d, for x an int or a Fraction
    and d a positive int: int when integral, else "p/q" in lowest terms."""
    p, q = x.numerator, x.denominator * d
    g = gcd(p, q)
    return p // g if q == g else f"{p // g}/{q // g}"


def _exact_list(vals, d: int = 1) -> list:
    return [_exact(v, d) for v in vals]


def format_sum(terms, d: int = 1) -> str:
    """Print (coefficient, label) pairs, in the given order, as a signed sum
    of coefficient/d times label.

    A coefficient of +-1 is dropped before a label, an empty label is the
    unit term (printed as its bare magnitude), and no terms print as "0".
    """
    pieces: list[str] = []
    for c, label in terms:
        mag = _exact(abs(c), d)
        if not label:
            body = str(mag)
        elif mag == 1:
            body = label
        else:
            body = f"{mag}*{label}"
        if pieces:
            pieces.append(f"- {body}" if c < 0 else f"+ {body}")
        else:
            pieces.append(f"-{body}" if c < 0 else body)
    return " ".join(pieces) if pieces else "0"
