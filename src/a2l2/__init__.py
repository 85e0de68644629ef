"""Exact-arithmetic verification of the twisted highest-weight classification
for the simple affine vertex algebra of sl(2l+1) at level -(2l+1)/2.

Subpackages cover the finite Lie algebra core (`liealg`), PBW calculus
(`envelope`), the level-k vacuum module (`vacuum`), the twisted zero-mode
projection (`twzhu`), the twisted affine root system and admissibility
(`affroots`), the weight classification (`classify`), and the batch check
runner behind the ``a2l2`` command line tool (`checks`, `cli`), over one
sparse exact kernel (`linalg`).

All arithmetic is exact: rational numbers throughout, each coefficient a
Python int when its value is integral and a Fraction otherwise, never a
float.
"""

from __future__ import annotations

__version__ = "0.1.0"
