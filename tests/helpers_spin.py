"""Independent oracle: the 2^l-dimensional spinor module of the even part.

Everything here is built from scratch on top of the matrix layer only:
Clifford generators act on an exterior algebra over the isotropic half of
C^(2l+1), and the quadratic expression in them represents the even part.
The construction is checked to be a Lie-algebra homomorphism and to have a
one-dimensional top weight line of weight (0,...,0,1) in the Cartan
coordinates (h_1..h_{l-1}, hbar_l).  Eigenvalues of envelope elements on
that line give reference values for the Cartan-polynomial machinery.

`eigen_ratio` is the bracket oracle for weights: the library reads them off
matrix entries instead.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from a2l2.liealg import (
    Matrix,
    b_type_generators,
    bracket,
    nu,
    split_basis,
)
from a2l2.linalg import Coeff, SpanSolver, exact, vec_add_into, vec_scale
from helpers_span import FractionSpan


def g0_basis(l: int) -> list[Matrix]:
    """Ordered basis of the even part: negative block, Cartan, positive block."""
    return list(split_basis(l)[0][: l * (2 * l + 1)])


def lin(*terms) -> Matrix:
    """The matrix sum of c * m over the (c, m) pairs, through the kernel."""
    out: Matrix = {}
    for c, m in terms:
        vec_add_into(out, m, c)
    return out


def eigen_ratio(image: Matrix, vec: Matrix) -> Coeff:
    """Scalar r with image = r*vec; raises if image is not a multiple.

    The oracle for weights read off matrix entries: the weight of x under
    h is `eigen_ratio(bracket(h, x), x)`, worked out from brackets."""
    if not image:
        return 0
    key = min(vec)
    r = exact(Fraction(image.get(key, 0), vec[key]))
    if image != vec_scale(vec, r):
        raise ValueError("not an eigenvector")
    return r


def split_pm(a: Matrix, n: int) -> tuple[Matrix, Matrix]:
    """Eigen-split a = plus + minus under the involution of gl(n), with
    plus = (a + nu(a))/2 fixed by it and minus = (a - nu(a))/2 negated."""
    na = nu(a, n)
    half = Fraction(1, 2)
    return lin((half, a), (half, na)), lin((half, a), (-half, na))


# ------------------------------------------------- QuadScalar matrix layer


class QuadScalar:
    """Exact element a + b*sqrt(2), the scalar type of the spinor matrices."""

    __slots__ = ("rat", "surd")

    def __init__(self, rat=0, surd=0) -> None:
        self.rat = Fraction(rat)
        self.surd = Fraction(surd)

    @staticmethod
    def _coerce(x) -> "QuadScalar | None":
        if isinstance(x, QuadScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return QuadScalar(Fraction(x))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadScalar(self.rat + o.rat, self.surd + o.surd)

    __radd__ = __add__

    def __neg__(self):
        return QuadScalar(-self.rat, -self.surd)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a + b s)(c + d s) = (ac + 2bd) + (ad + bc) s  with s^2 = 2
        return QuadScalar(
            self.rat * o.rat + 2 * self.surd * o.surd,
            self.rat * o.surd + self.surd * o.rat,
        )

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.rat) or bool(self.surd)

    def __eq__(self, other) -> bool:
        if isinstance(other, QuadScalar):
            return self.rat == other.rat and self.surd == other.surd
        try:
            r = Fraction(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.surd == 0 and self.rat == r

    def __hash__(self) -> int:
        if self.surd == 0:
            return hash(self.rat)
        return hash((self.rat, self.surd))

    def __repr__(self) -> str:
        return f"QuadScalar({self.rat!r}, {self.surd!r})"




def _mat_zero(d):
    return [[QuadScalar(0) for _ in range(d)] for _ in range(d)]


def _mat_identity(d, c=1):
    m = _mat_zero(d)
    for i in range(d):
        m[i][i] = QuadScalar(c)
    return m


def _mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _mat_scale(c, a):
    return [[x * c for x in row] for row in a]


def _mat_mul(a, b):
    d = len(a)
    out = _mat_zero(d)
    for i in range(d):
        for k in range(d):
            x = a[i][k]
            if not bool(x):
                continue
            for j in range(d):
                y = b[k][j]
                if bool(y):
                    out[i][j] = out[i][j] + x * y
    return out


def _mat_eq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _mat_vec(a, v):
    d = len(a)
    out = [QuadScalar(0) for _ in range(d)]
    for i in range(d):
        for j in range(d):
            if bool(a[i][j]) and bool(v[j]):
                out[i] = out[i] + a[i][j] * v[j]
    return out


# ----------------------------------------------------- vector-space layer


def _unit_vector(n, a):
    v = [Fraction(0)] * n
    v[a - 1] = Fraction(1)
    return v


def _lie_apply(x: Matrix, v):
    out = [Fraction(0)] * len(v)
    for (i, j), c in x.items():
        if v[j - 1]:
            out[i - 1] += c * v[j - 1]
    return out


def _symmetric_form(l, v, w):
    """The invariant symmetric form preserved by the even part, normalized
    so the middle coordinate vector has square length 1."""
    n = 2 * l + 1
    s = Fraction(0)
    for a in range(1, n + 1):
        if v[a - 1] and w[n - a]:
            s += (-1) ** a * v[a - 1] * w[n - a]
    return s if l % 2 == 1 else -s


# --------------------------------------------------------- Clifford layer


class _SpinData:
    def __init__(self, l: int) -> None:
        self.l = l
        n = 2 * l + 1
        d = 1 << l
        self.d = d
        # isotropic/central frame: creation directions u_i, annihilation
        # directions w_i paired with them, and the central direction z
        us = [_unit_vector(n, i) for i in range(1, l + 1)]
        ws = [
            [(-1) ** (i + l + 1) * c for c in _unit_vector(n, 2 * l + 2 - i)]
            for i in range(1, l + 1)
        ]
        z = _unit_vector(n, l + 1)
        self.us, self.ws, self.z = us, ws, z

        def ext_mat(i):
            m = _mat_zero(d)
            bit = 1 << (i - 1)
            for S in range(d):
                if not S & bit:
                    sign = -1 if bin(S & (bit - 1)).count("1") % 2 else 1
                    m[S | bit][S] = QuadScalar(0, sign)  # sqrt(2) * sign
            return m

        def con_mat(i):
            m = _mat_zero(d)
            bit = 1 << (i - 1)
            for S in range(d):
                if S & bit:
                    sign = -1 if bin(S & (bit - 1)).count("1") % 2 else 1
                    m[S ^ bit][S] = QuadScalar(0, sign)
            return m

        parity = _mat_zero(d)
        for S in range(d):
            parity[S][S] = QuadScalar(1 if bin(S).count("1") % 2 == 0 else -1)

        self.gam_u = [ext_mat(i) for i in range(1, l + 1)]
        self.gam_w = [con_mat(i) for i in range(1, l + 1)]
        self.gam_z = parity

        # Clifford relations against the Gram matrix of the frame
        frame = (
            [(u, g) for u, g in zip(us, self.gam_u)]
            + [(w, g) for w, g in zip(ws, self.gam_w)]
            + [(z, parity)]
        )
        for va, ga in frame:
            for vb, gb in frame:
                anti = _mat_add(_mat_mul(ga, gb), _mat_mul(gb, ga))
                want = _mat_identity(d, 2 * _symmetric_form(l, va, vb))
                assert _mat_eq(anti, want), "Clifford relation failed"

        # dual pairs (f_a, gamma(f^a)) for the quadratic representation map
        self.pairs = (
            [(u, g) for u, g in zip(us, self.gam_w)]
            + [(w, g) for w, g in zip(ws, self.gam_u)]
            + [(z, parity)]
        )

    def gamma_of(self, v):
        """Clifford matrix of an arbitrary rational vector."""
        coords = self.frame_coords(v)
        total = _mat_zero(self.d)
        gammas = self.gam_u + self.gam_w + [self.gam_z]
        for c, g in zip(coords, gammas):
            if c:
                total = _mat_add(total, _mat_scale(c, g))
        return total

    def frame_coords(self, v):
        l = self.l
        out = [v[i - 1] for i in range(1, l + 1)]
        out += [(-1) ** (i + l + 1) * v[2 * l + 1 - i] for i in range(1, l + 1)]
        out.append(v[l])
        # reconstruction check keeps the frame bookkeeping honest
        n = 2 * l + 1
        recon = [Fraction(0)] * n
        for c, b in zip(out, self.us + self.ws + [self.z]):
            for a in range(n):
                recon[a] += c * b[a]
        assert recon == [Fraction(x) for x in v], "frame decomposition failed"
        return out


@lru_cache(maxsize=None)
def _spin_data(l: int) -> _SpinData:
    return _SpinData(l)


def sigma_matrix(l: int, x: Matrix):
    """Spinor matrix of an even-part element."""
    data = _spin_data(l)
    total = _mat_zero(data.d)
    for f_vec, gamma_dual in data.pairs:
        xf = _lie_apply(x, f_vec)
        if any(xf):
            total = _mat_add(total, _mat_mul(data.gamma_of(xf), gamma_dual))
    return _mat_scale(Fraction(1, 4), total)


@lru_cache(maxsize=None)
def spin_basis_matrices(l: int):
    return [sigma_matrix(l, x) for x in g0_basis(l)]


@lru_cache(maxsize=None)
def _g0_coords_solver(l: int) -> FractionSpan:
    solver = FractionSpan()
    for x in g0_basis(l):
        assert solver.add(x)
    return solver


def _g0_coords(l: int, x: Matrix):
    v = _g0_coords_solver(l).coords(x)
    assert v is not None
    return v


@lru_cache(maxsize=None)
def verify_spin_homomorphism(l: int) -> bool:
    """sigma([x,y]) == [sigma(x), sigma(y)] over all basis pairs."""
    basis = g0_basis(l)
    mats = spin_basis_matrices(l)
    d = 1 << l
    for s in range(len(basis)):
        for t in range(s + 1, len(basis)):
            lhs = _mat_zero(d)
            for r, c in _g0_coords(l, bracket(basis[s], basis[t])).items():
                lhs = _mat_add(lhs, _mat_scale(c, mats[r]))
            rhs = _mat_sub(_mat_mul(mats[s], mats[t]), _mat_mul(mats[t], mats[s]))
            assert _mat_eq(lhs, rhs), f"homomorphism fails on pair {(s, t)}"
    return True


@lru_cache(maxsize=None)
def spin_highest_weight_checks(l: int) -> bool:
    """The full-subset line is the unique top line, of weight (0,..,0,1)."""
    raising = range(l * l + l, l * (2 * l + 1))
    mats = spin_basis_matrices(l)
    d = 1 << l
    hw = d - 1
    for s in raising:
        assert all(not bool(mats[s][r][hw]) for r in range(d))
    for i, h in enumerate(b_type_generators(l).h):
        m = sigma_matrix(l, h)
        expect = QuadScalar(1 if i == l - 1 else 0)
        assert m[hw][hw] == expect
        assert all(not bool(m[r][hw]) for r in range(d) if r != hw)
    # joint kernel of the raising block has dimension 1 over the quadratic
    # field; realify (a + b sqrt2 per coordinate) and count rational rank
    solver = SpanSolver()
    for s in raising:
        m = mats[s]
        for r in range(d):
            row_rat: dict = {}
            row_surd: dict = {}
            for c in range(d):
                x = m[r][c]
                if x.rat:
                    row_rat[("a", c)] = x.rat
                    row_surd[("b", c)] = x.rat
                if x.surd:
                    row_rat[("b", c)] = row_rat.get(("b", c), Fraction(0)) + 2 * x.surd
                    row_surd[("a", c)] = row_surd.get(("a", c), Fraction(0)) + x.surd
            solver.add({k: v for k, v in row_rat.items() if v})
            solver.add({k: v for k, v in row_surd.items() if v})
    assert 2 * d - solver.rank == 2, "top line is not one-dimensional"
    return True


def spin_matrix_of(l: int, u) -> list:
    """Spinor matrix of an envelope element (monomials of basis indices)."""
    mats = spin_basis_matrices(l)
    d = 1 << l
    total = _mat_zero(d)
    for word, c in u.items():
        m = _mat_identity(d)
        for idx in word:
            m = _mat_mul(m, mats[idx])
        total = _mat_add(total, _mat_scale(c, m))
    return total


def spin_hw_coefficient(l: int, u) -> Fraction:
    """Eigenvalue of a weight-zero envelope element on the top line."""
    mats = spin_basis_matrices(l)
    d = 1 << l
    hw = d - 1
    acc = [QuadScalar(0) for _ in range(d)]
    for word, c in u.items():
        v = [QuadScalar(0) for _ in range(d)]
        v[hw] = QuadScalar(1)
        for idx in reversed(word):
            v = _mat_vec(mats[idx], v)
        for r in range(d):
            acc[r] = acc[r] + v[r] * c
    assert all(not bool(acc[r]) for r in range(d) if r != hw), "not an eigenvector"
    out = acc[hw]
    assert out.surd == 0, "irrational eigenvalue"
    return out.rat
