"""Seeded generators of monad data, valid and deliberately invalid.

Exact rejection sampling essentially never hits the integrability
variety, so every family is built structurally: constraints are solved
by construction and the result is optionally scrambled by a random
group element (which preserves every property of interest).  Generation
is a pure function of the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Union

from .blowup import MonadDataBlowup, act2, blowup_defect
from .errors import InfeasibleSpec
from .field import ONE, QI, ZERO, Rat
from .matrix import (Matrix, _clear, _ZiMatrix, block, hstack, kernel_basis,
                     solve, vstack)
from .p2 import MonadDataP2, act

@dataclass(frozen=True)
class GenSpec:
    k: int
    r: int
    seed: int
    family: str

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InfeasibleSpec(f"unknown family {self.family!r}")
        if self.k < 0 or self.r < 1:
            raise InfeasibleSpec("need k >= 0 and r >= 1")


def _rand_qi(rng: random.Random, bound: int = 16) -> QI:
    # small denominators keep exact arithmetic cheap; imaginary parts
    # appear half the time
    den = rng.choice((1, 1, 2, 3))
    re = Rat(rng.randint(-bound, bound), den)
    if rng.random() < 0.5:
        return QI(re, 0)
    return QI(re, Rat(rng.randint(-bound, bound), den))


def _rand_matrix(rng: random.Random, rows: int, cols: int) -> Matrix:
    return Matrix(rows, cols, [_rand_qi(rng) for _ in range(rows * cols)])


def _rand_nonzero_qi(rng: random.Random) -> QI:
    while True:
        v = _rand_qi(rng, 4)
        if not v.is_zero():
            return v


def _rand_unitriangular(rng: random.Random, k: int, upper: bool) -> Matrix:
    M = [[ZERO] * k for _ in range(k)]
    for i in range(k):
        M[i][i] = ONE
        rng_range = range(i + 1, k) if upper else range(0, i)
        for j in rng_range:
            M[i][j] = _rand_qi(rng, 4)
    return Matrix.from_rows(M)


def random_invertible(rng: random.Random, k: int) -> Matrix:
    """Determinant-one invertible matrix (L U with unit diagonals)."""
    L = _ZiMatrix.of(_rand_unitriangular(rng, k, upper=False))
    return (L @ _ZiMatrix.of(_rand_unitriangular(rng, k, upper=True))).matrix()


# -- family builders ----------------------------------------------------

def _shift(n: int) -> Matrix:
    """Nilpotent single Jordan block: J e_j = e_{j-1}."""
    M = [[ZERO] * n for _ in range(n)]
    for i in range(n - 1):
        M[i][i + 1] = ONE
    return Matrix.from_rows(M)


def _orthogonal_to(rng: random.Random, u: Sequence[QI], j: int) -> List[QI]:
    """Random v with sum_t u_t v_t = 0: draw, zero v_j, then solve at j (u_j != 0)."""
    v = [_rand_qi(rng) for _ in u]
    v[j] = ZERO
    v[j] = -sum((x * y for x, y in zip(u, v)), ZERO) * u[j].inverse()
    return v


def _charge_one(rng: random.Random, k: int, r: int) -> MonadDataP2:
    if k != 1:
        raise InfeasibleSpec("charge_one means k = 1")
    if r < 2:
        raise InfeasibleSpec("charge_one needs r >= 2: b c = 0 with b, c != 0")
    a1 = _rand_matrix(rng, 1, 1)
    a2 = _rand_matrix(rng, 1, 1)
    b = Matrix(1, r, [_rand_qi(rng) for _ in range(r)])
    if b.is_zero():
        b = Matrix(1, r, [ONE] + [ZERO] * (r - 1))
    # c in the kernel of the pairing with b, nonzero
    j = next(t for t in range(r) if not b[0, t].is_zero())
    while True:
        cv = _orthogonal_to(rng, b.row_list(0), j)
        if any(not v.is_zero() for v in cv):
            break
    c = Matrix(r, 1, cv)
    return MonadDataP2(a1, a2, b, c)


def _commuting_points(rng: random.Random, k: int, r: int) -> MonadDataP2:
    m = MonadDataP2(
        Matrix.diagonal([_rand_qi(rng) for _ in range(k)]),
        Matrix.diagonal([_rand_qi(rng) for _ in range(k)]),
        Matrix.zeros(k, r), Matrix.zeros(r, k))
    return act(random_invertible(rng, k), m)


def _sylvester_solve(rng: random.Random, P: Matrix, Q: Matrix,
                     Y: Matrix) -> Optional[Matrix]:
    """Random solution X of P X - X Q = Y (particular + random kernel)."""
    h1, h2 = P.rows, Q.rows
    n = h1 * h2
    # row (i, j), column (a, b): the coefficient of X[a, b] in (P X - X Q)[i, j]
    L = Matrix(n, n, [(P[i, a] if j == b else ZERO) - (Q[b, j] if i == a else ZERO)
                      for i in range(h1) for j in range(h2)
                      for a in range(h1) for b in range(h2)])
    rhs = Matrix.column(Y.entries)
    x = solve(L, rhs)
    if x is None:
        return None
    ker = kernel_basis(L)
    if ker.dim:
        coeffs = Matrix.column([_rand_qi(rng, 4) for _ in range(ker.dim)])
        x = x + ker.basis @ coeffs
    return Matrix(h1, h2, [x[t, 0] for t in range(n)])


def _block_concentrated(rng: random.Random, k: int, r: int) -> MonadDataP2:
    """Two nilpotent Jordan-type diagonal blocks with coupling solved exactly.

    Shape: a_i = [[J_i, R_i], [0, J'_i]], b = [b1; 0], c = [0, c2]; every
    word product c . w(a1, a2) . b vanishes by the block structure, so
    the result is always concentrated at the origin.
    """
    h1 = (k + 1) // 2
    h2 = k - h1
    J1, J2p = _shift(h1), _shift(h2)
    # b1 columns along e_1, c2 rows along e_{h2}^T keeps the coupling solvable
    b1 = Matrix(h1, r, [(_rand_qi(rng) if i == 0 else ZERO)
                        for i in range(h1) for _ in range(r)])
    if b1.is_zero():
        b1 = Matrix(h1, r, [ONE if (i == 0 and j == 0) else ZERO
                            for i in range(h1) for j in range(r)])
    c2 = Matrix(r, h2, [(_rand_qi(rng) if j == h2 - 1 else ZERO)
                        for _ in range(r) for j in range(h2)])
    if c2.is_zero():
        c2 = Matrix(r, h2, [ONE if (i == 0 and j == h2 - 1) else ZERO
                            for i in range(r) for j in range(h2)])
    R1 = _rand_matrix(rng, h1, h2)
    # a2's diagonal blocks vanish, so integrability reduces to the
    # Sylvester equation J1 R2 - R2 J2' = -b1 c2
    R2 = _sylvester_solve(rng, J1, J2p, -(b1 @ c2))
    if R2 is None:
        # tiny blocks (k = 2) leave no room for the coupling; fall back to
        # a c2 row orthogonal to b1's top row, which always decouples
        u = b1.row_list(0)
        j = next((t for t in range(r) if not u[t].is_zero()), None)
        if r >= 2 and j is not None:
            v = _orthogonal_to(rng, u, j)
            if all(x.is_zero() for x in v):
                v[(j + 1) % r] = ONE
                v[j] = -u[(j + 1) % r] * u[j].inverse()
            c2 = Matrix(r, h2, [(v[i] if jj == h2 - 1 else ZERO)
                                for i in range(r) for jj in range(h2)])
        else:
            c2 = Matrix.zeros(r, h2)
        R2 = _sylvester_solve(rng, J1, J2p, -(b1 @ c2))
        if R2 is None:
            raise InfeasibleSpec("coupling equation unexpectedly unsolvable")
    Z21 = Matrix.zeros(h2, h1)
    a1 = block([[J1, R1], [Z21, J2p]])
    a2 = block([[Matrix.zeros(h1, h1), R2], [Z21, Matrix.zeros(h2, h2)]])
    b = vstack([b1, Matrix.zeros(h2, r)])
    c = hstack([Matrix.zeros(r, h1), c2])
    m = MonadDataP2(a1, a2, b, c)
    return act(random_invertible(rng, k), m)


def _orthogonal_bc(rng: random.Random, k: int, r: int):
    """b, c with b c = 0 (b supported on column 1, c vanishing on row 1)."""
    b = Matrix(k, r, [(_rand_qi(rng) if j == 0 else ZERO)
                      for _ in range(k) for j in range(r)])
    if r >= 2:
        c = Matrix(r, k, [(ZERO if i == 0 else _rand_qi(rng))
                          for i in range(r) for _ in range(k)])
    else:
        c = Matrix.zeros(r, k)
    return b, c


def _blowup_zero_d(rng: random.Random, k: int, r: int) -> MonadDataBlowup:
    a1 = random_invertible(rng, k)
    a2 = _rand_matrix(rng, k, k)
    b, c = _orthogonal_bc(rng, k, r)
    mt = MonadDataBlowup(a1, a2, Matrix.zeros(k, k), b, c)
    return act2(random_invertible(rng, k), random_invertible(rng, k), mt)


def _poly_in(rng: random.Random, M: _ZiMatrix) -> _ZiMatrix:
    """A random polynomial in M of degree below its size, on the integer form."""
    out = _ZiMatrix.zeros(M.rows, M.rows)
    power = _ZiMatrix.identity(M.rows)
    for _ in range(M.rows):
        (s,), den = _clear([_rand_qi(rng, 4)])
        out = out + power.scale(s, den)
        power = power @ M
    return out


def _blowup_generic(rng: random.Random, k: int, r: int) -> MonadDataBlowup:
    """a1 invertible, a2 = a1 p(d a1), b c = 0: integrability by construction."""
    a1 = random_invertible(rng, k)
    if rng.random() < 0.5:
        d = _rand_matrix(rng, k, k)
    else:
        # nilpotent d; d a1 need not be nilpotent, so in practice this
        # reaches the fully-degenerate stratum only at k <= 2 (d = 0 at k = 1)
        d = _rand_unitriangular(rng, k, upper=True) - Matrix.identity(k)
    A1 = _ZiMatrix.of(a1)
    a2 = (A1 @ _poly_in(rng, _ZiMatrix.of(d) @ A1)).matrix()
    b, c = _orthogonal_bc(rng, k, r)
    mt = MonadDataBlowup(a1, a2, d, b, c)
    return act2(random_invertible(rng, k), random_invertible(rng, k), mt)


def _invalid_integrability(rng: random.Random, k: int, r: int) -> MonadDataBlowup:
    if k == 0:
        raise InfeasibleSpec("cannot break integrability of 0x0 data")
    while True:
        mt = _blowup_generic(rng, k, r)
        # degenerate draws (a2 proportional to a1, c = 0) are immune to
        # d-perturbations, so fall through to perturbing c, then redraw
        for target in ("d", "c"):
            for _ in range(20):
                M = getattr(mt, target)
                i, j = rng.randrange(M.rows), rng.randrange(M.cols)
                delta = _rand_nonzero_qi(rng)
                entries = list(M.entries)
                entries[i * M.cols + j] = entries[i * M.cols + j] + delta
                bad = replace(mt, **{target: Matrix(M.rows, M.cols, entries)})
                if not blowup_defect(bad).is_zero():
                    return bad


# the seeded families and their builders, in the order the CLI lists them
_BUILDERS = {
    "charge_one": _charge_one,
    "commuting_points": _commuting_points,
    "block_concentrated": _block_concentrated,
    "blowup_zero_d": _blowup_zero_d,
    "blowup_generic": _blowup_generic,
    "invalid_integrability": _invalid_integrability,
}
FAMILIES = tuple(_BUILDERS)


def generate(spec: GenSpec) -> Union[MonadDataP2, MonadDataBlowup]:
    """Build the instance for a family; pure function of the seed."""
    return _BUILDERS[spec.family](random.Random(spec.seed), spec.k, spec.r)
