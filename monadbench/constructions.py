"""Blowup tuples whose stratum verdict is known from their construction.

The seeded generators never reach the S0 "yes" answer or a failing-word
witness at k >= 3 (every ``blowup_generic`` draw stops at "da1 not
nilpotent"), so the classify workload builds these itself from the
package's public functions.

With d invertible, J the nilpotent shift (J e_j = e_{j-1}),
a1 = d^-1 J and a2 = d^-1 J^2, the pushed-forward pair is d a1 = J,
d a2 = J^2, both nilpotent; the blowup defect reduces to b c.  b has one
nonzero column v = d^-1 u with u_{k-1} != 0, so d b = u hits the top of
J's chain: [a1 | a2 | b] is surjective and the Krylov closure of d b is
all of W.  Then

- ``s0``:    c = 0, so the tuple lies in S0 with krylov_dim = k;
- ``word0``: c = [0; w] with w.v = 0 (so c b = 0) and w.u != 0, so the
  empty word already fails: c . d b != 0;
- ``word1``: additionally w.u = 0 and w.J u != 0, so the shortest failing
  word is (1,).

In every case b c = 0 because c's first row vanishes, so the tuple is
integrable.  A random GL(W0) x GL(W1) element then scrambles the tuple;
the verdict and its witness are invariant under that action.
"""

from __future__ import annotations

import random

KINDS = ("s0", "word0", "word1")


def _gauss(mc, rng: random.Random, bound: int = 3):
    return mc.qi(rng.randint(-bound, bound), rng.randint(-bound, bound))


def _nonzero_gauss(mc, rng: random.Random):
    while True:
        v = _gauss(mc, rng)
        if not v.is_zero():
            return v


def _unitriangular(mc, rng: random.Random, k: int, upper: bool):
    return mc.Matrix(k, k, [
        mc.qi(1) if i == j else
        (_gauss(mc, rng, 2) if (j > i) == upper else mc.qi(0))
        for i in range(k) for j in range(k)])


def random_invertible(mc, rng: random.Random, k: int):
    """Unit lower times unit upper triangular: determinant one."""
    return _unitriangular(mc, rng, k, False) @ _unitriangular(mc, rng, k, True)


def _dot(x, y):
    """Bilinear pairing of a row and a column (no conjugation)."""
    return (x @ y)[0, 0]


def build(mc, kind: str, k: int, r: int, rng: random.Random):
    """A valid blowup tuple of the given kind (k >= 3, r >= 2)."""
    if kind not in KINDS or k < 3 or r < 2:
        raise ValueError(f"no construction for {kind!r} at k={k}, r={r}")
    zero = mc.qi(0)
    d = random_invertible(mc, rng, k)
    dinv = mc.inverse(d)
    J = mc.Matrix(k, k, [mc.qi(1) if j == i + 1 else zero
                         for i in range(k) for j in range(k)])
    u = mc.Matrix.column([_gauss(mc, rng) for _ in range(k - 1)]
                         + [_nonzero_gauss(mc, rng)])
    v = dinv @ u
    b = mc.Matrix(k, r, [v[i, 0] if j == 0 else zero
                         for i in range(k) for j in range(r)])
    if kind == "s0":
        c = mc.Matrix.zeros(r, k)
    else:
        # w ranges over the solutions of the linear conditions on it; redraw
        # until the required product is nonzero
        conds = [v] if kind == "word0" else [v, u]
        target = u if kind == "word0" else J @ u
        space = mc.kernel_basis(mc.hstack(conds).transpose())
        while True:
            coeffs = mc.Matrix.column([_gauss(mc, rng) for _ in range(space.dim)])
            w = (space.basis @ coeffs).transpose()
            if not _dot(w, target).is_zero():
                break
        c = mc.Matrix(r, k, [w[0, j] if i == 1 else zero
                             for i in range(r) for j in range(k)])
    mt = mc.MonadDataBlowup(dinv @ J, dinv @ J @ J, d, b, c)
    return mc.act2(random_invertible(mc, rng, k), random_invertible(mc, rng, k), mt)


def expected(kind: str, k: int) -> dict:
    """The StratumReport fields the construction fixes (d a1 ~ J, d a2 ~ J^2)."""
    witness = {"s0": None, "word0": (), "word1": (1,)}[kind]
    return {"is_s0": kind == "s0", "krylov_dim": k, "witness": witness,
            "nilpotency": (("da1", k), ("da2", (k + 1) // 2))}
