"""The fraction-free elimination kernel against the QI Gauss-Jordan oracle.

``rref``, ``rank``, ``solve``, ``inverse``, ``kernel_basis`` and
``Subspace.from_span``, which all build one ``matrix._Echelon``, must
give exactly what the same functions built on ``matrix_oracle.rref``
give: on random shapes (empty, all-zero, rank-deficient, identity
blocks, later rows with earlier Gaussian pivots, rows with content > 1
or a factor 1 + i, zero, repeated and dependent rows), on entries with
200-bit numerators and on a rung of the height ladder, on every matrix
they receive while the seeded families run, and on hypothesis-drawn
small matrices.  While the seeded families run, the rank, solve and
inverse of the integer form ``matrix._ZiMatrix`` and the subspaces that
the closure spin reads off its echelon are checked the same way.  The
group actions ``act`` and ``act2`` and the generators
``random_invertible`` and ``_poly_in``, which run on the integer form,
must give the ``QI`` products of ``matrix_oracle`` on raw random tuples
and on hypothesis draws, and raise the same typed errors.  ``_invariant_split`` and ``p2._split``, the
reduction's basis changes on the integer form, must give the oracle's
``QI`` basis changes on the special subspaces of the seeded plane
families and on raw block triangular families, and ``joint_spectrum``
must reject a pair exactly when its ``QI`` commutator is nonzero.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matrix_oracle as oracle
from conftest import (family_instances, random_raw_blowup, random_raw_p2,
                      raw_blowup_tuples, raw_p2_tuples, rng)
from monadcalc import matrix
from monadcalc.blowup import (BlowupPoint, MonadDataBlowup, act2,
                              fiber_projection_check)
from monadcalc.eigen import joint_spectrum
from monadcalc.errors import (DimensionMismatch, InfeasibleSpec,
                              InvariantViolation, IrrationalSpectrum,
                              MonadcalcError, NonCommuting, NonSquareMatrix,
                              SingularGroupElement)
from monadcalc.field import I, ONE, QI, ZERO, qi
from monadcalc.generate import GenSpec, _poly_in, generate, random_invertible
from monadcalc.matrix import (Matrix, Subspace, _invariant_split, _ZiMatrix,
                              hstack, inverse, kernel_basis, rank, rref, solve)
from monadcalc.p2 import (MonadDataP2, ProjectivePoint, _split, act,
                          canonical_reduction, max_c_special, min_b_special)
from monadcalc.stratify import classify_s0, pushforward
from monadcalc.trivialize import verify_trivialization
from test_trivialize_oracle import _bits, _height_rung

ELIMINATION = ("rref", "rank", "solve", "inverse", "kernel_basis")


def _assert_matches_oracle(name, args, out=None):
    if out is None:
        out = getattr(matrix, name)(*args)
    assert out == getattr(oracle, name)(*args), (name, args)


def _assert_all_match(M, B):
    """Every elimination entry point on M (and the right-hand side B),
    and the span of M's columns."""
    for name in ("rref", "rank", "kernel_basis"):
        _assert_matches_oracle(name, (M,))
    assert Subspace.from_span(M) == oracle.from_span(M), M
    _assert_matches_oracle("solve", (M, B))
    if M.is_square():
        _assert_matches_oracle("inverse", (M,))


def _entry(r_, bits=4):
    if r_.random() < 0.3:
        return ZERO
    im = r_.randint(-2 ** bits, 2 ** bits) if r_.random() < 0.6 else 0
    return qi(Fraction(r_.randint(-2 ** bits, 2 ** bits), r_.choice((1, 1, 2, 3, 4))),
              Fraction(im, r_.choice((1, 2, 5))))


def _matrix(r_, rows, cols, **kw):
    return Matrix(rows, cols, [_entry(r_, **kw) for _ in range(rows * cols)])


# factors whose rows have content > 1 over Z[i], or a factor 1 + i
CONTENTS = (qi(6), qi(1, 1), qi(3, -3), qi(0, 2), qi(-5, 10))


def _random_case(r_, rows, cols):
    kind = r_.choice(("dense", "low rank", "zero", "identity block",
                      "late pivots", "scaled rows", "repeated rows"))
    if kind == "low rank" and rows and cols:
        k = r_.randint(1, min(rows, cols))
        return _matrix(r_, rows, k) @ _matrix(r_, k, cols)
    if kind == "zero":
        return Matrix.zeros(rows, cols)
    if kind == "identity block" and rows and cols:
        k = min(rows, cols)
        eye = Matrix.identity(k)
        if rows > k:
            return matrix.vstack([eye, _matrix(r_, rows - k, cols)])
        return hstack([_matrix(r_, rows, cols - k), eye]) if cols > k else eye
    if kind == "late pivots" and rows and cols:
        # a row echelon form, last row first: each row has an earlier pivot
        # than the rows before it, so each updates every row kept before
        # it, and the Gaussian pivots make those updates divide by them
        leads = sorted(r_.sample(range(cols), min(rows, cols)))
        out = [[ZERO] * s + [qi(r_.randint(-5, 5) or 1, r_.randint(1, 5))]
               + [_entry(r_) for _ in range(cols - s - 1)] for s in leads]
        out += [[ZERO] * cols] * (rows - len(out))
        return Matrix.from_rows(out[::-1])
    if kind == "scaled rows":
        M = _matrix(r_, rows, cols)
        return Matrix(rows, cols, [M[i, j] * CONTENTS[i % len(CONTENTS)]
                                   for i in range(rows) for j in range(cols)])
    if kind == "repeated rows" and rows:
        # zero, repeated and dependent rows of a few random ones
        pool = [_matrix(r_, 1, cols) for _ in range(r_.randint(1, 2))]
        pool += [Matrix.zeros(1, cols), pool[0].scale(r_.choice(CONTENTS)),
                 pool[0] + pool[-1]]
        return matrix.vstack([r_.choice(pool) for _ in range(rows)])
    return _matrix(r_, rows, cols)


def _rhs(r_, M):
    """A right-hand side for M: consistent (M X) or random."""
    nrhs = r_.randint(0, 3)
    if r_.random() < 0.5:
        return M @ _matrix(r_, M.cols, nrhs)
    return _matrix(r_, M.rows, nrhs)


# -- random shapes ------------------------------------------------------

def test_random_shapes_match_oracle():
    r_ = rng(80)
    shapes = [(0, n) for n in range(4)] + [(n, 0) for n in range(4)]
    shapes += [(r_.randint(1, 9), r_.randint(1, 12)) for _ in range(160)]
    shapes += [(n, n) for n in range(1, 10) for _ in range(4)]
    for rows, cols in shapes:
        M = _random_case(r_, rows, cols)
        _assert_all_match(M, _rhs(r_, M))


def test_integer_form_matches_qi_arithmetic():
    """``matrix._ZiMatrix`` converts back exactly, agrees with ``Matrix``
    on products, differences, scaling and stacks, keeps one form per
    value, and its rank and solve, and the module's rref, agree with the
    oracle."""
    Z = matrix._ZiMatrix
    r_ = rng(84)
    for _ in range(80):
        rows, cols = r_.randint(0, 6), r_.randint(0, 6)
        M, N = _random_case(r_, rows, cols), _random_case(r_, rows, cols)
        P, B = _matrix(r_, cols, r_.randint(0, 3)), _rhs(r_, M)
        zM = Z.of(M)
        assert zM.matrix() == M
        assert (zM @ Z.of(P)).matrix() == M @ P
        assert (zM + Z.of(N)).matrix() == M + N
        assert (zM - Z.of(N)).matrix() == M - N
        assert (-zM).matrix() == -M
        g, e = (r_.randint(-9, 9), r_.randint(-9, 9)), r_.randint(1, 9)
        assert zM.scale(g, e).matrix() == M.scale(
            qi(Fraction(g[0], e), Fraction(g[1], e)))
        assert zM.scale((3, 0), 3) == zM
        assert (zM == Z.of(N)) == (M == N)
        assert Z.hstack([zM, Z.of(B)]).matrix() == hstack([M, B])
        assert Z.vstack([zM, Z.of(N)]).matrix() == matrix.vstack([M, N])
        assert zM.rank() == oracle.rank(M)
        assert rref(M) == oracle.rref(M)
        r, X = zM.solve(Z.of(B))
        expected = oracle.solve(M, B)
        assert r == oracle.rank(M)
        assert (X is None) == (expected is None)
        assert X is None or X.matrix() == expected
        if rows == cols:
            Xinv = zM.inverse()
            assert (None if Xinv is None else Xinv.matrix()) == oracle.inverse(M)


def test_large_entries_match_oracle():
    """200-bit numerators over mixed denominators, Gaussian and real."""
    r_ = rng(81)
    dens = (1, 3, 2 ** 61 - 1, r_.getrandbits(64) | 1, 10 ** 20)

    def big():
        if r_.random() < 0.2:
            return ZERO
        re = Fraction(r_.getrandbits(200) - 2 ** 199, r_.choice(dens))
        im = Fraction(r_.getrandbits(200) - 2 ** 199, r_.choice(dens))
        return qi(re, im if r_.random() < 0.5 else 0)

    for _ in range(12):
        rows, cols = r_.randint(1, 6), r_.randint(1, 7)
        M = Matrix(rows, cols, [big() for _ in range(rows * cols)])
        if r_.random() < 0.4 and rows > 1:  # repeat a row: rank deficient
            M = matrix.vstack([M, Matrix(1, cols, M.row_list(0)).scale(qi(3, -1))])
        B = Matrix(M.rows, 2, [big() for _ in range(2 * M.rows)])
        _assert_all_match(M, B)
        n = min(rows, cols)
        _assert_matches_oracle("inverse", (Matrix(n, n, [big() for _ in range(n * n)]),))
    # one row over 10^20 and the others integral: the common denominator
    # scales every other row by 10^20 until its gcd is divided out
    for rows, cols in [(3, 3), (4, 6), (5, 4)]:
        ints = [qi(r_.randint(-9, 9), r_.randint(-9, 9)) for _ in range(rows * cols)]
        M = matrix.vstack([Matrix(rows - 1, cols, ints[cols:]), Matrix(1, cols, [
            qi(Fraction(r_.getrandbits(70) - 2 ** 69, 10 ** 20)) for _ in range(cols)])])
        _assert_all_match(M, Matrix(rows, 1, ints[:rows]))
    # a rung of the height ladder: tuples acted on by a g with 10-digit
    # Gaussian-integer entries, over 200 bits
    for m in _height_rung():
        assert _bits(m) > 200
        for M, B in ((m.a1, m.b), (m.a2, m.b), (m.c, m.c @ m.b),
                     (hstack([m.a1, m.a2, m.b]), m.b)):
            _assert_all_match(M, B)


def test_echelon_updates_match_oracle():
    """Rows that take ``matrix._Echelon`` down each of its paths: each
    later row with an earlier pivot, Gaussian pivots (the division by a d
    with a nonzero imaginary part), rows with content 6, 1 + i or
    3 (1 - i), and zero, repeated and dependent rows.  The kept rows stay
    d times their RREF rows, in pivot order."""
    c = qi(1, 2)
    late = Matrix.from_rows([[0, 0, 0, c], [0, 0, qi(0, 3), 1],
                             [0, qi(2, 1), 1, qi(-1, 1)], [qi(1, -3), 1, 0, 1]])
    cases = [
        late,
        Matrix.from_rows([[6 * x for x in late.row_list(0)],
                          [x * qi(1, 1) for x in late.row_list(1)],
                          [x * qi(3, -3) for x in late.row_list(2)]]),
        Matrix.from_rows([[0, 0, 0, 0], late.row_list(1), late.row_list(1),
                          [x * qi(1, 1) for x in late.row_list(1)],
                          [x + y for x, y in zip(late.row_list(0), late.row_list(1))],
                          late.row_list(3)]),
        Matrix.from_rows([[qi(2, 2), qi(0, 4)], [qi(1, 1), qi(1, 1)]]),
    ]
    for M in cases:
        _assert_all_match(M, M @ Matrix.column([1, I, 0, 2][:M.cols]))
        _assert_matches_oracle("inverse", (M.submatrix(range(2), range(2)),))
        E = matrix._Echelon(M.cols, _ZiMatrix.of(M)._rows())
        R, pivots = oracle.rref(M)
        assert tuple(E.pivots) == pivots
        d = qi(*E.d)
        for row, i in zip(E.rows, range(len(pivots))):
            assert [qi(*x) for x in row] == [d * x for x in R.row_list(i)]
    assert qi(*matrix._Echelon(4, _ZiMatrix.of(late)._rows()).d).im != 0


def test_inconsistent_and_singular_give_none():
    A = Matrix.from_rows([[1, 2, 0], [2, 4, 0], [0, 0, qi(0, 1)]])
    assert solve(A, Matrix.column([1, 3, 0])) is None
    assert solve(A, Matrix.column([1, 2, 5])) == Matrix.column([1, 0, qi(0, -5)])
    assert solve(Matrix.zeros(2, 0), Matrix.column([0, 1])) is None
    assert inverse(A) is None
    assert inverse(Matrix.zeros(3, 3)) is None
    assert inverse(Matrix.from_rows([[ONE, qi(0, 1)], [qi(0, 1), -ONE]])) is None
    _assert_matches_oracle("solve", (A, Matrix.column([1, 3, 0])))
    _assert_matches_oracle("inverse", (A,))


# -- group actions and generators on the integer form -------------------

def _outcome(fn, *args):
    """The value of fn(*args), or the type of the error it raises."""
    try:
        return fn(*args)
    except MonadcalcError as exc:
        return type(exc)


def test_actions_match_qi_formulas():
    """act and act2 on raw random tuples (k = 0-4), by random invertible,
    dense, low-rank, zero and identity-block group elements."""
    r_ = rng(86)
    for m in raw_p2_tuples(40, seed=86):
        for g in (random_invertible(r_, m.k), _random_case(r_, m.k, m.k)):
            assert _outcome(act, g, m) == _outcome(oracle.act, g, m)
    for mt in raw_blowup_tuples(40, seed=87):
        for g0, g1 in ((random_invertible(r_, mt.k), random_invertible(r_, mt.k)),
                       (_random_case(r_, mt.k, mt.k), random_invertible(r_, mt.k)),
                       (random_invertible(r_, mt.k), _random_case(r_, mt.k, mt.k))):
            assert _outcome(act2, g0, g1, mt) == _outcome(oracle.act2, g0, g1, mt)


def test_generators_match_qi_formulas():
    """random_invertible and _poly_in give the QI products of the same
    draws and leave the generator in the same state."""
    Z = matrix._ZiMatrix
    for k in range(7):
        for seed in range(6):
            ours, theirs = rng(seed), rng(seed)
            assert random_invertible(ours, k) == oracle.random_invertible(theirs, k)
            M = _random_case(rng(100 + seed), k, k)
            assert _poly_in(ours, Z.of(M)).matrix() == \
                oracle.poly_in(theirs, M)
            assert ours.getstate() == theirs.getstate()


def test_actions_raise_typed_errors():
    m, mt = random_raw_p2(rng(88), 2, 1), random_raw_blowup(rng(89), 2, 1)
    eye, singular = Matrix.identity(2), Matrix.from_rows([[1, 2], [2, 4]])
    cases = [
        (SingularGroupElement, act, (singular, m)),
        (SingularGroupElement, act2, (singular, eye, mt)),
        (SingularGroupElement, act2, (eye, singular, mt)),
        (NonSquareMatrix, act, (Matrix.zeros(2, 3), m)),
        (NonSquareMatrix, act2, (eye, Matrix.zeros(3, 2), mt)),
        (DimensionMismatch, act, (Matrix.identity(3), m)),
        (DimensionMismatch, act2, (Matrix.identity(3), Matrix.identity(3), mt)),
        (DimensionMismatch, act2, (eye, Matrix.identity(1), mt)),
    ]
    for error, fn, args in cases:
        with pytest.raises(error):
            fn(*args)


# -- matrices the seeded families eliminate -----------------------------

def _recording(monkeypatch, names):
    """Wrap ``names`` of monadcalc.matrix in every package module that
    binds them; returns the list of (name, args, result) they see."""
    seen = []
    for name in names:
        fn = getattr(matrix, name)

        def wrapper(*args, _fn=fn, _name=name):
            out = _fn(*args)
            seen.append((_name, args, out))
            return out

        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("monadcalc")
                    and getattr(mod, name, None) is fn):
                monkeypatch.setattr(mod, name, wrapper)
    return seen


def _recording_integer_form(monkeypatch, seen):
    """Record the eliminations of ``matrix._ZiMatrix`` into ``seen`` as
    the ``rank``, ``solve`` and ``inverse`` calls on ``Matrix`` values
    they stand for."""
    Z = matrix._ZiMatrix
    real_rank, real_solve, real_inverse = Z.rank, Z.solve, Z.inverse

    def rank_(A):
        out = real_rank(A)
        seen.append(("rank", (A.matrix(),), out))
        return out

    def solve_(A, B):
        r, X = real_solve(A, B)
        seen.append(("rank", (A.matrix(),), r))
        seen.append(("solve", (A.matrix(), B.matrix()),
                     None if X is None else X.matrix()))
        return r, X

    def inverse_(A):
        X = real_inverse(A)
        seen.append(("inverse", (A.matrix(),), None if X is None else X.matrix()))
        return X

    monkeypatch.setattr(Z, "rank", rank_)
    monkeypatch.setattr(Z, "solve", solve_)
    monkeypatch.setattr(Z, "inverse", inverse_)


def _recording_echelon_spans(monkeypatch, seen):
    """Record each subspace read off a ``matrix._Echelon`` (the closure
    spin's) into ``seen`` as the ``from_span`` call of the vectors that
    were added to it, kept or not."""
    E = matrix._Echelon
    real_init, real_add, real_subspace = E.__init__, E.add, E.subspace
    added = {}

    def init_(self, cols, rows=()):
        added[id(self)] = []
        real_init(self, cols, rows)

    def add_(self, v):
        added[id(self)].append(v)
        return real_add(self, v)

    def subspace_(self):
        out = real_subspace(self)
        vs = added[id(self)]
        columns = _ZiMatrix(len(vs), self.cols, [x for v in vs for x in v])
        seen.append(("from_span", (columns.matrix().transpose(),), out))
        return out

    monkeypatch.setattr(E, "__init__", init_)
    monkeypatch.setattr(E, "add", add_)
    monkeypatch.setattr(E, "subspace", subspace_)


def test_seeded_family_eliminations_match_oracle(monkeypatch):
    seen = _recording(monkeypatch, ELIMINATION)
    # trivialization and the reduction's basis changes eliminate on the
    # integer form, and the closures read their subspaces off the echelon
    _recording_integer_form(monkeypatch, seen)
    _recording_echelon_spans(monkeypatch, seen)
    for m in family_instances("block_concentrated", 12, seed=3):
        verify_trivialization(m, n_samples=2)
        canonical_reduction(m)
    for m in family_instances("commuting_points", 5, seed=3):
        canonical_reduction(m)
    off = BlowupPoint.over(ProjectivePoint(1, 2, 1))
    for mt in family_instances("blowup_generic", 5, seed=3):
        classify_s0(mt)
        fiber_projection_check(mt, off)
        try:
            canonical_reduction(pushforward(mt))
        except IrrationalSpectrum:
            pass
    # no package path calls the module's rref: it is checked on its own
    # inputs above
    assert {name for name, _, _ in seen} == \
        set(ELIMINATION) - {"rref"} | {"from_span"}
    checked = set()
    for name, args, out in seen:
        if (name, args) not in checked:
            checked.add((name, args))
            _assert_matches_oracle(name, args, out)
    assert len(checked) > 200


def test_basis_extension_matches_oracle_on_reduce_blocks(monkeypatch):
    """basis_extension reads the pivots off the canonical basis; the
    oracle finds them by an rref of its transpose."""
    seen = _recording(monkeypatch, ("basis_extension",))
    for family in ("commuting_points", "block_concentrated", "charge_one"):
        for m in family_instances(family, 12, seed=5):
            canonical_reduction(m)
    assert len(seen) > 30
    assert any(space.dim > 1 for _, (space,), _ in seen)
    for _, (space,), out in seen:
        assert out == oracle.basis_extension(space)


# -- the reduction's basis changes and commutation test -----------------

def _split_forms(mats, space):
    """``_invariant_split`` of the integer forms of ``mats``, its results
    converted back to ``Matrix`` values."""
    P, Pinv, tops, bottoms = _invariant_split([_ZiMatrix.of(M) for M in mats],
                                              space)
    return (P.matrix(), Pinv.matrix(), [T.matrix() for T in tops],
            [B.matrix() for B in bottoms])


def test_invariant_split_matches_oracle_on_special_subspaces():
    """V_c of each seeded plane tuple (k = 0-6) and V_b of what is left
    after V_c splits off: the same P, P^-1, tops and bottoms, and
    ``p2._split`` gives the QI formulas' two tuples."""
    dims = set()
    for family in ("block_concentrated", "commuting_points", "charge_one"):
        for k in range(7):
            for r, seed in ((1, 11), (2, 12), (3, 13)):
                try:
                    m = generate(GenSpec(k=k, r=r, seed=seed, family=family))
                except InfeasibleSpec:
                    continue
                Vc = max_c_special(m)
                quotient = _split(m, Vc)[1]
                assert (_split(m, Vc)[0], quotient) == oracle.split(m, Vc)
                Vb = min_b_special(quotient)
                assert _split(quotient, Vb) == oracle.split(quotient, Vb)
                for t, V in ((m, Vc), (quotient, Vb)):
                    mats = [t.a1, t.a2]
                    assert _split_forms(mats, V) == \
                        oracle.invariant_split(mats, V)
                    dims.add((V.dim, V.ambient_dim))
    assert any(0 < d < n for d, n in dims)


def test_invariant_split_matches_oracle_on_raw_families():
    """Families of one to three raw matrices made block upper triangular
    and conjugated by a random invertible g split along g's first columns
    as the oracle splits them; along a random subspace, both raise
    InvariantViolation exactly when it is not invariant."""
    r_ = rng(90)
    raised = kept = 0
    for _ in range(80):
        n = r_.randint(0, 6)
        d = r_.randint(0, n)
        g = random_invertible(r_, n)
        ginv = oracle.inverse(g)
        mats = []
        for _ in range(r_.randint(1, 3)):
            T = _random_case(r_, n, n)
            T = Matrix(n, n, [ZERO if i >= d and j < d else T[i, j]
                              for i in range(n) for j in range(n)])
            mats.append(g @ T @ ginv)
        V = Subspace.from_span(g.submatrix(range(n), range(d)))
        assert _split_forms(mats, V) == oracle.invariant_split(mats, V)
        W = matrix.column_space(_matrix(r_, n, r_.randint(0, n)))
        out = _outcome(_split_forms, mats, W)
        assert out == _outcome(oracle.invariant_split, mats, W)
        raised += out is InvariantViolation
        kept += out is not InvariantViolation and 0 < W.dim < n
    assert raised > 10 and kept > 0


def test_joint_spectrum_rejects_exactly_the_non_commuting_pairs():
    """Raw pairs, commuting pairs (a matrix and a polynomial in it, the
    seeded commuting_points pairs) and pairs with a zero or a repeated
    member: NonCommuting exactly when the QI commutator is nonzero."""
    r_ = rng(91)
    pairs = [(m.a1, m.a2) for m in raw_p2_tuples(40, seed=91)]
    for _ in range(20):
        n = r_.randint(0, 4)
        M = _random_case(r_, n, n)
        pairs += [(M, oracle.poly_in(r_, M)), (M, M),
                  (M, Matrix.zeros(M.rows, M.rows))]
    pairs += [(m.a1, m.a2) for m in family_instances("commuting_points", 10, seed=91)]
    rejected = 0
    for A, B in pairs:
        try:
            joint_spectrum([A, B])
            out = False
        except NonCommuting:
            out = True
        except IrrationalSpectrum:
            out = False
        assert out == (not (A @ B - B @ A).is_zero()), (A, B)
        rejected += out
    assert 10 < rejected < len(pairs) - 40


# -- properties of the kernel -------------------------------------------

def test_rank_constructs_no_qi(monkeypatch):
    r_ = rng(82)
    mats = [_matrix(r_, 6, 7), _matrix(r_, 3, 5) @ _matrix(r_, 5, 4),
            Matrix.zeros(2, 3), Matrix.identity(4)]
    made = []
    init = QI.__init__

    def counting(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(QI, "__init__", counting)
    ranks = [rank(M) for M in mats]
    assert made == []
    monkeypatch.undo()
    assert ranks == [oracle.rank(M) for M in mats] == [6, 3, 0, 4]


class _Opaque:
    """A rational that offers nothing but ``numerator`` and
    ``denominator``, the whole interface the kernel may use."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, q):
        self.numerator, self.denominator = q.numerator, q.denominator

    def __eq__(self, other):
        raise TypeError("opaque rational compared")

    __hash__ = None


def _opaque(M):
    def entry(x):
        y = object.__new__(QI)
        y.re, y.im = _Opaque(x.re), _Opaque(x.im)
        return y
    return Matrix(M.rows, M.cols, [entry(x) for x in M.entries])


def test_kernel_reads_only_numerator_and_denominator():
    """Another rational type (gmpy2's mpq) works in the kernel unchanged."""
    r_ = rng(83)
    for _ in range(10):
        n = r_.randint(1, 5)
        M = _random_case(r_, n, n)
        B = _matrix(r_, n, 2)
        assert rref(_opaque(M)) == oracle.rref(M)
        assert rank(_opaque(M)) == oracle.rank(M)
        assert solve(_opaque(M), _opaque(B)) == oracle.solve(M, B)
        assert inverse(_opaque(M)) == oracle.inverse(M)


# -- hypothesis ---------------------------------------------------------

_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)
_entries = st.one_of(st.just(ZERO), st.just(ONE),
                     st.builds(QI, _rationals, _rationals),
                     st.builds(QI, _rationals))


def _shaped(rows, cols):
    return st.lists(_entries, min_size=rows * cols, max_size=rows * cols).map(
        lambda entries: Matrix(rows, cols, entries))


@st.composite
def _matrices(draw, max_rows=5, max_cols=6):
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    return draw(_shaped(rows, cols))


@settings(max_examples=150, deadline=None, database=None)
@given(_matrices(), st.data())
def test_hypothesis_matrices_match_oracle(M, data):
    rows, cols = data.draw(st.sampled_from([(M.rows, 1), (M.rows, 2)]))
    B = data.draw(_shaped(rows, cols))
    _assert_all_match(M, B)
    R, pivots = rref(M)
    assert rref(R) == (R, pivots)
    assert all(R[i, p] == ONE for i, p in enumerate(pivots))
    assert (M @ kernel_basis(M).basis).is_zero()


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(0, 4), st.integers(1, 3), st.data())
def test_hypothesis_actions_match_qi_formulas(k, r, data):
    """act, act2 and _poly_in on drawn tuples and group elements; the
    entries include 0 and 1, so singular group elements occur."""
    def draw(rows, cols):
        return data.draw(_shaped(rows, cols))

    g0, g1 = draw(k, k), draw(k, k)
    m = MonadDataP2(draw(k, k), draw(k, k), draw(k, r), draw(r, k))
    mt = MonadDataBlowup(m.a1, m.a2, draw(k, k), m.b, m.c)
    assert _outcome(act, g0, m) == _outcome(oracle.act, g0, m)
    assert _outcome(act2, g0, g1, mt) == _outcome(oracle.act2, g0, g1, mt)
    seed = data.draw(st.integers(0, 2 ** 32))
    assert _poly_in(rng(seed), matrix._ZiMatrix.of(g0)).matrix() == \
        oracle.poly_in(rng(seed), g0)
