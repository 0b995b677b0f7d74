"""The spin and the characteristic-polynomial nilpotency test against the
paths they replace.

``invariant_closure`` and ``max_invariant_in_kernel`` must give the
breadth-first closures of ``matrix_oracle``, ``is_nilpotent`` must agree
with ``nilpotency_index`` (powers of the matrix) and
``is_concentrated_at_origin`` with the rule written on those indices and
the closure of Im b: on the six seeded families (k = 0-5; a blowup
tuple through its pushforward) and a rung of the height ladder, on raw
plane and blowup tuples, on raw generator families with invariant
subspaces, on seeds and c with zero, repeated and dependent columns or
rows, on a seed whose images have ever earlier pivots, on trace-free
matrices that are not nilpotent, on nilpotent tuples with c b = 0 that
a longer word shows unconcentrated, and on the hypothesis strategies of
test_stratify.py and test_trivialize_oracle.py.
"""

import pytest
from hypothesis import given, settings

import matrix_oracle as oracle
from conftest import raw_blowup_tuples, raw_p2_tuples, rng
from monadcalc import matrix
from monadcalc.closure import (invariant_closure, is_nilpotent,
                               max_invariant_in_kernel, nilpotency_index)
from monadcalc.errors import InfeasibleSpec, NonSquareMatrix
from monadcalc.field import I, ONE, ZERO, qi
from monadcalc.generate import FAMILIES, GenSpec, generate, random_invertible
from monadcalc.matrix import (Matrix, Subspace, column_space, hstack,
                              kernel_basis)
from monadcalc.p2 import (MonadDataP2, is_concentrated_at_origin, max_c_special,
                          min_b_special, validate_p2)
from monadcalc.stratify import pushforward
from test_matrix_oracle import _matrix, _random_case
from test_stratify import _blowup_tuples
from test_trivialize_oracle import _height_rung, _nilpotent_tuples


def _plane(t):
    """A plane tuple as it is, a blowup tuple through its pushforward."""
    return t if isinstance(t, MonadDataP2) else pushforward(t)


def _compare(m):
    """Check one plane tuple; return the verdict and whether the closure
    of Im b and the largest invariant subspace in Ker c are proper."""
    gens = [m.a1, m.a2]
    for M in gens:
        assert is_nilpotent(M) == (nilpotency_index(M) is not None), M
    seed = column_space(m.b)
    closure = invariant_closure(gens, seed.basis)
    assert closure == oracle.invariant_closure(gens, seed), m
    inside = max_invariant_in_kernel(gens, m.c)
    assert inside == oracle.max_invariant_in_kernel(gens, m.c), m
    verdict = is_concentrated_at_origin(m)
    assert verdict == (all(nilpotency_index(M) is not None for M in gens)
                       and (m.c @ closure.basis).is_zero()), m
    return verdict, 0 < closure.dim < m.k, 0 < inside.dim < m.k


def _seeded_tuples():
    """The six seeded families, k = 0-5, r = 1-3, as plane tuples."""
    for family in FAMILIES:
        for k in range(6):
            for r, seed in ((1, 151), (2, 152), (3, 153)):
                try:
                    yield _plane(generate(GenSpec(k=k, r=r, seed=seed, family=family)))
                except InfeasibleSpec:
                    continue


def test_seeded_families_match_oracle():
    """The seeded families, and a rung of the height ladder (over 200
    bits)."""
    outcomes, nilpotent = [], []
    for m in list(_seeded_tuples()) + _height_rung():
        outcomes.append(_compare(m))
        nilpotent.append(is_nilpotent(m.a1))
    assert len(outcomes) > 70 and len(set(nilpotent)) == 2
    assert {v for v, _, _ in outcomes} == {True, False}
    assert any(p for _, p, _ in outcomes) and any(p for _, _, p in outcomes)


def test_raw_tuples_match_oracle():
    outcomes = [_compare(m) for m in raw_p2_tuples(40, seed=154, kmax=5)]
    outcomes += [_compare(pushforward(mt))
                 for mt in raw_blowup_tuples(40, seed=155, kmax=5)]
    assert {v for v, _, _ in outcomes} == {True, False}


def test_raw_generator_families_match_oracle():
    """One to three generators, block upper triangular below the first d
    columns of a random invertible g: seeds inside those columns close up
    inside them.  Random row spaces test the dual closure."""
    r_ = rng(156)
    dims = set()
    for _ in range(120):
        n = r_.randint(0, 6)
        d = r_.randint(0, n)
        g = random_invertible(r_, n)
        ginv = oracle.inverse(g)
        gens = []
        for _ in range(r_.randint(1, 3)):
            T = _random_case(r_, n, n)
            T = Matrix(n, n, [ZERO if i >= d and j < d else T[i, j]
                              for i in range(n) for j in range(n)])
            gens.append(g @ T @ ginv)
        inside = g.submatrix(range(n), range(d)) @ _matrix(r_, d, r_.randint(0, d))
        for seed in (column_space(inside), column_space(_matrix(r_, n, r_.randint(0, 2)))):
            V = invariant_closure(gens, seed.basis)
            assert V == oracle.invariant_closure(gens, seed)
            dims.add((V.dim, n))
        c = _random_case(r_, r_.randint(1, 3), n)
        assert max_invariant_in_kernel(gens, c) == oracle.max_invariant_in_kernel(gens, c)
    assert any(0 < d < n for d, n in dims)


def _shift(k):
    """The cyclic shift: det(t - C) = t^k - 1, all other coefficients 0."""
    return Matrix(k, k, [ONE if j == (i + 1) % k else ZERO
                         for i in range(k) for j in range(k)])


def _word_tuples(count, seed):
    """Tuples on which c b = 0 does not decide concentration: the valid
    k = 3, r = 2 tuple a1 = N, a2 = N^2 (N the nilpotent shift), b = (e2, 0)
    and c = (0; e1^T), whose c a1 b is nonzero, and raw tuples with
    a_i = g N_i g^-1 for strictly upper triangular N_i and the rows of c
    drawn from the left kernel of b."""
    N = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    out = [MonadDataP2(N, N @ N, Matrix.from_rows([[0, 0], [1, 0], [0, 0]]),
                       Matrix.from_rows([[0, 0, 0], [1, 0, 0]]))]
    r_ = rng(seed)
    for _ in range(count):
        k = r_.randint(2, 5)
        r = r_.randint(1, k - 1)
        g = random_invertible(r_, k)
        a1, a2 = (g @ Matrix(k, k, [_matrix(r_, 1, 1)[0, 0] if i < j else ZERO
                                    for i in range(k) for j in range(k)])
                  @ oracle.inverse(g) for _ in range(2))
        b = _matrix(r_, k, r)
        K = kernel_basis(b.transpose()).basis
        out.append(MonadDataP2(a1, a2, b, (K @ _matrix(r_, K.cols, r)).transpose()))
    return out


def test_words_past_c_b_decide_concentration():
    """Nilpotent a1 and a2 with c b = 0, where a longer word w has
    c w b != 0: the verdict must read c on every vector the spin keeps,
    not on the first (a column of b).  The corpus holds such tuples."""
    tuples = _word_tuples(40, seed=160)
    assert validate_p2(tuples[0]) is tuples[0]
    biting = 0
    for m in tuples:
        verdict, _, _ = _compare(m)
        assert (m.c @ m.b).is_zero() and is_nilpotent(m.a1) and is_nilpotent(m.a2)
        biting += not verdict
    assert not is_concentrated_at_origin(tuples[0])
    assert biting >= 30


def test_trace_free_matrices_that_are_not_nilpotent():
    J = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    cases = [Matrix.diagonal([1, -1]), Matrix.diagonal([I, -I]),
             Matrix.from_rows([[0, 1], [1, 0]]), Matrix.from_rows([[0, 1], [-1, 0]]),
             Matrix.diagonal([1, I, -1, -I]),  # tr M = tr M^2 = tr M^3 = 0
             Matrix.from_rows([[1, 1], [-1, -1]]) + Matrix.diagonal([qi("1/2"), qi("-1/2")])]
    cases += [_shift(k) for k in range(2, 6)]
    r_ = rng(157)
    for M in cases + [g @ M @ oracle.inverse(g) for M in cases
                      for g in [random_invertible(r_, M.rows)]]:
        assert M.trace() == ZERO
        assert not is_nilpotent(M), M
        assert nilpotency_index(M) is None
    for M in (J, J.transpose(), Matrix.zeros(2, 2), Matrix.zeros(0, 0),
              Matrix.from_rows([[1, 1], [-1, -1]]), Matrix.from_rows([[I, 1], [1, -I]])):
        assert is_nilpotent(M) and nilpotency_index(M) is not None, M


def test_non_square_input_raises():
    for M in (Matrix.zeros(2, 3), Matrix.from_rows([[1, 2, 3], [4, 5, 6]]),
              Matrix.zeros(0, 2), Matrix.zeros(3, 1)):
        with pytest.raises(NonSquareMatrix):
            is_nilpotent(M)
        with pytest.raises(NonSquareMatrix):
            nilpotency_index(M)


def test_zero_and_full_seeds():
    gens = [_shift(3), Matrix.diagonal([1, 2, 3])]
    zero, full = Subspace.from_span(Matrix.zeros(3, 0)), column_space(Matrix.identity(3))
    for seed in (zero, full):
        assert invariant_closure(gens, seed.basis) == seed == oracle.invariant_closure(gens, seed)
    # the shift's images of e3 have ever earlier pivots: each is kept and
    # updates the vectors kept before it
    e3 = Matrix.column([0, 0, qi(2, 1)])
    assert invariant_closure(gens[:1], e3) == full == \
        oracle.invariant_closure(gens[:1], Subspace.from_span(e3))
    assert invariant_closure([], column_space(Matrix.column([1, 2, 0])).basis).dim == 1
    assert invariant_closure([], Subspace.from_span(Matrix.zeros(0, 0)).basis).dim == 0


def _spanning(r_, X):
    """Columns with the span of X's: X's own, zero, repeated and
    dependent ones, shuffled."""
    n, m = X.rows, X.cols
    cols = [X.col_matrix(j) for j in range(m)] + [Matrix.zeros(n, 1)]
    cols += [X.col_matrix(r_.randrange(m)) for _ in range(m)] if m else []
    cols += [X @ _matrix(r_, m, 1) for _ in range(2)] if m else []
    r_.shuffle(cols)
    return hstack(cols)


def test_seeds_need_only_span():
    """invariant_closure takes any spanning columns: with zero, repeated
    and dependent columns, and with none (n x 0), it gives the closure of
    their span."""
    r_ = rng(158)
    for _ in range(80):
        n = r_.randint(0, 5)
        gens = [_random_case(r_, n, n) for _ in range(r_.randint(0, 3))]
        X = _matrix(r_, n, r_.randint(0, 3))
        for seed in (X, _spanning(r_, X), Matrix.zeros(n, 0)):
            expected = oracle.invariant_closure(gens, Subspace.from_span(seed))
            assert invariant_closure(gens, seed) == expected


def test_kernel_side_needs_only_rows_that_span():
    """max_invariant_in_kernel with zero and duplicate rows in c."""
    r_ = rng(159)
    for _ in range(60):
        n = r_.randint(0, 5)
        gens = [_random_case(r_, n, n) for _ in range(r_.randint(1, 3))]
        c = _spanning(r_, _matrix(r_, n, r_.randint(0, 2))).transpose()
        assert max_invariant_in_kernel(gens, c) == oracle.max_invariant_in_kernel(gens, c)


def test_special_subspaces_canonicalize_once(monkeypatch):
    """min_b_special and max_c_special make no Subspace.from_span and no
    rref call: the spin reads its canonical basis off its own echelon.
    min_b_special builds that one echelon; max_c_special builds it and
    the annihilator's kernel echelon."""
    tuples = list(_seeded_tuples()) + raw_p2_tuples(40, seed=154, kmax=5)
    calls = []

    def counting(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    real_span = Subspace.__dict__["from_span"].__func__
    monkeypatch.setattr(Subspace, "from_span",
                        classmethod(counting("from_span", real_span)))
    monkeypatch.setattr(matrix, "rref", counting("rref", matrix.rref))
    monkeypatch.setattr(matrix._Echelon, "__init__",
                        counting("echelon", matrix._Echelon.__init__))
    for m in tuples:
        for special, echelons in ((min_b_special, 1), (max_c_special, 2)):
            calls.clear()
            special(m)
            assert calls == ["echelon"] * echelons, special


@settings(max_examples=100, deadline=None, database=None)
@given(_blowup_tuples())
def test_hypothesis_blowup_tuples_match_oracle(mt):
    _compare(pushforward(mt))


@settings(max_examples=60, deadline=None, database=None)
@given(_nilpotent_tuples())
def test_hypothesis_nilpotent_tuples_match_oracle(m):
    _compare(m)
