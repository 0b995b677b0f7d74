"""Invariant closures, dual closures, and nilpotency."""

import pytest

from conftest import family_instances, raw_p2_tuples, rng
from monadcalc.closure import (invariant_closure, is_nilpotent,
                               max_invariant_in_kernel, nilpotency_index)
from monadcalc.errors import DimensionMismatch, NonSquareMatrix
from monadcalc.field import qi
from monadcalc.matrix import Matrix, Subspace, hstack, solve
from monadcalc.stratify import pushforward

# J e2 = e1 (upper shift)
J2 = Matrix.from_rows([[0, 1], [0, 0]])
E1 = Subspace.from_span(Matrix.column([1, 0]))
E2 = Subspace.from_span(Matrix.column([0, 1]))


def _random_matrix(r_, rows, cols, bound=5):
    return Matrix(rows, cols, [qi(r_.randint(-bound, bound))
                               for _ in range(rows * cols)])


# -- invariant_closure ---------------------------------------------------

def test_closure_examples():
    assert invariant_closure([Matrix.zeros(2, 2)], E1.basis) == E1
    assert invariant_closure([J2], E2.basis).is_full()
    assert invariant_closure([J2], E1.basis) == E1


def test_closure_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        invariant_closure([Matrix.zeros(3, 3)], E1.basis)


def test_closure_properties_random():
    r_ = rng(10)
    for _ in range(25):
        n = r_.randint(1, 5)
        gens = [_random_matrix(r_, n, n) for _ in range(r_.randint(1, 3))]
        seed = Subspace.from_span(_random_matrix(r_, n, r_.randint(0, n)))
        V = invariant_closure(gens, seed.basis)
        # contains the seed; invariant; idempotent
        assert V.contains_space(seed)
        for g in gens:
            assert solve(V.basis, g @ V.basis) is not None
        assert invariant_closure(gens, V.basis) == V
        # the same seed gives the same result
        same = Subspace.from_span(seed.basis)
        assert invariant_closure(gens, same.basis) == V
        # monotone in the seed: the closure of a proper sub-seed, the
        # first column, lies in V
        if seed.dim > 1:
            first = seed.basis.col_matrix(0)
            assert V.contains_space(invariant_closure(gens, first))
    # random generators mostly close to the whole space; upper triangular
    # ones keep each span(e1..ej), so a first column with zeros below row j
    # closes inside it, strictly inside the closure of a seed that leaves it
    r_ = rng(12)
    for _ in range(10):
        n = r_.randint(2, 5)
        j = r_.randint(1, n - 1)
        gens = [Matrix(n, n, [qi(r_.randint(-5, 5)) if a <= b else 0
                              for a in range(n) for b in range(n)])
                for _ in range(r_.randint(1, 3))]
        first = Matrix.column([r_.randint(1, 5) if a < j else 0 for a in range(n)])
        seed = hstack([first, Matrix.column([r_.randint(1, 5) for _ in range(n)])])
        V, U = invariant_closure(gens, seed), invariant_closure(gens, first)
        assert V.contains_space(U) and U.dim <= j and U != V


# -- max_invariant_in_kernel --------------------------------------------

def test_max_invariant_examples():
    # c = 0 -> full space
    assert max_invariant_in_kernel([J2], Matrix.zeros(1, 2)).is_full()
    # c injective -> zero subspace
    assert max_invariant_in_kernel([J2], Matrix.identity(2)).is_zero()
    # c = (0 1): Ker c = span{e1} is J2-invariant, so the answer is e1
    c = Matrix.from_rows([[0, 1]])
    assert max_invariant_in_kernel([J2], c) == E1


def test_max_invariant_is_maximal_bruteforce():
    """No invariant closure of any seed sits in Ker c without sitting in V."""
    r_ = rng(11)
    for _ in range(20):
        n = r_.randint(1, 3)
        gens = [_random_matrix(r_, n, n) for _ in range(2)]
        c = _random_matrix(r_, r_.randint(1, 2), n)
        V = max_invariant_in_kernel(gens, c)
        # V itself qualifies
        assert (c @ V.basis).is_zero()
        for g in gens:
            assert solve(V.basis, g @ V.basis) is not None
        # every invariant candidate inside Ker c is contained in V
        for _ in range(30):
            seed = Subspace.from_span(_random_matrix(r_, n, 1))
            W = invariant_closure(gens, seed.basis)
            if (c @ W.basis).is_zero():
                assert V.contains_space(W)


# -- nilpotency ----------------------------------------------------------

def test_nilpotency_examples():
    assert nilpotency_index(Matrix.zeros(3, 3)) == 1
    assert nilpotency_index(Matrix.identity(2)) is None
    assert nilpotency_index(J2) == 2
    assert nilpotency_index(Matrix.zeros(0, 0)) == 1
    with pytest.raises(NonSquareMatrix):
        nilpotency_index(Matrix.zeros(2, 3))


def test_nilpotency_index_sharp():
    r_ = rng(12)
    for _ in range(20):
        n = r_.randint(1, 5)
        # random strictly upper triangular matrix: always nilpotent
        M = Matrix(n, n, [qi(r_.randint(-3, 3)) if j > i else qi(0)
                          for i in range(n) for j in range(n)])
        idx = nilpotency_index(M)
        assert idx is not None
        assert (M ** idx).is_zero()
        if idx > 1:
            assert not (M ** (idx - 1)).is_zero()
        assert is_nilpotent(M)


def test_non_nilpotent_random_generic():
    r_ = rng(13)
    M = _random_matrix(r_, 3, 3)
    while (M @ M @ M).is_zero():
        M = _random_matrix(r_, 3, 3)
    assert not is_nilpotent(M)


# -- products ------------------------------------------------------------

def _counting_products(monkeypatch):
    products = []
    matmul = Matrix.__matmul__

    def counting(A, B):
        products.append((A, B))
        return matmul(A, B)

    monkeypatch.setattr(Matrix, "__matmul__", counting)
    return products


def test_nilpotency_index_stops_at_the_kth_power(monkeypatch):
    """M^k is the last power that can vanish: k - 1 products for a k x k
    matrix, nilpotent of index k or not nilpotent at all."""
    products = _counting_products(monkeypatch)
    for k in range(1, 7):
        shift = Matrix(k, k, [qi(1) if j == i + 1 else qi(0)
                              for i in range(k) for j in range(k)])
        for M, index in ((Matrix.identity(k), None), (shift, k)):
            products.clear()
            assert nilpotency_index(M) == index
            assert len(products) == k - 1


def test_nilpotency_test_and_closures_make_no_matrix_products(monkeypatch):
    """is_nilpotent reads a characteristic polynomial and the closures
    spin on the integer form: no Matrix product, on seeded plane tuples,
    seeded pushforwards and raw tuples."""
    tuples = (family_instances("block_concentrated", 6, seed=31)
              + family_instances("commuting_points", 5, seed=31)
              + [pushforward(mt) for mt in family_instances("blowup_generic", 5, seed=31)]
              + raw_p2_tuples(10, seed=31))
    seeds = [Subspace.from_span(m.b) for m in tuples]
    products = _counting_products(monkeypatch)
    verdicts = set()
    for m, seed in zip(tuples, seeds):
        verdicts |= {is_nilpotent(m.a1), is_nilpotent(m.a2)}
        invariant_closure([m.a1, m.a2], seed.basis)
        max_invariant_in_kernel([m.a1, m.a2], m.c)
    assert verdicts == {True, False}
    assert products == []
