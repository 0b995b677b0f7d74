"""Exact matrices, elimination, and canonical subspaces."""

import pytest

from conftest import rng
from monadcalc.errors import DimensionMismatch, NonSquareMatrix
from monadcalc.field import I, ONE, qi
from monadcalc.generate import random_invertible
from monadcalc.matrix import (Matrix, Subspace, _ZiMatrix, block, column_space,
                              hstack, inverse, kernel_basis, rank, rref, solve,
                              vstack)


def _random_matrix(r_, rows, cols, bound=9):
    return Matrix(rows, cols, [qi(r_.randint(-bound, bound),
                                  r_.randint(-bound, bound))
                               for _ in range(rows * cols)])


# -- basics -------------------------------------------------------------

def test_shape_checks():
    with pytest.raises(DimensionMismatch):
        Matrix(2, 2, [ONE, ONE, ONE])
    with pytest.raises(DimensionMismatch):
        Matrix.from_rows([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        Matrix.identity(2) @ Matrix.zeros(3, 1)
    with pytest.raises(NonSquareMatrix):
        Matrix.zeros(2, 3).trace()


def test_getitem_checks_both_indices():
    M = Matrix.from_rows([[1, 2], [3, 4]])
    assert [M[i, j] for i in range(2) for j in range(2)] == list(M.entries)
    for i, j in [(0, 2), (1, -3), (-1, 0), (2, 0), (0, -1)]:
        with pytest.raises(IndexError):
            M[i, j]
    with pytest.raises(IndexError):
        Matrix.zeros(0, 3)[0, 0]
    T = Matrix.from_rows([[1, 2, 3], [4, 5, 6]]).transpose()
    assert T == Matrix.from_rows([[1, 4], [2, 5], [3, 6]])


def test_row_and_submatrix_reads_check_indices():
    M = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
    for read in (lambda: M.submatrix([0], [3, -1]), lambda: M.col_matrix(-1),
                 lambda: M.row_list(2), lambda: M.row_list(-1),
                 lambda: M.submatrix([-1], [0]), lambda: M.col_matrix(3)):
        with pytest.raises(IndexError):
            read()
    assert M.submatrix([1, 0], [2, 0]) == Matrix.from_rows([[6, 4], [3, 1]])
    assert M.col_matrix(2) == Matrix.column([3, 6])
    assert M.row_list(1) == [qi(4), qi(5), qi(6)]
    assert M.submatrix([], range(3)) == Matrix.zeros(0, 3)


def test_arithmetic_round_trip():
    r_ = rng(1)
    A = _random_matrix(r_, 3, 4)
    B = _random_matrix(r_, 3, 4)
    assert A + B - B == A
    assert (-A) + A == Matrix.zeros(3, 4)
    assert A.scale(qi(2)) == A + A
    assert A.transpose().transpose() == A


def test_matmul_associativity_and_identity():
    r_ = rng(2)
    A = _random_matrix(r_, 2, 3)
    B = _random_matrix(r_, 3, 4)
    C = _random_matrix(r_, 4, 2)
    assert (A @ B) @ C == A @ (B @ C)
    assert Matrix.identity(2) @ A == A == A @ Matrix.identity(3)


def test_power():
    J = Matrix.from_rows([[0, 1], [0, 0]])
    assert J ** 0 == Matrix.identity(2)
    assert J ** 1 == J
    assert (J ** 2).is_zero()
    D = Matrix.diagonal([2, 3])
    assert D ** 3 == Matrix.diagonal([8, 27])
    for M in (Matrix.identity(0), D):
        for n in (-1, -2):
            with pytest.raises(ValueError):
                M ** n


def test_stacking():
    A = Matrix.from_rows([[1, 2]])
    B = Matrix.from_rows([[3, 4]])
    assert vstack([A, B]) == Matrix.from_rows([[1, 2], [3, 4]])
    assert hstack([A, B]) == Matrix.from_rows([[1, 2, 3, 4]])
    assert block([[A], [B]]) == vstack([A, B])


# -- rank / kernel: pinned examples -------------------------------------

def test_rank_examples():
    assert rank(Matrix.identity(2)) == 2
    assert rank(Matrix.zeros(3, 2)) == 0
    # row2 = i * row1, so rank 1
    M = Matrix.from_rows([[ONE, I], [I, qi(-1)]])
    assert rank(M) == 1


def test_kernel_examples():
    assert kernel_basis(Matrix.identity(3)).is_zero()
    full = kernel_basis(Matrix.zeros(2, 3))
    assert full.dim == 3 and full.is_full()
    M = Matrix.from_rows([[1, 0], [0, 0]])
    K = kernel_basis(M)
    assert K.dim == 1
    assert K.basis == Matrix.from_rows([[0], [1]])


def test_kernel_basis_runs_one_elimination(monkeypatch):
    """The canonical kernel basis is read off one echelon, with no second
    elimination to canonicalize its span."""
    import monadcalc.matrix as matrix

    calls = []
    exact = matrix._Echelon.__init__

    def counting(self, cols, rows=()):
        calls.append(cols)
        exact(self, cols, rows)

    monkeypatch.setattr(matrix._Echelon, "__init__", counting)
    r_ = rng(5)
    for rows, cols in [(0, 3), (2, 0), (3, 5), (5, 3), (4, 4)]:
        calls.clear()
        M = _random_matrix(r_, rows, cols, bound=2)
        if rows > 1:  # rank deficient
            M = vstack([M, Matrix(1, cols, [a + b for a, b in zip(
                M.row_list(0), M.row_list(1))])])
        K = kernel_basis(M)
        assert calls == [cols]
        assert (M @ K.basis).is_zero()
        assert K == Subspace.from_span(K.basis)


def test_rank_nullity_random():
    r_ = rng(3)
    for _ in range(40):
        rows, cols = r_.randint(0, 5), r_.randint(0, 5)
        M = _random_matrix(r_, rows, cols)
        assert rank(M) + kernel_basis(M).dim == cols
        assert (M @ kernel_basis(M).basis).is_zero()
        assert rank(M) == rank(M.transpose())


def test_rref_properties():
    r_ = rng(4)
    for _ in range(20):
        M = _random_matrix(r_, r_.randint(1, 4), r_.randint(1, 4))
        R, pivots = rref(M)
        R2, pivots2 = rref(R)
        assert R2 == R and pivots2 == pivots
        for row_idx, p in enumerate(pivots):
            assert R[row_idx, p] == ONE


# -- solve / inverse ----------------------------------------------------

def test_solve_consistent_and_inconsistent():
    A = Matrix.from_rows([[1, 2], [2, 4]])
    b_good = Matrix.column([1, 2])
    b_bad = Matrix.column([1, 3])
    x = solve(A, b_good)
    assert x is not None and A @ x == b_good
    assert solve(A, b_bad) is None


def test_solve_random_consistent():
    r_ = rng(5)
    for _ in range(25):
        rows, cols, nrhs = r_.randint(1, 4), r_.randint(1, 4), r_.randint(1, 2)
        A = _random_matrix(r_, rows, cols)
        X0 = _random_matrix(r_, cols, nrhs)
        B = A @ X0
        X = solve(A, B)
        assert X is not None and A @ X == B


def test_inverse():
    r_ = rng(6)
    for k in range(1, 5):
        g = random_invertible(r_, k)
        gi = inverse(g)
        assert gi is not None
        assert g @ gi == Matrix.identity(k) == gi @ g
    assert inverse(Matrix.from_rows([[1, 2], [2, 4]])) is None
    with pytest.raises(NonSquareMatrix):
        inverse(Matrix.zeros(2, 3))


def test_matrix_forms_compare_only_with_their_own_type():
    """``Matrix``, its integer form and ``Subspace`` return NotImplemented
    against any other type, so those compare unequal."""
    M = Matrix.from_rows([[1, qi("1/2", 1)]])
    Z = _ZiMatrix.of(M)
    V = Subspace.from_span(M.transpose())
    assert Z == _ZiMatrix.of(Matrix.from_rows([[1, qi("1/2", 1)]]))
    for x, others in ((M, (Z, V, M.entries)), (Z, (M, V, Z.nums)),
                      (V, (M, Z, V.basis))):
        for other in others:
            assert x.__eq__(other) is NotImplemented
            assert x != other


# -- subspaces ----------------------------------------------------------

def test_subspace_canonical_equality():
    r_ = rng(7)
    for _ in range(20):
        n = r_.randint(1, 5)
        cols = _random_matrix(r_, n, r_.randint(1, 5))
        V = Subspace.from_span(cols)
        g = random_invertible(r_, cols.cols)
        # same span through a different generating set
        W = Subspace.from_span(cols @ g)
        assert V == W
        assert hash(V) == hash(W)


def test_subspace_membership_and_sum():
    e1 = Matrix.column([1, 0, 0])
    e2 = Matrix.column([0, 1, 0])
    V = Subspace.from_span(e1)
    assert V.contains(e1.scale(qi(5)))
    assert not V.contains(e2)
    S = V.sum(Subspace.from_span(e2))
    assert S.dim == 2 and S.contains(e1 + e2)
    assert S.contains_space(V)


def test_annihilator_dimensions():
    r_ = rng(8)
    for _ in range(15):
        n = r_.randint(1, 5)
        V = Subspace.from_span(_random_matrix(r_, n, r_.randint(0, n)))
        ann = V.annihilator()
        assert ann.dim == n - V.dim
        assert (ann.basis.transpose() @ V.basis).is_zero()


def test_column_space():
    M = Matrix.from_rows([[1, 2], [2, 4], [0, 0]])
    V = column_space(M)
    assert V.dim == 1
    assert V.contains(Matrix.column([1, 2, 0]))
