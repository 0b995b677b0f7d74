"""Plane monad data: validation, action, evaluation, reduction."""

from dataclasses import fields

import pytest

from conftest import family_instances, is_integrable, raw_p2_tuples, rng
from monadcalc.blowup import BlowupPoint, MonadDataBlowup
from monadcalc.eigen import joint_spectrum
from monadcalc.errors import (DimensionMismatch, IntegrabilityViolation,
                              InvalidPoint, MonadcalcError, NonCommuting,
                              SingularGroupElement)
from monadcalc.field import qi
from monadcalc.generate import GenSpec, generate, random_invertible
from monadcalc.matrix import (Matrix, Subspace, _invariant_split, _ZiMatrix,
                              inverse, rank)
from monadcalc.p2 import (MonadDataP2, ProjectivePoint, _shape, _split, act,
                          canonical_reduction, evaluate_A, evaluate_B,
                          fiber_dimension, integrability_defect,
                          is_concentrated_at_origin, is_nondegenerate, max_c_special, min_b_special,
                          symbolic_monad_product, validate_p2)


def _diag_points(k, vals1, vals2, r=1):
    return MonadDataP2(Matrix.diagonal(vals1), Matrix.diagonal(vals2),
                       Matrix.zeros(k, r), Matrix.zeros(r, k))


# -- construction and validation ----------------------------------------

def test_dimension_checks():
    with pytest.raises(DimensionMismatch):
        MonadDataP2(Matrix.zeros(2, 2), Matrix.zeros(3, 3),
                    Matrix.zeros(2, 1), Matrix.zeros(1, 2))
    with pytest.raises(DimensionMismatch):
        MonadDataP2(Matrix.zeros(2, 2), Matrix.zeros(2, 2),
                    Matrix.zeros(3, 1), Matrix.zeros(1, 2))


@pytest.mark.parametrize("kind", [MonadDataP2, MonadDataBlowup])
def test_shape_check_names_each_misshaped_field(kind):
    """One check for both kinds: a1, a2 and d are k x k, b is k x r and
    c is r x k, with k = a1.rows and r = b.cols."""
    k, r = 2, 1
    good = {f.name: Matrix.zeros(*_shape(f.name, k, r)) for f in fields(kind)}
    m = kind(**good)
    assert (m.k, m.r) == (k, r)
    wrong = {"a1": [(2, 3)], "a2": [(3, 3), (2, 3)], "d": [(3, 3), (2, 1)],
             "b": [(3, 1)], "c": [(2, 2), (1, 3)]}
    for name in good:
        for shape in wrong[name]:
            with pytest.raises(DimensionMismatch, match=f"^{name} must be"):
                kind(**dict(good, **{name: Matrix.zeros(*shape)}))


def test_validation():
    m = _diag_points(2, [1, 2], [3, 4])
    assert is_integrable(m)
    assert validate_p2(m) is m
    bad = MonadDataP2(Matrix.from_rows([[0, 1], [0, 0]]),
                      Matrix.from_rows([[0, 0], [1, 0]]),
                      Matrix.zeros(2, 1), Matrix.zeros(1, 2))
    assert not is_integrable(bad)
    with pytest.raises(IntegrabilityViolation) as exc:
        validate_p2(bad)
    assert exc.value.defect == integrability_defect(bad)


# -- group action --------------------------------------------------------

def test_act_identity_and_composition():
    r_ = rng(30)
    m = generate(GenSpec(k=3, r=2, seed=5, family="block_concentrated"))
    assert act(Matrix.identity(3), m) == m
    g, h = random_invertible(r_, 3), random_invertible(r_, 3)
    assert act(h, act(g, m)) == act(g @ h, m)


def test_act_conjugates_defect():
    r_ = rng(31)
    for m in raw_p2_tuples(10, seed=31, kmax=3):
        if m.k == 0:
            continue
        g = random_invertible(r_, m.k)
        gi = inverse(g)
        assert integrability_defect(act(g, m)) == gi @ integrability_defect(m) @ g


def test_act_rejects_singular():
    m = _diag_points(2, [1, 2], [3, 4])
    with pytest.raises(SingularGroupElement):
        act(Matrix.zeros(2, 2), m)


# -- special subspaces ---------------------------------------------------

def test_special_subspaces_commuting_family():
    # b = c = 0: every subspace is special, so min is 0 and max is W
    m = _diag_points(2, [1, 2], [3, 4])
    assert min_b_special(m).is_zero()
    assert max_c_special(m).is_full()
    assert not is_nondegenerate(m)


def test_nondegenerate_example():
    # k=1 with b, c nonzero and b c = 0: Im b = W, Ker c = 0
    m = MonadDataP2(Matrix.zeros(1, 1), Matrix.zeros(1, 1),
                    Matrix.from_rows([[1, 0]]), Matrix.column([0, 1]))
    assert is_integrable(m)
    assert is_nondegenerate(m)


def test_charge_one_family_nondegenerate():
    for m in family_instances("charge_one", 8, seed=40):
        assert is_nondegenerate(validate_p2(m))


# -- evaluation and the symbolic identity --------------------------------

def test_evaluate_shapes():
    m = generate(GenSpec(k=2, r=2, seed=1, family="block_concentrated"))
    p = ProjectivePoint(1, 2, 3)
    assert evaluate_A(m, p).rows == 2 * m.k + m.r
    assert evaluate_A(m, p).cols == m.k
    assert evaluate_B(m, p).rows == m.k
    assert evaluate_B(m, p).cols == 2 * m.k + m.r


def test_projective_point_rejects_all_zero_coordinates():
    with pytest.raises(MonadcalcError):
        ProjectivePoint(0, 0, 0)
    with pytest.raises(InvalidPoint):
        ProjectivePoint(qi(0), 0, qi(0, 0))
    assert ProjectivePoint(0, 0, 2).coords() == (qi(0), qi(0), qi(1))


def test_projective_points_equal_after_normalization():
    """Rescaled coordinates give equal points with equal hashes; a
    non-point compares unequal through NotImplemented."""
    p, q = ProjectivePoint(2, 4, qi(0, 6)), ProjectivePoint(qi(0, 1), qi(0, 2), -3)
    assert p == q and hash(p) == hash(q) and len({p, q}) == 1
    assert p != ProjectivePoint(1, 2, 3)
    assert ProjectivePoint(0, 3, 1) == ProjectivePoint(0, qi("3/2"), qi("1/2"))
    assert p.__eq__(p.coords()) is NotImplemented and p != p.coords()


def test_reprs_are_pinned():
    """The texts of Subspace, ProjectivePoint and BlowupPoint values, in
    their normalized coordinates."""
    assert repr(Subspace.from_span(Matrix.from_rows([[1, 3], [2, 6], [0, 0]]))) \
        == "Subspace(dim 1 of 3)"
    assert repr(Subspace.from_span(Matrix.zeros(2, 0))) == "Subspace(dim 0 of 2)"
    assert repr(ProjectivePoint(qi(2, 1), 0, qi("1/2"))) == \
        "[QI(1):QI(0):QI(1/5, -1/10)]"
    assert repr(BlowupPoint.over(ProjectivePoint(1, 2, 1))) == \
        "BlowupPoint([QI(1):QI(2):QI(1)], [QI(1):QI(-1/2)])"
    assert repr(BlowupPoint(ProjectivePoint(0, 0, 1), qi(0, 2), 3)) == \
        "BlowupPoint([QI(0):QI(0):QI(1)], [QI(1):QI(0, -3/2)])"


def test_monad_complex_at_points():
    m = generate(GenSpec(k=3, r=2, seed=2, family="block_concentrated"))
    for coords in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3), (-1, "1/2", 5)]:
        p = ProjectivePoint(*coords)
        assert (evaluate_B(m, p) @ evaluate_A(m, p)).is_zero()
        if coords != (0, 0, 1):
            # full rank away from the singular support at [0:0:1]
            assert rank(evaluate_A(m, p)) == m.k
            assert rank(evaluate_B(m, p)) == m.k


def test_symbolic_identity_structure():
    """B A = ([a1,a2] + b c) x3^2 for every raw tuple, valid or not."""
    for m in raw_p2_tuples(25, seed=41):
        prod = symbolic_monad_product(m)
        defect = integrability_defect(m)
        expected = {} if defect.is_zero() else {(0, 0, 2): defect}
        assert prod == expected


def test_fiber_dimension_generic_point():
    m = generate(GenSpec(k=2, r=2, seed=3, family="block_concentrated"))
    # away from the singular support the fiber has the sheaf's rank
    assert fiber_dimension(m, ProjectivePoint(1, 2, 3)) == m.r
    assert fiber_dimension(m, ProjectivePoint(1, 0, 0)) == m.r


# -- canonical reduction -------------------------------------------------

def test_reduction_commuting_example():
    m = _diag_points(2, [1, 2], [3, 4])
    du = canonical_reduction(m)
    assert du.l == 0
    assert du.points == ((qi(1), qi(3)), (qi(2), qi(4)))
    assert du.total_charge == 2
    assert not du.approx


def test_reduction_is_group_invariant():
    r_ = rng(42)
    m = _diag_points(3, [1, 2, 2], [0, -1, 5])
    du = canonical_reduction(m)
    for _ in range(5):
        g = random_invertible(r_, 3)
        assert canonical_reduction(act(g, m)).points == du.points


def test_reduction_nondegenerate_is_identity():
    m = generate(GenSpec(k=1, r=2, seed=7, family="charge_one"))
    du = canonical_reduction(m)
    assert du.l == 1 and du.points == ()
    assert du.reduced == m


def test_reduction_charge_conservation_and_idempotence():
    for fam, count in (("commuting_points", 6), ("block_concentrated", 6),
                       ("charge_one", 4)):
        for m in family_instances(fam, count, seed=43):
            du = canonical_reduction(m)
            assert du.total_charge == m.k
            assert is_nondegenerate(du.reduced)
            again = canonical_reduction(du.reduced)
            assert again.reduced == du.reduced and again.points == ()


def test_reduction_float_mode():
    # integrable with irrational spectrum: a1 = [[0,2],[1,0]], rest zero
    m = MonadDataP2(Matrix.from_rows([[0, 2], [1, 0]]), Matrix.zeros(2, 2),
                    Matrix.zeros(2, 1), Matrix.zeros(1, 2))
    from monadcalc.errors import IrrationalSpectrum
    with pytest.raises(IrrationalSpectrum):
        canonical_reduction(m)
    du = canonical_reduction(m, eigen_mode="float")
    assert du.approx
    vals = sorted(complex(p[0]).real for p in du.points)
    assert abs(vals[0] + 2 ** 0.5) < 1e-8 and abs(vals[1] - 2 ** 0.5) < 1e-8


def _bauer_fike_bound(m):
    """A backward error E moves a simple eigenvalue by at most cond(V) |E|,
    V the eigenvectors of a generic combination of a1 and a2; a
    backward-stable eigensolver has |E| <= 64 eps max(|a1|, |a2|) here."""
    import numpy as np

    A1, A2 = (np.array([[complex(M[i, j]) for j in range(m.k)]
                        for i in range(m.k)]) for M in (m.a1, m.a2))
    _, V = np.linalg.eig(A1 + (0.6 + 0.8j) * A2)
    scale = max(1.0, np.linalg.norm(A1), np.linalg.norm(A2))
    return 64 * np.finfo(float).eps * np.linalg.cond(V) * scale


def test_reduction_float_mode_on_ill_conditioned_commuting_points():
    # a1 has the double eigenvalue -4, split by a2
    m = generate(GenSpec(k=4, r=2, seed=869589436, family="commuting_points"))
    exact = canonical_reduction(m)
    du = canonical_reduction(m, eigen_mode="float")
    assert du.approx and du.l == exact.l == 0
    bound = _bauer_fike_bound(m)
    assert bound < 1e-8
    rest = list(du.points)
    for p1, p2 in exact.points:
        z1, z2 = complex(p1), complex(p2)
        errs = [max(abs(a - z1), abs(b - z2)) for a, b in rest]
        j = min(range(len(rest)), key=errs.__getitem__)
        assert errs[j] <= bound
        rest.pop(j)


def test_reduction_float_mode_keeps_concentrated_points_at_origin():
    from monadcalc.stratify import charge_label

    m = generate(GenSpec(k=6, r=2, seed=3, family="block_concentrated"))
    du = canonical_reduction(m, eigen_mode="float")
    assert du.approx and len(du.points) == 6
    assert all(abs(p1) <= 1e-12 and abs(p2) <= 1e-12 for p1, p2 in du.points)
    assert charge_label(m, "float").points_at_origin == 6


def test_reduction_rejects_bad_mode():
    m = _diag_points(1, [0], [0])
    with pytest.raises(ValueError):
        canonical_reduction(m, eigen_mode="fast")


def test_split_and_commutation_test_make_no_matrix_products(monkeypatch):
    """The reduction's basis changes (``_invariant_split`` and
    ``p2._split``, on the special subspaces of seeded tuples) and the
    commutation test that rejects a pair in ``joint_spectrum`` run on
    the integer form: no Matrix product in any of them."""
    cases = []
    for m in (family_instances("block_concentrated", 6, seed=21)
              + family_instances("commuting_points", 5, seed=21)):
        Vc = max_c_special(m)
        rest = _split(m, Vc)[1]
        cases += [(m, Vc), (rest, min_b_special(rest))]
    assert any(0 < V.dim < t.k for t, V in cases)
    E12, E21 = Matrix.from_rows([[0, 1], [0, 0]]), Matrix.from_rows([[0, 0], [1, 0]])
    products = []
    matmul = Matrix.__matmul__

    def counting(A, B):
        products.append((A, B))
        return matmul(A, B)

    monkeypatch.setattr(Matrix, "__matmul__", counting)
    for t, V in cases:
        _invariant_split([_ZiMatrix.of(t.a1), _ZiMatrix.of(t.a2)], V)
        _split(t, V)
    with pytest.raises(NonCommuting):
        joint_spectrum([E12, E21])
    with pytest.raises(NonCommuting):
        joint_spectrum([E12, E12, E21])
    assert products == []


# -- concentration at the origin -----------------------------------------

def _word_oracle(m, max_len):
    """Exhaustive check that c w(a1, a2) b = 0 for all words up to max_len."""
    level = [m.b]
    if not (m.c @ m.b).is_zero():
        return False
    for _ in range(max_len):
        nxt = []
        for v in level:
            for g in (m.a1, m.a2):
                w = g @ v
                if not (m.c @ w).is_zero():
                    return False
                nxt.append(w)
        level = nxt
    return True


def test_concentration_matches_word_oracle():
    from monadcalc.closure import is_nilpotent
    for m in family_instances("block_concentrated", 8, seed=44):
        assert is_concentrated_at_origin(m)
        assert _word_oracle(m, 2 * m.k)
    # non-nilpotent data is never concentrated
    m = _diag_points(2, [1, 2], [3, 4])
    assert not is_concentrated_at_origin(m)
    # nilpotent but with a surviving word product c a1 b = 1 (raw tuple)
    bad = MonadDataP2(Matrix.from_rows([[0, 1], [0, 0]]),
                      Matrix.zeros(2, 2),
                      Matrix.from_rows([[0], [1]]),
                      Matrix.from_rows([[1, 0]]))
    assert is_nilpotent(bad.a1)
    assert not is_concentrated_at_origin(bad)
    assert not _word_oracle(bad, 4)


def test_concentration_converts_once_and_makes_no_matrix_products(monkeypatch):
    """is_concentrated_at_origin converts each matrix of m to its integer
    form once and decides on that one form, with no Matrix product: on
    concentrated tuples, on non-nilpotent ones and on a nilpotent one that
    the word c a1 b rejects."""
    tuples = (family_instances("block_concentrated", 6, seed=46)
              + family_instances("commuting_points", 4, seed=46)
              + raw_p2_tuples(10, seed=46)
              + [MonadDataP2(Matrix.from_rows([[0, 1], [0, 0]]), Matrix.zeros(2, 2),
                             Matrix.from_rows([[0], [1]]), Matrix.from_rows([[1, 0]]))])
    products, converted = [], []
    matmul, real_of = Matrix.__matmul__, _ZiMatrix.__dict__["of"].__func__

    def counting(A, B):
        products.append((A, B))
        return matmul(A, B)

    def of(cls, M):
        converted.append(M)
        return real_of(cls, M)

    monkeypatch.setattr(Matrix, "__matmul__", counting)
    monkeypatch.setattr(_ZiMatrix, "of", classmethod(of))
    verdicts = []
    for m in tuples:
        converted.clear()
        verdicts.append(is_concentrated_at_origin(m))
        assert sorted(map(id, converted)) == sorted(id(getattr(m, f.name))
                                                    for f in fields(m))
    assert products == []
    assert set(verdicts) == {True, False} and not verdicts[-1]
