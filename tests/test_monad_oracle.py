"""The monad maps, defined once as evaluators, against the hand-written
coefficient forms they replaced (``monad_oracle``)."""

import pytest

import monad_oracle as oracle
from conftest import (family_instances, fiber_dimension_blowup,
                      random_raw_blowup, random_raw_p2, raw_p2_tuples, rng)
from monadcalc import p2
from monadcalc.blowup import (BlowupPoint, MonadDataBlowup,
                              evaluate_A_blowup, evaluate_B_blowup,
                              fiber_projection_check, symbolic_blowup_product)
from monadcalc.errors import PointOnExceptionalLine
from monadcalc.field import qi
from monadcalc.matrix import Matrix, _clear
from monadcalc.p2 import (MonadDataP2, ProjectivePoint, evaluate_A,
                          evaluate_B, fiber_dimension, symbolic_monad_product)


def _scalar(r_):
    """A small Gaussian rational, zero about one time in four."""
    if r_.random() < 0.25:
        return qi(0)
    return qi(f"{r_.randint(-5, 5)}/{r_.randint(1, 4)}",
              f"{r_.randint(-3, 3)}/{r_.randint(1, 3)}")


def _plane_point(r_):
    while True:
        coords = [_scalar(r_) for _ in range(3)]
        if any(not c.is_zero() for c in coords):
            return ProjectivePoint(*coords)


def _points(r_, count):
    """Blowup points: half off the exceptional line, half on it."""
    out = [BlowupPoint(ProjectivePoint(0, 0, 1), 1, 0),
           BlowupPoint(ProjectivePoint(0, 0, 1), 0, 1),
           BlowupPoint.over(ProjectivePoint(1, 0, 0)),
           BlowupPoint.over(ProjectivePoint(0, 1, 0))]
    while len(out) < count:
        x = _plane_point(r_)
        if x.x1.is_zero() and x.x2.is_zero():
            y1, y2 = _scalar(r_), _scalar(r_)
            if y1.is_zero() and y2.is_zero():
                y1 = qi(1)
            out.append(BlowupPoint(x, y1, y2))
        else:
            out.append(BlowupPoint.over(x))
            out.append(BlowupPoint(ProjectivePoint(0, 0, 1), x.x1, x.x2))
    return out[:count]


def _raw_blowup():
    """Raw tuples for every k = 0..4 and r = 1..3, plus all-zero ones."""
    r_ = rng(700)
    out = []
    for k in range(5):
        for r in range(1, 4):
            out.append(MonadDataBlowup(*(Matrix.zeros(*s) for s in
                                         ((k, k), (k, k), (k, k),
                                          (k, r), (r, k)))))
            out += [random_raw_blowup(r_, k, r) for _ in range(3)]
    return out


def _raw_p2():
    r_ = rng(701)
    out = []
    for k in range(5):
        for r in range(1, 4):
            out.append(MonadDataP2(Matrix.zeros(k, k), Matrix.zeros(k, k),
                                   Matrix.zeros(k, r), Matrix.zeros(r, k)))
            out += [random_raw_p2(r_, k, r) for _ in range(3)]
    return out


def _seeded_blowup():
    return (family_instances("blowup_zero_d", 5, seed=702)
            + family_instances("blowup_generic", 5, seed=703))


def test_blowup_evaluation_matches_coefficient_forms():
    r_ = rng(704)
    for t, mt in enumerate(_raw_blowup() + _seeded_blowup()):
        for p in _points(r_, 6):
            A = oracle.evaluate_A_blowup(mt, p)
            B = oracle.evaluate_B_blowup(mt, p)
            assert evaluate_A_blowup(mt, p) == A
            assert evaluate_B_blowup(mt, p) == B
            if t % 4 == 0 and p.x.x3 == 1:  # ranks are the slow part
                assert (fiber_dimension_blowup(mt, p)
                        == oracle.fiber_dimension(A, B))


def test_symbolic_products_match_coefficient_forms():
    # same coefficients in the same order
    for mt in _raw_blowup() + _seeded_blowup():
        assert (list(symbolic_blowup_product(mt).items())
                == list(oracle.symbolic_blowup_product(mt).items()))
    for m in _raw_p2():
        assert (list(symbolic_monad_product(m).items())
                == list(oracle.symbolic_monad_product(m).items()))


def test_pencil_matches_stacked_blocks():
    """``p2._pencil`` forms P1 and P2 on Gaussian-integer forms, and
    ``monad_maps`` stacks them into A and B; both equal the ``QI`` build
    of the oracle (:func:`monad_oracle.pencil`), on raw tuples (r = 0 and
    k = 0 included) at the unit points, at random normalized points and
    at random coordinate triples, which give denominators e > 1 and
    Gaussian coordinates."""
    r_ = rng(707)
    tuples = (_raw_p2() + raw_p2_tuples(30, seed=708, kmax=6)
              + [random_raw_p2(r_, k, 0) for k in (0, 2, 3)])
    checked = set()
    for m in tuples:
        t = p2._integer(m)
        coords = [p.coords() for p in p2._UNITS]
        coords += [_plane_point(r_).coords() for _ in range(3)]
        coords += [tuple(_scalar(r_) for _ in range(3)) for _ in range(3)]
        for c in coords:
            x, e = _clear(c)
            blocks = tuple(P.matrix() for P in p2._pencil(t, x, e))
            assert blocks == oracle.pencil(m, c)[:2], (m, c)
            if any(not v.is_zero() for v in c):
                q = ProjectivePoint(*c)
                A, B = p2.monad_maps(m, q)
                assert (A, B) == oracle.pencil(m, q.coords())[2:], (m, c)
                assert (A.rows, A.cols) == (2 * m.k + m.r, m.k)
                assert (B.rows, B.cols) == (m.k, 2 * m.k + m.r)
            checked.add((m.k, m.r, e > 1))
    assert {(k, e) for k, _, e in checked} >= {(k, e) for k in range(5)
                                                 for e in (False, True)}
    assert {r for _, r, _ in checked} >= {0, 1, 2, 3}


def test_plane_fiber_dimension_matches():
    r_ = rng(705)
    for m in _raw_p2():
        for _ in range(4):
            p = _plane_point(r_)
            assert fiber_dimension(m, p) == oracle.fiber_dimension(
                evaluate_A(m, p), evaluate_B(m, p))


def test_fiber_projection_matches_projection_matrix():
    r_ = rng(706)
    raw = [mt for mt in _raw_blowup() if mt.k <= 3][::3]
    verdicts = set()
    for mt in raw + _seeded_blowup():
        for p in _points(r_, 8):
            if p.on_exceptional_line():
                with pytest.raises(PointOnExceptionalLine):
                    fiber_projection_check(mt, p)
                continue
            verdict = fiber_projection_check(mt, p)
            assert verdict == oracle.fiber_projection_check(mt, p)
            verdicts.add(verdict)
    assert verdicts == {True, False}
