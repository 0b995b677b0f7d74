"""Blowup monad data: validity, action, symbolic identity, fiber comparison."""

from dataclasses import replace

import pytest

from conftest import (family_instances, fiber_dimension_blowup, is_valid,
                      raw_blowup_tuples, rng)
from monadcalc import blowup, stratify
from monadcalc.blowup import (BlowupPoint, MonadDataBlowup, act2,
                              blowup_defect, evaluate_A_blowup,
                              evaluate_B_blowup, fiber_projection_check,
                              surjectivity_corank, symbolic_blowup_product,
                              validate)
from monadcalc.errors import (DimensionMismatch, IntegrabilityViolation,
                              InvalidPoint, MonadcalcError,
                              PointOnExceptionalLine, SurjectivityViolation)
from monadcalc.field import qi
from monadcalc.generate import GenSpec, generate, random_invertible
from monadcalc.matrix import Matrix, Subspace, block, inverse, rank
from monadcalc.p2 import ProjectivePoint


def _incident_points(r_, count):
    """Deterministic sample of incidence-locus points off the exceptional line."""
    pts = [BlowupPoint.over(ProjectivePoint(1, 0, 0)),
           BlowupPoint.over(ProjectivePoint(0, 1, 0)),
           BlowupPoint.over(ProjectivePoint(1, 1, 1))]
    while len(pts) < count:
        x1, x2 = r_.randint(-5, 5), r_.randint(-5, 5)
        if x1 == x2 == 0:
            x1 = 1
        pts.append(BlowupPoint.over(ProjectivePoint(x1, x2, r_.randint(-5, 5))))
    return pts[:count]


# -- construction and validity ------------------------------------------

def test_dimension_checks():
    with pytest.raises(DimensionMismatch):
        MonadDataBlowup(Matrix.zeros(2, 2), Matrix.zeros(2, 2),
                        Matrix.zeros(3, 3), Matrix.zeros(2, 1),
                        Matrix.zeros(1, 2))


def test_validate_accepts_generated():
    for fam in ("blowup_zero_d", "blowup_generic"):
        for mt in family_instances(fam, 5, seed=50):
            assert validate(mt) is mt
            assert is_valid(mt)


def test_validate_integrability_violation():
    for mt in family_instances("invalid_integrability", 4, seed=51):
        assert not is_valid(mt)
        with pytest.raises(IntegrabilityViolation) as exc:
            validate(mt)
        assert exc.value.defect == blowup_defect(mt)


def test_validate_surjectivity_violation():
    # a1 = a2 = b = 0 with k > 0 cannot cover W0
    mt = MonadDataBlowup(Matrix.zeros(2, 2), Matrix.zeros(2, 2),
                         Matrix.identity(2), Matrix.zeros(2, 1),
                         Matrix.zeros(1, 2))
    assert blowup_defect(mt).is_zero()
    assert surjectivity_corank(mt) == 2
    with pytest.raises(SurjectivityViolation) as exc:
        validate(mt)
    assert exc.value.cokernel_dim == 2


# -- group action --------------------------------------------------------

def test_act2_preserves_validity_and_conjugates_defect():
    r_ = rng(52)
    mt = generate(GenSpec(k=3, r=2, seed=6, family="blowup_generic"))
    g0, g1 = random_invertible(r_, 3), random_invertible(r_, 3)
    assert is_valid(act2(g0, g1, mt))
    for raw in raw_blowup_tuples(8, seed=52, kmax=3):
        if raw.k == 0:
            continue
        g0, g1 = random_invertible(r_, raw.k), random_invertible(r_, raw.k)
        lhs = blowup_defect(act2(g0, g1, raw))
        assert lhs == inverse(g0) @ blowup_defect(raw) @ g1


def test_act2_identity_and_composition():
    mt = generate(GenSpec(k=2, r=1, seed=7, family="blowup_zero_d"))
    eye = Matrix.identity(2)
    assert act2(eye, eye, mt) == mt
    r_ = rng(53)
    g0, g1 = random_invertible(r_, 2), random_invertible(r_, 2)
    h0, h1 = random_invertible(r_, 2), random_invertible(r_, 2)
    assert act2(h0, h1, act2(g0, g1, mt)) == act2(g0 @ h0, g1 @ h1, mt)


# -- points on the blowup ------------------------------------------------

def test_blowup_point_incidence():
    x = ProjectivePoint(1, 2, 0)
    p = BlowupPoint.over(x)
    assert (x.x1 * p.y1 + x.x2 * p.y2).is_zero()
    assert not p.on_exceptional_line()
    with pytest.raises(ValueError):
        BlowupPoint(x, 1, 1)  # violates incidence
    e = BlowupPoint(ProjectivePoint(0, 0, 1), 3, 7)  # free y over [0:0:1]
    assert e.on_exceptional_line()
    with pytest.raises(PointOnExceptionalLine):
        BlowupPoint.over(ProjectivePoint(0, 0, 1))


def test_blowup_point_errors_are_domain_errors():
    x = ProjectivePoint(1, 2, 0)
    with pytest.raises(MonadcalcError):
        BlowupPoint(x, 1, 1)  # violates incidence
    with pytest.raises(InvalidPoint):
        BlowupPoint(ProjectivePoint(0, 0, 1), 0, 0)
    with pytest.raises(InvalidPoint):
        BlowupPoint(x, 0, 0)


# -- symbolic identity ---------------------------------------------------

def _expected_product(mt):
    """[[defect x3^2, -sigma 1], [sigma 1, 0]] with sigma = x1 y1 + x2 y2."""
    k = mt.k
    eye, z = Matrix.identity(k), Matrix.zeros(k, k)
    out = {}
    defect = blowup_defect(mt)
    if not defect.is_zero():
        out[(0, 0, 2, 0, 0)] = block([[defect, z], [z, z]])
    sigma_block = block([[z, -eye], [eye, z]])
    if k:
        out[(1, 0, 0, 1, 0)] = sigma_block
        out[(0, 1, 0, 0, 1)] = sigma_block
    return out


def test_symbolic_blowup_identity_structure():
    for mt in raw_blowup_tuples(25, seed=54):
        assert symbolic_blowup_product(mt) == _expected_product(mt)


def test_evaluation_vanishes_on_incidence_locus():
    r_ = rng(55)
    mt = generate(GenSpec(k=2, r=2, seed=8, family="blowup_generic"))
    for p in _incident_points(r_, 8):
        A, B = evaluate_A_blowup(mt, p), evaluate_B_blowup(mt, p)
        assert (B @ A).is_zero()
        assert rank(A) == 2 * mt.k
        assert rank(B) == 2 * mt.k
    # on the exceptional line the complex property still holds
    e = BlowupPoint(ProjectivePoint(0, 0, 1), 1, qi("1/2"))
    assert (evaluate_B_blowup(mt, e) @ evaluate_A_blowup(mt, e)).is_zero()


def test_fiber_dimension_blowup_generic():
    mt = generate(GenSpec(k=2, r=2, seed=9, family="blowup_generic"))
    p = BlowupPoint.over(ProjectivePoint(1, 2, 3))
    assert fiber_dimension_blowup(mt, p) == mt.r


# -- fiber projection ----------------------------------------------------

def test_fiber_projection_check_valid_instances():
    r_ = rng(56)
    for fam in ("blowup_zero_d", "blowup_generic"):
        for mt in family_instances(fam, 4, seed=57):
            for p in _incident_points(r_, 4):
                assert fiber_projection_check(mt, p)


def test_fiber_projection_rejects_exceptional_line():
    mt = generate(GenSpec(k=1, r=1, seed=10, family="blowup_generic"))
    with pytest.raises(PointOnExceptionalLine):
        fiber_projection_check(mt, BlowupPoint(ProjectivePoint(0, 0, 1), 1, 0))


def test_fiber_projection_check_on_raw_tuples():
    """Valid raw tuples pass; a non-integrable one may fail."""
    verdicts = {True: set(), False: set()}
    points = _incident_points(rng(0), 3)
    for mt in raw_blowup_tuples(20, seed=7, kmax=3, rmax=2):
        for p in points:
            verdicts[is_valid(mt)].add(fiber_projection_check(mt, p))
    assert verdicts == {True: {True}, False: {True, False}}


def test_fiber_projection_check_rejects_wrong_data(monkeypatch):
    """Forgetting the W0 blocks maps Ker B~ into Ker B and Im A~ into
    Im A for every raw tuple, so the first two checks fire only on a
    wrong pushforward; a Ker B~ basis short of one vector fails the
    dimension count."""
    mt = generate(GenSpec(k=2, r=2, seed=3, family="blowup_generic"))
    p = BlowupPoint.over(ProjectivePoint(1, 2, 3))
    assert fiber_projection_check(mt, p)
    real_push, real_kernel = stratify.pushforward, blowup.kernel_basis
    # a doubled b changes B alone, a doubled c A alone
    for name in ("b", "c"):
        def doubled(mt_):
            m = real_push(mt_)
            return replace(m, **{name: getattr(m, name).scale(2)})

        monkeypatch.setattr(stratify, "pushforward", doubled)
        assert not fiber_projection_check(mt, p)
    monkeypatch.setattr(stratify, "pushforward", real_push)

    def short_kernel(M):
        K = real_kernel(M)
        return Subspace(K.ambient_dim,
                        K.basis.submatrix(range(K.ambient_dim), range(K.dim - 1)))

    monkeypatch.setattr(blowup, "kernel_basis", short_kernel)
    assert not fiber_projection_check(mt, p)
