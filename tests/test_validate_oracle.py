"""``validate_p2`` and ``validate`` on raw tuples against sympy's
``DomainMatrix`` over QQ_I, an oracle that shares no code with
``Matrix.__matmul__`` or ``_eliminate``: the verdict, the defect an
``IntegrabilityViolation`` carries and the ``cokernel_dim`` of a
``SurjectivityViolation``."""

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from monadcalc.blowup import MonadDataBlowup, validate
from monadcalc.errors import IntegrabilityViolation, SurjectivityViolation
from monadcalc.field import I, ONE, ZERO, qi
from monadcalc.matrix import Matrix
from monadcalc.p2 import MonadDataP2, validate_p2

# zero three times in nine, so that rank drops and b c = 0 both occur
_ENTRIES = st.sampled_from([ZERO, ZERO, ZERO, ONE, -ONE, qi(2), I,
                            qi("1/2"), qi(-3, "2/3")])


@st.composite
def _raw_tuples(draw):
    """k = 0-4, r = 1-3, in three kinds: unconstrained plane or blowup
    tuples (mostly not integrable); plane tuples with a2 = 0 and b c = 0
    (integrable); blowup tuples with d = 0 and b c = 0 (integrable,
    surjective or not)."""
    k, r = draw(st.integers(0, 4)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["raw", "p2", "blowup"]))

    def mat(rows, cols):
        return Matrix(rows, cols, [draw(_ENTRIES) for _ in range(rows * cols)])

    if kind == "raw":
        blowup = draw(st.booleans())
        a1, a2, b, c = mat(k, k), mat(k, k), mat(k, r), mat(r, k)
        if blowup:
            return MonadDataBlowup(a1, a2, mat(k, k), b, c)
        return MonadDataP2(a1, a2, b, c)
    # b c sums b[:, j] c[j, :] over j: each j feeds b or c, never both
    in_b = [draw(st.booleans()) for _ in range(r)]
    b = Matrix(k, r, [draw(_ENTRIES) if in_b[j] else ZERO
                      for _ in range(k) for j in range(r)])
    c = Matrix(r, k, [ZERO if in_b[j] else draw(_ENTRIES)
                      for j in range(r) for _ in range(k)])
    if kind == "p2":
        return MonadDataP2(mat(k, k), Matrix.zeros(k, k), b, c)
    return MonadDataBlowup(mat(k, k), mat(k, k), Matrix.zeros(k, k), b, c)


def _qqi(x):
    return QQ_I(QQ(x.re.numerator, x.re.denominator),
                QQ(x.im.numerator, x.im.denominator))


def _dm(M: Matrix) -> DomainMatrix:
    rows = [[_qqi(M[i, j]) for j in range(M.cols)] for i in range(M.rows)]
    return DomainMatrix(rows, (M.rows, M.cols), QQ_I)


def oracle_verdict(inst):
    """("valid", None), ("IntegrabilityViolation", defect entries) or
    ("SurjectivityViolation", cokernel dimension), by DomainMatrix."""
    a1, a2, b, c = (_dm(M) for M in (inst.a1, inst.a2, inst.b, inst.c))
    blowup = isinstance(inst, MonadDataBlowup)
    if blowup:
        d = _dm(inst.d)
        defect = a1 * d * a2 - a2 * d * a1 + b * c
    else:
        defect = a1 * a2 - a2 * a1 + b * c
    if not defect.is_zero_matrix:
        return "IntegrabilityViolation", defect.to_list()
    if blowup:
        cokernel_dim = inst.k - a1.hstack(a2, b).rank()
        if cokernel_dim:
            return "SurjectivityViolation", cokernel_dim
    return "valid", None


def verdict(inst):
    """The same triple from the package's validators."""
    check = validate if isinstance(inst, MonadDataBlowup) else validate_p2
    try:
        assert check(inst) is inst
    except IntegrabilityViolation as exc:
        return "IntegrabilityViolation", _dm(exc.defect).to_list()
    except SurjectivityViolation as exc:
        return "SurjectivityViolation", exc.cokernel_dim
    return "valid", None


@settings(max_examples=300, deadline=None, database=None)
@given(_raw_tuples())
def test_validate_matches_domain_matrix_oracle(inst):
    assert verdict(inst) == oracle_verdict(inst)
