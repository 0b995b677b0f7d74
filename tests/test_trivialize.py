"""Frame sections and transition data away from [0:0:1]."""

import pytest

import trivialize_oracle as oracle
from conftest import family_instances, rng
from monadcalc import matrix, p2, trivialize
from monadcalc.errors import (InvalidPoint, InvariantViolation, MonadcalcError,
                              OverlapViolation)
from monadcalc.field import ONE, QI, ZERO, qi
from monadcalc.generate import GenSpec, _shift, generate, random_invertible
from monadcalc.matrix import (Matrix, _clear, _ZiMatrix, hstack, inverse,
                              kernel_basis, rank, solve, vstack)
from monadcalc.p2 import MonadDataP2, act, evaluate_A, evaluate_B
from monadcalc.trivialize import (ChartPoint, NotConcentrated,
                                  default_sample_points, frame_matrix,
                                  section_s1, section_s2, transition_xi,
                                  verify_trivialization)


def _k1_instance():
    """k = 1, r = 2, a1 = a2 = 0, b = (1 2), c = 0: concentrated by fiat."""
    return MonadDataP2(Matrix.zeros(1, 1), Matrix.zeros(1, 1),
                       Matrix.from_rows([[1, 2]]), Matrix.zeros(2, 1))


def test_section_s1_k1_hand_computed():
    # a1 = 0 so (1 - a3 a1)^-1 = 1 and s1 = (0, -a3 b e_i, e_i)
    m = _k1_instance()
    p = ChartPoint("U1", qi(2), qi(3))
    s = section_s1(m, 1, p)
    assert s == Matrix.column([0, -3, 1, 0])
    s2 = section_s1(m, 2, p)
    assert s2 == Matrix.column([0, -6, 0, 1])
    # and it lies in Ker B at [1 : 2 : 3]
    B = evaluate_B(m, p.projective())
    assert (B @ s).is_zero() and (B @ s2).is_zero()


def test_section_s2_k1_hand_computed():
    m = _k1_instance()
    p = ChartPoint("U2", qi("1/2"), qi("3/2"))  # [1/2 : 1 : 3/2]
    s = section_s2(m, 1, p)
    assert s == Matrix.column([qi("3/2"), 0, 1, 0])
    B = evaluate_B(m, p.projective())
    assert (B @ s).is_zero()


def test_sections_require_concentration():
    free = MonadDataP2(Matrix.identity(1), Matrix.zeros(1, 1),
                       Matrix.zeros(1, 1), Matrix.zeros(1, 1))
    u1, u2 = ChartPoint("U1", ONE, ZERO), ChartPoint("U2", ONE, ONE)
    # every public helper checks concentration itself
    for call in (lambda: section_s1(free, 1, u1),
                 lambda: section_s2(free, 1, u2),
                 lambda: frame_matrix(free, u1),
                 lambda: transition_xi(free, 1, ONE, ONE),
                 lambda: verify_trivialization(free)):
        with pytest.raises(NotConcentrated):
            call()


def test_section_chart_and_index_checks():
    m = _k1_instance()
    with pytest.raises(ValueError):
        section_s1(m, 1, ChartPoint("U2", ONE, ZERO))
    with pytest.raises(IndexError):
        section_s1(m, 3, ChartPoint("U1", ONE, ZERO))


def test_chart_errors_are_domain_errors():
    m = _k1_instance()
    with pytest.raises(MonadcalcError):
        ChartPoint("U3", ONE, ZERO)
    with pytest.raises(InvalidPoint):
        section_s1(m, 1, ChartPoint("U2", ONE, ZERO))
    with pytest.raises(InvalidPoint):
        section_s2(m, 1, ChartPoint("U1", ONE, ZERO))


def test_frame_matrix_full_rank():
    for m in family_instances("block_concentrated", 5, seed=70):
        for p in default_sample_points(4):
            F = frame_matrix(m, p)
            assert F.rows == 2 * m.k + m.r and F.cols == m.k + m.r
            assert rank(F) == m.k + m.r


def test_transition_k1_hand_computed():
    # xi1 = a3/a2 * b e_i for a1 = a2 = 0 data
    m = _k1_instance()
    xi1, xi2 = transition_xi(m, 1, qi(2), qi(6))
    assert xi1 == Matrix.column([3])
    assert xi2 == Matrix.column([1, 0])
    with pytest.raises(OverlapViolation):
        transition_xi(m, 1, ZERO, ONE)


def test_transition_identity_on_overlap():
    m = generate(GenSpec(k=3, r=2, seed=4, family="block_concentrated"))
    a2c, a3c = qi(2, 1), qi("-1/2", 1)
    p1 = ChartPoint("U1", a2c, a3c)
    u2 = ChartPoint("U2", a2c.inverse(), a3c * a2c.inverse())
    A = evaluate_A(m, p1.projective())
    for i in (1, 2):
        xi1, xi2 = transition_xi(m, i, a2c, a3c)
        s1 = section_s1(m, i, p1)
        s2 = section_s2(m, i, u2)
        assert (s2 - s1 - A @ xi1).is_zero()
        assert (m.c @ xi1).is_zero()
        # independent oracle: generic solve of the frame system
        generic = solve(frame_matrix(m, p1), s2)
        assert generic == vstack([xi1, xi2])


def _jordan_tuple(k):
    """a1 = N, a2 = N^2 for one Jordan block N, conjugated, with r = 2,
    c = 0 and b's last row nonzero: the series run to a1^(k-1) b and to
    more than one a2 word, which no seeded family reaches."""
    r_ = rng(160 + k)
    r = 2
    entries = [qi(r_.randint(-3, 3), r_.randint(-2, 2)) for _ in range(k * r)]
    entries[(k - 1) * r] = qi(r_.choice((1, 2, -3)))
    N = _shift(k)
    return act(random_invertible(r_, k),
               MonadDataP2(N, N @ N, Matrix(k, r, entries), Matrix.zeros(r, k)))


@pytest.mark.parametrize("k", [3, 4, 5])
def test_long_series_transition_matches_closed_form(k):
    """The transition of the Jordan tuples (:func:`_jordan_tuple`) against
    its closed form."""
    m = _jordan_tuple(k)
    r = m.r
    W = trivialize._words(p2._integer(m))
    assert len(W[0]) == k and len(W) == (k + 1) // 2 > 1
    assert verify_trivialization(m)
    eye = Matrix.identity(k)
    for p in default_sample_points(10):
        a2c, a3c = p.coord_a, p.coord_b
        closed = (inverse(eye - m.a1.scale(a3c))
                  @ inverse(eye.scale(a2c) - m.a2.scale(a3c)) @ m.b).scale(a3c)
        for i in range(1, r + 1):
            xi1, xi2 = transition_xi(m, i, a2c, a3c)
            assert xi1 == closed.col_matrix(i - 1)
            assert xi2 == Matrix.identity(r).col_matrix(i - 1)


def test_default_sample_points_deterministic():
    pts = default_sample_points(10)
    assert pts == default_sample_points(10)
    pts.pop()  # each call returns a new list
    assert len(default_sample_points(10)) == 10
    assert default_sample_points(3) == pts[:3]
    assert pts[0].coord_b.is_zero()  # always includes alpha3 = 0
    assert default_sample_points(0) == []
    with pytest.raises(ValueError):
        default_sample_points(-1)


def test_verify_trivialization_families():
    for m in family_instances("block_concentrated", 6, seed=71):
        assert verify_trivialization(m, n_samples=5)


def test_verify_trivialization_handles_u2_points():
    m = generate(GenSpec(k=2, r=2, seed=5, family="block_concentrated"))
    # U2 points on and off the overlap ([0:1:1] and [0:1:0] have beta1 = 0),
    # and U1 points off the overlap (alpha2 = 0) and with alpha3 = 0
    pts = [ChartPoint("U2", qi(3), qi(1)), ChartPoint("U2", ZERO, ONE),
           ChartPoint("U2", ZERO, ZERO), ChartPoint("U2", qi(2), ZERO),
           ChartPoint("U1", ZERO, qi(2)), ChartPoint("U1", ZERO, ZERO),
           ChartPoint("U1", qi(-1, 1), ZERO)]
    assert verify_trivialization(m, sample_points=pts)
    for p in pts:
        assert verify_trivialization(m, sample_points=[p])


@pytest.mark.parametrize("kwargs", [{"n_samples": 0}, {"n_samples": -5},
                                    {"sample_points": []}])
def test_verify_needs_a_point_to_check(kwargs):
    m = generate(GenSpec(k=2, r=1, seed=5, family="block_concentrated"))
    with pytest.raises(ValueError):
        verify_trivialization(m, **kwargs)


def test_verify_checks_concentration_once(monkeypatch):
    checks, nil = [], []
    real_check, real_nilpotent = p2.is_concentrated_at_origin, p2._nilpotent

    def counting_check(m):
        checks.append(m)
        return real_check(m)

    def counting_nilpotent(Z):
        nil.append(Z)
        return real_nilpotent(Z)

    monkeypatch.setattr(trivialize, "is_concentrated_at_origin", counting_check)
    # the integer-form test that the concentration check runs
    monkeypatch.setattr(p2, "_nilpotent", counting_nilpotent)
    pts = default_sample_points(6) + [ChartPoint("U2", qi(3), qi(1)),
                                      ChartPoint("U2", ZERO, ONE)]
    for m in family_instances("block_concentrated", 6, seed=72):
        checks.clear()
        nil.clear()
        assert verify_trivialization(m, sample_points=pts)
        assert len(checks) == 1
        assert len(nil) == 2  # a1 and a2, once each


@pytest.mark.parametrize("a1, a2", [(Matrix.identity(2), Matrix.zeros(2, 2)),
                                    (Matrix.zeros(2, 2), Matrix.identity(2))])
def test_word_lists_stop_on_non_nilpotent_data(a1, a2):
    """The series has at most k words; a^k b != 0 is an invariant
    violation, not a loop."""
    t = p2._integer(MonadDataP2(a1, a2, Matrix.from_rows([[1], [2]]),
                                Matrix.zeros(1, 2)))
    with pytest.raises(InvariantViolation):
        trivialize._frames(t, trivialize._words(t), *_clear((ONE, qi(2), qi(1))))


def _closed_form_column(m, p, i):
    """The section for framing index i from the closed form, one vector."""
    e = Matrix.identity(m.r).col_matrix(i - 1)
    t = p.coord_b
    a = m.a1 if p.chart == "U1" else m.a2
    w = inverse(Matrix.identity(m.k) - a.scale(t)) @ m.b @ e
    zero = Matrix.zeros(m.k, 1)
    if p.chart == "U1":
        return vstack([zero, w.scale(-t), e])
    return vstack([w.scale(t), zero, e])


# chart points on and off the overlap: alpha2 = 0, alpha3 = 0, [0:1:0]
# (beta1 = beta3 = 0) and beta1 = 0
_EDGE_POINTS = [
    ChartPoint("U1", ZERO, qi(2)), ChartPoint("U1", ZERO, ZERO),
    ChartPoint("U1", qi(-1, 1), ZERO), ChartPoint("U2", qi(3), qi(1)),
    ChartPoint("U2", ZERO, ONE), ChartPoint("U2", ZERO, ZERO),
    ChartPoint("U2", qi("1/2", 1), qi(-2)), ChartPoint("U2", qi(2), ZERO)]


def test_frame_columns_match_per_index_helpers():
    pts = default_sample_points(5) + _EDGE_POINTS
    for m in family_instances("block_concentrated", 6, seed=73):
        for p in pts:
            q = p.projective()
            x1, x2, x3 = q.coords()
            t = p2._integer(m)
            f = trivialize._frames(t, trivialize._words(t), *_clear(q.coords()))
            assert (f.Z is None) == x1.is_zero()
            assert (f.Y is None) == x2.is_zero()
            S = f.sections(p.chart).matrix()
            assert (S.rows, S.cols) == (2 * m.k + m.r, m.r)
            helper = section_s1 if p.chart == "U1" else section_s2
            # the other chart's sections, where the point lies on it
            other = {"U1": f.Z is not None and ChartPoint("U1", x2 / x1, x3 / x1),
                     "U2": f.Y is not None and ChartPoint("U2", x1 / x2, x3 / x2)}
            for i in range(1, m.r + 1):
                assert S.col_matrix(i - 1) == helper(m, i, p)
                assert S.col_matrix(i - 1) == _closed_form_column(m, p, i)
                for chart, u in other.items():
                    if u and chart != p.chart:
                        T = f.sections(chart).matrix()
                        assert T.col_matrix(i - 1) == _closed_form_column(m, u, i)
            A, B = evaluate_A(m, q), evaluate_B(m, q)
            assert frame_matrix(m, p) == hstack([A, S])
            k, rows = m.k, range(m.k)
            assert (A.submatrix(rows, rows), A.submatrix(range(k, 2 * k), rows),
                    A.submatrix(range(2 * k, A.rows), rows)) == (
                        f.P1.matrix(), f.P2.matrix(), m.c.scale(x3))
            assert (B.submatrix(rows, rows), B.submatrix(rows, range(k, 2 * k)),
                    B.submatrix(rows, range(2 * k, B.cols))) == (
                        (-f.P2).matrix(), f.P1.matrix(), m.b.scale(x3))
            assert (f.xi1 is None) == (x1.is_zero() or x2.is_zero())
            if f.xi1 is None:
                continue
            X = f.xi1.matrix()
            # q is normalized, so on the overlap it reads [1 : alpha2 : alpha3]
            a2c, a3c = x2, x3
            shifted = inverse(Matrix.identity(m.k).scale(a2c) - m.a2.scale(a3c))
            R1 = inverse(Matrix.identity(m.k) - m.a1.scale(a3c))
            for i in range(1, m.r + 1):
                xi1, xi2 = transition_xi(m, i, a2c, a3c)
                e = Matrix.identity(m.r).col_matrix(i - 1)
                assert X.col_matrix(i - 1) == xi1
                assert xi1 == (R1 @ shifted @ m.b @ e).scale(a3c)
                assert xi2 == e


def _doubled_u2_framing(f, t):
    """The frames with Y, the W block of every U2 section, doubled."""
    return f if f.Y is None else f._replace(Y=f.Y.scale((2, 0)))


def _shifted_transition(f, t):
    """The frames with xi1 alone off by a nonzero Z[i] matrix."""
    if f.xi1 is None or not f.xi1.nums:
        return f
    n = len(f.xi1.nums)
    return f._replace(xi1=f.xi1 + _ZiMatrix(f.xi1.rows, f.xi1.cols,
                                            [(1, -2)] + [(0, 0)] * (n - 1)))


def _rank_deficient(f, t):
    """The frames with each pencil block P replaced by P + u w^T, u = -P v,
    where v is a vector of Ker c outside the span of the section blocks Y
    and Z, and w^T v = 1 with w^T X = 0 for the block's own section block
    X (Z for P1, Y for P2).  1 + w^T P^-1 u = 1 - w^T v = 0 makes P
    singular, P X is kept, so the Ker-B identities still hold, and both
    blocks kill v, so the stacked frame [A | S] loses rank too.  A v
    exists where Ker c is larger than both spans, so at x3 = 0 (Y = Z = 0)
    whenever r < k; where there is none the frames are left as they are."""
    blocks = {"P1": f.Z, "P2": f.Y}
    spans = [X.matrix() for X in blocks.values() if X is not None]
    K = kernel_basis(t.c.matrix()).basis
    candidates = [K.col_matrix(j) for j in range(K.cols)]
    if K.cols:
        candidates.append(Matrix.column([sum(K.row_list(i), ZERO)
                                         for i in range(K.rows)]))
    v = next((u for u in candidates
              if all(rank(hstack([X, u])) > rank(X) for X in spans)), None)
    if v is None:
        return f

    def singular(P, X):
        W = (kernel_basis(X.matrix().transpose()).basis if X is not None
             else Matrix.identity(t.k))
        w = next(W.col_matrix(j) for j in range(W.cols)
                 if not (W.col_matrix(j).transpose() @ v).is_zero())
        w = w.scale((w.transpose() @ v)[0, 0].inverse())
        P = P.matrix()
        return _ZiMatrix.of(P - P @ v @ w.transpose())

    return f._replace(**{name: singular(getattr(f, name), X)
                         for name, X in blocks.items()})


# each takes the frames at one point, and the tuple's integer form, to
# wrong frames
BROKEN_FRAMES = (_doubled_u2_framing, _shifted_transition, _rank_deficient)


def break_frames(monkeypatch, broken):
    """Route every frame that trivialize builds through ``broken``."""
    real = trivialize._frames
    monkeypatch.setattr(trivialize, "_frames",
                        lambda t, words, x, e: broken(real(t, words, x, e), t))


def test_verify_rejects_a_broken_frame(monkeypatch):
    """The identity checks still fire when the sections are wrong."""
    m = generate(GenSpec(k=3, r=2, seed=6, family="block_concentrated"))
    break_frames(monkeypatch, _doubled_u2_framing)
    assert not verify_trivialization(m, n_samples=4)
    u2 = [ChartPoint("U2", qi(3), qi(1))]  # checked through its own frame
    assert not verify_trivialization(m, sample_points=u2)


def test_overlap_identity_holds_at_every_overlap_point():
    """S2 - S1 = A xi1 and c xi1 = 0, on the stacked monad maps and
    sections, at every overlap point of seeded block_concentrated tuples
    (k = 2..5) and of the Jordan tuples: the identity whose three block
    rows verify_trivialization checks."""
    tuples = [generate(GenSpec(k=k, r=r, seed=75, family="block_concentrated"))
              for k in range(2, 6) for r in (1, 2)]
    tuples += [_jordan_tuple(k) for k in (3, 4, 5)]
    overlap = 0
    for m in tuples:
        t = p2._integer(m)
        W = trivialize._words(t)
        for p in default_sample_points(10) + _EDGE_POINTS:
            f = trivialize._frames(t, W, *p._cleared)
            if f.xi1 is None:
                continue
            overlap += 1
            A, _, S1, S2 = oracle.stacked(t, f, p.coords())
            assert (S2 - S1 - A @ f.xi1).is_zero()
            assert (t.c @ f.xi1).is_zero()
    assert any(not m.c.is_zero() for m in tuples)
    assert overlap == len(tuples) * 14


def test_verify_rejects_a_wrong_transition(monkeypatch):
    """xi1 alone is off by a nonzero Z[i] matrix, the sections and the
    frame are right: the one overlap check rejects it on both charts."""
    m = generate(GenSpec(k=3, r=2, seed=6, family="block_concentrated"))
    pts = [ChartPoint("U1", qi(2), qi(1)), ChartPoint("U2", qi(3), qi(1))]
    assert all(verify_trivialization(m, sample_points=[p]) for p in pts)
    break_frames(monkeypatch, _shifted_transition)
    for p in pts:
        assert not verify_trivialization(m, sample_points=[p])


@pytest.mark.parametrize("k, r", [(0, 0), (0, 2), (2, 0)])
def test_verify_degenerate_shapes(k, r):
    """No W or no framing: the general path verifies, with no early exit."""
    m = MonadDataP2(_shift(k), Matrix.zeros(k, k), Matrix.zeros(k, r),
                    Matrix.zeros(r, k))
    assert verify_trivialization(m)
    assert verify_trivialization(m, sample_points=_EDGE_POINTS)


@pytest.mark.parametrize("point", [
    ChartPoint("U1", ZERO, qi(2)),   # off the overlap
    ChartPoint("U1", qi(2), qi(1))])  # on it
def test_verify_rejects_a_rank_deficient_frame(monkeypatch, point):
    """The breaker keeps the Ker-B identity, so off the overlap the rank
    check alone rejects it."""
    m = generate(GenSpec(k=3, r=2, seed=6, family="block_concentrated"))
    assert verify_trivialization(m, sample_points=[point])
    break_frames(monkeypatch, _rank_deficient)
    assert not verify_trivialization(m, sample_points=[point])


def test_verify_rejects_a_wrong_generic_solve(monkeypatch):
    """At full rank the generic solve of the frame against the other
    chart's sections is unique, and it is (+-xi1, 1) exactly when the
    three block rows P1 xi1 = Y, P2 xi1 = -Z and c xi1 = 0 hold.  Each of
    the three products is perturbed alone, on both charts, and each
    perturbation rejects the point."""
    m = generate(GenSpec(k=3, r=2, seed=6, family="block_concentrated"))
    pts = [ChartPoint("U1", qi(2), qi(1)), ChartPoint("U2", qi(3), qi(1))]
    assert all(verify_trivialization(m, sample_points=[p]) for p in pts)
    frames, perturbed = [], []
    real_frames, real = trivialize._frames, _ZiMatrix.__matmul__
    rows = {"P1": lambda f, L: L is f.P1, "P2": lambda f, L: L is f.P2,
            "c": lambda f, L: (L.rows, L.cols) == (m.r, m.k)}

    def recording(*args):
        frames.append(real_frames(*args))
        return frames[-1]

    def perturbing(self, other):
        X = real(self, other)
        if frames and other is frames[-1].xi1 and row(frames[-1], self):
            perturbed.append(X)
            X = X + _ZiMatrix(X.rows, X.cols, [(1, 0)] + [(0, 0)] * (len(X.nums) - 1))
        return X

    monkeypatch.setattr(trivialize, "_frames", recording)
    monkeypatch.setattr(_ZiMatrix, "__matmul__", perturbing)
    for row in rows.values():
        for p in pts:
            perturbed.clear()
            assert not verify_trivialization(m, sample_points=[p])
            assert len(perturbed) == 1
    assert (m.k, m.r) == (3, 2)  # the shapes tell c from the pencil blocks


def test_verify_operation_counts(monkeypatch):
    """After the concentration check, per default point (all on the
    overlap): one echelon, of the k rows of length k of the chart's own
    pencil block, whose rank certifies the frame's; no stacked matrix
    (the identities are checked on the blocks, by products), no solve,
    and no Matrix product and no QI value at all.  No point is cleared
    (each was cleared when it was made), and on these tuples, whose word
    table is the one word b, a point costs 11 integer forms: the scales
    of Y, Z and xi1, the two pencil blocks, the scaled b and the products
    and negation of the three checks (no zero block: only an empty word
    table builds one)."""
    counts = {"echelon": 0, "add": 0, "solve": 0, "matmul": 0, "qi_mul": 0,
              "qi_new": 0, "hstack": 0, "vstack": 0, "clear": 0,
              "point_clear": 0, "zi_new": 0}
    shapes = []

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    def echelon(self, cols, rows=()):
        rows = list(rows)
        shapes.append((len(rows), cols))
        real_echelon(self, cols, rows)

    def add(self, v):
        assert len(v) == self.cols
        return real_add(self, v)

    pts = default_sample_points(10)
    assert all(not p.coord_a.is_zero() for p in pts)
    real_echelon, real_add = matrix._Echelon.__init__, matrix._Echelon.add
    monkeypatch.setattr(matrix._Echelon, "__init__",
                        counting("echelon", echelon))
    monkeypatch.setattr(matrix._Echelon, "add", counting("add", add))
    monkeypatch.setattr(_ZiMatrix, "solve", counting("solve", _ZiMatrix.solve))
    for name in ("hstack", "vstack"):
        monkeypatch.setattr(_ZiMatrix, name,
                            staticmethod(counting(name, getattr(_ZiMatrix, name))))
    monkeypatch.setattr(Matrix, "__matmul__",
                        counting("matmul", Matrix.__matmul__))
    monkeypatch.setattr(QI, "__mul__", counting("qi_mul", QI.__mul__))
    monkeypatch.setattr(QI, "__rmul__", counting("qi_mul", QI.__rmul__))
    monkeypatch.setattr(QI, "__init__", counting("qi_new", QI.__init__))
    monkeypatch.setattr(_ZiMatrix, "__init__",
                        counting("zi_new", _ZiMatrix.__init__))
    monkeypatch.setattr(matrix, "_clear", counting("clear", matrix._clear))
    for module in (p2, trivialize):
        monkeypatch.setattr(module, "_clear",
                            counting("point_clear", module._clear))
    # the instances are concentrated by construction; the check's own
    # products are not counted here
    monkeypatch.setattr(trivialize, "is_concentrated_at_origin", lambda m_: True)
    for m in family_instances("block_concentrated", 4, seed=74):
        for name in counts:
            counts[name] = 0
        shapes.clear()
        assert verify_trivialization(m, sample_points=pts)
        k = m.k
        # the call's own conversion of the four matrices and its word
        # table (a1 b and a2 b) are spread over the points
        assert counts == {"echelon": len(pts), "add": k * len(pts), "solve": 0,
                          "matmul": 0, "qi_mul": 0, "qi_new": 0, "hstack": 0,
                          "vstack": 0, "clear": 4, "point_clear": 0,
                          "zi_new": 11 * len(pts) + 4 + 2}
        assert shapes == [(k, k)] * len(pts)
        t = p2._integer(m)
        assert trivialize._words(t) == [[t.b]]
