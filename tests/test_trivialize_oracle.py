"""Trivialization on Gaussian-integer numerators against the Q(i) path
kept in trivialize_oracle.py: verdicts, and the values of the public
helpers, on seeded concentrated instances, on raw tuples that are
concentrated but not integrable, and on hypothesis-drawn tuples with
nilpotent a1 and a2, where NotConcentrated must be raised exactly when
the tuple is not concentrated.  The checks on the pencil blocks (one
k x k rank and the overlap's block products) are also compared with the
elimination of the stacked frame system that they replaced
(``trivialize_oracle.verify_by_solve``), with correct and with broken
frames, and on entries far above the seeded families' heights."""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trivialize_oracle as oracle
from conftest import is_integrable, rng
from monadcalc import p2, trivialize
from monadcalc.field import I, ONE, QI, ZERO, Rat, qi
from monadcalc.generate import GenSpec, generate, random_invertible
from monadcalc.matrix import Matrix, _clear
from monadcalc.p2 import MonadDataP2, act, is_concentrated_at_origin
from monadcalc.trivialize import (ChartPoint, NotConcentrated,
                                  default_sample_points, frame_matrix,
                                  section_s1, section_s2, transition_xi,
                                  verify_trivialization)
from test_trivialize import (BROKEN_FRAMES, _EDGE_POINTS, _jordan_tuple,
                             break_frames)

# the default points, U2 points on the overlap, and points off it
POINTS = (default_sample_points(10)
          + [ChartPoint("U2", qi(2, 1), qi(-3)),
             ChartPoint("U2", qi("-5/2"), qi(1, -2))]
          + _EDGE_POINTS)


def _verdicts_match_oracle(monkeypatch, m, points=POINTS):
    """Compare each point's verdict and every helper's value with the
    oracle; return the verdicts."""
    assert is_concentrated_at_origin(m)
    # checked once above; the helpers would repeat it on every call
    monkeypatch.setattr(trivialize, "is_concentrated_at_origin", lambda m_: True)
    verdicts = []
    for p in points:
        verdict = verify_trivialization(m, sample_points=[p])
        assert verdict == oracle.verify(m, [p]), p
        verdicts.append(verdict)
        assert frame_matrix(m, p) == oracle.frame_matrix(m, p), p
        section = section_s1 if p.chart == "U1" else section_s2
        for i in range(1, m.r + 1):
            assert section(m, i, p) == oracle.section(m, i, p), (p, i)
            if p.chart == "U1" and not p.coord_a.is_zero():
                xi1, _ = transition_xi(m, i, p.coord_a, p.coord_b)
                assert xi1 == oracle.transition_xi1(m, i, p), (p, i)
    assert verify_trivialization(m, sample_points=points) == all(verdicts)
    return verdicts


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("k", range(7))
def test_seeded_instances_match_oracle(monkeypatch, k, seed):
    m = generate(GenSpec(k=k, r=(k + seed) % 3 + 1, seed=140 + 10 * seed + k,
                         family="block_concentrated"))
    assert all(_verdicts_match_oracle(monkeypatch, m))


def _longest_series_tuple(k):
    """a1 = N, a2 = N^2 for one nilpotent Jordan block N of size k,
    conjugated, with a random b and c = 0: the a1 words of b run to
    a1^(k-1) b, the longest series the data allow."""
    r_ = rng(150 + k)
    N = Matrix(k, k, [ONE if j == i + 1 else ZERO
                      for i in range(k) for j in range(k)])

    def entry():
        return qi(f"{r_.randint(-3, 3)}/{r_.choice((1, 2, 3))}", r_.randint(-2, 2))

    r = r_.randint(1, 3)
    entries = [entry() for _ in range(k * r)]
    entries[(k - 1) * r] = qi(r_.choice((1, 2, -3)))  # b's last row is nonzero
    b = Matrix(k, r, entries)
    return act(random_invertible(r_, k),
               MonadDataP2(N, N @ N, b, Matrix.zeros(r, k)))


@pytest.mark.parametrize("k", range(1, 7))
def test_longest_series_match_oracle(monkeypatch, k):
    """The tuples of :func:`_longest_series_tuple`."""
    m = _longest_series_tuple(k)
    W = trivialize._words(p2._integer(m))
    assert len(W[0]) == k and len(W) == (k + 1) // 2
    assert all(_verdicts_match_oracle(monkeypatch, m))


def _concentrated_not_integrable(r_, k, r):
    """Nilpotent a1, a2 (strictly upper triangular, conjugated) and c = 0,
    so concentrated; redrawn until [a1, a2] != 0."""
    def entry():
        return qi(f"{r_.randint(-3, 3)}/{r_.choice((1, 1, 2, 3))}",
                  r_.choice((0, 0, 1, -2)))

    def strict():
        return Matrix(k, k, [entry() if j > i else ZERO
                             for i in range(k) for j in range(k)])

    while True:
        b = Matrix(k, r, [entry() for _ in range(k * r)])
        m = act(random_invertible(r_, k),
                MonadDataP2(strict(), strict(), b, Matrix.zeros(r, k)))
        if not is_integrable(m):
            return m


def test_raw_concentrated_tuples_match_oracle(monkeypatch):
    r_ = rng(141)
    verdicts = []
    for _ in range(10):
        m = _concentrated_not_integrable(r_, r_.randint(3, 4), r_.randint(1, 3))
        verdicts += _verdicts_match_oracle(monkeypatch, m)
    # the transition identity fails on most overlap points with x3 != 0;
    # the other points pass
    assert 0.3 < verdicts.count(False) / len(verdicts) < 0.8


_ENTRIES = st.sampled_from([ZERO, ZERO, ONE, -ONE, qi(2), I, qi("1/2"), qi(-3, 1)])


@st.composite
def _nilpotent_tuples(draw):
    """Raw tuples, k = 1-4 and r = 1-3, with strictly upper triangular a1
    and a2 and c = 0 half the time: concentrated whenever c = 0, mostly
    not otherwise."""
    k, r = draw(st.integers(1, 4)), draw(st.integers(1, 3))

    def mat(rows, cols, strict=False):
        return Matrix(rows, cols, [draw(_ENTRIES) if not strict or i < j else ZERO
                                   for i in range(rows) for j in range(cols)])

    a1, a2, b = mat(k, k, True), mat(k, k, True), mat(k, r)
    c = Matrix.zeros(r, k) if draw(st.booleans()) else mat(r, k)
    return MonadDataP2(a1, a2, b, c)


@settings(max_examples=40, deadline=None, database=None)
@given(_nilpotent_tuples())
def test_hypothesis_tuples_match_oracle(m):
    """NotConcentrated exactly off the concentrated tuples; on them, every
    verdict and helper value agrees with the oracle."""
    if not is_concentrated_at_origin(m):
        with pytest.raises(NotConcentrated):
            verify_trivialization(m, sample_points=POINTS[:1])
        return
    with pytest.MonkeyPatch.context() as mp:
        _verdicts_match_oracle(mp, m)


# -- the minor and the product against the elimination they replaced ----

def _seeded(k, r):
    """A seeded block_concentrated tuple; for r = 0 (which the generator
    does not draw) the r = 1 tuple with its framing dropped, which stays
    concentrated."""
    m = generate(GenSpec(k=k, r=max(r, 1), seed=170 + 4 * k + r,
                         family="block_concentrated"))
    if r:
        return m
    return MonadDataP2(m.a1, m.a2, Matrix.zeros(k, 0), Matrix.zeros(0, k))


def _height_rung(k=6, digits=10):
    """One rung of the height ladder: a seeded block_concentrated tuple
    and a long-series tuple, acted on by g with random digits-digit
    Gaussian-integer entries."""
    r_ = rng(180)
    lo, hi = 10 ** (digits - 1), 10 ** digits - 1

    def part():
        return r_.choice((1, -1)) * r_.randint(lo, hi)

    g = Matrix(k, k, [qi(part(), part()) for _ in range(k * k)])
    return [act(g, generate(GenSpec(k=k, r=2, seed=181, family="block_concentrated"))),
            act(g, _longest_series_tuple(k))]


def _bits(m):
    """The largest bit length of a numerator or denominator in m."""
    return max((q.numerator.bit_length(), q.denominator.bit_length())[s]
               for M in (m.a1, m.a2, m.b, m.c) for x in M.entries
               for q in (x.re, x.im) for s in (0, 1))


def _differential_corpus():
    return ([_seeded(k, r) for k in range(7) for r in range(4)]
            + [_jordan_tuple(k) for k in (3, 4, 5)]
            + [_longest_series_tuple(k) for k in range(1, 7)]
            + _height_rung())


def _same_verdicts(m, points=POINTS):
    """Each point's verdict, and the verdict on all of them, equal the
    solve path's; returns the per-point verdicts."""
    verdicts = [verify_trivialization(m, sample_points=[p]) for p in points]
    assert verdicts == [oracle.verify_by_solve(m, [p]) for p in points], m
    assert (verify_trivialization(m, sample_points=points)
            == oracle.verify_by_solve(m, points) == all(verdicts))
    return verdicts


def test_verdicts_match_the_solve_path(monkeypatch):
    """Seeded block_concentrated k = 0..6, r = 0..3, the Jordan tuples,
    the longest series and the height rung, at the default points, U2
    points and the edge points: every verdict is yes on both paths."""
    corpus = _differential_corpus()
    assert all(is_concentrated_at_origin(m) for m in corpus)
    monkeypatch.setattr(trivialize, "is_concentrated_at_origin", lambda m_: True)
    for m in corpus:
        assert all(_same_verdicts(m))


@pytest.mark.parametrize("broken", BROKEN_FRAMES, ids=lambda b: b.__name__)
def test_broken_frames_match_the_solve_path(monkeypatch, broken):
    """Under each frame breaker of test_trivialize, which both paths read,
    the verdicts agree point by point, and the breaker is rejected
    somewhere on every tuple with k > 0 and r > 0.  The rank-deficient
    breaker, which needs a vector of Ker c outside the sections' spans,
    is rejected at every point of every tuple with r < k."""
    corpus = _differential_corpus()
    monkeypatch.setattr(trivialize, "is_concentrated_at_origin", lambda m_: True)
    break_frames(monkeypatch, broken)
    for m in corpus:
        verdicts = _same_verdicts(m)
        if m.k and m.r:
            assert not all(verdicts), m
        if broken.__name__ == "_rank_deficient" and m.r < m.k:
            assert not any(verdicts), m


def test_height_rung_exceeds_the_seeded_heights():
    """The rung's entries are far above the 79 bits that the seeded
    families reach, and its verdicts come from the exact path."""
    for m in _height_rung():
        assert _bits(m) > 200
        assert verify_trivialization(m)


def test_points_are_cleared_once_when_made():
    """Each ChartPoint clears coords() when it is made: its stored Gaussian
    integers x over e equal ``_clear(p.coords())`` and give back the
    coordinates, on both charts, with zero coordinates, Gaussian-integer
    points (e = 1) and rational ones (e > 1).  The stored field is not
    part of the point's equality, hash, repr or constructor."""
    seen = set()
    for p in POINTS:
        x, e = p._cleared
        assert (list(x), e) == _clear(p.coords())
        assert [QI(Rat(a, e), Rat(b, e)) for a, b in x] == list(p.coords())
        seen |= {p.chart, e > 1} | {"zero" for c in p.coords() if c.is_zero()}
    assert seen == {"U1", "U2", False, True, "zero"}
    p = ChartPoint("U2", qi("1/2", 1), qi(-2))
    assert p._cleared == (((1, 2), (2, 0), (-4, 0)), 2)
    assert repr(p) == "ChartPoint(chart='U2', coord_a=QI(1/2, 1), coord_b=QI(-2))"
    assert p == ChartPoint(chart="U2", coord_a=qi("1/2", 1), coord_b=-2)
    assert p != ChartPoint("U1", qi("1/2", 1), qi(-2))
    assert hash(p) == hash(("U2", qi("1/2", 1), qi(-2)))
    assert [f.name for f in fields(p) if f.init or f.compare or f.repr] == [
        "chart", "coord_a", "coord_b"]
    with pytest.raises(TypeError):
        ChartPoint("U2", ONE, ONE, _clear((ONE, ONE, ONE)))
