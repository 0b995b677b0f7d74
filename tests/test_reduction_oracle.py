"""Canonical reduction in two splits against the fixed-point loop.

``monad_oracle.canonical_reduction`` recomputes both special subspaces
after every split until neither splits.  The two-split reduction must
give the same reduced tuple, points, ``approx`` flag and exception type
in both eigen modes: on the seeded families, on direct sums that need
both splits, on structured non-integrable tuples and on small raw
tuples drawn by hypothesis.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monad_oracle as oracle
from conftest import is_integrable, raw_p2_tuples, rng
from monadcalc import p2
from monadcalc.field import qi
from monadcalc.generate import GenSpec, generate, random_invertible
from monadcalc.matrix import Matrix, block
from monadcalc.p2 import MonadDataP2, act, canonical_reduction
from monadcalc.stratify import pushforward

MODES = ("exact", "float")


def _outcome(reduce, m, mode):
    try:
        du = reduce(m, eigen_mode=mode)
    except Exception as exc:  # the exception type is part of the contract
        return type(exc)
    return du.reduced, du.points, du.approx


def _assert_matches_loop(m):
    for mode in MODES:
        assert (_outcome(canonical_reduction, m, mode)
                == _outcome(oracle.canonical_reduction, m, mode)), (m, mode)


def _direct_sum(parts):
    """Block-diagonal a1, a2, b and c: the framings stay apart."""
    def diag(mats):
        return block([[M if i == j else Matrix.zeros(M.rows, N.cols)
                       for j, N in enumerate(mats)]
                      for i, M in enumerate(mats)])
    return MonadDataP2(*(diag([getattr(m, name) for m in parts])
                         for name in ("a1", "a2", "b", "c")))


def _entry(r_, sparse=0.0):
    if r_.random() < sparse:
        return qi(0)
    return qi(r_.randint(-4, 4), r_.choice((0, 0, 1, -2)))


def _random(r_, rows, cols, sparse=0.0):
    return Matrix(rows, cols, [_entry(r_, sparse) for _ in range(rows * cols)])


def _structured(r_, sizes, r, commuting):
    """Raw tuple with an invariant flag V1 in V1 + V2 in W: the a's are
    block upper triangular, c vanishes on the first block and b on the
    last, so both splits are taken.  With ``commuting`` the first and
    last diagonal blocks are diagonal, so the discarded blocks commute."""
    n = len(sizes)

    def a_block(i, j):
        if i > j:
            return Matrix.zeros(sizes[i], sizes[j])
        if i == j and commuting and i in (0, n - 1):
            return Matrix.diagonal([_entry(r_) for _ in range(sizes[i])])
        return _random(r_, sizes[i], sizes[j])

    a1, a2 = (block([[a_block(i, j) for j in range(n)] for i in range(n)])
              for _ in range(2))
    b = block([[_random(r_, s, r) if i < n - 1 else Matrix.zeros(s, r)]
               for i, s in enumerate(sizes)])
    c = block([[_random(r_, r, s) if i > 0 else Matrix.zeros(r, s)
                for i, s in enumerate(sizes)]])
    return MonadDataP2(a1, a2, b, c)


def _conjugated(r_, m):
    return act(random_invertible(r_, m.k), m) if m.k else m


# -- seeded families ------------------------------------------------------

@pytest.mark.parametrize("family", ["charge_one", "commuting_points",
                                    "block_concentrated"])
def test_seeded_p2_families_match_the_loop(family):
    shapes = [(k, r) for k in range(7) for r in (1, 2, 3)
              if family != "charge_one" or (k == 1 and r > 1)]
    for t, (k, r) in enumerate(shapes):
        _assert_matches_loop(generate(GenSpec(k=k, r=r, seed=t, family=family)))


@pytest.mark.parametrize("family", ["blowup_zero_d", "blowup_generic",
                                    "invalid_integrability"])
def test_pushed_blowup_families_match_the_loop(family):
    for t, k in enumerate(range(1, 6)):
        mt = generate(GenSpec(k=k, r=1 + t % 3, seed=t, family=family))
        _assert_matches_loop(pushforward(mt))


# -- tuples that take both splits -----------------------------------------

def _dual(m):
    """(a1^T, -a2^T, c^T, b^T): valid when m is, with the roles of the
    b- and c-special subspaces exchanged."""
    return MonadDataP2(m.a1.transpose(), -m.a2.transpose(), m.c.transpose(),
                       m.b.transpose())


def _direct_sums(count, seed):
    """charge_one + commuting_points + block_concentrated + the dual of
    another block_concentrated: the c-special split takes the points and
    part of the concentrated block, the b-special split the dual's
    quotient."""
    r_ = rng(seed)
    out = []
    for t in range(count):
        def part(family, k):
            return generate(GenSpec(k=k, r=r_.randint(1, 2), seed=t,
                                    family=family))
        parts = [generate(GenSpec(k=1, r=2, seed=t, family="charge_one")),
                 part("commuting_points", r_.randint(1, 2)),
                 part("block_concentrated", r_.randint(1, 2)),
                 _dual(part("block_concentrated", r_.randint(1, 2)))]
        r_.shuffle(parts)
        m = _direct_sum(parts)
        out.append(_conjugated(r_, m) if t % 2 else m)
    return out


def _loop_splits(monkeypatch):
    """Count the splits the loop makes, by subspace dimension."""
    splits = []
    split_top = oracle._split_top

    def counted(m, V):
        splits.append(V.dim)
        return split_top(m, V)
    monkeypatch.setattr(oracle, "_split_top", counted)
    return splits


def test_direct_sums_match_the_loop(monkeypatch):
    splits = _loop_splits(monkeypatch)
    for m in _direct_sums(12, seed=110):
        assert is_integrable(m)
        del splits[:]
        _assert_matches_loop(m)
        assert len(splits) == 2 * len(MODES)


def test_structured_non_integrable_tuples_match_the_loop(monkeypatch):
    splits = _loop_splits(monkeypatch)
    r_ = rng(111)
    for t in range(40):
        sizes = [r_.randint(1, 2), r_.randint(0, 2), r_.randint(1, 2)]
        m = _structured(r_, sizes, r_.randint(1, 2), commuting=t % 4 != 3)
        if t % 2:
            m = _conjugated(r_, m)
        del splits[:]
        _assert_matches_loop(m)
        assert len(splits) == 2 * len(MODES)


def test_raw_tuples_match_the_loop():
    for m in raw_p2_tuples(30, seed=112, kmax=4):
        _assert_matches_loop(m)


_SCALARS = st.sampled_from([0, 0, 0, 0, 1, -1, 2, qi(0, 1), qi(1, -1),
                            qi("1/2")])


@st.composite
def small_raw_tuples(draw):
    k, r = draw(st.integers(0, 4)), draw(st.integers(1, 3))

    def mat(rows, cols):
        return Matrix(rows, cols, [qi(draw(_SCALARS))
                                   for _ in range(rows * cols)])
    return MonadDataP2(mat(k, k), mat(k, k), mat(k, r), mat(r, k))


@settings(max_examples=120, deadline=None)
@given(small_raw_tuples())
def test_hypothesis_raw_tuples_match_the_loop(m):
    _assert_matches_loop(m)


# -- the number of special-subspace computations --------------------------

def test_each_special_subspace_is_computed_once(monkeypatch):
    calls = {"max_c_special": 0, "min_b_special": 0}
    for name in calls:
        fn = getattr(p2, name)

        def counted(m, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(m)
        monkeypatch.setattr(p2, name, counted)
    r_ = rng(113)
    cases = (_direct_sums(4, seed=113)
             + [_structured(r_, [1, 1, 1], 1, commuting=True) for _ in range(4)]
             + [generate(GenSpec(k=3, r=2, seed=t, family=f))
                for t in range(2) for f in ("commuting_points",
                                            "block_concentrated")])
    for n, m in enumerate(cases, 1):
        canonical_reduction(m)
        assert calls == {"max_c_special": n, "min_b_special": n}
