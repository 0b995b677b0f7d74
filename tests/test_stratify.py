"""Pushforward and the fully-degenerate stratum classifier."""

import ast
import os
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import family_instances, is_integrable, raw_blowup_tuples, rng
from monadcalc.blowup import MonadDataBlowup, blowup_defect, validate
from monadcalc.field import I, ONE, ZERO, qi
from monadcalc.generate import GenSpec, generate, random_invertible
from monadcalc import stratify
from monadcalc.matrix import Matrix, Subspace, _ZiMatrix, hstack, kernel_basis
from monadcalc.closure import nilpotency_index
from monadcalc.p2 import (integrability_defect, is_concentrated_at_origin,
                          min_b_special)
from monadcalc.stratify import (ChargeLabel, _failing_words, charge_label,
                                classify_s0, classify_s0_oracle, pushforward)


def test_pushforward_formula():
    mt = generate(GenSpec(k=2, r=2, seed=1, family="blowup_generic"))
    m = pushforward(mt)
    assert m.a1 == mt.d @ mt.a1
    assert m.a2 == mt.d @ mt.a2
    assert m.b == mt.d @ mt.b
    assert m.c == mt.c


def test_pushforward_defect_identity_raw():
    """defect(pushforward) = d . blowup_defect for every raw tuple."""
    for mt in raw_blowup_tuples(40, seed=60):
        assert integrability_defect(pushforward(mt)) == mt.d @ blowup_defect(mt)


def test_pushforward_of_valid_is_integrable():
    for fam in ("blowup_zero_d", "blowup_generic"):
        for mt in family_instances(fam, 5, seed=61):
            assert is_integrable(pushforward(mt))


def test_classify_zero_d_family_is_s0():
    for mt in family_instances("blowup_zero_d", 6, seed=62):
        rep = classify_s0(mt)
        assert rep.is_s0
        assert rep.witness is None
        assert dict(rep.nilpotency) == {"da1": 1, "da2": 1}
        assert rep.krylov_dim == 0
        assert classify_s0_oracle(mt, 2 * mt.k)


def test_classify_witness_non_nilpotent():
    # d = a1 = identity makes d a1 = 1, clearly not nilpotent
    mt = MonadDataBlowup(Matrix.identity(2), Matrix.zeros(2, 2),
                         Matrix.identity(2), Matrix.zeros(2, 1),
                         Matrix.zeros(1, 2))
    rep = classify_s0(mt)
    assert not rep.is_s0
    assert rep.witness == "da1 not nilpotent"
    assert dict(rep.nilpotency)["da1"] is None
    assert not classify_s0_oracle(mt, 4)


def test_classify_witness_da2_not_nilpotent():
    # d = a2 = identity, a1 = b = c = 0 (k = 2, r = 1): only d a2 fails
    mt = validate(MonadDataBlowup(Matrix.zeros(2, 2), Matrix.identity(2),
                                  Matrix.identity(2), Matrix.zeros(2, 1),
                                  Matrix.zeros(1, 2)))
    rep = classify_s0(mt)
    assert not rep.is_s0
    assert rep.nilpotency == (("da1", 1), ("da2", None))
    assert rep.witness == "da2 not nilpotent"
    assert not classify_s0_oracle(mt, 4)


def test_classify_witness_failing_word():
    # d a1 = upper shift, d b = e2, c = e1^T: c (da1) db = 1, shortest word (1,)
    J = Matrix.from_rows([[0, 1], [0, 0]])
    mt = MonadDataBlowup(J, Matrix.zeros(2, 2), Matrix.identity(2),
                         Matrix.from_rows([[0], [1]]),
                         Matrix.from_rows([[1, 0]]))
    rep = classify_s0(mt)
    assert not rep.is_s0
    assert rep.witness == (1,)
    assert dict(rep.nilpotency) == {"da1": 2, "da2": 1}
    assert not classify_s0_oracle(mt, 4)


def test_classify_witness_empty_word():
    # c b != 0 already: the empty word is the witness
    mt = MonadDataBlowup(Matrix.zeros(1, 1), Matrix.zeros(1, 1),
                         Matrix.identity(1), Matrix.from_rows([[1]]),
                         Matrix.from_rows([[1]]))
    rep = classify_s0(mt)
    assert not rep.is_s0
    assert rep.witness == ()


def test_classifier_matches_oracle_on_families():
    for fam in ("blowup_zero_d", "blowup_generic", "invalid_integrability"):
        for mt in family_instances(fam, 10, seed=63):
            assert classify_s0(mt).is_s0 == classify_s0_oracle(mt, 2 * mt.k)


def test_classifier_matches_oracle_on_raw():
    for mt in raw_blowup_tuples(30, seed=64, kmax=3):
        assert classify_s0(mt).is_s0 == classify_s0_oracle(mt, 2 * mt.k)


_ENTRIES = st.sampled_from([ZERO, ZERO, ONE, -ONE, qi(2), I, qi("1/2")])


@st.composite
def _blowup_tuples(draw):
    """Raw tuples, k = 0-4 and r = 1-3.  d = 0, or strictly upper
    triangular d, a1 and a2 (so d a1 and d a2 are nilpotent), give S0
    and non-S0 verdicts alike; unconstrained draws are mostly non-S0."""
    k, r = draw(st.integers(0, 4)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["raw", "zero_d", "triangular"]))

    def mat(rows, cols, strict=False):
        return Matrix(rows, cols, [draw(_ENTRIES) if not strict or i < j else ZERO
                                   for i in range(rows) for j in range(cols)])

    tri = kind == "triangular"
    a1, a2 = mat(k, k, tri), mat(k, k, tri)
    d = Matrix.zeros(k, k) if kind == "zero_d" else mat(k, k, tri)
    return MonadDataBlowup(a1, a2, d, mat(k, r), mat(r, k))


@settings(max_examples=150, deadline=None, database=None)
@given(_blowup_tuples())
def test_hypothesis_classifier_matches_oracle(mt):
    assert classify_s0(mt).is_s0 == classify_s0_oracle(mt, 2 * mt.k)


def _oracle_witness(m):
    """The witness of the pushforward m by the oracle's word search."""
    if nilpotency_index(m.a1) is None:
        return "da1 not nilpotent"
    if nilpotency_index(m.a2) is None:
        return "da2 not nilpotent"
    return next(_failing_words(m, 2 * m.k), None)


def test_classifier_is_the_concentration_test_of_the_pushforward():
    tuples = raw_blowup_tuples(30, seed=67, kmax=3)
    for fam in ("blowup_zero_d", "blowup_generic", "invalid_integrability"):
        tuples += family_instances(fam, 10, seed=68)
    for mt in tuples:
        rep, m = classify_s0(mt), pushforward(mt)
        assert rep.is_s0 == is_concentrated_at_origin(m)
        assert dict(rep.nilpotency) == {"da1": nilpotency_index(m.a1),
                                        "da2": nilpotency_index(m.a2)}
        assert rep.krylov_dim == min_b_special(m).dim
        assert rep.witness == _oracle_witness(m)


def _shift_tuple(k):
    """a1 = a2 = J, the k x k up-shift, d = I, b = e_(k-1) and c = e_0^T:
    every word of length j sends b to e_(k-1-j), so the 2^(k-1) words of
    length k - 1 are the first to fail, and the least is (1,) * (k - 1)."""
    J = Matrix(k, k, [qi(int(j == i + 1)) for i in range(k) for j in range(k)])
    e = Matrix.identity(k)
    return MonadDataBlowup(J, J, e, e.col_matrix(k - 1), e.col_matrix(0).transpose())


def _no_word_search(*args):
    raise AssertionError("classify_s0 ran a word search")


def test_classify_runs_one_spin_and_no_word_search(monkeypatch):
    """classify_s0 reads verdict, Krylov dimension and witness off one spin
    on one integer form: it converts each matrix of the pushforward once,
    builds no Subspace, runs no word search, and its only Matrix products
    are pushforward's and nilpotency_index's."""
    tuples = raw_blowup_tuples(30, seed=75, kmax=4) + [_shift_tuple(k) for k in (2, 3, 5)]
    for fam in ("blowup_zero_d", "blowup_generic", "invalid_integrability"):
        tuples += family_instances(fam, 6, seed=76)
    products, subspaces, converted = [], [], []
    matmul, real_init = Matrix.__matmul__, Subspace.__init__
    real_of = _ZiMatrix.__dict__["of"].__func__

    def counting(A, B):
        products.append((A.rows, A.cols, B.cols))
        return matmul(A, B)

    def init(self, *args):
        subspaces.append(args)
        real_init(self, *args)

    def of(cls, M):
        converted.append(M)
        return real_of(cls, M)

    monkeypatch.setattr(Matrix, "__matmul__", counting)
    monkeypatch.setattr(Subspace, "__init__", init)
    monkeypatch.setattr(_ZiMatrix, "of", classmethod(of))
    monkeypatch.setattr(stratify, "_failing_words", _no_word_search)
    witnesses = set()
    for mt in tuples:
        products.clear()
        converted.clear()
        rep = classify_s0(mt)
        made, pushed = list(products), converted[:]
        products.clear()
        m = pushforward(mt)
        nilpotency_index(m.a1), nilpotency_index(m.a2)
        assert made == products
        assert pushed == [m.a1, m.a2, m.b, m.c]
        witnesses.add(type(rep.witness))
    assert subspaces == []
    assert witnesses == {type(None), str, tuple}


def test_only_the_oracle_searches_words():
    """In the package, only classify_s0_oracle uses the word search."""
    users = set()
    src = os.path.dirname(stratify.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as f:
                tree = ast.parse(f.read())
            for fn in ast.walk(tree):
                if isinstance(fn, ast.FunctionDef) and any(
                        isinstance(n, ast.Name) and n.id == "_failing_words"
                        for n in ast.walk(fn)):
                    users.add((name, fn.name))
    assert users == {("stratify.py", "classify_s0_oracle")}


def test_shift_tuple_witness_comes_from_the_spin(monkeypatch):
    # k = 16: the witness is read off the spin's 16 kept vectors, where a
    # word search would walk about 2^15 words before the first failing one
    mt = _shift_tuple(16)
    monkeypatch.setattr(stratify, "_failing_words", _no_word_search)
    rep = classify_s0(mt)
    assert not rep.is_s0
    assert rep.witness == (1,) * 15 and rep.krylov_dim == 16
    assert rep.nilpotency == (("da1", 16), ("da2", 16))


def test_failing_word_is_shortest_and_agrees_with_oracle():
    # d a1 = J (shift), d a2 = 0, d b = e3, c = e1^T: c J^2 d b = 1 and
    # every shorter word vanishes, so the witness is (1, 1)
    J = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    mt = MonadDataBlowup(J, Matrix.zeros(3, 3), Matrix.identity(3),
                         Matrix.from_rows([[0], [0], [1]]),
                         Matrix.from_rows([[1, 0, 0]]))
    rep = classify_s0(mt)
    assert rep.witness == (1, 1) and rep.krylov_dim == 3
    assert classify_s0_oracle(mt, 1)       # words up to length 1 all vanish
    assert not classify_s0_oracle(mt, 2)   # (1, 1) is reached at length 2


def _first_failing_word(m):
    """The length-lex least word w over {1, 2}, up to length 2k, with
    c . w(a1, a2) . b != 0 (the word's first letter acts first), from
    ``itertools.product``; None when there is none."""
    gens, vec = {1: m.a1, 2: m.a2}, {(): m.b}
    for n in range(2 * m.k + 1):
        for word in product((1, 2), repeat=n):
            if word:
                v = vec[word[:-1]]
                vec[word] = v if v.is_zero() else gens[word[-1]] @ v
            if not (m.c @ vec[word]).is_zero():
                return word
    return None


def test_witness_is_the_least_failing_word_not_the_spins_first_pair():
    # d = I, a1 e1 = e2, a2 e0 = e3, b = [e0 | e1 | 0] and c's last row
    # e2^T + e3^T (0-based): c a1 b and c a2 b both fail.  A spin that
    # queued each kept vector's images together (column-major) would meet
    # ((2,), column 0) first; the word-major spin visits every column of
    # (1,) before (2,), so its first failing pair ((1,), column 1) carries
    # the witness, the length-lex least word (1,).
    a1 = Matrix.from_rows([[0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]])
    a2 = Matrix.from_rows([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]])
    mt = MonadDataBlowup(a1, a2, Matrix.identity(4),
                         Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0],
                                           [0, 0, 0]]),
                         Matrix.from_rows([[0, 0, 0, 0], [0, 0, 0, 0],
                                           [0, 0, 1, 1]]))
    assert blowup_defect(mt).is_zero()
    rep = classify_s0(mt)
    assert not rep.is_s0 and rep.witness == (1,)
    assert _first_failing_word(pushforward(mt)) == (1,)


def test_witness_is_the_least_failing_word_on_left_kernel_draws():
    """Raw tuples with d = I, strictly upper triangular a1 and a2 (so both
    are nilpotent) and c drawn from the left kernel of b (so c b = 0):
    the witness is the length-lex least failing word, often a one-letter
    one, checked against ``itertools.product`` directly."""
    r_ = rng(69)

    def entry():
        return qi(r_.randint(-2, 2))

    one_letter = 0
    for _ in range(150):
        k, r = r_.randint(2, 4), r_.randint(2, 3)
        a1, a2 = (Matrix(k, k, [entry() if i < j else ZERO
                                for i in range(k) for j in range(k)])
                  for _ in range(2))
        b = Matrix(k, r, [entry() for _ in range(k * r)])
        left = kernel_basis(b.transpose()).basis
        c = Matrix(r, left.cols, [entry() for _ in range(r * left.cols)]) \
            @ left.transpose()
        mt = MonadDataBlowup(a1, a2, Matrix.identity(k), b, c)
        m = pushforward(mt)
        word, rep = _first_failing_word(m), classify_s0(mt)
        assert rep.witness == word == next(_failing_words(m, 2 * k), None)
        assert rep.krylov_dim == min_b_special(m).dim
        one_letter += word is not None and len(word) == 1
    assert one_letter > 30


def test_witness_is_the_least_failing_word_past_one_letter():
    """As above, with c drawn from the left kernel of [b | a1 b | a2 b],
    so the empty and the one-letter words vanish and every witness has
    two letters or more: the witness must still be the length-lex least
    failing word, against ``itertools.product`` and the oracle's search."""
    r_ = rng(70)

    def entry():
        return qi(r_.randint(-2, 2))

    longer = 0
    for _ in range(150):
        k = r_.randint(4, 7)
        r = r_.randint(1, (k - 1) // 3)  # [b | a1 b | a2 b] has < k columns
        a1, a2 = (Matrix(k, k, [entry() if i < j else ZERO
                                for i in range(k) for j in range(k)])
                  for _ in range(2))
        b = Matrix(k, r, [entry() for _ in range(k * r)])
        left = kernel_basis(hstack([b, a1 @ b, a2 @ b]).transpose()).basis
        c = Matrix(r, left.cols, [entry() for _ in range(r * left.cols)]) \
            @ left.transpose()
        mt = MonadDataBlowup(a1, a2, Matrix.identity(k), b, c)
        m = pushforward(mt)
        word, rep = _first_failing_word(m), classify_s0(mt)
        assert rep.witness == word == next(_failing_words(m, 2 * k), None)
        assert rep.krylov_dim == min_b_special(m).dim
        assert word is None or len(word) >= 2
        longer += word is not None
    assert longer > 100


def test_classification_is_group_invariant():
    from monadcalc.blowup import act2
    r_ = rng(65)
    for mt in family_instances("blowup_generic", 5, seed=66):
        verdict = classify_s0(mt).is_s0
        for _ in range(4):
            g0 = random_invertible(r_, mt.k)
            g1 = random_invertible(r_, mt.k)
            assert classify_s0(act2(g0, g1, mt)).is_s0 == verdict


def test_charge_label():
    # diag points away from origin: all charge in free points
    m = pushforward(generate(GenSpec(k=2, r=1, seed=2, family="blowup_zero_d")))
    # concentrated instance: all points at the origin after reduction
    mc = generate(GenSpec(k=3, r=2, seed=3, family="block_concentrated"))
    lab = charge_label(mc)
    assert isinstance(lab, ChargeLabel)
    assert lab.total_charge == 3
    assert lab.bundle_charge_l + lab.points_at_origin + lab.points_elsewhere == 3
    assert lab.points_elsewhere == 0  # concentration pins everything at 0
