"""Pushforward under blowdown and the charge-at-the-point stratum test.

The pushforward sends (a1, a2, d, b, c) to (d a1, d a2, d b, c); its
integrability defect is d times the blowup defect, so valid tuples push
to valid tuples.  A blowup tuple lies in the fully-degenerate stratum
iff d a1 and d a2 are nilpotent and c kills every word in them applied
to d b, i.e. iff its pushforward passes the concentration test of
:mod:`p2`, whose parts the report shows; its spin also gives the
shortest failing word.  A breadth-first word search serves only the
exhaustive oracle, kept as an independent reference.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple, Union

from .blowup import MonadDataBlowup
from .closure import nilpotency_index
from .p2 import MonadDataP2, _integer, _spun, canonical_reduction

Witness = Union[str, Tuple[int, ...]]


@dataclass(frozen=True)
class StratumReport:
    """Outcome of the stratum classification with failure witnesses.

    ``nilpotency`` maps "da1"/"da2" to the nilpotency index or None;
    ``witness`` is the name of the first non-nilpotent matrix, or the
    shortest word (indices over {1, 2}) whose triple product c . w . db
    fails to vanish.
    """

    is_s0: bool
    nilpotency: Tuple[Tuple[str, Optional[int]], ...]
    krylov_dim: int
    witness: Optional[Witness] = None


def pushforward(mt: MonadDataBlowup) -> MonadDataP2:
    """(a1, a2, d, b, c) -> (d a1, d a2, d b, c), raw (validity transfers)."""
    return MonadDataP2(mt.d @ mt.a1, mt.d @ mt.a2, mt.d @ mt.b, mt.c)


def _failing_words(m: MonadDataP2, max_len: int) -> Iterator[Tuple[int, ...]]:
    """Words w over {1, 2} of length <= max_len with c . w(a1, a2) . b != 0.

    Breadth-first, so the shortest come first and ties break
    lexicographically (1 before 2).  Each word's vector is built from its
    parent's, and only as far as the caller keeps asking.  A zero vector
    is not extended, since its extensions are zero; input whose vectors
    never vanish still costs exponentially many words in max_len, e.g.
    c = 0, a1 = E12 + E23 and a2 = E21 + E32 (k = 3).
    """
    queue = deque([((), m.b)])
    while queue:
        word, v = queue.popleft()
        if v.is_zero():
            continue
        if not (m.c @ v).is_zero():
            yield word
        if len(word) < max_len:
            for idx, g in ((1, m.a1), (2, m.a2)):
                queue.append((word + (idx,), g @ v))


def classify_s0(mt: MonadDataBlowup) -> StratumReport:
    """The concentration test of :mod:`p2` on the pushforward, with witnesses.

    (d a1, d a2, d b, c) is exactly pushforward(mt), so the stratum is
    decided by the parts of :func:`p2.is_concentrated_at_origin`, with the
    nilpotency indices by powers.  One spin on one integer form gives the
    Krylov dimension and the shortest failing word (``p2._spun``).
    """
    m = pushforward(mt)
    n1, n2 = nilpotency_index(m.a1), nilpotency_index(m.a2)
    krylov_dim, word = _spun(_integer(m))
    nil = (("da1", n1), ("da2", n2))
    if n1 is None:
        return StratumReport(False, nil, krylov_dim, witness="da1 not nilpotent")
    if n2 is None:
        return StratumReport(False, nil, krylov_dim, witness="da2 not nilpotent")
    return StratumReport(word is None, nil, krylov_dim, witness=word)


def classify_s0_oracle(mt: MonadDataBlowup, max_len: int) -> bool:
    """Independent oracle: exhaustive word check up to the given length.

    With max_len >= 2k this is equivalent to the closure classifier,
    since the invariant closure of a k-dimensional space stabilizes in
    at most k generator applications.  On valid S0 input every word of
    length k or more vanishes on d b, so max_len costs little beyond k.
    """
    m = pushforward(mt)
    if nilpotency_index(m.a1) is None or nilpotency_index(m.a2) is None:
        return False
    return next(_failing_words(m, max_len), None) is None


@dataclass(frozen=True)
class ChargeLabel:
    """Bookkeeping of how the total charge k splits under reduction."""

    total_charge: int
    bundle_charge_l: int
    points_at_origin: int
    points_elsewhere: int


def charge_label(m: MonadDataP2, eigen_mode: str = "exact") -> ChargeLabel:
    """Partition the charge via canonical reduction.

    Points are split by whether their eigenvalue pair is (0, 0); in
    float mode a pair counts as the origin when both components are
    within 1e-9 of zero.
    """
    du = canonical_reduction(m, eigen_mode=eigen_mode)
    at_origin = 0
    for p1, p2 in du.points:
        if du.approx:
            if abs(complex(p1)) <= 1e-9 and abs(complex(p2)) <= 1e-9:
                at_origin += 1
        else:
            if p1.is_zero() and p2.is_zero():
                at_origin += 1
    return ChargeLabel(
        total_charge=m.k,
        bundle_charge_l=du.l,
        points_at_origin=at_origin,
        points_elsewhere=len(du.points) - at_origin,
    )
