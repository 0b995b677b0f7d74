"""Shared helpers for the test suite: deterministic RNGs, instances and
the predicates that only tests ask."""

import random
from dataclasses import fields

from monadcalc.blowup import (MonadDataBlowup, blowup_defect, evaluate_A_blowup,
                              evaluate_B_blowup, surjectivity_corank)
from monadcalc.generate import GenSpec, _rand_matrix, generate
from monadcalc.p2 import MonadDataP2, _fiber_dim, _shape, integrability_defect

# (family, k, r) combinations that every family-level test cycles through.
P2_SHAPES = {
    "charge_one": [(1, 2), (1, 3)],
    "commuting_points": [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3)],
    "block_concentrated": [(1, 1), (2, 1), (2, 2), (3, 2), (4, 2), (4, 3)],
}
BLOWUP_SHAPES = {
    "blowup_zero_d": [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3)],
    "blowup_generic": [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3)],
    "invalid_integrability": [(1, 1), (2, 1), (3, 2), (4, 3)],
}


def rng(seed=0):
    return random.Random(seed)


def family_instances(family, count, seed=0):
    """`count` deterministic instances of a family, cycling its shapes."""
    shapes = (P2_SHAPES.get(family) or BLOWUP_SHAPES[family])
    out = []
    for t in range(count):
        k, r = shapes[t % len(shapes)]
        out.append(generate(GenSpec(k=k, r=r, seed=seed + t, family=family)))
    return out


def is_integrable(m):
    return integrability_defect(m).is_zero()


def is_valid(mt):
    return blowup_defect(mt).is_zero() and surjectivity_corank(mt) == 0


def fiber_dimension_blowup(mt, p):
    return _fiber_dim(evaluate_A_blowup(mt, p), evaluate_B_blowup(mt, p))


def _random_raw(cls, rng, k, r):
    """A tuple of kind cls with every matrix drawn at random, in field order."""
    return cls(*(_rand_matrix(rng, *_shape(f.name, k, r)) for f in fields(cls)))


def random_raw_p2(rng, k, r):
    """Unconstrained random tuple; generically not integrable."""
    return _random_raw(MonadDataP2, rng, k, r)


def random_raw_blowup(rng, k, r):
    return _random_raw(MonadDataBlowup, rng, k, r)


def raw_p2_tuples(count, seed=0, kmax=4, rmax=3):
    r_ = rng(seed)
    return [random_raw_p2(r_, r_.randint(0, kmax), r_.randint(1, rmax))
            for _ in range(count)]


def raw_blowup_tuples(count, seed=0, kmax=4, rmax=3):
    r_ = rng(seed)
    return [random_raw_blowup(r_, r_.randint(0, kmax), r_.randint(1, rmax))
            for _ in range(count)]
