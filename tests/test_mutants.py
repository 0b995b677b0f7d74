"""The mutant catalogue of tests/mutants.py stays applicable: each old
text occurs exactly once in its file, each mutant still compiles, and
the test files it names exist.  Running the mutants is opt-in
(``python tests/mutants.py``)."""

import os

from mutants import MUTANTS, ROOT, mutated


def test_every_mutant_applies_exactly_once():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        _, changed = mutated(m)
        assert m.old != m.new, m.name
        compile(changed, m.file, "exec")
        assert m.tests and all(os.path.isfile(os.path.join(ROOT, t))
                               for t in m.tests), m.name
