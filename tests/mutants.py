"""A catalogue of mutants that the test suite must catch, and their runner.

Each entry changes one exact text of one package file and names the test
files expected to fail on the result.  Mutation analysis measures what a
test suite can tell apart (DeMillo, Lipton and Sayward, IEEE Computer
11(4), 1978): a mutant that leaves those tests passing shows a check that
does not bite.

Run from the repository root:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

The runner copies ``src/``, ``tests/`` and ``pyproject.toml`` into a
temporary directory once, applies each mutant alone there and runs
``pytest -x -q`` on its test files.  It prints one line per mutant and
exits 1 if any survived.  It takes minutes, so it is opt-in;
``tests/test_mutants.py`` checks on every test run that each old text
occurs exactly once in its file, so a refactor carries its mutants along.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 600  # a mutant that makes the tests hang counts as caught


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: Tuple[str, ...]


MUTANTS = (
    Mutant("is_nilpotent ignores the last coefficient",
           "src/monadcalc/closure.py",
           "_berkowitz(Z)[1:])",
           "_berkowitz(Z)[1:-1])",
           ("tests/test_closure_oracle.py",)),
    Mutant("the spin skips the second generator",
           "src/monadcalc/closure.py",
           "for i, G in enumerate(gens, 1))",
           "for i, G in enumerate(gens[:1], 1))",
           ("tests/test_closure_oracle.py",)),
    Mutant("the spin queues each kept vector's images together (column-major)",
           "src/monadcalc/closure.py",
           "[[_gdot(row, v) for row in G] for v in new])\n"
           "                         for i, G in enumerate(gens, 1))",
           "[[_gdot(row, v) for row in G]])\n"
           "                         for v in new for i, G in enumerate(gens, 1))",
           ("tests/test_stratify.py",)),
    Mutant("nilpotency_index stops at M^(k-1)",
           "src/monadcalc/closure.py",
           "return k if P.is_zero() else None",
           "return None",
           ("tests/test_closure.py",)),
    Mutant("c g^-1 in act",
           "src/monadcalc/p2.py",
           "Ginv @ t.b, t.c @ G))",
           "Ginv @ t.b, t.c @ Ginv))",
           ("tests/test_matrix_oracle.py",)),
    Mutant("M M for the power in _poly_in",
           "src/monadcalc/generate.py",
           "power = power @ M",
           "power = M @ M",
           ("tests/test_matrix_oracle.py",)),
    Mutant("no concentration check in trivialize",
           "src/monadcalc/trivialize.py",
           "if not is_concentrated_at_origin(m):",
           "if False:",
           ("tests/test_trivialize.py",)),
    Mutant("the word list drops its last nonzero word",
           "src/monadcalc/trivialize.py",
           "        v = a @ v\n    return words",
           "        v = a @ v\n    return words[:-1]",
           ("tests/test_trivialize.py",)),
    Mutant("the transition's sum over a2 words uses z for y",
           "src/monadcalc/trivialize.py",
           "_horner(inner, y)",
           "_horner(inner, z)",
           ("tests/test_trivialize_oracle.py", "tests/test_trivialize.py")),
    Mutant("classify_s0's verdict is always concentrated",
           "src/monadcalc/stratify.py",
           "StratumReport(word is None, nil,",
           "StratumReport(True, nil,",
           ("tests/test_stratify.py",)),
    Mutant("the echelon's reduction skips the last kept row",
           "src/monadcalc/matrix.py",
           "zip(self.pivots, self.rows)",
           "zip(self.pivots[:-1], self.rows)",
           ("tests/test_matrix_oracle.py",)),
    Mutant("a sign in the echelon's Gaussian division",
           "src/monadcalc/matrix.py",
           "(ai * dr - ar * di) // nd",
           "(ai * dr + ar * di) // nd",
           ("tests/test_matrix_oracle.py",)),
    Mutant("Matrix.@ conjugates its left factor",
           "src/monadcalc/matrix.py",
           "out[io + j] = out[io + j] + x * y",
           "out[io + j] = out[io + j] + x.conjugate() * y",
           ("tests/test_matrix_oracle.py",)),
    Mutant("an invariance check that always passes",
           "src/monadcalc/matrix.py",
           "check_invariant(all(C.submatrix(tail, head).is_zero() for C in conj),",
           "check_invariant(True,",
           ("tests/test_matrix_oracle.py",)),
    Mutant("a commutation test that never rejects",
           "src/monadcalc/eigen.py",
           "if A @ B != B @ A:",
           "if False:",
           ("tests/test_matrix_oracle.py",)),
    Mutant("P b for P^-1 b in p2._split",
           "src/monadcalc/p2.py",
           "nb, nc = Pinv @ t.b, t.c @ P",
           "nb, nc = P @ t.b, t.c @ P",
           ("tests/test_matrix_oracle.py",)),
    Mutant("commuting_reduce multiplies g^-1 on the wrong side",
           "src/monadcalc/eigen.py",
           "ginv = block([[corner, right], [below, Pinv.matrix()]]) @ ginv",
           "ginv = ginv @ block([[corner, right], [below, Pinv.matrix()]])",
           ("tests/test_eigen.py",)),
    Mutant("a sign in _gdot",
           "src/monadcalc/matrix.py",
           "re += a * c - b * d",
           "re += a * c + b * d",
           ("tests/test_matrix_oracle.py",)),
    Mutant("classify_s0 names da1 for a non-nilpotent da2",
           "src/monadcalc/stratify.py",
           'witness="da2 not nilpotent"',
           'witness="da1 not nilpotent"',
           ("tests/test_stratify.py",)),
    Mutant("the overlap check compares only the P1 row",
           "src/monadcalc/trivialize.py",
           "f.P1 @ f.xi1 == f.Y and f.P2 @ f.xi1 == -f.Z\n"
           "                and (t.c @ f.xi1).is_zero()",
           "f.P1 @ f.xi1 == f.Y",
           ("tests/test_trivialize.py",)),
    Mutant("the overlap's P2 row compares with +Z",
           "src/monadcalc/trivialize.py",
           "f.P2 @ f.xi1 == -f.Z",
           "f.P2 @ f.xi1 == f.Z",
           ("tests/test_trivialize.py",)),
    Mutant("a rank certificate that always passes",
           "src/monadcalc/trivialize.py",
           "or P.rank() != m.k:",
           "or False:",
           ("tests/test_trivialize.py",)),
    Mutant("the pencil's P2 is formed with x1",
           "src/monadcalc/p2.py",
           "(t.a2, x[1])",
           "(t.a2, x[0])",
           ("tests/test_monad_oracle.py",)),
    Mutant("xi1's scale drops the point's denominator e",
           "src/monadcalc/trivialize.py",
           "_ratio((e * x3[0], e * x3[1]),",
           "_ratio(x3,",
           ("tests/test_trivialize.py",)),
    Mutant("the concentration test checks c on the spin's first kept vector only",
           "src/monadcalc/p2.py",
           "(w for w, v in kept\n",
           "(w for w, v in kept[:1]\n",
           ("tests/test_closure_oracle.py",)),
    Mutant("max_invariant_in_kernel seeds with c for c^T",
           "src/monadcalc/closure.py",
           "for g in generators], c.transpose())",
           "for g in generators], c)",
           ("tests/test_closure_oracle.py",)),
)


def mutated(mutant: Mutant, root: str = ROOT) -> Tuple[str, str]:
    """The file's text and the text with the mutant applied; ValueError
    unless the old text occurs exactly once."""
    with open(os.path.join(root, mutant.file), encoding="utf-8") as f:
        text = f.read()
    n = text.count(mutant.old)
    if n != 1:
        raise ValueError(f"{mutant.name}: old text occurs {n} times in {mutant.file}")
    return text, text.replace(mutant.old, mutant.new)


def run(mutant: Mutant, tree: str) -> Tuple[str, float]:
    """Apply the mutant in ``tree``, run its tests, restore the file.
    Returns ("caught" | "survived" | "timeout", seconds)."""
    path = os.path.join(tree, mutant.file)
    text, changed = mutated(mutant, tree)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(changed)
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=tree, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
        verdict = "survived" if out.returncode == 0 else "caught"
    except subprocess.TimeoutExpired:
        verdict = "timeout"
    finally:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    return verdict, time.perf_counter() - start


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    survivors = []
    with tempfile.TemporaryDirectory() as tree:
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(tree, part),
                            ignore=ignore)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tree)
        for mutant in chosen:
            verdict, seconds = run(mutant, tree)
            print(f"{verdict:8} {seconds:6.1f} s  {mutant.name}", flush=True)
            if verdict == "survived":
                survivors.append(mutant.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} caught"
          + (f"; survivors: {survivors}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
