"""Acceptance criteria: property-based checks at desk scale.

Each test prints one PASS line with its runtime and enforces its time
budget; all arithmetic except the explicitly-labeled float fallback is
exact, so every comparison below is exact equality.
"""

import json
import random
import time

from conftest import (family_instances, is_valid, raw_blowup_tuples,
                      raw_p2_tuples)
from monadcalc import jsonio
from monadcalc.blowup import (BlowupPoint, act2, blowup_defect,
                              evaluate_A_blowup, evaluate_B_blowup,
                              fiber_projection_check, symbolic_blowup_product)
from monadcalc.cli import EXIT_DOMAIN, EXIT_IO, EXIT_OK, main
from monadcalc.field import qi
from monadcalc.generate import GenSpec, generate, random_invertible
from monadcalc.matrix import Matrix, block
from monadcalc.p2 import (MonadDataP2, ProjectivePoint, act,
                          canonical_reduction, fiber_dimension,
                          integrability_defect, is_nondegenerate,
                          symbolic_monad_product)
from monadcalc.stratify import classify_s0, classify_s0_oracle, pushforward
from monadcalc.trivialize import verify_trivialization


class _Budget:
    """Times a criterion and enforces its wall-clock budget on exit."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            print(f"[PASS] {self.name}: {elapsed:.1f}s (budget {self.seconds}s)")
            assert elapsed < self.seconds, \
                f"{self.name} exceeded budget: {elapsed:.1f}s > {self.seconds}s"
        return False


def _incident_points(rng, count):
    pts = []
    while len(pts) < count:
        x1, x2 = rng.randint(-6, 6), rng.randint(-6, 6)
        if x1 == x2 == 0:
            x1 = 1
        pts.append(BlowupPoint.over(ProjectivePoint(x1, x2, rng.randint(-6, 6))))
    return pts


def test_criterion_1_symbolic_p2_identity():
    """B A = ([a1,a2] + b c) x3^2 for 500 random raw tuples."""
    with _Budget("symbolic P2 identity (500 raw tuples)", 10):
        for m in raw_p2_tuples(500, seed=101, kmax=4, rmax=3):
            defect = integrability_defect(m)
            expected = {} if defect.is_zero() else {(0, 0, 2): defect}
            assert symbolic_monad_product(m) == expected


def test_criterion_2_symbolic_blowup_identity():
    """B~ A~ = [[defect x3^2, -sigma 1], [sigma 1, 0]] on 200 raw tuples,
    vanishing at 50 incident points per valid tuple."""
    with _Budget("symbolic blowup identity (200 raw + point checks)", 30):
        for mt in raw_blowup_tuples(200, seed=102, kmax=4, rmax=3):
            k = mt.k
            eye, z = Matrix.identity(k), Matrix.zeros(k, k)
            defect = blowup_defect(mt)
            expected = {}
            if not defect.is_zero():
                expected[(0, 0, 2, 0, 0)] = block([[defect, z], [z, z]])
            if k:
                sig = block([[z, -eye], [eye, z]])
                expected[(1, 0, 0, 1, 0)] = sig
                expected[(0, 1, 0, 0, 1)] = sig
            assert symbolic_blowup_product(mt) == expected
        rng = random.Random(103)
        valid = (family_instances("blowup_zero_d", 2, seed=104)
                 + family_instances("blowup_generic", 2, seed=105))
        for mt in valid:
            assert is_valid(mt)
            for p in _incident_points(rng, 50):
                prod = evaluate_B_blowup(mt, p) @ evaluate_A_blowup(mt, p)
                assert prod.is_zero()


def test_criterion_3_pushforward_defect_identity():
    """defect(pushforward) = d . blowup_defect on 500 raw tuples."""
    with _Budget("pushforward defect identity (500 raw tuples)", 5):
        for mt in raw_blowup_tuples(500, seed=106, kmax=4, rmax=3):
            assert integrability_defect(pushforward(mt)) == \
                mt.d @ blowup_defect(mt)


def test_criterion_4_classifier_vs_oracle():
    """Closure classifier agrees with the word oracle (length 2k),
    200 instances per family."""
    with _Budget("S0 classifier vs word oracle (3 x 200 instances)", 60):
        for fam in ("blowup_zero_d", "blowup_generic", "invalid_integrability"):
            for mt in family_instances(fam, 200, seed=107):
                assert classify_s0(mt).is_s0 == classify_s0_oracle(mt, 2 * mt.k)


def test_criterion_5_group_invariance():
    """Nondegeneracy, stratum verdict, fiber dimensions and DU points are
    invariant under 20 random group actions per instance, 50 instances."""
    with _Budget("group invariance (50 instances x 20 actions)", 60):
        rng = random.Random(108)
        sample = [ProjectivePoint(1, 2, 3), ProjectivePoint(0, 1, -1)]
        p2_instances = (family_instances("charge_one", 5, seed=109)
                        + family_instances("commuting_points", 10, seed=110)
                        + family_instances("block_concentrated", 10, seed=111))
        for m in p2_instances:
            nd = is_nondegenerate(m)
            fibers = [fiber_dimension(m, p) for p in sample]
            du = canonical_reduction(m)
            for _ in range(20):
                g = random_invertible(rng, m.k)
                mg = act(g, m)
                assert is_nondegenerate(mg) == nd
                assert [fiber_dimension(mg, p) for p in sample] == fibers
                dug = canonical_reduction(mg)
                assert dug.points == du.points and dug.l == du.l
        blowup_instances = (family_instances("blowup_zero_d", 13, seed=112)
                            + family_instances("blowup_generic", 12, seed=113))
        for mt in blowup_instances:
            verdict = classify_s0(mt).is_s0
            for _ in range(20):
                g0 = random_invertible(rng, mt.k)
                g1 = random_invertible(rng, mt.k)
                assert classify_s0(act2(g0, g1, mt)).is_s0 == verdict


def test_criterion_6_trivialization_suite():
    """Kernel membership, frame rank, transition identity and the generic
    solve oracle on 100 concentrated instances, 10 sample points each."""
    with _Budget("trivialization suite (100 instances x 10 points)", 120):
        for mt in family_instances("block_concentrated", 100, seed=114):
            assert verify_trivialization(mt, n_samples=10)


def test_criterion_7_canonical_reduction():
    """Charge conservation, the pinned commuting example, nondegenerate
    reduced parts, and idempotence."""
    with _Budget("canonical reduction properties", 30):
        m = MonadDataP2(Matrix.diagonal([1, 2]), Matrix.diagonal([3, 4]),
                        Matrix.zeros(2, 1), Matrix.zeros(1, 2))
        du = canonical_reduction(m)
        assert du.points == ((qi(1), qi(3)), (qi(2), qi(4))) and du.l == 0
        instances = (family_instances("charge_one", 6, seed=115)
                     + family_instances("commuting_points", 12, seed=116)
                     + family_instances("block_concentrated", 12, seed=117))
        for m in instances:
            du = canonical_reduction(m)
            assert du.l + len(du.points) == m.k
            assert is_nondegenerate(du.reduced)
            again = canonical_reduction(du.reduced)
            assert again.reduced == du.reduced and again.points == ()


def test_criterion_8_fiber_projection():
    """Fibers of the blowup monad and its pushforward agree at 10
    off-exceptional points for 50 valid instances."""
    with _Budget("fiber projection (50 instances x 10 points)", 60):
        rng = random.Random(118)
        instances = (family_instances("blowup_zero_d", 25, seed=119)
                     + family_instances("blowup_generic", 25, seed=120))
        for mt in instances:
            for p in _incident_points(rng, 10):
                assert fiber_projection_check(mt, p)


def test_criterion_9_cli_contract(tmp_path, capsys):
    """Bit-exact round trips, the exit-code matrix, seeded determinism."""
    with _Budget("CLI contract", 10):
        # round-trip serialization is bit-exact
        for fam, k, r in (("block_concentrated", 3, 2),
                          ("blowup_generic", 3, 2)):
            inst = generate(GenSpec(k=k, r=r, seed=9, family=fam))
            text = jsonio.dumps(inst)
            assert jsonio.dumps(jsonio.loads(text)) == text
        # generator determinism through the CLI: identical bytes
        p1, p2 = str(tmp_path / "g1.json"), str(tmp_path / "g2.json")
        args = ["--family", "blowup_generic", "--k", "2", "--r", "2",
                "--seed", "5"]
        assert main(["generate", p1] + args) == EXIT_OK
        assert main(["generate", p2] + args) == EXIT_OK
        assert open(p1, "rb").read() == open(p2, "rb").read()
        # exit-code matrix: 0 valid / 2 invalid / 1 I/O
        good = str(tmp_path / "good.json")
        jsonio.write_file(good, generate(
            GenSpec(k=2, r=1, seed=1, family="blowup_zero_d")))
        bad = str(tmp_path / "bad.json")
        jsonio.write_file(bad, generate(
            GenSpec(k=2, r=1, seed=1, family="invalid_integrability")))
        broken = tmp_path / "broken.json"
        broken.write_text("{")
        assert main(["validate", good]) == EXIT_OK
        assert main(["validate", bad]) == EXIT_DOMAIN
        assert main(["validate", str(broken)]) == EXIT_IO
        assert main(["validate", str(tmp_path / "missing.json")]) == EXIT_IO
        assert main(["classify", good]) == EXIT_OK
        assert main(["classify", bad]) == EXIT_DOMAIN
        pushed = str(tmp_path / "pushed.json")
        assert main(["pushforward", good, pushed]) == EXIT_OK
        assert main(["validate", pushed]) == EXIT_OK
        assert main(["classify", pushed]) == EXIT_IO  # wrong document kind
        assert main(["reduce", pushed]) == EXIT_OK
        rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert rep["l"] + len(rep["points"]) == 2
