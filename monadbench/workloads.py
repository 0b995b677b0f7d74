"""The four workloads: their inputs, their operation and their checks.

Each workload builds its inputs from the seed alone, as a list of
rounds; a round is a fixed list of operations, so every run attempts
whole rounds of the same mix and only the random entries change with
the seed.  ``run`` is the timed operation.  ``check`` runs after the
timed phase, once per distinct input; repeats of an input must return
an equal outcome.  The checks import sympy and numpy themselves, so that
set-up time measures only the package's own imports.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, List

import constructions

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Op:
    label: str
    data: Any
    expect: dict = field(default_factory=dict)
    key: int = 0  # one per distinct input


def _seeds(rng: random.Random):
    while True:
        yield rng.randrange(1 << 30)


def _numbered(rounds: List[List[Op]]) -> List[List[Op]]:
    key = 0
    for ops in rounds:
        for op in ops:
            op.key = key
            key += 1
    return rounds


def _generated(mc, seed: int, specs, variants: int) -> List[List[Op]]:
    """``variants`` rounds of generator instances, one per (family, k, r)."""
    seeds = _seeds(random.Random(seed))
    rounds = []
    for _ in range(variants):
        ops = []
        for fam, k, r in specs:
            s = next(seeds)
            m = mc.generate(mc.GenSpec(k, r, s, fam))
            ops.append(Op(f"{fam} k={k} r={r} seed={s}", m, {"family": fam}))
        rounds.append(ops)
    return _numbered(rounds)


class Workload:
    name = ""
    in_process = True

    def __init__(self, root: str):
        self.root = root

    def build(self, mc, seed: int, tiny: bool = False) -> List[List[Op]]:
        raise NotImplementedError

    def run(self, mc, op: Op):
        raise NotImplementedError

    def check(self, mc, op: Op, outcome) -> List[str]:
        raise NotImplementedError

    def run_checks(self, mc, outcomes) -> List[str]:
        """Checks across all (op, outcome) pairs of the run."""
        return []

    def close(self):
        pass


# -- trivialize ------------------------------------------------------------

class Trivialize(Workload):
    """verify_trivialization on block_concentrated plane data, k = 2..4."""

    name = "trivialize"
    # (family, k, r) per round.  k = 3 fills most of the round so that the
    # median operation lies inside one cluster of similar costs.
    SPECS = [("block_concentrated", k, r)
             for k, r in [(2, 2), (3, 1), (3, 1), (3, 1), (4, 1)]]
    VARIANTS = 8
    N_SAMPLES = 10

    def build(self, mc, seed, tiny=False):
        if tiny:
            return _generated(mc, seed, [("block_concentrated", 2, 1)], 1)
        return _generated(mc, seed, self.SPECS, self.VARIANTS)

    def run(self, mc, op):
        return mc.verify_trivialization(op.data, n_samples=self.N_SAMPLES)

    def check(self, mc, op, outcome):
        import oracle
        from sympy.polys.matrices import DomainMatrix

        problems = []
        if outcome is not True:
            problems.append(f"{op.label}: verify_trivialization gave {outcome!r}")
        m = op.data
        k, r = m.k, m.r
        # one of the points verify_trivialization sampled, off the fixed two
        p = mc.trivialize.default_sample_points(self.N_SAMPLES)[2 + op.key % 8]
        x2, x3 = oracle.scalar(p.coord_a), oracle.scalar(p.coord_b)
        a1, a2, b, c = (oracle.to_domain(M) for M in (m.a1, m.a2, m.b, m.c))
        eye = oracle.eye(k)
        B = DomainMatrix.hstack(eye * -x2 + a2 * x3, eye - a1 * x3, b * x3)
        A = DomainMatrix.vstack(eye - a1 * x3, eye * x2 - a2 * x3, c * x3)
        for i in range(1, r + 1):
            s = oracle.to_domain(mc.section_s1(m, i, p))
            if not (B * s).is_zero_matrix:
                problems.append(f"{op.label}: section {i} not in Ker B at {p}")
        F = oracle.to_domain(mc.frame_matrix(m, p))
        if F[:, :k] != A:
            problems.append(f"{op.label}: frame matrix does not start with A(p)")
        if F.rank() != k + r:
            problems.append(f"{op.label}: frame matrix rank {F.rank()} != {k + r}")
        return problems

    def run_checks(self, mc, outcomes):
        # a1 = 1 is not nilpotent: the data is valid but not concentrated
        ctrl = mc.MonadDataP2(mc.Matrix.identity(2), mc.Matrix.zeros(2, 2),
                              mc.Matrix.zeros(2, 1), mc.Matrix.zeros(1, 2))
        try:
            mc.verify_trivialization(ctrl, n_samples=self.N_SAMPLES)
        except mc.NotConcentrated:
            return []
        return ["control: non-concentrated data did not raise NotConcentrated"]


# -- reduce ----------------------------------------------------------------

class Reduce(Workload):
    """Exact canonical_reduction of plane data from three families."""

    name = "reduce"
    # (family, k, r) per round; the first is the warm-up operation.
    # Seven cheaper operations, five block_concentrated k = 4 of one cost,
    # seven dearer ones: the median operation is the middle of that cluster.
    SPECS = ([("block_concentrated", k, r) for k, r in
              [(2, 1), (2, 1), (3, 2), (3, 2)]]
             + [("charge_one", 1, 2), ("charge_one", 1, 3), ("charge_one", 1, 2)]
             + [("block_concentrated", 4, 2)] * 5
             + [("block_concentrated", 5, 2), ("block_concentrated", 6, 2)]
             + [("commuting_points", k, r) for k, r in
                [(2, 1), (3, 1), (4, 2), (5, 1), (6, 2)]])
    VARIANTS = 8

    def build(self, mc, seed, tiny=False):
        if tiny:
            return _generated(mc, seed, [("commuting_points", 2, 1),
                                         ("block_concentrated", 2, 1),
                                         ("charge_one", 1, 2)], 1)
        return _generated(mc, seed, self.SPECS, self.VARIANTS)

    def run(self, mc, op):
        return mc.canonical_reduction(op.data)

    def check(self, mc, op, du):
        import oracle

        m, fam = op.data, op.expect["family"]
        problems = []
        if du.approx or du.l + len(du.points) != m.k:
            return [f"{op.label}: l={du.l} and {len(du.points)} points for k={m.k}"]
        if fam == "block_concentrated":
            if not all(p1.is_zero() and p2.is_zero() for p1, p2 in du.points):
                problems.append(f"{op.label}: a point is not the origin")
            # the float path cannot confirm an m-fold defective eigenvalue:
            # its error grows like eps^(1/m)
            return problems
        if fam == "charge_one" and (du.l != 1 or du.points):
            problems.append(f"{op.label}: charge_one did not stay nondegenerate")
        if fam == "commuting_points":
            for idx, M in ((0, m.a1), (1, m.a2)):
                if not oracle.are_eigenvalues([p[idx] for p in du.points],
                                              oracle.to_domain(M)):
                    problems.append(f"{op.label}: coordinate {idx + 1} of the "
                                    "points is not the spectrum")
        a1, a2 = oracle.to_domain(m.a1), oracle.to_domain(m.a2)
        eye = oracle.eye(m.k)
        for p1, p2 in set(du.points):
            joint = (a1 - eye * oracle.scalar(p1)).vstack(a2 - eye * oracle.scalar(p2))
            if joint.rank() == m.k:
                problems.append(f"{op.label}: ({p1}, {p2}) has no joint eigenvector")
        try:
            fl = mc.canonical_reduction(m, eigen_mode="float")
        except mc.NonCommuting:
            # the float path's own commutation test fails on some
            # ill-conditioned commuting inputs; it then confirms nothing
            print(f"note: {op.label}: float reduction raised NonCommuting",
                  file=sys.stderr)
            return problems
        tol = oracle.float_tolerance(m.a1, m.a2)
        if fl.l != du.l or len(fl.points) != len(du.points):
            return problems + [f"{op.label}: float reduction has another shape"]
        rest = list(fl.points)
        for p1, p2 in du.points:
            z1, z2 = complex(p1), complex(p2)
            j = min(range(len(rest)),
                    key=lambda t: max(abs(rest[t][0] - z1), abs(rest[t][1] - z2)))
            err = max(abs(rest[j][0] - z1), abs(rest[j][1] - z2))
            if err > tol:
                problems.append(f"{op.label}: float pair off by {err:.3g} > {tol:.3g}")
            rest.pop(j)
        return problems


# -- classify --------------------------------------------------------------

def _parse_doc(text: str) -> dict:
    """Matrices of a JSON document as DomainMatrix, parsed without monadcalc."""
    import oracle

    doc = json.loads(text)
    k, r = doc["k"], doc["r"]
    shapes = {"a1": (k, k), "a2": (k, k), "d": (k, k), "b": (k, r), "c": (r, k)}
    out = {"kind": doc["kind"]}
    for name, rows in doc["matrices"].items():
        out[name] = oracle.from_json(rows, *shapes[name])
    return out


class Classify(Workload):
    """loads -> validate -> classify_s0 -> pushforward -> dumps on blowup data."""

    name = "classify"
    GEN = [(2, 1), (3, 2), (4, 2), (5, 2), (6, 2)]
    FAMILIES = ("blowup_zero_d", "blowup_generic", "invalid_integrability")
    CONSTRUCTED = [3, 4, 5]
    VARIANTS = 1
    ORACLE_MAX_K = 4

    def build(self, mc, seed, tiny=False):
        rng = random.Random(seed)
        seeds = _seeds(rng)
        gen, cons, variants = (([(2, 1)], [3], 1) if tiny else
                               (self.GEN, self.CONSTRUCTED, self.VARIANTS))
        rounds = []
        for _ in range(variants):
            ops = []
            for k, r in gen:
                for fam in self.FAMILIES:
                    s = next(seeds)
                    inst = mc.generate(mc.GenSpec(k, r, s, fam))
                    ops.append(Op(f"{fam} k={k} r={r} seed={s}",
                                  mc.jsonio.dumps(inst), {"kind": fam, "k": k}))
            for k in cons:
                for kind in constructions.KINDS:
                    inst = constructions.build(mc, kind, k, 2, rng)
                    ops.append(Op(f"constructed {kind} k={k} r=2",
                                  mc.jsonio.dumps(inst), {"kind": kind, "k": k}))
            rounds.append(ops)
        return _numbered(rounds)

    def run(self, mc, op):
        mt = mc.jsonio.loads(op.data)
        try:
            mc.validate(mt)
        except mc.IntegrabilityViolation as exc:
            valid, defect, report = False, exc.defect, None
        else:
            valid, defect, report = True, None, mc.classify_s0(mt)
        return valid, defect, report, mc.jsonio.dumps(mc.pushforward(mt))

    def check(self, mc, op, outcome):
        import oracle

        valid, defect, report, pushed = outcome
        kind, k = op.expect["kind"], op.expect["k"]
        S = _parse_doc(op.data)
        a1, a2, d, b, c = (S[n] for n in ("a1", "a2", "d", "b", "c"))
        blow_defect = a1 * d * a2 - a2 * d * a1 + b * c
        problems = []
        if valid != (kind != "invalid_integrability"):
            return [f"{op.label}: validate said valid={valid}"]
        if not valid and oracle.to_domain(defect) != blow_defect:
            problems.append(f"{op.label}: reported defect differs from sympy's")
        P = _parse_doc(pushed)
        if P["kind"] != "p2" or (P["a1"], P["a2"], P["b"], P["c"]) != (
                d * a1, d * a2, d * b, c):
            problems.append(f"{op.label}: pushforward document is not (da1, da2, db, c)")
        mt = mc.jsonio.loads(op.data)
        plane_defect = oracle.to_domain(mc.integrability_defect(mc.pushforward(mt)))
        if plane_defect != d * blow_defect:
            problems.append(f"{op.label}: pushforward defect != d * blowup defect")
        if not valid:
            return problems
        n1, n2 = oracle.nilpotency_index(d * a1), oracle.nilpotency_index(d * a2)
        if report.nilpotency != (("da1", n1), ("da2", n2)):
            problems.append(f"{op.label}: nilpotency {report.nilpotency} but "
                            f"sympy finds da1 {n1}, da2 {n2}")
        if kind in constructions.KINDS:
            want = constructions.expected(kind, k)
        elif kind == "blowup_zero_d":
            want = {"is_s0": True, "krylov_dim": 0, "witness": None}
        else:
            want = {}
        for name, value in want.items():
            if getattr(report, name) != value:
                problems.append(f"{op.label}: {name} = {getattr(report, name)!r}, "
                                f"construction gives {value!r}")
        w = report.witness
        if n1 is None and w != "da1 not nilpotent":
            problems.append(f"{op.label}: witness {w!r} for non-nilpotent da1")
        if isinstance(w, tuple):
            v = d * b
            for idx in w:  # the word's first letter acts first
                v = d * (a1 if idx == 1 else a2) * v
            if (c * v).is_zero_matrix:
                problems.append(f"{op.label}: witness word {w} does not fail")
        if k <= self.ORACLE_MAX_K and mc.classify_s0_oracle(mt, 2 * k) != report.is_s0:
            problems.append(f"{op.label}: word oracle disagrees with classify_s0")
        return problems


# -- cli -------------------------------------------------------------------

def _kill_group(proc: subprocess.Popen):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(argv, cwd, env, timeout):
    """(exit code, stdout, stderr) of one process; its group dies on timeout."""
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        _kill_group(proc)
        proc.communicate()
        raise
    return proc.returncode, out, err


class Cli(Workload):
    """One `python -m monadcalc` process per operation, small documents."""

    name = "cli"
    in_process = False
    TIMEOUT = 60
    BATCH = [("blowup_zero_d", 2, 1), ("commuting_points", 2, 1),
             ("block_concentrated", 3, 2), ("word0", 3, 2)]

    def __init__(self, root):
        super().__init__(root)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.work = os.path.join(root, ".monadbench_work", str(os.getpid()))
        self.trace_dir = None  # set while a traced round runs

    def _write(self, mc, name, inst):
        path = os.path.join(self.work, name)
        mc.jsonio.write_file(path, inst)
        return path

    def build(self, mc, seed, tiny=False):
        rng = random.Random(seed)
        seeds = _seeds(rng)
        gen = lambda fam, k, r: mc.generate(mc.GenSpec(k, r, next(seeds), fam))
        os.makedirs(os.path.join(self.work, "batch"))
        valid = self._write(mc, "valid.json", gen("commuting_points", 2, 1))
        invalid = self._write(mc, "invalid.json", gen("invalid_integrability", 3, 2))
        malformed = os.path.join(self.work, "malformed.json")
        with open(valid) as src, open(malformed, "w") as dst:
            text = src.read()
            dst.write(text[:len(text) // 2])
        s0 = self._write(mc, "s0.json", constructions.build(mc, "s0", 3, 2, rng))
        zero_d = self._write(mc, "zero_d.json", gen("blowup_zero_d", 3, 2))
        reduce_doc = self._write(mc, "reduce.json", gen("commuting_points", 3, 1))
        triv = self._write(mc, "triv.json", gen("block_concentrated", 2, 1))
        for i, (fam, k, r) in enumerate(self.BATCH):
            inst = (constructions.build(mc, fam, k, r, rng)
                    if fam in constructions.KINDS else gen(fam, k, r))
            self._write(mc, os.path.join("batch", f"doc{i}.json"), inst)
        word0 = self._write(mc, "word0.json",
                            constructions.build(mc, "word0", 3, 2, rng))
        gen_seed = next(seeds)
        out = lambda name: os.path.join(self.work, name)
        gen_args = ["--family", "commuting_points", "--k", "3", "--r", "1",
                    "--seed", str(gen_seed)]
        gen_report = {"family": "commuting_points", "k": 3, "r": 1, "seed": gen_seed}
        # Eight commands of about equal cost (one process, no heavy
        # arithmetic) make up most of the round, so the median operation
        # lies inside that cluster.
        ops = [
            Op("validate p2", ["validate", valid], {"code": 0, "report": {"valid": True}}),
            Op("validate invalid", ["validate", invalid],
               {"code": 2, "report": {"valid": False,
                                      "error": "IntegrabilityViolation"}}),
            Op("validate malformed", ["validate", malformed], {"code": 1}),
            Op("validate blowup", ["validate", s0], {"code": 0, "report": {"valid": True}}),
            Op("classify s0", ["classify", s0],
               {"code": 0, "report": {"is_s0": True, "krylov_dim": 3, "witness": None}}),
            Op("classify word0", ["classify", word0],
               {"code": 0, "report": {"is_s0": False, "krylov_dim": 3, "witness": []}}),
            Op("classify p2 document", ["classify", valid], {"code": 1}),
            Op("pushforward", ["pushforward", zero_d, out("pushed.json")],
               {"code": 0, "out": out("pushed.json"),
                "report": {"kind": "p2", "k": 3, "r": 2}}),
            Op("reduce", ["reduce", reduce_doc],
               {"code": 0, "k": 3, "report": {"total_charge": 3, "approx": False}}),
            Op("trivialize", ["trivialize", triv],
               {"code": 0, "report": {"ok": True, "samples": 10}}),
            Op("generate a", ["generate", out("gen_a.json")] + gen_args,
               {"code": 0, "out": out("gen_a.json"), "report": gen_report}),
            Op("generate b", ["generate", out("gen_b.json")] + gen_args,
               {"code": 0, "out": out("gen_b.json"), "report": gen_report}),
            Op("batch", ["batch", os.path.join(self.work, "batch"), "--jobs", "2"],
               {"code": 0, "files": len(self.BATCH)}),
        ]
        if tiny:
            ops = [ops[0], ops[2], ops[10], ops[11]]
        return _numbered([ops])

    def run(self, mc, op):
        if self.trace_dir is None:
            argv = [sys.executable, "-m", "monadcalc"] + op.data
        else:
            summary = os.path.join(self.trace_dir, f"{op.key}.json")
            argv = [sys.executable, os.path.join(HERE, "traced_cli.py"),
                    summary] + op.data
        code, out, err = run_process(argv, self.root, self.env, self.TIMEOUT)
        written = None
        if "out" in op.expect and code == 0:
            with open(op.expect["out"], "rb") as fh:
                written = fh.read()
        return code, out, err, written

    def check(self, mc, op, outcome):
        code, out, err, written = outcome
        want = op.expect
        if code != want["code"]:
            return [f"{op.label}: exit code {code}, documented {want['code']}; "
                    f"stderr {err.strip()[-300:]!r}"]
        lines = out.splitlines()
        if op.data[0] == "batch" and lines and re.fullmatch(
                r"summary: \d+ valid, \d+ invalid, \d+ errors in \d+ files",
                lines[-1]):
            lines = lines[:-1]
        try:
            reports = [json.loads(line) for line in lines]
        except ValueError:
            return [f"{op.label}: a report line is not JSON: {out!r}"]
        if code == 1:
            try:
                ok = "error" in json.loads(err)
            except ValueError:
                ok = False
            return [] if ok and not reports else [
                f"{op.label}: exit 1 needs one JSON error on stderr only"]
        if len(reports) != want.get("files", 1):
            return [f"{op.label}: {len(reports)} report lines"]
        rep = reports[0]
        bad = any(rep.get(key) != value
                  for key, value in want.get("report", {}).items())
        if "k" in want:
            bad = bad or rep["l"] + len(rep["points"]) != want["k"]
        if "files" in want:
            bad = bad or any(x.get("status") != "valid" for x in reports)
        if bad:
            return [f"{op.label}: unexpected report {reports}"]
        if op.data[0] == "pushforward":
            try:
                mc.validate_p2(mc.jsonio.loads(written.decode()))
            except mc.MonadcalcError as exc:
                return [f"{op.label}: pushed document fails validate: {exc!r}"]
        return []

    def run_checks(self, mc, outcomes):
        """Same-seed generate calls must write identical bytes."""
        gens = [o[3] for op, o in outcomes if op.data[0] == "generate"]
        if gens and any(g != gens[0] for g in gens):
            return ["generate: same seed gave different bytes"]
        return []

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass


WORKLOADS = {w.name: w for w in (Trivialize, Reduce, Classify, Cli)}
