"""Quick self-test of the benchmark itself.

Run from the repository root:

    python3 monadbench/selftest.py

Each workload runs one round at a tiny size.  Its checks must pass on
the program's real outputs and must fire on a corrupted copy of each
output.  The traced path must report every per-layer metric named in
BENCHMARK.json with call counts that repeat exactly, and the benchmark
must refuse to run in a directory without the package's source.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import run


def corrupt(name, out):
    """A wrong outcome of the same shape as ``out``."""
    if name == "trivialize":
        return False
    if name == "reduce":
        if out.points:
            (p1, p2), *rest = out.points
            return dataclasses.replace(out, points=tuple([(p1 + 1, p2)] + rest))
        return dataclasses.replace(out, points=out.points + (out.points or ((0, 0),)))
    if name == "classify":
        valid, defect, report, pushed = out
        if report is None:
            return (True, None, None, pushed)
        return (valid, defect, dataclasses.replace(report, is_s0=not report.is_s0),
                pushed)
    code, stdout, stderr, written = out
    return (code + 1, stdout, stderr, written)


def check_workload(name) -> None:
    _, mc, wl, rounds = run.setup(name, seed=0, tiny=True)
    try:
        records = []
        run.run_ops(wl, mc, rounds[0], records)
        failed, problems = run.check_records(wl, mc, records)
        assert failed == 0 and not problems, (name, failed, problems)
        for op, out, _, _, _ in records:
            assert wl.check(mc, op, corrupt(name, out)), (name, op.label)
    finally:
        wl.close()
    print(f"ok: {name} checks pass on real outputs and fire on corrupted ones")


def check_traced(name) -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    first = run.measure_traced(name, 0, tiny=True)
    second = run.measure_traced(name, 0, tiny=True)
    assert not first["problems"], first["problems"]
    listed = {m["name"] for m in bench["per_layer"]}
    assert listed == set(first["metrics"]) == set(run.per_layer_units()), \
        listed ^ set(first["metrics"])
    for metric, value in first["metrics"].items():
        if metric.endswith((".calls", ".bytes")):
            assert value == second["metrics"][metric], (metric, value)
    assert {m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END)
    print(f"ok: {name} traced run reports every per-layer metric; counts repeat")


def check_refuses_without_source() -> None:
    bare = os.path.join(run.ROOT, ".monadbench_work", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, os.path.join(bare, "monadbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "monadbench/run.py", "--workload", "reduce",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("ok: refuses to run without src/")


def main() -> int:
    for name in ("trivialize", "reduce", "classify", "cli"):
        check_workload(name)
    check_traced("classify")
    check_traced("cli")
    check_refuses_without_source()
    return 0


if __name__ == "__main__":
    sys.exit(main())
