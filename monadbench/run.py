"""Benchmark of monadcalc: four workloads, end to end and per layer.

Run from the repository root:

    python3 monadbench/run.py --workload trivialize --seed 1 --seconds 10 --trace 0

Workloads: trivialize, reduce, classify, cli (see README.md here).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer
metrics of one traced round and the tracing overhead.

Load is a closed loop with one client.  This process only orchestrates:
it starts the workload's worker processes one after another (set-up
samples, then the measured run) and never imports the package itself.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import resource
import statistics
import sys
import time
import traceback

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_SAMPLES = 3     # set-up is measured this many times; the median is reported
DEADLINE_S = 170      # whole run, so it ends within the 180 s allowed
IMPORT_SAMPLES = 3

END_TO_END = {"setup_s": "s", "ops_per_s": "ops/s", "op_ms_p50": "ms",
              "peak_rss_mb": "MB"}

# Per-layer metrics of the traced round, by the tracer's span names.
LAYER_CALLS = [
    "p2.is_concentrated_at_origin", "closure.nilpotency_index",
    "closure.invariant_closure", "closure.max_invariant_in_kernel",
    "matrix.matmul", "matrix.rref", "matrix.inverse", "matrix.solve",
    "matrix.rank", "matrix.kernel_basis", "matrix.from_span",
    "field.qi_mul", "field.qi_addsub", "field.qi_inverse",
    "eigen.char_poly", "eigen.roots_in_qi", "eigen.commuting_reduce",
    "p2.validate_p2", "p2.evaluate_A", "p2.evaluate_B",
    "blowup.validate", "stratify.classify_s0",
    "trivialize.section_s1", "trivialize.section_s2",
    "trivialize.frame_matrix", "trivialize.transition_xi",
    "jsonio.loads", "jsonio.dumps",
]
LAYER_SELF_MS = [
    "p2.is_concentrated_at_origin", "closure.nilpotency_index",
    "closure.invariant_closure", "matrix.matmul", "matrix.rref",
    "eigen.char_poly", "eigen.roots_in_qi", "eigen.commuting_reduce",
    "p2.canonical_reduction", "blowup.validate", "stratify.classify_s0",
    "stratify.pushforward", "trivialize.verify_trivialization",
    "jsonio.loads", "jsonio.dumps",
]
LAYER_BYTES = ["jsonio.loads", "jsonio.dumps"]
CLI_COMMANDS = ["validate", "classify", "pushforward", "reduce", "trivialize",
                "generate", "batch"]


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in LAYER_CALLS:
        units[f"{name}.calls"] = "count"
    for name in LAYER_SELF_MS:
        units[f"{name}.self_ms"] = "ms"
    for name in LAYER_BYTES:
        units[f"{name}.bytes"] = "bytes"
    units["trivialize.concentration_checks_per_verify"] = "checks/verify"
    units["generate.generate.calls"] = "count"
    units["generate.generate.self_ms"] = "ms"
    units["cli.import_ms"] = "ms"
    units["cli.import_sympy_ms"] = "ms"
    for cmd in CLI_COMMANDS:
        units[f"cli.process_ms.{cmd}"] = "ms"
    units["trace.overhead_s"] = "s"
    return units


# -- worker side ------------------------------------------------------------

def import_package():
    """Import monadcalc from this checkout's src/, and nowhere else."""
    sys.path.insert(0, SRC)
    import monadcalc
    import monadcalc.jsonio  # not imported by the package itself

    if not os.path.abspath(monadcalc.__file__).startswith(SRC + os.sep):
        raise ImportError(f"monadcalc came from {monadcalc.__file__}, not {SRC}")
    return monadcalc


def run_ops(wl, mc, ops, records, speed=None):
    """Run ops in a closed loop.

    Appends (op, outcome, wall seconds, error, speed factor).  The factor
    is the mean of the samples taken just before and just after the op
    (one sample serves several short ops), or 1 when ``speed`` is None.
    """
    clock = time.perf_counter
    for op in ops:
        before = speed.refresh() if speed is not None else 1.0
        start = clock()
        try:
            out, err = wl.run(mc, op), None
        except Exception:  # a failed operation is counted, not fatal
            out, err = None, traceback.format_exc()
        wall = clock() - start
        after = speed.refresh() if speed is not None else 1.0
        records.append((op, out, wall, err, (before + after) / 2))


def timed_phase(wl, mc, rounds, seconds, speed):
    """Whole rounds, as many as end nearest to ``seconds`` of wall time.

    Stops once another round would likely end further from ``seconds``
    than the current time is.  Returns (records, wall seconds).
    """
    records = []
    start = time.perf_counter()
    r = 0
    while True:
        run_ops(wl, mc, rounds[r % len(rounds)], records, speed)
        r += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / r / 2 >= seconds:
            return records, elapsed


def check_records(wl, mc, records) -> tuple:
    """(failed count, problems) over every outcome of the run."""
    failed = 0
    problems = []
    first = {}
    done = []
    for op, out, _, err, _ in records:
        if err is not None:
            failed += 1
            print(f"failed: {op.label}\n{err}", file=sys.stderr)
            continue
        done.append((op, out))
        if op.key in first:
            if out != first[op.key]:
                problems.append(f"{op.label}: outcome changed on a repeat")
            continue
        first[op.key] = out
        problems += wl.check(mc, op, out)
    problems += wl.run_checks(mc, done)
    return failed, problems


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def setup(name, seed, tiny=False, tracer=None):
    """Import, build inputs, one warm-up op: (seconds, mc, wl, rounds).

    The seconds are rescaled to reference speed (see speed.py).
    """
    before = speed.factor()
    start = time.perf_counter()
    mc = import_package()
    from workloads import WORKLOADS

    wl = WORKLOADS[name](ROOT)
    if tracer is not None:
        tracer.install()
    try:
        rounds = wl.build(mc, seed, tiny)
    finally:
        if tracer is not None:
            tracer.uninstall()
    wl.run(mc, rounds[0][0])
    wall = time.perf_counter() - start
    return wall * (before + speed.factor()) / 2, mc, wl, rounds


def measure(name, seed, seconds, tiny=False) -> dict:
    """The untraced run: end-to-end metrics and the checked outcomes."""
    setup_s, mc, wl, rounds = setup(name, seed, tiny)
    machine = speed.Speed()
    try:
        records, wall = timed_phase(wl, mc, rounds, seconds, machine)
        rss = peak_rss_mb()
        failed, problems = check_records(wl, mc, records)
    finally:
        wl.close()
    done = [(dt, scale) for _, _, dt, err, scale in records if err is None]
    scaled = [dt * scale for _, _, dt, _, scale in records]
    return {
        "setup_s": setup_s, "attempted": len(records), "failed": failed,
        "problems": problems, "environment": environment(mc),
        "metrics": {
            "ops_per_s": len(done) / sum(scaled),
            "op_ms_p50": statistics.median(dt * s for dt, s in done) * 1e3,
            "peak_rss_mb": rss,
        },
        "wall": {
            "ops_per_s": len(done) / wall,
            "op_ms_p50": statistics.median(dt for dt, _ in done) * 1e3,
            "speed_factor_p50": statistics.median(machine.samples),
        },
    }


def environment(mc) -> dict:
    """What decides the speed of exact arithmetic on this machine."""
    rat = mc.field.Rat
    return {"python": platform.python_version(),
            "rational": f"{rat.__module__}.{rat.__name__}",
            "gmpy2": rat.__module__ == "gmpy2",
            "nproc": os.cpu_count()}


def import_times() -> tuple:
    """Median cumulative import time (ms) of monadcalc and of sympy in it."""
    from workloads import run_process

    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(IMPORT_SAMPLES):
        code, _, err = run_process(
            [sys.executable, "-X", "importtime", "-c", "import monadcalc"],
            ROOT, env, 60)
        if code != 0:
            raise RuntimeError(f"import monadcalc failed: {err[-500:]}")
        cumulative = {}
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]))
        samples.append((cumulative["monadcalc"] / 1e3,
                        cumulative.get("sympy", 0) / 1e3))
    return (statistics.median(s[0] for s in samples),
            statistics.median(s[1] for s in samples))


def layer_metrics(summary, setup_summary) -> dict:
    get = lambda src, name, key: src.get(name, {}).get(key, 0)
    out = {}
    for name in LAYER_CALLS:
        out[f"{name}.calls"] = get(summary, name, "calls")
    for name in LAYER_SELF_MS:
        out[f"{name}.self_ms"] = get(summary, name, "self_ms")
    for name in LAYER_BYTES:
        out[f"{name}.bytes"] = get(summary, name, "bytes")
    verifies = get(summary, "trivialize.verify_trivialization", "calls")
    checks = get(summary, "trivialize.checks_under_verify", "calls")
    out["trivialize.concentration_checks_per_verify"] = (
        checks / verifies if verifies else 0.0)
    out["generate.generate.calls"] = get(setup_summary, "generate.generate", "calls")
    out["generate.generate.self_ms"] = get(setup_summary, "generate.generate", "self_ms")
    return out


def in_fork(fn):
    """fn() run in a forked copy of this process; its pickled result.

    Each measured round starts from the same state, so a cache filled by
    one round (sympy's, for example) cannot speed up the next.
    """
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        code = 0
        try:
            payload = pickle.dumps(fn())
        except BaseException:
            traceback.print_exc()
            payload, code = b"", 1
        with os.fdopen(wfd, "wb") as fh:
            fh.write(payload)
        os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        payload = fh.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError("a measured round failed in its forked process")
    return pickle.loads(payload)


def measure_traced(name, seed, tiny=False) -> dict:
    """One round untraced, then the same round traced: per-layer metrics."""
    from tracer import Tracer, merge

    tracer = Tracer()
    _, mc, wl, rounds = setup(name, seed, tiny, tracer=tracer)
    setup_summary = tracer.summary()
    tracer.reset()

    def untraced():
        records = []
        start = time.perf_counter()
        run_ops(wl, mc, rounds[0], records)
        return records, time.perf_counter() - start

    def traced():
        # in-process workloads are traced here; the cli workload's traced
        # processes write one summary file each
        if wl.in_process:
            tracer.install()
        else:
            wl.trace_dir = os.path.join(wl.work, "trace")
            os.makedirs(wl.trace_dir)
        records = []
        start = time.perf_counter()
        run_ops(wl, mc, rounds[0], records)
        wall = time.perf_counter() - start
        if wl.in_process:
            tracer.uninstall()
            return records, wall, tracer.summary()
        summary = {}
        for fname in sorted(os.listdir(wl.trace_dir)):
            with open(os.path.join(wl.trace_dir, fname)) as fh:
                merge(summary, json.load(fh))
        return records, wall, summary

    try:
        plain, untraced_s = in_fork(untraced)
        traced_records, traced_s, summary = in_fork(traced)
        metrics = layer_metrics(summary, setup_summary)
        process_ms = {cmd: [] for cmd in CLI_COMMANDS}
        if not wl.in_process:
            for op, _, dt, err, _ in plain:
                if err is None:
                    process_ms[op.data[0]].append(dt * 1e3)
        for cmd, values in process_ms.items():
            metrics[f"cli.process_ms.{cmd}"] = (
                statistics.median(values) if values else 0.0)
        metrics["cli.import_ms"], metrics["cli.import_sympy_ms"] = import_times()
        metrics["trace.overhead_s"] = traced_s - untraced_s
        failed, problems = check_records(wl, mc, plain + traced_records)
    finally:
        wl.close()
    return {"attempted": len(plain) + len(traced_records), "failed": failed,
            "problems": problems, "environment": environment(mc),
            "metrics": metrics}


def worker(args) -> int:
    if args.role == "setup":
        setup_s, _, wl, _ = setup(args.workload, args.seed)
        wl.close()
        print(json.dumps({"setup_s": setup_s}))
    elif args.trace:
        print(json.dumps(measure_traced(args.workload, args.seed)))
    else:
        print(json.dumps(measure(args.workload, args.seed, args.seconds)))
    return 0


# -- orchestrator side ------------------------------------------------------

def child(args, role, deadline) -> dict:
    from workloads import run_process

    argv = [sys.executable, os.path.abspath(__file__), "--role", role,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    code, out, err = run_process(argv, ROOT, None,
                                 max(1.0, deadline - time.monotonic()))
    sys.stderr.write(err)
    if code != 0:
        raise RuntimeError(f"{role} worker exited with {code}")
    return json.loads(out.strip().splitlines()[-1])


def orchestrate(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        res = child(args, "main", deadline)
        units = per_layer_units()
    else:
        samples = [child(args, "setup", deadline)["setup_s"]
                   for _ in range(SETUP_SAMPLES - 1)]
        res = child(args, "main", deadline)
        res["metrics"]["setup_s"] = statistics.median(samples + [res["setup_s"]])
        units = END_TO_END
    for problem in res["problems"]:
        print(f"incorrect: {problem}", file=sys.stderr)
    # unscaled figures and the machine's speed, for the record
    print(json.dumps({k: res[k] for k in ("environment", "wall") if k in res}))
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": res["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["trivialize", "reduce", "classify", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--role", choices=["setup", "main"], help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "monadcalc", "__init__.py")):
        print(f"error: no monadcalc source under {SRC}", file=sys.stderr)
        return 2
    if args.role:
        return worker(args)
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
