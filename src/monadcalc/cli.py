"""Command-line front end.

Exit codes are a stable contract:
  0  success
  1  I/O, JSON or document-shape error (including wrong document kind
     and an output file that cannot be written), or memory exhausted
  2  domain invalidity (integrability/surjectivity violation, infeasible
     generator spec, irrational spectrum in exact mode, ...)
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import jsonio
from .blowup import MonadDataBlowup, validate
from .errors import (DocumentError, IntegrabilityViolation, MonadcalcError,
                     SurjectivityViolation)
from .generate import FAMILIES, GenSpec, generate
from .jsonio import _matrix_to_obj, _qi_to_obj  # canonical encodings for reports
from .p2 import canonical_reduction, validate_p2
from .stratify import classify_s0, classify_s0_oracle, pushforward
from .trivialize import NotConcentrated, verify_trivialization

EXIT_OK = 0
EXIT_IO = 1
EXIT_DOMAIN = 2


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _fail_io(message: str) -> int:
    print(json.dumps({"error": message}, sort_keys=True), file=sys.stderr)
    return EXIT_IO


def _validate_instance(inst):
    """(report dict, exit code) for either document kind."""
    try:
        if isinstance(inst, MonadDataBlowup):
            validate(inst)
        else:
            validate_p2(inst)
    except IntegrabilityViolation as exc:
        return ({"valid": False, "error": "IntegrabilityViolation",
                 "defect": _matrix_to_obj(exc.defect)}, EXIT_DOMAIN)
    except SurjectivityViolation as exc:
        return ({"valid": False, "error": "SurjectivityViolation",
                 "cokernel_dim": exc.cokernel_dim}, EXIT_DOMAIN)
    return ({"valid": True}, EXIT_OK)


def cmd_validate(args, inst) -> int:
    _emit({"valid": True})
    return EXIT_OK


def cmd_classify(args, mt) -> int:
    sr = classify_s0(mt)
    out = {
        "is_s0": sr.is_s0,
        "nilpotency": {name: idx for name, idx in sr.nilpotency},
        "krylov_dim": sr.krylov_dim,
        "witness": sr.witness,
    }
    if args.oracle_maxlen is not None:
        oracle = classify_s0_oracle(mt, args.oracle_maxlen)
        out["oracle"] = oracle
        out["oracle_agrees"] = (oracle == sr.is_s0)
    _emit(out)
    return EXIT_OK


def cmd_pushforward(args, mt) -> int:
    m = pushforward(mt)
    jsonio.write_file(args.out, m)
    _emit({"written": str(args.out), "kind": "p2", "k": m.k, "r": m.r})
    return EXIT_OK


def _point_obj(p, approx: bool):
    if approx:
        z1, z2 = complex(p[0]), complex(p[1])
        return [[z1.real, z1.imag], [z2.real, z2.imag]]
    return [_qi_to_obj(p[0]), _qi_to_obj(p[1])]


def cmd_reduce(args, m) -> int:
    # IrrationalSpectrum is a domain error: main reports it
    du = canonical_reduction(m, eigen_mode="float" if args.use_float else "exact")
    _emit({
        "l": du.l,
        "total_charge": du.total_charge,
        "points": [_point_obj(p, du.approx) for p in du.points],
        "approx": du.approx,
    })
    return EXIT_OK


def cmd_trivialize(args, m) -> int:
    try:
        ok = verify_trivialization(m, n_samples=args.samples)
    except NotConcentrated as exc:
        _emit({"ok": False, "error": "NotConcentrated", "detail": str(exc)})
        return EXIT_DOMAIN
    _emit({"ok": ok, "samples": args.samples})
    return EXIT_OK if ok else EXIT_DOMAIN


def cmd_generate(args) -> int:
    # InfeasibleSpec is a domain error: main reports it
    inst = generate(GenSpec(k=args.k, r=args.r, seed=args.seed,
                            family=args.family))
    jsonio.write_file(args.out, inst)
    _emit({"written": str(args.out), "family": args.family,
           "k": args.k, "r": args.r, "seed": args.seed})
    return EXIT_OK


def _process_one(path: str) -> dict:
    """Batch worker: validate, then classify when the kind allows it."""
    out = {"file": os.path.basename(path)}
    try:
        inst = jsonio.read_file(path)
    except DocumentError as exc:
        out.update(status="parse_error", error=str(exc))
        return out
    report, code = _validate_instance(inst)
    if code != EXIT_OK:
        out.update(status="invalid", error=report.get("error"))
        return out
    out["status"] = "valid"
    if isinstance(inst, MonadDataBlowup):
        sr = classify_s0(inst)
        out["is_s0"] = sr.is_s0
        out["witness"] = sr.witness
    return out


def cmd_batch(args) -> int:
    try:
        files = sorted(
            os.path.join(args.dir, f) for f in os.listdir(args.dir)
            if f.endswith(".json"))
    except OSError as exc:
        return _fail_io(str(exc))
    if not files:
        return _fail_io(f"no .json documents in {args.dir}")
    # a fork pool starts all its workers up front: never more than documents
    jobs = min(args.jobs or os.cpu_count() or 1, len(files))
    if jobs > 1:
        # imported here: the pool's modules would slow every process's start
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_process_one, files))
    else:
        results = [_process_one(f) for f in files]
    for res in results:
        _emit(res)
    counts = {"valid": 0, "invalid": 0, "parse_error": 0}
    for res in results:
        counts[res["status"]] += 1
    print(f"summary: {counts['valid']} valid, {counts['invalid']} invalid, "
          f"{counts['parse_error']} errors in {len(files)} files")
    if counts["parse_error"]:
        return EXIT_IO
    if counts["invalid"]:
        return EXIT_DOMAIN
    return EXIT_OK


def _int_at_least(least: int):
    """An argparse type: an int no smaller than ``least``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(
                f"must be at least {least}, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="monadcalc",
        description="Exact monad calculus for framed sheaves on P2 and its blowup")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a document's validity conditions")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate, kind=None)

    p = sub.add_parser("classify", help="stratum classification of blowup data")
    p.add_argument("path")
    p.add_argument("--oracle-maxlen", type=_int_at_least(0), default=None,
                   help="also run the exhaustive word oracle up to this length")
    p.set_defaults(func=cmd_classify, kind="blowup")

    p = sub.add_parser("pushforward", help="push blowup data down to the plane")
    p.add_argument("path")
    p.add_argument("out")
    p.set_defaults(func=cmd_pushforward, kind="blowup")

    p = sub.add_parser("reduce", help="canonical reduction to bundle + points")
    p.add_argument("path")
    p.add_argument("--float", dest="use_float", action="store_true",
                   help="approximate eigenvalue fallback (points marked approx)")
    p.set_defaults(func=cmd_reduce, kind="p2")

    p = sub.add_parser("trivialize", help="verify the explicit trivialization")
    p.add_argument("path")
    p.add_argument("--samples", type=_int_at_least(1), default=10)
    p.set_defaults(func=cmd_trivialize, kind="p2")

    p = sub.add_parser("generate", help="write a seeded family instance")
    p.add_argument("out")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("batch", help="validate/classify a directory of documents")
    p.add_argument("dir")
    p.add_argument("--jobs", type=_int_at_least(1), default=None,
                   help="parallel workers (default: number of processors)")
    p.set_defaults(func=cmd_batch)

    return ap


def main(argv=None) -> int:
    """Runs one command.  A command that reads a document declares the
    kind it accepts (``kind``, None for either); its document is loaded,
    checked for that kind and validated here, once, and the command gets
    the valid instance."""
    args = build_parser().parse_args(argv)
    try:
        if "kind" not in args:
            return args.func(args)
        inst = jsonio.read_file(args.path)
        if args.kind is not None and not isinstance(inst, jsonio._KINDS[args.kind]):
            return _fail_io(f"expected a '{args.kind}' document")
        report, code = _validate_instance(inst)
        if code != EXIT_OK:
            _emit(report)
            return code
        return args.func(args, inst)
    except DocumentError as exc:  # a document that cannot be read or written
        return _fail_io(str(exc))
    except MemoryError:  # e.g. a generator spec with a huge k
        return _fail_io(f"out of memory in {args.command}")
    except MonadcalcError as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc)})
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
