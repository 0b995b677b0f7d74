"""The command-line contract: subcommands, exit codes, determinism."""

import concurrent.futures
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from monadcalc import cli, jsonio
from monadcalc.cli import EXIT_DOMAIN, EXIT_IO, EXIT_OK, main
from monadcalc.blowup import MonadDataBlowup
from monadcalc.generate import FAMILIES, GenSpec, generate
from monadcalc.matrix import Matrix
from monadcalc.p2 import MonadDataP2


def _write(tmp_path, name, family, k, r, seed=0):
    path = tmp_path / name
    jsonio.write_file(path, generate(GenSpec(k=k, r=r, seed=seed,
                                             family=family)))
    return str(path)


def _last_json(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1])


# -- validate ------------------------------------------------------------

def test_validate_valid(tmp_path, capsys):
    path = _write(tmp_path, "ok.json", "blowup_generic", 2, 1)
    assert main(["validate", path]) == EXIT_OK
    assert _last_json(capsys) == {"valid": True}


def test_validate_invalid(tmp_path, capsys):
    path = _write(tmp_path, "bad.json", "invalid_integrability", 2, 1)
    assert main(["validate", path]) == EXIT_DOMAIN
    rep = _last_json(capsys)
    assert rep["valid"] is False and rep["error"] == "IntegrabilityViolation"
    # integrable but [a1 | a2 | b] = 0: every blowup command reports it
    flat = str(tmp_path / "flat.json")
    jsonio.write_file(flat, MonadDataBlowup(*[Matrix.zeros(1, 1)] * 5))
    for argv in (["validate", flat], ["classify", flat],
                 ["pushforward", flat, str(tmp_path / "out.json")]):
        assert main(argv) == EXIT_DOMAIN
        assert _last_json(capsys) == {"valid": False, "cokernel_dim": 1,
                                      "error": "SurjectivityViolation"}


def test_validate_missing_file(capsys):
    assert main(["validate", "/no/such/file.json"]) == EXIT_IO


def test_validate_broken_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{broken")
    assert main(["validate", str(path)]) == EXIT_IO


def test_validate_float_scalar_is_malformed(tmp_path, capsys):
    doc = jsonio.to_document(generate(GenSpec(k=1, r=2, seed=0,
                                              family="charge_one")))
    doc["matrices"]["a1"][0][0]["re"] = 0.1
    path = tmp_path / "float.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == EXIT_IO
    assert capsys.readouterr().out == ""


def _assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and set(json.loads(lines[0])) == {"error"}
    return lines[0]


def test_deeply_nested_document_is_malformed(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    for command in ("validate", "reduce", "trivialize"):
        assert main([command, str(path)]) == EXIT_IO
        assert "nested too deeply" in _assert_one_error_line(capsys)


def test_long_scalar_is_echoed_in_part(tmp_path, capsys):
    doc = jsonio.to_document(generate(GenSpec(k=1, r=2, seed=0,
                                              family="charge_one")))
    doc["matrices"]["a1"][0][0]["re"] = "1" * 5000 + "/1"
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == EXIT_IO
    assert len(_assert_one_error_line(capsys)) < 500


def _malformed_bytes(tmp_path):
    """A document that is not UTF-8 and one with a 5000-digit integer."""
    (tmp_path / "utf16.json").write_bytes(b"\xff\xfe{\x00}\x00")
    (tmp_path / "bigint.json").write_text('{"k": ' + "1" * 5000 + "}")
    return [tmp_path / "utf16.json", tmp_path / "bigint.json"]


def test_validate_malformed_bytes_is_one_error_line(tmp_path, capsys):
    for path in _malformed_bytes(tmp_path):
        assert main(["validate", str(path)]) == EXIT_IO
        _assert_one_error_line(capsys)


def test_digit_limit_is_reported_in_our_words(tmp_path, capsys):
    """Python's advice to raise the limit is no use to a CLI user: the
    error line says the value has too many digits, as a JSON literal and
    inside a "p/q" string."""
    doc = jsonio.to_document(generate(GenSpec(k=1, r=2, seed=0,
                                              family="charge_one")))
    doc["matrices"]["a1"][0][0]["im"] = "-1/" + "7" * 5000
    (tmp_path / "scalar.json").write_text(json.dumps(doc))
    for path in _malformed_bytes(tmp_path)[1:] + [tmp_path / "scalar.json"]:
        assert main(["validate", str(path)]) == EXIT_IO
        line = _assert_one_error_line(capsys)
        assert "more than 4300 digits" in line
        assert "set_int_max_str_digits" not in line


def test_batch_reports_malformed_bytes_as_parse_errors(tmp_path, capsys):
    names = [p.name for p in _malformed_bytes(tmp_path)]
    _write(tmp_path, "ok.json", "blowup_zero_d", 2, 1)
    assert main(["batch", str(tmp_path), "--jobs", "1"]) == EXIT_IO
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "summary: 1 valid, 0 invalid, 2 errors in 3 files"
    by_file = {r["file"]: r for r in map(json.loads, lines[:-1])}
    assert by_file["ok.json"]["status"] == "valid"
    assert all(by_file[n]["status"] == "parse_error" for n in names)


# -- classify ------------------------------------------------------------

def test_classify_with_oracle(tmp_path, capsys):
    path = _write(tmp_path, "mt.json", "blowup_zero_d", 2, 1)
    assert main(["classify", path, "--oracle-maxlen", "4"]) == EXIT_OK
    rep = _last_json(capsys)
    assert rep["is_s0"] is True
    assert rep["oracle"] is True and rep["oracle_agrees"] is True
    assert rep["nilpotency"] == {"da1": 1, "da2": 1}


def test_classify_oracle_on_s0_input_needs_few_products(tmp_path, capsys,
                                                       monkeypatch):
    """The word oracle drops words whose vector is zero: on S0 input,
    where every word vanishes, length 40 costs a handful of products."""
    path = _write(tmp_path, "mt.json", "blowup_zero_d", 2, 1)
    products = []
    matmul = Matrix.__matmul__

    def budgeted(self, other):
        products.append(None)
        if len(products) > 10_000:
            raise RuntimeError("product budget exhausted")
        return matmul(self, other)

    monkeypatch.setattr(Matrix, "__matmul__", budgeted)
    assert main(["classify", path, "--oracle-maxlen", "40"]) == EXIT_OK
    rep = _last_json(capsys)
    assert rep["oracle"] is True and rep["oracle_agrees"] is True


def test_classify_oracle_length_must_be_nonnegative(tmp_path, capsys):
    path = _write(tmp_path, "mt.json", "blowup_zero_d", 2, 1)
    for bad in ("-3", "two"):
        with pytest.raises(SystemExit) as exc:
            main(["classify", path, "--oracle-maxlen", bad])
        assert exc.value.code == 2  # argparse's malformed-argument exit
        captured = capsys.readouterr()
        assert captured.out == "" and "--oracle-maxlen" in captured.err
    assert main(["classify", path, "--oracle-maxlen", "0"]) == EXIT_OK
    assert _last_json(capsys)["oracle_agrees"] is True


def test_classify_da2_not_nilpotent(tmp_path, capsys):
    """d = a2 = identity, a1 = b = c = 0: only d a2 fails nilpotency."""
    path = tmp_path / "mt.json"
    jsonio.write_file(path, MonadDataBlowup(
        Matrix.zeros(2, 2), Matrix.identity(2), Matrix.identity(2),
        Matrix.zeros(2, 1), Matrix.zeros(1, 2)))
    assert main(["classify", str(path), "--oracle-maxlen", "4"]) == EXIT_OK
    assert _last_json(capsys) == {
        "is_s0": False, "nilpotency": {"da1": 1, "da2": None},
        "krylov_dim": 0, "witness": "da2 not nilpotent",
        "oracle": False, "oracle_agrees": True}


def test_classify_rejects_p2_document(tmp_path, capsys):
    path = _write(tmp_path, "m.json", "commuting_points", 2, 1)
    assert main(["classify", path]) == EXIT_IO


def test_classify_invalid_instance(tmp_path, capsys):
    path = _write(tmp_path, "bad.json", "invalid_integrability", 2, 1)
    assert main(["classify", path]) == EXIT_DOMAIN


# -- pushforward ---------------------------------------------------------

def test_pushforward_round_trip(tmp_path, capsys):
    src = _write(tmp_path, "mt.json", "blowup_generic", 2, 2)
    out = str(tmp_path / "pushed.json")
    assert main(["pushforward", src, out]) == EXIT_OK
    pushed = jsonio.read_file(out)
    assert isinstance(pushed, MonadDataP2)
    assert main(["validate", out]) == EXIT_OK


def test_unwritable_outputs_are_io_errors(tmp_path, capsys):
    src = _write(tmp_path, "mt.json", "blowup_generic", 2, 2)
    out = str(tmp_path / "missing" / "out.json")
    for argv in (["pushforward", src, out],
                 ["generate", out, "--family", "charge_one", "--k", "1",
                  "--r", "2"]):
        assert main(argv) == EXIT_IO
        assert "cannot write" in _assert_one_error_line(capsys)
    assert not (tmp_path / "missing").exists()


# -- reduce --------------------------------------------------------------

def test_reduce_exact(tmp_path, capsys):
    path = _write(tmp_path, "m.json", "commuting_points", 2, 1)
    assert main(["reduce", path]) == EXIT_OK
    rep = _last_json(capsys)
    assert rep["l"] + len(rep["points"]) == 2
    assert rep["approx"] is False


def test_reduce_irrational_spectrum_and_float_fallback(tmp_path, capsys):
    m = MonadDataP2(Matrix.from_rows([[0, 2], [1, 0]]), Matrix.zeros(2, 2),
                    Matrix.zeros(2, 1), Matrix.zeros(1, 2))
    path = tmp_path / "sqrt2.json"
    jsonio.write_file(path, m)
    assert main(["reduce", str(path)]) == EXIT_DOMAIN
    assert _last_json(capsys)["error"] == "IrrationalSpectrum"
    assert main(["reduce", str(path), "--float"]) == EXIT_OK
    rep = _last_json(capsys)
    assert rep["approx"] is True
    xs = sorted(p[0][0] for p in rep["points"])
    assert abs(xs[0] + 2 ** 0.5) < 1e-8 and abs(xs[1] - 2 ** 0.5) < 1e-8


def test_reduce_float_on_ill_conditioned_commuting_points(tmp_path, capsys):
    path = _write(tmp_path, "m.json", "commuting_points", 4, 2, seed=869589436)
    assert main(["reduce", path]) == EXIT_OK
    exact = _last_json(capsys)
    assert main(["reduce", path, "--float"]) == EXIT_OK
    rep = _last_json(capsys)
    assert rep["approx"] is True and rep["l"] == exact["l"] == 0
    assert len(rep["points"]) == len(exact["points"]) == 4


def test_reduce_float_reports_values_beyond_the_float_range(tmp_path, capsys):
    m = MonadDataP2(Matrix.diagonal([10 ** 400, 1]), Matrix.zeros(2, 2),
                    Matrix.zeros(2, 1), Matrix.zeros(1, 2))
    path = tmp_path / "huge.json"
    jsonio.write_file(path, m)
    assert main(["reduce", str(path)]) == EXIT_OK
    assert len(_last_json(capsys)["points"]) == 2
    assert main(["reduce", str(path), "--float"]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1 and captured.err == ""
    assert json.loads(lines[0])["error"] == "FloatOverflow"


# -- trivialize ----------------------------------------------------------

def test_trivialize_ok(tmp_path, capsys):
    path = _write(tmp_path, "m.json", "block_concentrated", 2, 1)
    assert main(["trivialize", path, "--samples", "4"]) == EXIT_OK
    assert _last_json(capsys)["ok"] is True


def test_trivialize_rejects_sample_counts_below_one(tmp_path, capsys):
    path = _write(tmp_path, "m.json", "block_concentrated", 2, 1)
    for bad in ("0", "-3", "x"):
        with pytest.raises(SystemExit) as exc:
            main(["trivialize", path, "--samples", bad])
        assert exc.value.code == 2  # argparse's malformed-argument exit
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--samples" in captured.err


def test_trivialize_not_concentrated(tmp_path, capsys):
    path = _write(tmp_path, "m.json", "commuting_points", 2, 1)
    assert main(["trivialize", path]) == EXIT_DOMAIN
    assert _last_json(capsys)["error"] == "NotConcentrated"


# -- generate ------------------------------------------------------------

def test_generate_deterministic_bytes(tmp_path, capsys):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    args = ["--family", "blowup_generic", "--k", "3", "--r", "2",
            "--seed", "77"]
    assert main(["generate", p1] + args) == EXIT_OK
    assert main(["generate", p2] + args) == EXIT_OK
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_generate_infeasible(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    assert main(["generate", out, "--family", "charge_one",
                 "--k", "2", "--r", "2"]) == EXIT_DOMAIN
    assert _last_json(capsys)["error"] == "InfeasibleSpec"


# -- batch ---------------------------------------------------------------

def test_generate_out_of_memory_is_one_error_line(tmp_path, capsys,
                                                  monkeypatch):
    def exhausted(spec):
        raise MemoryError

    monkeypatch.setattr(cli, "generate", exhausted)
    out = tmp_path / "huge.json"
    assert main(["generate", str(out), "--family", "commuting_points",
                 "--k", "100000", "--r", "1"]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "out of memory in generate"}
    assert not out.exists()


def test_batch_mixed_directory(tmp_path, capsys):
    _write(tmp_path, "ok1.json", "blowup_zero_d", 2, 1)
    _write(tmp_path, "ok2.json", "commuting_points", 2, 1)
    _write(tmp_path, "bad.json", "invalid_integrability", 2, 1)
    assert main(["batch", str(tmp_path), "--jobs", "1"]) == EXIT_DOMAIN
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[-1] == "summary: 2 valid, 1 invalid, 0 errors in 3 files"
    reports = [json.loads(s) for s in lines[:-1]]
    by_file = {r["file"]: r for r in reports}
    assert by_file["ok1.json"]["status"] == "valid"
    assert by_file["ok1.json"]["is_s0"] is True
    assert by_file["bad.json"]["status"] == "invalid"


def test_batch_parse_error_wins(tmp_path, capsys):
    _write(tmp_path, "ok.json", "blowup_zero_d", 2, 1)
    (tmp_path / "broken.json").write_text("]")
    assert main(["batch", str(tmp_path)]) == EXIT_IO


def test_batch_all_valid(tmp_path, capsys):
    _write(tmp_path, "a.json", "blowup_generic", 2, 1, seed=1)
    _write(tmp_path, "b.json", "blowup_generic", 2, 1, seed=2)
    assert main(["batch", str(tmp_path), "--jobs", "2"]) == EXIT_OK


def test_batch_empty_directory(tmp_path, capsys):
    assert main(["batch", str(tmp_path)]) == EXIT_IO


def test_batch_missing_directory(capsys):
    assert main(["batch", "/no/such/dir"]) == EXIT_IO


def test_batch_rejects_job_counts_below_one(tmp_path, capsys):
    _write(tmp_path, "a.json", "blowup_zero_d", 2, 1)
    for bad in ("0", "-3", "1.5"):
        with pytest.raises(SystemExit) as exc:
            main(["batch", str(tmp_path), "--jobs", bad])
        assert exc.value.code == 2  # argparse's malformed-argument exit
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--jobs" in captured.err


def test_batch_clamps_jobs_to_document_count(tmp_path, capsys, monkeypatch):
    seen = []

    class FakePool:
        """Records the requested worker count and runs the map in-process."""

        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # cmd_batch imports the pool class when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    _write(tmp_path, "a.json", "blowup_zero_d", 2, 1, seed=1)
    _write(tmp_path, "b.json", "blowup_zero_d", 2, 1, seed=2)
    assert main(["batch", str(tmp_path), "--jobs", "64"]) == EXIT_OK
    assert seen == [2]
    # the processor-count default is clamped the same way
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    _write(tmp_path, "c.json", "blowup_zero_d", 2, 1, seed=3)
    assert main(["batch", str(tmp_path)]) == EXIT_OK
    assert seen == [2, 3]


# -- imports -------------------------------------------------------------

_IMPORT_PROBE = """
import sys

def loaded():
    return sorted(m for m in ("numpy", "scipy", "sympy") if m in sys.modules)

import monadcalc
bare = loaded()
from monadcalc import cli
code = cli.main(["reduce", sys.argv[1]])
exact = loaded()
code_float = cli.main(["reduce", sys.argv[1], "--float"])
print(bare, code, exact, code_float)
"""


def test_package_and_exact_reduce_leave_sympy_unloaded(tmp_path):
    """Neither importing the package nor an exact reduce loads numpy,
    scipy or sympy, here on a spectrum whose square-free part is cubic;
    only --float loads numpy."""
    path = _write(tmp_path, "m.json", "commuting_points", 3, 2, seed=4)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, path],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True)
    report, float_report, probe = proc.stdout.splitlines()
    assert len(json.loads(report)["points"]) == 3
    assert json.loads(float_report)["approx"] is True
    assert len(json.loads(float_report)["points"]) == 3
    assert probe == "[] 0 [] 0"


# -- pinned report bytes ---------------------------------------------------

# sha256 of the corpus below, fixed when the CLI's output was last changed
# on purpose; any other change to a report, an exit code or a written file
# fails here
PINNED_REPORTS_SHA256 = (
    "1ba5a986d243cb9909c8c318aa1b7408e73991a6f005e0b34a41e3e1d364ec71")


def _run_cli(capsys, argv, written=None):
    """[argv, exit code, stdout, stderr, text of ``written`` or None]."""
    code = main(argv)
    captured = capsys.readouterr()
    data = None
    if written is not None and os.path.exists(written):
        data = pathlib.Path(written).read_bytes().decode()
    return [argv, code, captured.out, captured.err, data]


def test_report_bytes_are_pinned(tmp_path, capsys, monkeypatch):
    """Every document command on seeded documents of each family, run
    in-process with relative paths, hashed together with what it wrote."""
    monkeypatch.chdir(tmp_path)
    os.mkdir("docs")
    os.mkdir("out")
    digest = hashlib.sha256()

    def record(argv, written=None):
        entry = _run_cli(capsys, argv, written)
        digest.update(json.dumps(entry).encode() + b"\0")
        return entry[1]

    for family in FAMILIES:
        for k in range(5):
            for r in (1, 2):
                for seed in (0, 1):
                    doc = f"docs/{family}_{k}_{r}_{seed}.json"
                    if record(["generate", doc, "--family", family,
                               "--k", str(k), "--r", str(r),
                               "--seed", str(seed)], doc) != EXIT_OK:
                        continue
                    pushed = f"out/{family}_{k}_{r}_{seed}.json"
                    record(["validate", doc])
                    record(["classify", doc, "--oracle-maxlen", str(2 * k)])
                    record(["pushforward", doc, pushed], pushed)
                    record(["reduce", doc])
                    record(["trivialize", doc, "--samples", "3"])
    record(["batch", "docs", "--jobs", "1"])
    assert digest.hexdigest() == PINNED_REPORTS_SHA256


def test_hostile_inputs_keep_the_exit_code_contract(tmp_path, capsys,
                                                    monkeypatch):
    """Malformed, mistyped or unwritable: exit 1 and one error line."""
    monkeypatch.chdir(tmp_path)
    pathlib.Path("broken.json").write_text("{broken")
    pathlib.Path("utf16.json").write_bytes(b"\xff\xfe{\x00}\x00")
    pathlib.Path("bigint.json").write_text('{"k": ' + "1" * 5000 + "}")
    jsonio.write_file("p2.json", generate(GenSpec(2, 1, 0, "commuting_points")))
    jsonio.write_file("blowup.json", generate(GenSpec(2, 1, 0, "blowup_zero_d")))
    cases = [command[:1] + [path] + command[1:] for command in
             (["validate"], ["classify"], ["pushforward", "x.json"],
              ["reduce"], ["trivialize"])
             for path in ("broken.json", "utf16.json", "bigint.json")]
    cases += [["classify", "p2.json"], ["pushforward", "p2.json", "x.json"],
              ["reduce", "blowup.json"], ["trivialize", "blowup.json"],
              ["pushforward", "blowup.json", "missing/x.json"],
              ["generate", "missing/x.json", "--family", "charge_one",
               "--k", "1", "--r", "2"]]
    for argv in cases:
        _, code, out, err, _ = _run_cli(capsys, argv)
        assert code == EXIT_IO, argv
        assert out == "" and len(err.splitlines()) == 1, argv
        assert set(json.loads(err)) == {"error"}, argv
