"""Hostile documents on the command line.

Seeded documents are mutated (keys dropped or replaced, scalars
corrupted, text truncated) and handed to ``cli.main``.  Whatever the
input, no exception escapes, the exit code is 0, 1 or 2, a failure to
read the document (exit 1) is one JSON line on stderr with nothing on
stdout, and every other outcome is one JSON report on stdout.
"""

import contextlib
import copy
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from monadcalc import jsonio
from monadcalc.cli import EXIT_DOMAIN, EXIT_IO, EXIT_OK, main
from monadcalc.field import QI
from monadcalc.generate import GenSpec, generate

SEEDED = [jsonio.to_document(generate(GenSpec(k=k, r=r, seed=seed,
                                              family=family)))
          for family, k, r, seed in [("commuting_points", 2, 1, 3),
                                     ("block_concentrated", 2, 1, 4),
                                     ("charge_one", 1, 2, 5),
                                     ("blowup_generic", 2, 1, 6),
                                     ("blowup_zero_d", 1, 1, 7)]]

COMMANDS = ("validate", "classify", "reduce", "trivialize")

# replacement values: wrong types, bad and extreme scalars and dimensions
_JUNK = st.one_of(
    st.sampled_from([None, True, False, 0, -1, 1.5, "", "x", "1/0", "0/1",
                     "-1/2", " 1/2", "1/-2", "0.5", [], {}, [[]],
                     {"re": "1/1"}, {"re": "1/1", "im": 0},
                     {"re": "1/1", "im": "1/1", "x": "1/1"},
                     {"re": "9" * 5000 + "/1", "im": "0/1"}]),
    st.integers(-3, 6), st.integers(-10 ** 30, 10 ** 30),
    st.builds(lambda p, q: {"re": f"{p}/{q}", "im": "0/1"},
              st.integers(-10 ** 400, 10 ** 400), st.integers(-2, 10 ** 9)))


def _paths(obj, prefix=()):
    """Every key or index path into a JSON value, the root excluded."""
    items = (obj.items() if isinstance(obj, dict) else enumerate(obj)
             if isinstance(obj, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


# a scalar's "re" or "im" text: canonical, unreduced, huge, or malformed
_RATIONAL_TEXTS = st.one_of(
    st.builds("{}/{}".format, st.integers(-10 ** 500, 10 ** 500),
              st.integers(-1, 10 ** 12)),
    st.sampled_from(["", "1", "1/", "/1", "1.5/1", "0x1/1", "1/2/3",
                     "--1/2", "\u0661/1", "1/1 "]))


@st.composite
def _hostile_texts(draw):
    doc = copy.deepcopy(draw(st.sampled_from(SEEDED)))
    kind = draw(st.sampled_from(["keys", "scalars", "scale", "truncate"]))
    if kind == "keys":  # drop keys and replace values anywhere
        for _ in range(draw(st.integers(1, 3))):
            *parent, key = draw(st.sampled_from(list(_paths(doc))))
            holder = doc
            for step in parent:
                holder = holder[step]
            if isinstance(holder, dict) and draw(st.booleans()):
                del holder[key]
            else:
                # a copy: sampled_from hands out the same [] and {} objects
                # every draw, and later iterations mutate what they hold
                holder[key] = copy.deepcopy(draw(_JUNK))
    elif kind == "scalars":  # corrupt the text of some entries
        texts = [path for path in _paths(doc) if path[-1] in ("re", "im")]
        for _ in range(draw(st.integers(1, 3))):
            *parent, key = draw(st.sampled_from(texts))
            holder = doc
            for step in parent:
                holder = holder[step]
            holder[key] = draw(_RATIONAL_TEXTS)
    elif kind == "scale":  # scale a whole matrix: often still valid data
        name = draw(st.sampled_from(sorted(doc["matrices"])))
        factor = QI(Fraction(draw(st.integers(-10 ** 60, 10 ** 60)),
                             draw(st.integers(1, 10 ** 9))),
                    Fraction(draw(st.integers(-9, 9))))
        doc["matrices"][name] = [
            [jsonio._qi_to_obj(factor * QI.parse(e["re"], e["im"]))
             for e in row] for row in doc["matrices"][name]]
    text = json.dumps(doc)
    if kind == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None, database=None)
@given(_hostile_texts())
def test_hostile_documents_keep_the_exit_code_contract(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(text, encoding="utf-8")
        for command in COMMANDS:
            argv = [command, str(path)]
            if command == "trivialize":
                argv += ["--samples", "2"]
            code, out, err = _run(argv)
            assert code in (EXIT_OK, EXIT_IO, EXIT_DOMAIN), (command, text)
            stream, quiet = (err, out) if code == EXIT_IO else (out, err)
            assert quiet == "", (command, text)
            lines = stream.splitlines()
            assert len(lines) == 1, (command, text)
            json.loads(lines[0])
