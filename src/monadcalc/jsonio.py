"""The JSON instance document format (schema_version "1").

A document is

    {
      "schema_version": "1",
      "kind": "p2" | "blowup",
      "k": <int>, "r": <int>,               # nonnegative, not booleans
      "matrices": {
        "a1": [[{"re": "p/q", "im": "p/q"}, ...], ...],
        "a2": ..., "b": ..., "c": ...,        # and "d" for blowup
      }
    }

The matrices are the fields of the kind's tuple (``_KINDS``), each of
the shape ``p2._shape`` gives it; they are read, and their errors
reported, in name order.

Rationals are always the canonical "p/q" strings (never floats), so
serialization round-trips bit-exactly.  Approximate values (the --float
eigenvalue fallback) only ever appear in CLI *reports*, never in
instance documents.

A file that is not UTF-8 and an integer literal over 4300 digits
(Python's int conversion limit) are malformed, like invalid JSON.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import fields
from typing import Union

from .blowup import MonadDataBlowup
from .errors import DocumentError
from .field import QI
from .matrix import Matrix
from .p2 import MonadDataP2, _shape

SCHEMA_VERSION = "1"

# An optional minus sign, then decimal digits, a slash and decimal digits.
_RATIONAL = re.compile(r"-?[0-9]+/[0-9]+")
# error messages quote at most this many characters of an offending entry
_ECHO_CHARS = 100

Instance = Union[MonadDataP2, MonadDataBlowup]
# the document kinds and the tuple each one holds
_KINDS = {"p2": MonadDataP2, "blowup": MonadDataBlowup}


def _qi_to_obj(v: QI) -> dict:
    return {"re": v.re_str(), "im": v.im_str()}


def _too_many_digits() -> str:
    """Python's int() conversion limit, in words a document's author can act on."""
    return f"an integer has more than {sys.get_int_max_str_digits()} digits"


def _parse_int(text: str) -> int:
    """json's integer literal hook: int(), with our words at the digit limit."""
    try:
        return int(text)
    except ValueError:
        raise DocumentError(f"invalid JSON: {_too_many_digits()}") from None


def _qi_from_obj(obj) -> QI:
    if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
        raise DocumentError(f"bad scalar entry {obj!r:.{_ECHO_CHARS}}")
    if not all(isinstance(v, str) and _RATIONAL.fullmatch(v) for v in obj.values()):
        raise DocumentError(f"bad rational string in {obj!r:.{_ECHO_CHARS}}: want 'p/q'")
    try:
        return QI.parse(obj["re"], obj["im"])
    except ZeroDivisionError as exc:
        raise DocumentError(f"bad rational string in {obj!r:.{_ECHO_CHARS}}: {exc}") from exc
    except ValueError:  # the strings match: more digits than int() accepts
        raise DocumentError(f"bad rational string in {obj!r:.{_ECHO_CHARS}}: "
                            f"{_too_many_digits()}") from None


def _matrix_to_obj(M: Matrix) -> list:
    return [[_qi_to_obj(x) for x in M.row_list(i)] for i in range(M.rows)]


def _matrix_from_obj(obj, rows: int, cols: int, name: str) -> Matrix:
    if not isinstance(obj, list) or len(obj) != rows:
        raise DocumentError(f"matrix {name!r} must have {rows} rows")
    flat = []
    for row in obj:
        if not isinstance(row, list) or len(row) != cols:
            raise DocumentError(f"matrix {name!r} must have {cols} columns per row")
        flat.extend(_qi_from_obj(e) for e in row)
    return Matrix(rows, cols, flat)


def to_document(inst: Instance) -> dict:
    kind = next(kind for kind, cls in _KINDS.items() if isinstance(inst, cls))
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "k": inst.k,
        "r": inst.r,
        "matrices": {f.name: _matrix_to_obj(getattr(inst, f.name))
                     for f in fields(inst)},
    }


def from_document(doc) -> Instance:
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise DocumentError(f"unsupported schema_version {doc.get('schema_version')!r}")
    kind = doc.get("kind")
    if not (isinstance(kind, str) and kind in _KINDS):
        raise DocumentError(f"kind must be 'p2' or 'blowup', got {kind!r}")
    k, r = doc.get("k"), doc.get("r")
    # bool is an int subclass, but true/false are not JSON integers
    if not all(type(n) is int and n >= 0 for n in (k, r)):
        raise DocumentError("k and r must be nonnegative integers")
    mats = doc.get("matrices")
    if not isinstance(mats, dict):
        raise DocumentError("missing 'matrices' object")
    cls = _KINDS[kind]
    # in name order (a1, a2, b, c, d), which decides the error reported first
    names = sorted(f.name for f in fields(cls))
    if set(mats) != set(names):
        raise DocumentError(f"matrices must be exactly {names}")
    return cls(**{name: _matrix_from_obj(mats[name], *_shape(name, k, r), name)
                  for name in names})


def dumps(inst: Instance) -> str:
    """Canonical serialization: sorted keys, fixed separators, newline."""
    return json.dumps(to_document(inst), sort_keys=True, indent=2) + "\n"


def loads(text: str) -> Instance:
    try:
        try:
            doc = json.loads(text, parse_int=_parse_int)
        except ValueError as exc:  # bad JSON or UTF-8
            raise DocumentError(f"invalid JSON: {exc}") from exc
        return from_document(doc)
    except RecursionError:  # json.loads or repr of a deeply nested value
        raise DocumentError("document is nested too deeply") from None


def write_file(path, inst: Instance):
    text = dumps(inst)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DocumentError(f"cannot write {path}: {exc}") from exc


def read_file(path) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    return loads(text)
