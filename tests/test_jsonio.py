"""Instance document format: canonical serialization and strict parsing."""

import json

import pytest

from monadcalc import jsonio
from monadcalc.blowup import MonadDataBlowup
from monadcalc.errors import DocumentError
from monadcalc.field import QI
from monadcalc.generate import GenSpec, generate
from monadcalc.p2 import MonadDataP2


def _p2():
    return generate(GenSpec(k=2, r=2, seed=0, family="block_concentrated"))


def _blowup():
    return generate(GenSpec(k=2, r=1, seed=0, family="blowup_generic"))


def test_round_trip_bit_exact():
    for inst in (_p2(), _blowup()):
        text = jsonio.dumps(inst)
        again = jsonio.loads(text)
        assert again == inst
        assert jsonio.dumps(again) == text


def test_document_shape():
    doc = jsonio.to_document(_blowup())
    assert doc["schema_version"] == "1"
    assert doc["kind"] == "blowup"
    assert set(doc["matrices"]) == {"a1", "a2", "d", "b", "c"}
    entry = doc["matrices"]["a1"][0][0]
    assert set(entry) == {"re", "im"}
    assert "/" in entry["re"]  # rationals as p/q strings, never floats

    doc2 = jsonio.to_document(_p2())
    assert doc2["kind"] == "p2"
    assert set(doc2["matrices"]) == {"a1", "a2", "b", "c"}


def test_serialization_is_canonical():
    text = jsonio.dumps(_p2())
    assert text.endswith("\n")
    # key order is sorted, so a reparse/redump is the identity on bytes
    shuffled = json.dumps(json.loads(text), sort_keys=False)
    assert jsonio.dumps(jsonio.loads(shuffled)) == text


def test_file_round_trip(tmp_path):
    path = tmp_path / "inst.json"
    inst = _blowup()
    jsonio.write_file(path, inst)
    assert jsonio.read_file(path) == inst


def test_read_missing_file():
    with pytest.raises(DocumentError):
        jsonio.read_file("/nonexistent/path.json")


def _corrupt(mutate):
    doc = jsonio.to_document(_p2())
    mutate(doc)
    with pytest.raises(DocumentError):
        jsonio.from_document(doc)


def test_rejects_malformed_documents():
    with pytest.raises(DocumentError):
        jsonio.loads("{not json")
    with pytest.raises(DocumentError):
        jsonio.from_document([1, 2])
    _corrupt(lambda d: d.update(schema_version="2"))
    _corrupt(lambda d: d.update(kind="p3"))
    _corrupt(lambda d: d.update(k="2"))
    _corrupt(lambda d: d.update(k=-1))
    _corrupt(lambda d: d.update(k=True))
    _corrupt(lambda d: d.update(r=False))
    _corrupt(lambda d: d.pop("matrices"))
    _corrupt(lambda d: d["matrices"].pop("c"))
    _corrupt(lambda d: d["matrices"].update(extra=[]))
    _corrupt(lambda d: d["matrices"]["a1"][0].pop())           # short row
    _corrupt(lambda d: d["matrices"]["a1"][0].__setitem__(
        0, {"re": "1/0", "im": "0/1"}))                        # zero denominator
    _corrupt(lambda d: d["matrices"]["a1"][0].__setitem__(
        0, {"re": "x", "im": "0/1"}))                          # unparsable
    _corrupt(lambda d: d["matrices"]["a1"][0].__setitem__(
        0, {"re": "1" * 5000 + "/1", "im": "0/1"}))            # too many digits
    _corrupt(lambda d: d["matrices"]["a1"][0].__setitem__(0, {"re": "1/2"}))
    # scalars are "p/q" strings only: no JSON numbers, booleans, decimals
    for bad in (0.1, 1, True, None, "0.1", "1e3", "1", "+1/2", " 1/2",
                "1/2 ", "1/-2", "\u0661/2"):
        _corrupt(lambda d: d["matrices"]["a1"][0].__setitem__(
            0, {"re": bad, "im": "0/1"}))
        _corrupt(lambda d: d["matrices"]["b"][1].__setitem__(
            0, {"re": "0/1", "im": bad}))


def test_rejects_boolean_dimensions():
    # true == 1 in Python, so a k = r = 1 document would pass the shape checks
    doc = jsonio.to_document(
        generate(GenSpec(k=1, r=1, seed=0, family="commuting_points")))
    assert jsonio.from_document(doc).k == 1
    for key in ("k", "r"):
        bad = dict(doc, **{key: True})
        with pytest.raises(DocumentError, match="nonnegative integers"):
            jsonio.from_document(bad)


def test_rejects_hostile_documents():
    with pytest.raises(DocumentError, match="nested too deeply"):
        jsonio.loads("[" * 100_000 + "]" * 100_000)
    doc = jsonio.to_document(_p2())
    doc["matrices"]["a1"][0][0] = {"re": "1" * 5000 + "/1", "im": "0/1"}
    with pytest.raises(DocumentError) as exc:
        jsonio.loads(json.dumps(doc))
    assert "1" * 90 in str(exc.value) and len(str(exc.value)) < 400
    doc["matrices"]["a1"][0][0] = [[0] * 3000]
    with pytest.raises(DocumentError) as exc:
        jsonio.loads(json.dumps(doc))
    assert len(str(exc.value)) < 200


def test_rejects_bytes_that_are_not_utf8_and_overlong_integers(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    with pytest.raises(DocumentError, match="cannot read"):
        jsonio.read_file(path)
    with pytest.raises(DocumentError, match="invalid JSON"):
        jsonio.loads(b'{"k": "\xff"}')
    with pytest.raises(DocumentError, match="4300"):
        jsonio.loads('{"k": ' + "1" * 5000 + "}")


def test_accepts_signed_unreduced_rationals():
    doc = jsonio.to_document(_p2())
    doc["matrices"]["a1"][0][0] = {"re": "-2/4", "im": "0/7"}
    assert jsonio.from_document(doc).a1[0, 0] == QI("-1/2", 0)


def test_kind_dimension_consistency():
    # blowup document must carry d with matching dimensions
    doc = jsonio.to_document(_blowup())
    doc["matrices"]["d"] = doc["matrices"]["d"][:1]
    with pytest.raises(DocumentError, match="^matrix 'd' must have 2 rows$"):
        jsonio.from_document(doc)
    # matrices are read in name order: b before d, though d precedes b
    # among the tuple's fields
    doc["matrices"]["b"] = doc["matrices"]["b"][:1]
    with pytest.raises(DocumentError, match="^matrix 'b' must have 2 rows$"):
        jsonio.from_document(doc)


def test_loads_returns_correct_types():
    assert isinstance(jsonio.loads(jsonio.dumps(_p2())), MonadDataP2)
    assert isinstance(jsonio.loads(jsonio.dumps(_blowup())), MonadDataBlowup)
