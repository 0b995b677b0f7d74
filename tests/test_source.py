"""Properties of the package source itself."""

import ast
import pathlib

import pytest

import monadcalc
from monadcalc.errors import InvariantViolation, MonadcalcError, check_invariant

SRC = pathlib.Path(monadcalc.__file__).parent


def test_no_assert_statements_in_package():
    """Invariants raise typed errors, so ``python -O`` keeps every check."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_check_invariant_raises_a_domain_error():
    check_invariant(True, "holds")
    with pytest.raises(InvariantViolation, match="broken") as exc:
        check_invariant(False, "broken")
    assert isinstance(exc.value, MonadcalcError)
