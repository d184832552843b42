"""The sources parse under the oldest Python that pyproject.toml declares."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "polarpark").glob("*.py"))


def declared_minimum():
    match = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                      (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.M)
    return int(match[1]), int(match[2])


def test_the_declared_minimum_is_3_10():
    assert declared_minimum() == (3, 10)


def test_the_check_rejects_newer_syntax():
    # except* arrived in 3.11
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_parses_at_the_declared_minimum(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=declared_minimum())
