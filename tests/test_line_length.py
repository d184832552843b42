"""The package sources keep to lines of at most 100 characters."""

from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "polarpark").glob("*.py"))
LIMIT = 100


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_line_is_longer_than_the_limit(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [(n, len(line)) for n, line in enumerate(lines, 1) if len(line) > LIMIT] == []
