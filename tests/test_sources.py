"""The sources parse under the oldest Python that pyproject.toml declares.

Only the grammar is checked: a construct newer than that Python (``except*``,
say) fails here even when the tests run on a newer one.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
OLDEST = (3, 10)
FOLDERS = ("src/latticeproj", "scripts", "tests")
SOURCES = sorted(path for folder in FOLDERS for path in (ROOT / folder).rglob("*.py"))


def test_the_checked_version_is_the_declared_one():
    pyproject = (ROOT / "pyproject.toml").read_text()
    declared = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M)
    assert tuple(map(int, declared.groups())) == OLDEST


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_source_parses_under_the_oldest_python(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=OLDEST)


def test_a_newer_construct_is_rejected():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST)
