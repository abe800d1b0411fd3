"""Every Python file parses under the Python 3.10 grammar: the package, the
tests and the benchmark harness the smoke test runs.

That is one release below ``requires-python`` (``>=3.11``), so this is
stricter than the package needs. It checks syntax only: ``ast.parse``
with ``feature_version=(3, 10)`` rejects, on a best-effort basis, grammar
that 3.10 lacks, such as ``except*``, but it does not see a call to a
stdlib function or option that 3.10 lacks.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "slidegar"
SOURCES = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "tests").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]


def _name(path):  # a package module by its file name, any other file by its path in the repo
    return path.name if path.parent == PACKAGE else path.relative_to(ROOT).as_posix()


@pytest.mark.parametrize("path", SOURCES, ids=_name)
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
