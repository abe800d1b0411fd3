"""Every module of the package parses under the Python 3.10 grammar.

``requires-python`` is ``>=3.10``. This checks syntax only: ``ast.parse``
with ``feature_version=(3, 10)`` rejects, on a best-effort basis, grammar
that 3.10 lacks, such as ``except*``, but it does not see a call to a
stdlib function or option that 3.10 lacks.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "slidegar"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
