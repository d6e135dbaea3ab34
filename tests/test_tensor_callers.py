"""Every public name in tensor.py must have a caller in the package.

An op that only verify.py or the tests import is a second op set kept
alive to test itself. This reads each module's ``from .tensor import``
statements (the package ``__init__`` re-export counts) and checks them
against the functions and classes tensor.py defines at module level.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stochpool"
EXEMPT = {"tensor.py", "verify.py"}


def public_definitions(source: str) -> set:
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}


def tensor_imports(source: str) -> set:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "tensor":
            names.update(alias.name for alias in node.names)
    return names


def uncalled(tensor_source: str, other_sources) -> set:
    imported = set().union(*(tensor_imports(s) for s in other_sources))
    return public_definitions(tensor_source) - imported


def test_scan_reports_names_without_a_caller():
    tensor_source = "class Tensor:\n    pass\ndef used(a):\n    pass\ndef spare(a):\n    pass\n" \
                    "def _helper():\n    pass\n"
    callers = ["from .tensor import (Tensor,\n    used)\n", "from .tensor import _helper\n"]
    assert uncalled(tensor_source, callers) == {"spare"}
    assert uncalled(tensor_source, callers + ["from .tensor import spare\n"]) == set()
    assert uncalled(tensor_source, ["from .attention import spare\n"]) == {"Tensor", "used",
                                                                           "spare"}


def test_every_public_tensor_name_has_a_caller():
    tensor_source = (PACKAGE / "tensor.py").read_text(encoding="utf-8")
    others = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))
              if path.name not in EXEMPT]
    assert len(others) >= 10
    assert uncalled(tensor_source, others) == set(), \
        "public tensor.py names that no package module besides verify.py imports"
