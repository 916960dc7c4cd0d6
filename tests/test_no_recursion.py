"""No function in the constructive modules calls itself, so deep inputs
cannot hit Python's recursion limit.  `oracle` is exempt: it is the
independent brute-force reference and recurses on purpose."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import enclosings

PACKAGE = Path(enclosings.__file__).parent
MODULES = ("mgraph", "decomp", "conditions", "extend", "detach", "cli")


def self_calls(source: str) -> list[str]:
    """Names of the functions that call themselves by name, or as
    `self.<name>` for a method."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            if (isinstance(f, ast.Name) and f.id == node.name) or (
                isinstance(f, ast.Attribute)
                and f.attr == node.name
                and isinstance(f.value, ast.Name)
                and f.value.id == "self"
            ):
                found.append(f"{node.name} (line {node.lineno})")
                break
    return found


def test_self_calls_finds_functions_and_methods():
    source = (
        "def walk(v):\n    return walk(v - 1)\n"
        "class A:\n"
        "    def visit(self, v):\n        self.visit(v)\n"
        "    def copy(self):\n        return self.edges.copy()\n"
    )
    assert self_calls(source) == ["walk (line 1)", "visit (line 4)"]


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_self_calling_function(module):
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert self_calls(source) == []
