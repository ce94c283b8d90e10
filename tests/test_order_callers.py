"""Element orders are read off transversal words on a chain's support
(``grpcore.Support.orders``); only the one-permutation helper
``element_order_perm``, which the seeded search of tests/provenance.py
uses, forms a permutation's cycles.

This test only reads the package's source: no function but
``grpcore.element_order_perm`` calls ``element_orders``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "grpfact"


class _Callers(ast.NodeVisitor):
    """The innermost function around each call of ``element_orders``."""

    def __init__(self, module: str):
        self.module, self.scope, self.found = module, [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
        if name == "element_orders":
            self.found.append(f"{self.module}:{self.scope[-1] if self.scope else '<module>'}")
        self.generic_visit(node)


def _callers() -> list[str]:
    found = []
    for path in sorted(SRC.glob("*.py")):
        visitor = _Callers(path.stem)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        found += visitor.found
    return found


def test_only_element_order_perm_calls_element_orders():
    assert _callers() == ["grpcore:element_order_perm"]


def test_the_walk_catches_a_call_in_any_module():
    # the visitor sees a bare call and an attribute call, each in its function
    source = "def f(x):\n    return element_orders(x)\n\ndef g(x):\n    return grpcore.element_orders(x)\n"
    visitor = _Callers("mod")
    visitor.visit(ast.parse(source))
    assert visitor.found == ["mod:f", "mod:g"]
