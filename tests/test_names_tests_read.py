"""Every name that a test reads off a grpfact module exists.

An opt-in test (``RUN_EXTENDED=1``) is skipped in tier-1, so a name
deleted from the package would fail it only there.  This test parses
``tests/*.py`` and resolves each attribute read off a grpfact module, or
off a name imported from one (``grpcore.BLOCK_ENTRIES``, ``StabChain._sift``),
and each attribute that a ``getattr`` or ``setattr`` call names by a string
literal (``monkeypatch.setattr(grpcore, "Action", ...)``).  Imports are
read wherever they stand in a file, and a local name that shadows one is
not told apart.
"""

import ast
import importlib
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


def _imported(tree: ast.Module) -> dict:
    """The names a file binds to grpfact modules or to objects of them."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "grpfact":
                    # "import grpfact.x as y" binds y to grpfact.x; "import grpfact.x" binds grpfact
                    importlib.import_module(alias.name)
                    names[alias.asname or "grpfact"] = importlib.import_module(alias.name if alias.asname else "grpfact")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "grpfact":
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = (getattr(module, alias.name) if hasattr(module, alias.name)
                                                     else importlib.import_module(f"{node.module}.{alias.name}"))
    return names


def _reads(tree: ast.Module, names: dict):
    """(line, owner, attribute) for each attribute the file reads off a name in names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in names:
            yield node.lineno, node.value.id, node.attr
        elif isinstance(node, ast.Call) and len(node.args) >= 2:
            func = node.func
            called = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            owner, attr = node.args[:2]
            if (called in ("getattr", "setattr") and isinstance(owner, ast.Name) and owner.id in names
                    and isinstance(attr, ast.Constant) and isinstance(attr.value, str)):
                yield node.lineno, owner.id, attr.value


def _has(obj, attr: str) -> bool:
    # a dataclass field with no default is read off instances only
    return hasattr(obj, attr) or attr in getattr(obj, "__dataclass_fields__", {})


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_every_grpfact_name_a_test_reads_exists(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    names = _imported(tree)
    missing = [f"{path.name}:{line}: {owner}.{attr}" for line, owner, attr in sorted(_reads(tree, names))
               if not _has(names[owner], attr)]
    assert not missing, "names that no grpfact module defines:\n" + "\n".join(missing)


def test_a_deleted_name_is_reported():
    # a read of a missing module attribute and a setattr of a missing class
    # attribute, the kind an opt-in test makes
    tree = ast.parse("from grpfact import grpcore\nfrom grpfact.grpcore import StabChain\n"
                     "grpcore.NO_SUCH_CONSTANT\nmonkeypatch.setattr(StabChain, '_no_such_method', None)\n"
                     "grpcore.BLOCK_ENTRIES\n")
    names = _imported(tree)
    assert [(owner, attr) for _, owner, attr in _reads(tree, names) if not _has(names[owner], attr)] == [
        ("grpcore", "NO_SUCH_CONSTANT"), ("StabChain", "_no_such_method")]
