"""Which certified chain and which generators a spec carries is decided in
``grpcore`` alone (``GroupSpec.of_chain`` and ``GroupSpec.chain``).

This test only reads the package's source: no module but ``grpcore``
assigns a spec's ``_chain``, passes ``_chain=`` or builds
``TrackedGenerators``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "grpfact"


def _chain_decisions(path: Path) -> list[str]:
    """Each place in a module that sets a spec's chain or generators."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Attribute) and sub.attr == "_chain":
                        found.append(f"line {node.lineno}: assigns ._chain")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name == "TrackedGenerators":
                found.append(f"line {node.lineno}: builds TrackedGenerators")
            found += [f"line {node.lineno}: passes _chain=" for kw in node.keywords if kw.arg == "_chain"]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_grpcore_decides_a_specs_chain(path):
    found = _chain_decisions(path)
    if path.name == "grpcore.py":
        # the walk sees each kind of decision where it is made
        assert {f.split(": ")[1] for f in found} == {"assigns ._chain", "passes _chain=", "builds TrackedGenerators"}
    else:
        assert found == []
