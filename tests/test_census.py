"""Function census: every def in src/grpfact that no verify run calls is on
an allowlist, with the reason it stays.

A fresh interpreter runs ``grpfact.cli.main`` in-process, under
``sys.setprofile`` and ``threading.setprofile`` (the sweep's worker
threads), for ``verify --tier all``, ``verify --negative-controls`` and the
template points ``6Sp:m=4`` and ``3:n=6,q=3``, each with ``--jobs 1``, and
writes the code objects of src that were called.  It is a fresh
interpreter because the process-global caches (shared domains, fields,
embeddings) that earlier tests fill would hide the calls that fill them.
A def is matched to its code object by file and first line, which is the
line of its first decorator.
"""

import ast
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import grpfact

SRC = Path(grpfact.__file__).resolve().parent

_CENSUS = """
import json, sys, threading

called = set()

def hook(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

sys.setprofile(hook)
threading.setprofile(hook)
from grpfact.cli import main

out = sys.argv[1]
for i, argv in enumerate((["--tier", "all"], ["--negative-controls"],
                          ["--row", "6Sp:m=4", "--row", "3:n=6,q=3"])):
    main(["verify", *argv, "--jobs", "1", "--out", f"{out}/run{i}"])
sys.setprofile(None)
threading.setprofile(None)
with open(f"{out}/called.json", "w") as fh:
    json.dump(sorted({(c.co_filename, c.co_firstlineno) for c in called}), fh)
"""

TARGET = "a tracing TARGET, or called only from one"
CHOP = "meataxe's chop machinery, called only from the tracing TARGET chop_for_dimension"
SEARCH = "the seeded search, called only from the tracing TARGET two_generator_search"
REFERENCE = "a test reference"
API = "library API that README names"
ERROR = "an error path"
REPR = "a __repr__"

ALLOWLIST = {
    **dict.fromkeys([
        "meataxe._pnorm", "meataxe._pmul", "meataxe._pdivmod", "meataxe._pmod", "meataxe._pgcd",
        "meataxe._ppowmod", "meataxe.factor_poly", "meataxe._equal_degree_split", "meataxe.spin",
        "meataxe.spin.add", "meataxe.action_on", "meataxe.krylov_minpoly", "meataxe.poly_of_matrix",
        "meataxe.random_algebra_element", "meataxe.chop_for_dimension"], CHOP),
    **dict.fromkeys(["sporadic.two_generator_search", "sporadic._random_of_order", "sporadic._walk_rejects",
                     "grpcore.tracked_power"], SEARCH),
    "grpcore.element_order_perm": TARGET,
    "grpcore.orbit_with_transporters": TARGET,
    "linalg.sl_apply": f"{TARGET}; {REFERENCE} for batch actions and domain permutations",
    **dict.fromkeys(["linalg.canonical_point", "linalg._proj_normalize", "linalg._eval_functional",
                     "linalg._as_tuple"], f"{REFERENCE}: canonical_point and its helpers"),
    "linalg.sl_inverse": f"{REFERENCE}: the matrix inverse of an element",
    "linalg.GroupElement.is_linear": f"{REFERENCE}: the tests' and tests/provenance.py's linearity predicate",
    **dict.fromkeys(["catalog.Catalog.sweep_grid", "catalog.Catalog.lemma_coverage",
                     "catalog.Catalog.cross_reference_audit", "orders.group_order"], API),
    "catalog.Catalog.claim_by_id": "library API that claimbench/workloads.py and the tests call",
    **dict.fromkeys(["actions.DomainCapError.__init__", "grpcore.OrbitBudgetError.__init__",
                     "gf.supported_fields"], ERROR),
    **dict.fromkeys(["gf.FieldSpec.__repr__", "linalg.Mat.__repr__", "linalg.GroupElement.__repr__",
                     "linalg.ActionPoint.__repr__"], REPR),
}


def _defs():
    """(name, file, first line) of every def in src, nested ones included;
    the k-th def of a repeated name in one scope is name[k]."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        seen = Counter()

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = prefix + child.name
                    seen[name] += 1
                    label = name if seen[name] == 1 else f"{name}[{seen[name]}]"
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    out.append((f"{path.stem}.{label}", str(path), first))
                    walk(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text()), "")
    return out


def test_every_def_no_verify_run_calls_is_allowlisted(tmp_path):
    subprocess.run([sys.executable, "-c", _CENSUS, str(tmp_path)], cwd=SRC.parent, capture_output=True,
                   text=True, timeout=600, check=True)
    called = {tuple(x) for x in json.loads((tmp_path / "called.json").read_text())}
    defs = _defs()
    assert len({name for name, _, _ in defs}) == len(defs)
    uncalled = {name for name, path, first in defs if (path, first) not in called}
    assert sorted(uncalled - ALLOWLIST.keys()) == [], "called by no verify run, and not on the allowlist"
    assert sorted(ALLOWLIST.keys() - uncalled) == [], "on the allowlist, but a verify run calls it"
    for run in range(3):
        assert json.loads((tmp_path / f"run{run}" / "summary.json").read_text())["all_pass"]
