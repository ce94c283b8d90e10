"""Span recorder for the traced pass.

The benchmark wraps public functions and methods of ``grpfact`` from the
outside: a module-level function is replaced in every ``grpfact`` module
that holds it as a global (the package imports by name), and a method is
replaced on its class.  Each call records one span (name, start, end,
parent) in memory; ``save`` writes them all at the end.  Self time is a
span's duration minus the durations of its wrapped children.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


def _count_keys(work, args, kwargs, result, exc):
    keys = args[2] if len(args) > 2 else kwargs["keys"]
    work["keys"] += len(keys)


def _count_points(work, args, kwargs, result, exc):
    if exc is None:
        work["points"] += result.size


def _search_counter(fn):
    from grpfact.sporadic import SearchBudgetError

    signature = inspect.signature(fn)

    def count(work, args, kwargs, result, exc):
        if exc is None:
            work["tries"] += result[1]["tries"]
        elif isinstance(exc, SearchBudgetError):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            work["tries"] += bound.arguments["max_tries"]
            work["exhausted"] += 1

    return count


# (module, attribute, span name, counter factory or None), outermost layer first
TARGETS = [
    ("catalog", "load_catalog", "catalog.load_catalog", None),
    ("factorize", "verify_claim", "factorize.verify_claim", None),
    ("factorize", "build_setup", "factorize.build_setup", None),
    ("factorize", "check_tight", "factorize.check_tight", None),
    ("factorize", "intersect", "factorize.intersect", None),
    ("constructors", "ext_subgroup", "constructors.ext_subgroup", None),
    ("g2", "g2_generators", "g2.g2_generators", None),
    ("sporadic", "two_generator_search", "sporadic.two_generator_search", _search_counter),
    ("sporadic", "exact_spectrum", "sporadic.exact_spectrum", None),
    ("meataxe", "chop_for_dimension", "meataxe.chop_for_dimension", None),
    ("grpcore", "StabChain.build", "grpcore.StabChain.build", None),
    ("grpcore", "solvable_residual", "grpcore.solvable_residual", None),
    ("grpcore", "stabilizer_generators", "grpcore.stabilizer_generators", None),
    ("grpcore", "orbit_with_transporters", "grpcore.orbit_with_transporters",
     lambda fn: _count_points),
    ("grpcore", "orbit", "grpcore.orbit", lambda fn: _count_points),
    ("grpcore", "t_compose", "grpcore.t_compose", None),
    ("grpcore", "element_order_perm", "grpcore.element_order_perm", None),
    ("actions", "Action.apply_batch", "actions.apply_batch", lambda fn: _count_keys),
    ("actions", "PermDomain.__init__", "actions.PermDomain", None),
    ("linalg", "sl_compose", "linalg.sl_compose", None),
    ("linalg", "mat_product", "linalg.mat_product", None),
    ("linalg", "mat_inverse", "linalg.mat_inverse", None),
    ("linalg", "dualize", "linalg.dualize", None),
    ("linalg", "sl_apply", "linalg.sl_apply", None),
]


# work counted at a boundary, and the counts also reported per second of
# the boundary's inclusive time
WORK = {
    "sporadic.two_generator_search": ("tries", "exhausted"),
    "grpcore.orbit_with_transporters": ("points",),
    "grpcore.orbit": ("points",),
    "actions.apply_batch": ("keys",),
}
RATES = ("tries", "points", "keys")

# metric names that read better than the generic span statistics
ALIASES = {
    "actions.PermDomain.builds": "actions.PermDomain.calls",
    "actions.PermDomain.build_s": "actions.PermDomain.incl_s",
    "catalog.load_catalog.s": "catalog.load_catalog.incl_s",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.work: list[dict] = []
        self.kind = array("i")
        self.parent = array("i")
        self.outer = array("b")  # no enclosing span of the same name
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def wrap(self, name: str, fn, counter=None):
        nid = len(self.names)
        self.names.append(name)
        work = defaultdict(int)
        self.work.append(work)
        kind, parent, outer, start, end = self.kind, self.parent, self.outer, self.start, self.end
        stack, clock = self._stack, time.perf_counter
        active = [0]

        def traced(*args, **kwargs):
            idx = len(start)
            kind.append(nid)
            parent.append(stack[-1])
            outer.append(active[0] == 0)
            end.append(0.0)
            stack.append(idx)
            active[0] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = clock()
                stack.pop()
                active[0] -= 1
                if counter is not None:
                    counter(work, args, kwargs, None, exc)
                raise
            end[idx] = clock()
            stack.pop()
            active[0] -= 1
            if counter is not None:
                counter(work, args, kwargs, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target; grpfact must already be importable."""
        for module_name, attr, span, counter_factory in TARGETS:
            module = importlib.import_module(f"grpfact.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                counter = counter_factory(fn) if counter_factory else None
                traced = self.wrap(span, fn, counter)
                setattr(cls, meth, classmethod(traced) if isinstance(raw, classmethod) else traced)
                continue
            fn = getattr(module, attr)
            traced = self.wrap(span, fn, counter_factory(fn) if counter_factory else None)
            for name, mod in list(sys.modules.items()):
                if name == "grpfact" or name.startswith("grpfact."):
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, traced)

    def _arrays(self):
        kind = np.frombuffer(self.kind, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        outer = np.frombuffer(self.outer, dtype=np.int8).astype(bool)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        return kind, parent, outer, dur

    def summary(self) -> dict[str, float]:
        """Per span name: calls, inclusive and self seconds, work counts and rates."""
        kind, parent, outer, dur = self._arrays()
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_dur = dur - child
        calls = np.bincount(kind, minlength=len(self.names))
        incl = np.bincount(kind[outer], weights=dur[outer], minlength=len(self.names))
        own = np.bincount(kind, weights=self_dur, minlength=len(self.names))
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[nid])
            out[f"{name}.incl_s"] = float(incl[nid])
            out[f"{name}.self_s"] = float(own[nid])
            for counter in WORK.get(name, ()):
                value = self.work[nid][counter]
                out[f"{name}.{counter}"] = int(value)
                if counter in RATES:
                    out[f"{name}.{counter}_per_s"] = value / incl[nid] if incl[nid] > 0 else 0.0
        for alias, name in ALIASES.items():
            out[alias] = out[name]
        out["trace.spans"] = int(len(dur))
        return out

    def save(self, path) -> None:
        kind, parent, _, _ = self._arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            kind=kind,
            parent=parent,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
