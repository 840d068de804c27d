"""In-memory spans around cubeforge's public functions, installed from outside.

Each traced function is replaced, at every cubeforge module that holds it
under any name, by a wrapper that records one span per call: name, start,
end, parent span index, op id, and counts read cheaply off the result.
Nothing under the package is edited; the wrappers exist only in the traced
worker process, and the spans are handed back when the op ends.
"""

from __future__ import annotations

import importlib
import sys
from functools import wraps
from time import perf_counter

# layer.function -> counts taken from its result (cheap: lengths and fields)
TARGETS = {
    "curves.add": None,
    "heights.canonical_height": None,
    "heights.independence": None,
    "construct.generate_lattice_points": lambda r: {"points": len(r)},
    "construct.divisor_check": None,
    "construct.representations_from_lattice": None,
    "construct.build_certificate": None,
    "construct.evaluate_checks": None,
    "certificate.certificate_to_json": None,
    "certificate.parse_certificate": None,
    "certificate.verify_certificate": None,
    "oracle.count_reps": lambda r: {
        "candidates": 2 * r.scan_bound + 1,
        "pairs": r.ordered_count,
    },
    "oracle.search_points": None,
}

# span fields, in order
NAME, START, END, PARENT, OP, COUNTS = range(6)


class Tracer:
    """Records spans for one op; single-threaded, like the workers."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name, func, counter):
        spans, stack, op_id = self.spans, self._stack, self.op_id

        @wraps(func)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, op_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if counter is not None:
                span[COUNTS] = counter(result)
            return result

        return traced

    def install(self, package: str = "cubeforge") -> list[str]:
        """Wrap every target; returns the targets the package no longer has."""
        missing = []
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == package or key.startswith(package + "."))
        ]
        for target, counter in TARGETS.items():
            module_name, func_name = target.split(".")
            module = importlib.import_module(f"{package}.{module_name}")
            original = getattr(module, func_name, None)
            if original is None:
                missing.append(target)
                continue
            wrapper = self._wrap(target, original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        return missing


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def has_ancestor(spans: list[list], index: int, names: set[str]) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] in names:
            return True
        parent = spans[parent][PARENT]
    return False
