"""The names and inputs the benchmark in perfbench/ relies on still work.

perfbench/spans.py traces functions by "module.function" name and
perfbench/run.py gates every certificate op on a fixed check count, over a
pool of curves at fixed (N, tol).  Both files are read as source, never
imported or edited, so a rename, a dropped check or a pool certificate that
stops passing fails here instead of silently in a benchmark run.

RETIRED names the traced targets the package removed on purpose: spans.py
reports them missing and their per-layer metrics read zero until the
benchmark retargets them.  Each must really be gone, and still be traced,
so the set empties when spans.py catches up.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from cubeforge import (
    CubicPoint,
    CurveConfig,
    build_certificate,
    certificate_to_json,
    minimal_box_size,
    verify_certificate,
    z_size_constant,
)
from cubeforge.construct import CHECK_NAMES
from tests.conftest import pool_draws
from tests.schema7_reference import schema7_json
from tests.schema9_reference import schema9_json
from tests.schema10_reference import schema10_json

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _assigned(filename: str, name: str) -> ast.expr:
    tree = ast.parse((PERFBENCH / filename).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise LookupError(f"{filename} assigns no {name}")


TRACED = [ast.literal_eval(key) for key in _assigned("spans.py", "TARGETS").keys]
CHECK_COUNT = ast.literal_eval(_assigned("run.py", "CHECK_COUNT"))
POOL = ast.literal_eval(_assigned("run.py", "POOL"))
CERT_WORKLOADS = ast.literal_eval(_assigned("run.py", "CERT_WORKLOADS"))

# the Fraction chord-and-tangent law, whose place curves.cubic_add took; and
# the one-point divisor record, now the gcd construct.divisor_records(cfg,
# [p])[0], with both lemmas decided in construct.evaluate_checks
RETIRED = {"curves.add", "construct.divisor_check"}


@pytest.mark.parametrize("target", [t for t in TRACED if t not in RETIRED])
def test_traced_name_is_a_package_function(target):
    module_name, func_name = target.split(".")
    module = importlib.import_module(f"cubeforge.{module_name}")
    func = getattr(module, func_name, None)
    assert inspect.isfunction(func), target
    assert func.__module__ == module.__name__, target


@pytest.mark.parametrize("target", sorted(RETIRED))
def test_retired_target_is_gone(target):
    assert target in TRACED
    module_name, func_name = target.split(".")
    module = importlib.import_module(f"cubeforge.{module_name}")
    assert not hasattr(module, func_name), target


def test_check_count_matches_check_names():
    assert len(CHECK_NAMES) == CHECK_COUNT
    assert len(set(CHECK_NAMES)) == len(CHECK_NAMES)


# the document length of each pool class at each cert workload, the same
# for all four draws: the generators are recorded as given, and the chosen
# index set is the lattice's, so a reorder or a sign flip of every
# generator changes which (x, y) comes first and which coordinate of an
# index carries its minus sign, but no length.  POOL_BYTES is the length in
# the schema "7" layout (tests/schema7_reference.py), so it still pins every
# stored value and the a, b and verdicts derived from them;
# POOL_BYTES_SCHEMA_9 is the length in the "9" layout, with m in place of Z
# (tests/schema9_reference.py); POOL_BYTES_SCHEMA_10 the length in the "10"
# layout, with d, the constants and bound_rhs put back
# (tests/schema10_reference.py); and POOL_BYTES_SCHEMA_11 the document's
# own.
POOL_BYTES = {
    (91, "cert_large"): 47_420,
    (1729, "cert_large"): 63_105,
    (91, "cert_tight"): 14_210,
    (1729, "cert_tight"): 17_304,
}
POOL_BYTES_SCHEMA_9 = {
    (91, "cert_large"): 27_975,
    (1729, "cert_large"): 40_871,
    (91, "cert_tight"): 6_822,
    (1729, "cert_tight"): 9_355,
}
POOL_BYTES_SCHEMA_10 = {
    (91, "cert_large"): 20_616,
    (1729, "cert_large"): 29_472,
    (91, "cert_tight"): 5_405,
    (1729, "cert_tight"): 7_154,
}
POOL_BYTES_SCHEMA_11 = {
    (91, "cert_large"): 18_253,
    (1729, "cert_large"): 26_392,
    (91, "cert_tight"): 4_536,
    (1729, "cert_tight"): 6_133,
}


@pytest.mark.parametrize("workload", sorted(CERT_WORKLOADS))
@pytest.mark.parametrize("m0", sorted(POOL))
def test_pool_certificate_passes(m0, workload):
    # cert_tight runs at N = n_min, so a wider or shifted hhat_bar that
    # raises n_min fails here first; a larger document fails the length
    box_size, tol = CERT_WORKLOADS[workload]
    manufactured = set()
    cfg = CurveConfig(m0)
    for draw in pool_draws(POOL[m0]):
        gens = [CubicPoint(*g) for g in draw]
        cert = build_certificate(cfg, gens, box_size, tol)
        assert minimal_box_size(z_size_constant(cfg), cert.hhat_bar) <= box_size
        assert len(cert.checks) == CHECK_COUNT
        assert all(cert.checks.values()), (draw, cert.checks)
        text = certificate_to_json(cert)
        assert len(text) == POOL_BYTES_SCHEMA_11[m0, workload], draw
        assert len(schema10_json(cert)) == POOL_BYTES_SCHEMA_10[m0, workload]
        assert len(schema9_json(cert)) == POOL_BYTES_SCHEMA_9[m0, workload]
        assert len(schema7_json(cert)) == POOL_BYTES[m0, workload], draw
        report = verify_certificate(text)
        assert report.checks == cert.checks
        # perfbench/worker.py reads the pairs after its timer, for the
        # count gate and for the widest coordinate
        pairs = cert.representations
        assert len(pairs) == box_size ** len(gens)
        widest = max((c for rep in pairs for c in rep),
                     key=lambda c: abs(c).bit_length())
        assert widest.bit_length() < cert.m.bit_length()
        assert cert.m == m0 * cert.Z**3
        manufactured.add(cert.m)
    # the index set follows the lattice, not the basis, so all four share
    # one m
    assert len(manufactured) == 1


@pytest.mark.parametrize("m0", sorted(POOL))
def test_decimal_m_prints_after_import(m0):
    # perfbench/worker.py's digits() runs str() on each certificate's m,
    # tens of thousands of digits at cert_large, past CPython's default
    # int<->str limit of 4,300: only the raise at `import cubeforge` lets
    # it print
    box_size, tol = CERT_WORKLOADS["cert_large"]
    gens = [CubicPoint(*g) for g in POOL[m0]]
    cert = build_certificate(CurveConfig(m0), gens, box_size, tol)
    assert len(str(abs(cert.m))) > 4300
