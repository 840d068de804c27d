"""Self-tests of the benchmark: failure accounting and exact counts.

Run from the root of a checkout:
    python3 -m pytest -q perfbench/selftest.py

The file is not named test_*.py, so the repository's own test run does not
collect it; these tests start worker interpreters and take about a minute.
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def workdir():
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=base, prefix="selftest-") as tmp:
        yield Path(tmp)


def run_one(op, workdir, traced=False):
    env = run.worker_env(ROOT)
    return run.run_op(ROOT, env, op, traced, workdir, 1, run.RUN_LIMIT_S)


@pytest.mark.parametrize(
    "tol, error",
    [(1e-3, "OverflowError"), (1e-12, "PrecisionBudgetError")],
)
def test_exception_is_a_failed_op_not_a_check_failure(workdir, tol, error):
    # m0=6, N=20 overflows the float bound of DivisorCheck; tol 1e-12 needs
    # more digits than the default budget allows
    op = run.cert_op("probe", 6, [(17, 37, 21)], 20, tol)
    record = run_one(op, workdir)
    assert record.failure["kind"] == "exception"
    assert record.failure["error"] == error
    assert record.failure["phase"] == "construct"
    assert "checks" not in record.failure


def test_wrong_output_is_a_check_failure(workdir):
    # (2, 3) is not a representation of 1729, so the seeded pair is missing
    op = run.Op("probe", "census", {"m": 1729, "pair": [2, 3]})
    record = run_one(op, workdir)
    assert record.failure["kind"] == "check"
    assert record.failure["checks"] == ["(2, 3) missing", "(3, 2) missing"]


def test_known_answers_pass(workdir):
    for op in (run.warmup_op("oracle"), run.warmup_op("cert_large"),
               run.search_op(91)):
        assert run_one(op, workdir).failure is None


@pytest.mark.parametrize("workload", ["cert_large", "oracle"])
def test_exact_counts_repeat_for_one_seed(workdir, workload):
    # sha256 and sizes of each certificate, census sizes and span call counts
    first = run.run_workload(ROOT, workload, 7, 1, True, workdir)
    second = run.run_workload(ROOT, workload, 7, 1, True, workdir)
    assert all(r.failure is None for r in first + second)
    assert any(r.traced for r in first)
    assert [r.exact() for r in first] == [r.exact() for r in second]
    # and so do the per-layer counts derived from them
    counts = [
        {k: v for k, v in run.per_layer(records).items()
         if not k.endswith(("_s", ".s", "share"))}
        for records in (first, second)
    ]
    assert counts[0] == counts[1]


def test_benchmark_json_names_only_metrics_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == {"setup_s", *run.ALIASES["cert"]} == {"setup_s", *run.ALIASES["oracle"]}
    assert {m["name"] for m in spec["per_layer"]} <= set(run.per_layer([]))
