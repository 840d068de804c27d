"""Run one benchmark phase in a fresh interpreter and print its result.

Usage:
    python3 worker.py SPEC_JSON SPAWN_MONOTONIC

SPEC_JSON names the phase and its inputs:
    {"phase": "construct", "m0": 91, "generators": [[-5, 6, 1], ...],
     "N": 12, "tol": 0.001, "out": "path/for/cert.json", "trace": 0, "op": 3}
    {"phase": "verify", "cert": "path/to/cert.json", ...}
    {"phase": "census", "m": 123456789, ...}
    {"phase": "search", "m0": 91, "zmax": 100, ...}

SPAWN_MONOTONIC is time.monotonic() in the parent just before it started
this process, so setup_s covers interpreter start, imports and reading the
inputs.  The one line printed on stdout is a JSON object with setup_s,
op_s (the library calls only), ref_s (the reference kernels' seconds, the
mean of one timing just before and one just after the op, from which the
parent scales times to the reference speed), rss_mb, the outputs the parent
gates on, exact counts, the environment, and the spans when traced.  An
exception from the library is reported by class and message, not raised.
"""

import hashlib
import json
import math
import os
import resource
import sys
import time

from cubeforge import certificate, construct, curves, heights, oracle
from spans import Tracer


def environment() -> dict:
    budget = getattr(heights, "digit_budget", None)
    backend = getattr(oracle, "backend_name", None)
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "compiled_kernel": bool(getattr(oracle, "HAVE_COMPILED_KERNEL", False)),
        "census_backend": backend(10**12) if backend else "single",
        "digit_budget": budget() if budget else os.environ.get("CUBEFORGE_DIGIT_BUDGET"),
    }


def reference_interp(n: int = 200_000) -> float:
    """Seconds for a fixed pure-Python loop that never calls cubeforge."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(n):
        acc += (i * i) % 7 + math.isqrt(i)
        table[i & 1023] = acc
    return time.perf_counter() - start


def reference_bigint(bits: int = 100_000) -> float:
    """Seconds for a fixed big-int multiply and decimal conversion."""
    start = time.perf_counter()
    a = (1 << bits) // 7
    len(str(a * (a + 1)))
    return time.perf_counter() - start


def reference() -> dict:
    return {"interp": reference_interp(), "bigint": reference_bigint()}


def digits(n: int) -> int:
    return len(str(abs(n)))


def run_construct(spec: dict) -> dict:
    cfg = curves.CurveConfig(spec["m0"])
    gens = [curves.CubicPoint(*g) for g in spec["generators"]]
    start = time.perf_counter()
    cert = construct.build_certificate(cfg, gens, spec["N"], spec["tol"])
    text = certificate.certificate_to_json(cert)
    elapsed = time.perf_counter() - start
    data = text.encode("utf-8")
    with open(spec["out"], "wb") as handle:
        handle.write(data)
    widest = max(
        (c for rep in cert.representations for c in rep),
        key=lambda c: abs(c).bit_length(),
    )
    return {
        "op_s": elapsed,
        "checks": dict(cert.checks),
        "exact": {
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
            "representations": len(cert.representations),
            "m_digits": digits(cert.m),
            "max_coord_digits": digits(widest),
        },
    }


def run_verify(spec: dict) -> dict:
    start = time.perf_counter()
    report = certificate.verify_certificate(spec["text"])
    elapsed = time.perf_counter() - start
    return {"op_s": elapsed, "checks": dict(report.checks), "exact": {}}


def run_census(spec: dict) -> dict:
    start = time.perf_counter()
    census = oracle.count_reps(spec["m"])
    elapsed = time.perf_counter() - start
    pairs = [[x, y] for x, y in census.pairs]
    return {
        "op_s": elapsed,
        "pairs": pairs,
        "exact": {
            "bytes": len(json.dumps([[str(x), str(y)] for x, y in pairs])),
            "pairs": len(pairs),
            "scan_bound": census.scan_bound,
        },
    }


def run_search(spec: dict) -> dict:
    cfg = curves.CurveConfig(spec["m0"])
    start = time.perf_counter()
    points = oracle.search_points(cfg, spec["zmax"])
    elapsed = time.perf_counter() - start
    return {
        "op_s": elapsed,
        "points": [list(p.triple()) for p in points],
        "exact": {"points": len(points)},
    }


PHASES = {
    "construct": run_construct,
    "verify": run_verify,
    "census": run_census,
    "search": run_search,
}


def main(argv: list[str]) -> int:
    spec, spawned = json.loads(argv[1]), float(argv[2])
    tracer = Tracer(spec.get("op", 0)) if spec.get("trace") else None
    if tracer is not None:
        tracer.install()
    if spec["phase"] == "verify":
        with open(spec["cert"], encoding="utf-8") as handle:
            spec["text"] = handle.read()
    setup_s = time.monotonic() - spawned
    before = reference()
    try:
        result = PHASES[spec["phase"]](spec)
    except Exception as exc:  # reported to the parent, which counts it failed
        result = {"error": type(exc).__name__, "message": str(exc)[:300]}
    after = reference()
    result["ref_s"] = {k: (before[k] + after[k]) / 2 for k in before}
    result["setup_s"] = setup_s
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["env"] = environment()
    result["spans"] = tracer.spans if tracer is not None else []
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
