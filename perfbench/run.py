"""Closed-loop benchmark of cubeforge's certificate path and census oracle.

Usage:
    python3 perfbench/run.py --workload cert_large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the root of a checkout; the package is imported from ./src.  One
parent process runs ops one at a time, a closed loop with a single client
and no threads.  Every phase of an op runs in a fresh worker interpreter
(worker.py), as the CLI runs `construct` and `verify` as separate processes;
this also keeps an in-process cache from counting across ops.

Workloads (inputs come from --seed only; why each was chosen):
  cert_large  rank-2 certificate, N=12, tol 1e-3: the identity cubings and
              decimal conversion of big ints dominate; heights are about 5%.
  cert_tight  the same op at N=8, tol 1e-4: Fraction doublings inside the
              canonical heights dominate; serialization is under 1%.
  oracle      count_reps on one m = x^3 + y^3 with 1e11 <= |m| <= 1e12,
              and search_points on m0=91 with zmax=100: only the census runs.

A certificate op is construct (build_certificate + certificate_to_json) in
one worker and verify_certificate on that text in the next.  Every op's
output is gated; a mismatch or exception counts as a failed op and the run
exits 1 after printing its result.  Inputs are drawn in blocks that hold one
op of every class (curve of the pool, or |m| stratum), and each end-to-end
time is the mean over classes of the per-class median, so a run's figure
does not depend on how many ops of the slow class it happened to draw.

Times are in seconds at the reference speed.  This host's speed drifts by
up to 25% between runs, and every time in a run moves with it, so each
worker also times fixed reference kernels (worker.py; they never call
cubeforge) just before and just after its op, and each time is scaled by
the kernels' nominal time over their measured time.  The kernels are of the
kind of work the op does: an interpreter loop for the census, that loop plus
a big-int multiply and decimal conversion for a certificate.  The unscaled
seconds and the measured speed are printed and recorded beside them.

--trace 0 prints the end-to-end metrics; --trace 1 alternates traced and
untraced blocks, prints the per-layer metrics from spans (see spans.py), and
adds an ungated scaling sweep.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; the full record of the run,
with its environment, exact counts and spans, goes to .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from spans import COUNTS, END, NAME, START, TARGETS, has_ancestor, self_times

WORKER = Path(__file__).resolve().parent / "worker.py"

POOL = {
    91: ((-5, 6, 1), (3, 4, 1)),
    1729: ((1, 12, 1), (9, 10, 1)),
}
DEFAULT_M0 = 91
CERT_WORKLOADS = {"cert_large": (12, 1e-3), "cert_tight": (8, 1e-4)}
WORKLOADS = (*CERT_WORKLOADS, "oracle")
CHECK_COUNT = 22
CENSUS_LOG10 = (11.0, 12.0)
CENSUS_STRATA = 2
CENSUS_JITTER = 0.02  # decades
SEARCH_ZMAX = 100
# fixed so that a change of backend or budget shows in the recorded env
WORKER_ENV = {
    "SOURCE_DATE_EPOCH": "0",
    "CUBEFORGE_DIGIT_BUDGET": "2000000",
    "PYTHONHASHSEED": "0",
}
RUN_LIMIT_S = 170.0
# seconds each reference kernel of worker.py takes at the reference speed
# (medians on a 2-core Xeon VM at 2.1 GHz, CPython 3.11), and which kernels
# stand for each kind of op
REFERENCE_S = {"interp": 0.060, "bigint": 0.070}
REFERENCE_KERNELS = {"cert": ("interp", "bigint"), "census": ("interp",),
                     "search": ("interp",)}

# end-to-end metrics name the two phases of an op by role; these are the
# names a user of each workload knows them by
ALIASES = {
    "cert": {
        "construct_or_census_s": "construct_s",
        "verify_or_search_s": "verify_s",
        "construct_or_census_rss_mb": "construct_rss_mb",
        "verify_or_search_rss_mb": "verify_rss_mb",
        "cert_or_census_bytes": "cert_bytes",
    },
    "oracle": {
        "construct_or_census_s": "census_s",
        "verify_or_search_s": "search_s",
        "construct_or_census_rss_mb": "census_rss_mb",
        "verify_or_search_rss_mb": "search_rss_mb",
        "cert_or_census_bytes": "census_bytes",
    },
}
ROLE = {
    "construct": "construct_or_census",
    "census": "construct_or_census",
    "verify": "verify_or_search",
    "search": "verify_or_search",
}
HEIGHT_SPANS = {"heights.canonical_height", "heights.independence"}
COUNT_METRICS = ("heights.doublings", "construct.lattice_points", "construct.m_digits",
                 "construct.max_coord_digits", "oracle.scan_candidates", "oracle.pairs")


@dataclass
class Op:
    cls: str
    kind: str  # cert, census or search
    inputs: dict


@dataclass
class OpRecord:
    op: Op
    traced: bool
    failure: dict | None
    workers: list[dict] = field(default_factory=list)

    def exact(self) -> dict:
        """Counts and hashes that must repeat for the same inputs."""
        out = {"cls": self.op.cls, "failure": self.failure}
        for res in self.workers:
            out[res["phase"]] = dict(res.get("exact", {}))
            if self.traced:
                out[res["phase"]]["calls"] = dict(
                    sorted(Counter(s[NAME] for s in res["spans"]).items())
                )
        return out


# ---------------------------------------------------------------- inputs


def cert_op(cls: str, m0: int, generators, box_size: int, tol: float) -> Op:
    return Op(cls, "cert", {"m0": m0, "generators": [list(g) for g in generators],
                            "N": box_size, "tol": tol})


def census_op(cls: str, x: int, y: int) -> Op:
    return Op(cls, "census", {"m": x**3 + y**3, "pair": [x, y]})


def search_op(m0: int) -> Op:
    return Op(f"search/m0={m0}", "search", {"m0": m0, "zmax": SEARCH_ZMAX})


def draw_census_pair(rng: random.Random, stratum: int) -> tuple[int, int]:
    """(x, y) with log10 |x^3 + y^3| within CENSUS_JITTER of the stratum's centre.

    The scan's cost grows as sqrt|m|, so narrow strata keep a run's median
    from depending on where in the band its draws fell.
    """
    lo_exp, hi_exp = CENSUS_LOG10
    centre = lo_exp + (stratum + 0.5) * (hi_exp - lo_exp) / CENSUS_STRATA
    reach = round(10 ** (centre / 3))
    while True:
        target = rng.choice((1, -1)) * 10 ** rng.uniform(
            centre - CENSUS_JITTER, centre + CENSUS_JITTER)
        x = rng.randint(-reach, reach)
        rest = target - x**3
        y = round(math.copysign(abs(rest) ** (1 / 3), rest))
        m = x**3 + y**3
        if m and abs(math.log10(abs(m)) - centre) <= CENSUS_JITTER:
            return x, y


def blocks(workload: str, seed: int):
    """Endless schedule; every block holds one op of each class, shuffled."""
    rng = random.Random(seed)
    while True:
        if workload in CERT_WORKLOADS:
            box_size, tol = CERT_WORKLOADS[workload]
            block = []
            for m0 in rng.sample(sorted(POOL), len(POOL)):
                gens = rng.sample(POOL[m0], len(POOL[m0]))
                if rng.random() < 0.5:
                    # -P for every generator negates the lattice: same sizes
                    gens = [(y, x, z) for x, y, z in gens]
                block.append(cert_op(f"m0={m0}", m0, gens, box_size, tol))
        else:
            block = [
                census_op(f"census/{j}", *draw_census_pair(rng, j))
                for j in range(CENSUS_STRATA)
            ]
            # search costs grow as sqrt(m0): one on 1729 takes 5x one on 91
            # and would hold half of the run, so search uses the default curve;
            # one per block leaves most of the run to the census strata, whose
            # single ops vary most
            block.append(search_op(DEFAULT_M0))
            rng.shuffle(block)
        yield block


def warmup_op(workload: str) -> Op:
    """A known-answer op that also leaves compiled bytecode for the rest."""
    if workload == "oracle":
        op = census_op("warmup", 1, 12)
        op.inputs["ordered"] = 4  # 1729 = 1^3 + 12^3 = 9^3 + 10^3
        return op
    return cert_op("warmup", 6, [(17, 37, 21)], 4, 1e-3)


# ---------------------------------------------------------------- running


def worker_env(root: Path) -> dict:
    return dict(WORKER_ENV, PATH=os.environ.get("PATH", "/usr/bin:/bin"),
                PYTHONPATH=str(root / "src"))


def run_worker(root: Path, env: dict, spec: dict, timeout: float) -> dict:
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(spec), repr(spawned)],
            cwd=root, env=env, capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"phase": spec["phase"], "error": "TimeoutExpired",
                "message": f"worker exceeded {timeout:.0f} s"}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {"phase": spec["phase"], "error": "WorkerExit",
                "message": f"exit {proc.returncode}: {proc.stderr[-300:]}"}
    return dict(json.loads(lines[-1]), phase=spec["phase"])


def gate(op: Op, results: list[dict]) -> dict | None:
    """None when every output is right, else what went wrong.

    An exception is reported by class and is not a check failure.
    """
    for res in results:
        if "error" in res:
            return {"kind": "exception", "phase": res["phase"],
                    "error": res["error"], "message": res["message"]}
    bad = []
    if op.kind == "cert":
        for res in results:
            checks = res["checks"]
            if len(checks) != CHECK_COUNT:
                bad.append(f"{res['phase']}: {len(checks)} checks")
            bad += [f"{res['phase']}: {n}" for n, ok in checks.items() if not ok]
        want = op.inputs["N"] ** len(op.inputs["generators"])
        if results[0]["exact"]["representations"] != want:
            bad.append("representation count")
    elif op.kind == "census":
        m = op.inputs["m"]
        pairs = {tuple(p) for p in results[0]["pairs"]}
        x, y = op.inputs["pair"]
        bad += [f"{p} is not a representation" for p in pairs
                if p[0] ** 3 + p[1] ** 3 != m]
        bad += [f"{p} missing" for p in ((x, y), (y, x)) if p not in pairs]
        if "ordered" in op.inputs and len(pairs) != op.inputs["ordered"]:
            bad.append(f"{len(pairs)} ordered representations, not {op.inputs['ordered']}")
    else:
        m0, zmax = op.inputs["m0"], op.inputs["zmax"]
        points = {tuple(p) for p in results[0]["points"]}
        bad += [f"{p} off the curve or not primitive" for p in points
                if p[0] ** 3 + p[1] ** 3 != m0 * p[2] ** 3
                or not 0 < p[2] <= zmax or math.gcd(*p) != 1]
        bad += [f"generator {g} missing" for g in POOL.get(m0, ())
                if g[2] <= zmax and g not in points]
    return {"kind": "check", "checks": bad} if bad else None


def run_op(root: Path, env: dict, op: Op, traced: bool, workdir: Path,
           op_id: int, timeout: float) -> OpRecord:
    """Run every phase of one op in fresh workers and gate the outputs."""
    deadline = time.monotonic() + timeout
    if op.kind == "cert":
        cert_path = str(workdir / f"cert-{op_id}.json")
        phases = [dict(op.inputs, phase="construct", out=cert_path),
                  {"phase": "verify", "cert": cert_path}]
    else:
        phases = [dict(op.inputs, phase=op.kind)]
    results = []
    for spec in phases:
        spec = dict(spec, trace=int(traced), op=op_id)
        results.append(run_worker(root, env, spec, deadline - time.monotonic()))
        if "error" in results[-1]:
            break
    if op.kind == "cert":
        Path(cert_path).unlink(missing_ok=True)
    return OpRecord(op, traced, gate(op, results), results)


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: bool, workdir: Path) -> list[OpRecord]:
    """Closed loop for `seconds`; traced runs alternate traced blocks."""
    env = worker_env(root)
    started = time.monotonic()
    records = [run_op(root, env, warmup_op(workload), False, workdir, 0,
                      RUN_LIMIT_S)]
    min_blocks = 2 if trace else 1
    durations: dict[str, list[float]] = defaultdict(list)
    begin = time.monotonic()
    for block_no, block in enumerate(blocks(workload, seed)):
        for op in block:
            elapsed = time.monotonic() - begin
            past = durations[op.cls] or [d for v in durations.values() for d in v]
            estimate = statistics.median(past) if past else 0.0
            if block_no >= min_blocks and elapsed + estimate > seconds:
                return records
            left = RUN_LIMIT_S - (time.monotonic() - started)
            if left <= 0:
                return records
            op_start = time.monotonic()
            records.append(run_op(root, env, op, trace and block_no % 2 == 0,
                                  workdir, len(records), left))
            durations[op.cls].append(time.monotonic() - op_start)
    return records


# ---------------------------------------------------------------- metrics


def speed(kind: str, res: dict) -> float:
    """Measured over nominal time of the op's reference kernels (1 = reference)."""
    kernels = REFERENCE_KERNELS[kind]
    return (sum(res["ref_s"][k] for k in kernels)
            / sum(REFERENCE_S[k] for k in kernels))


def measured(records: list[OpRecord], traced: bool) -> list[OpRecord]:
    return [r for r in records
            if r.failure is None and r.traced == traced and r.op.cls != "warmup"]


def class_samples(records: list[OpRecord], metric: str) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = defaultdict(list)
    for rec in records:
        for res in rec.workers:
            role = ROLE[res["phase"]]
            value = {
                f"{role}_s": res["op_s"] / speed(rec.op.kind, res),
                f"{role}_raw_s": res["op_s"],
                f"{role}_rss_mb": res["rss_mb"],
                "cert_or_census_bytes": res["exact"].get("bytes"),
            }.get(metric)
            if value is not None:
                samples[rec.op.cls].append(value)
    return samples


def end_to_end(records: list[OpRecord]) -> dict[str, dict]:
    """Per metric: value, sample count and per-class medians."""
    ok = measured(records, traced=False)
    out = {}
    setups = [res["setup_s"] / speed(rec.op.kind, res) for rec in ok for res in rec.workers]
    out["setup_s"] = {"value": statistics.median(setups) if setups else None,
                      "n": len(setups), "classes": {}, "samples": setups}
    raw = {
        "setup_s": [res["setup_s"] for rec in ok for res in rec.workers],
        "speed": [speed(rec.op.kind, res) for rec in ok for res in rec.workers],
    }
    for role in ("construct_or_census", "verify_or_search"):
        medians = [statistics.median(v) for v in class_samples(ok, f"{role}_raw_s").values()]
        raw[f"{role}_s"] = [statistics.fmean(medians)] if medians else []
    out["unscaled"] = {k: statistics.median(v) if v else None for k, v in raw.items()}
    for metric in ALIASES["cert"]:
        samples = class_samples(ok, metric)
        medians = {c: statistics.median(v) for c, v in sorted(samples.items())}
        out[metric] = {
            "value": statistics.fmean(medians.values()) if medians else None,
            "n": sum(len(v) for v in samples.values()),
            "classes": {c: (medians[c], len(samples[c])) for c in medians},
            "samples": [x for v in samples.values() for x in v],
        }
    return out


def layer_totals(records: list[OpRecord]) -> tuple[Counter, dict[str, Counter]]:
    """Span totals over the records, overall and per phase."""
    totals: Counter = Counter()
    per_phase: dict[str, Counter] = defaultdict(Counter)
    for rec in records:
        for res in rec.workers:
            spans = res["spans"]
            phase = per_phase[res["phase"]]
            phase["workers"] += 1
            phase["op_s"] += res["op_s"]
            own = self_times(spans)
            for i, span in enumerate(spans):
                name, dur = span[NAME], span[END] - span[START]
                for key, value in ((f"{name}.calls", 1), (f"{name}.s", dur),
                                   (f"{name}.self_s", own[i])):
                    totals[key] += value
                    phase[key] += value
                counts = span[COUNTS] or {}
                totals["construct.lattice_points"] += counts.get("points", 0)
                totals["oracle.scan_candidates"] += counts.get("candidates", 0)
                totals["oracle.pairs"] += counts.get("pairs", 0)
                if name == "curves.add" and has_ancestor(
                        spans, i, {"heights.canonical_height"}):
                    totals["heights.doublings"] += 1
                    phase["heights.doublings"] += 1
                if name in HEIGHT_SPANS and not has_ancestor(spans, i, HEIGHT_SPANS):
                    phase["heights.outer_s"] += dur
            if res["phase"] == "construct":
                totals["construct.m_digits"] += res["exact"]["m_digits"]
                totals["construct.max_coord_digits"] += res["exact"]["max_coord_digits"]
    return totals, per_phase


def per_layer(records: list[OpRecord]) -> dict[str, float]:
    """Per-layer metrics from the traced ops.

    Counts and seconds are per op.  A layer's time is reported as its share
    of the ops' worker time: a layer a workload never enters reads 0, not a
    time, and shares move less than seconds when the machine's speed drifts.
    """
    traced = measured(records, traced=True)
    totals, per_phase = layer_totals(traced)
    n = max(len(traced), 1)
    out = {f"{target}.{kind}": 0.0 for target in TARGETS
           for kind in ("calls", "s", "self_s")}
    out.update(dict.fromkeys(COUNT_METRICS, 0.0))
    out.update({key: value / n for key, value in totals.items()})
    op_s = sum(c["op_s"] for c in per_phase.values())
    for target in TARGETS:
        for kind in ("", "self_"):
            out[f"{target}.{kind}share"] = (
                totals[f"{target}.{kind}s"] / op_s if op_s else 0.0)
    construct = per_phase.get("construct", Counter())
    out["heights.construct_share"] = (
        construct["heights.outer_s"] / construct["op_s"] if construct["op_s"] else 0.0)
    out["oracle.hit_ratio"] = (
        totals["oracle.pairs"] / totals["oracle.scan_candidates"]
        if totals["oracle.scan_candidates"] else 0.0)

    def first_phase_time(recs):
        medians = class_samples(recs, "construct_or_census_s")
        return statistics.fmean(statistics.median(v) for v in medians.values())

    untraced = measured(records, traced=False)
    out["trace.overhead_s"] = (
        first_phase_time(traced) - first_phase_time(untraced)
        if traced and untraced else 0.0)
    return out


# ---------------------------------------------------------------- sweep


# workload -> (swept input, the figures to keep, slope read as y against x)
SWEEP_FIGURES = {
    "cert_large": ("N", ("bytes", "construct_s", "verify_s",
                         "construct.generate_lattice_points.s",
                         "construct.divisor_check.s",
                         "construct.representations_from_lattice.s",
                         "construct.build_certificate.self_s",
                         "construct.evaluate_checks.self_s",
                         "certificate.certificate_to_json.s",
                         "certificate.parse_certificate.s"),
                   ("construct_s", "bytes")),
    "cert_tight": ("tol", ("construct_s", "verify_s",
                           "heights.canonical_height.calls",
                           "heights.canonical_height.s", "heights.doublings",
                           "heights.independence.s"),
                   ("heights.canonical_height.s", "log(1/tol)")),
    "oracle": ("m", ("census_s", "oracle.scan_candidates", "oracle.pairs"),
               ("census_s", "|m|")),
}


def sweep_ops(workload: str) -> list[Op]:
    if workload == "cert_large":
        return [cert_op("sweep", DEFAULT_M0, POOL[DEFAULT_M0], n, 1e-3) for n in (8, 10, 12)]
    if workload == "cert_tight":
        return [cert_op("sweep", DEFAULT_M0, POOL[DEFAULT_M0], 8, t) for t in (1e-3, 1e-4)]
    pairs = ((1000, 1), (2154, 1), (4641, 1), (2421, 19083))  # last: Ta(4)
    return [census_op("sweep", x, y) for x, y in pairs]


def sweep(root: Path, workload: str, workdir: Path, deadline: float) -> list[dict]:
    """Ungated scaling points, one traced op each, to be read as slopes."""
    label, figures, _ = SWEEP_FIGURES[workload]
    env = worker_env(root)
    rows = []
    for op in sweep_ops(workload):
        row = {label: op.inputs[label]}
        left = deadline - time.monotonic()
        if left < 30:
            rows.append(dict(row, skipped="run time limit"))
            continue
        rec = run_op(root, env, op, True, workdir, 1000 + len(rows), left)
        totals, per_phase = layer_totals([rec])
        found = dict(totals, bytes=rec.workers[0].get("exact", {}).get("bytes"))
        found.update({f"{phase}_s": c["op_s"] for phase, c in per_phase.items()})
        rows.append(dict(row, failure=rec.failure,
                         **{k: found.get(k) for k in figures}))
    return rows


def slopes(workload: str, rows: list[dict]) -> list[str]:
    """log-log slopes between consecutive sweep points."""
    label, _, (y_key, x_name) = SWEEP_FIGURES[workload]
    x_of = {"bytes": lambda r: r["bytes"], "log(1/tol)": lambda r: -math.log(r["tol"]),
            "|m|": lambda r: abs(r["m"])}[x_name]
    done = [r for r in rows if "skipped" not in r and r["failure"] is None]
    out = []
    for a, b in zip(done, done[1:]):
        x0, x1, y0, y1 = x_of(a), x_of(b), a[y_key], b[y_key]
        if min(x0, x1, y0, y1) > 0 and x0 != x1:
            out.append(f"  slope of {y_key} against {x_name}: "
                       f"{math.log(y1 / y0) / math.log(x1 / x0):.2f} "
                       f"({label} {a[label]:g} -> {b[label]:g})")
    return out


# ---------------------------------------------------------------- report


def tail(samples: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    if len(samples) < 20:
        return ""
    q = math.floor(100 * (len(samples) - 10) / len(samples))
    return f" p{q}={statistics.quantiles(samples, n=100)[q - 1]:.6g}"


def environment(records: list[OpRecord]) -> dict:
    envs = {json.dumps(res["env"], sort_keys=True)
            for rec in records for res in rec.workers if "env" in res}
    if len(envs) != 1:
        return {"inconsistent": sorted(envs)}
    return json.loads(envs.pop())


def report(workload: str, seed: int, trace: bool, records: list[OpRecord],
           spec: dict, workdir: Path, sweep_rows: list[dict]) -> dict:
    """Print the human-readable summary; return the result object."""
    env = environment(records)
    failed = [r for r in records if r.failure is not None]
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"{workload} seed={seed} trace={int(trace)}: {len(records)} ops attempted, "
          f"{len(failed)} failed, failed_frac {len(failed) / len(records):.4f}")
    for rec in failed:
        print(f"  FAILED {rec.op.cls} {json.dumps(rec.op.inputs)[:200]}: "
              f"{json.dumps(rec.failure)[:400]}")
    kind = "oracle" if workload == "oracle" else "cert"
    unscaled = None
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if trace:
        values = per_layer(records)
        names = [m["name"] for m in spec["per_layer"]]
        for name in names:
            seconds = values.get(name.replace("share", "s"))
            per_op = f"  ({seconds:.4g} s per op)" if "share" in name and seconds else ""
            print(f"  {name:44s} {values[name]:.6g} {units[name]}{per_op}")
        _, per_phase = layer_totals(measured(records, traced=True))
        for phase, c in sorted(per_phase.items()):
            w = c["workers"]
            print(f"  per {phase} worker (n={w}): op_s {c['op_s'] / w:.4g}, "
                  f"canonical_height.calls {c['heights.canonical_height.calls'] / w:g}, "
                  f"height spans {c['heights.outer_s'] / w:.4g} s "
                  f"({c['heights.outer_s'] / c['op_s']:.1%} of op_s), "
                  f"count_reps.calls {c['oracle.count_reps.calls'] / w:g}")
        for row in sweep_rows:
            print("  sweep " + ", ".join(
                f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in row.items()))
        for line in slopes(workload, sweep_rows):
            print(line)
        metrics = {n: {"value": values[n], "unit": units[n]} for n in names}
    else:
        e2e = end_to_end(records)
        metrics = {}
        for m in spec["end_to_end"]:
            name, stat = m["name"], e2e[m["name"]]
            alias = ALIASES[kind].get(name, name)
            classes = "  ".join(f"{c}: {v:.6g} (n={k})" for c, (v, k) in stat["classes"].items())
            value = "n/a" if stat["value"] is None else f"{stat['value']:.6g}"
            print(f"  {alias:18s} [{name}] {value} {m['unit']} n={stat['n']}"
                  f"{tail(stat['samples'])}  {classes}")
            metrics[name] = {"value": stat["value"], "unit": m["unit"]}
        unscaled = e2e["unscaled"]
        print("  unscaled medians: " + ", ".join(
            f"{k} {'n/a' if v is None else f'{v:.6g}'}" for k, v in unscaled.items()))
    result = {"correct": not failed, "attempted": len(records),
              "failed": len(failed), "metrics": metrics}
    record = {"workload": workload, "seed": seed, "trace": int(trace), "env": env,
              "result": result, "unscaled": unscaled, "sweep": sweep_rows,
              "ops": [dict(r.exact(), traced=r.traced, inputs=r.op.inputs,
                           workers=r.workers if trace else [
                               {k: v for k, v in w.items() if k != "spans"}
                               for w in r.workers])
                      for r in records]}
    out = workdir / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, default=str) + "\n", encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "cubeforge" / "__init__.py").is_file() or not spec_path.is_file():
        print("run from the root of a cubeforge checkout: src/cubeforge and "
              "BENCHMARK.json are needed", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    outdir = root / ".perfbench"
    outdir.mkdir(exist_ok=True)
    all_ok = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        started = time.monotonic()
        with tempfile.TemporaryDirectory(dir=outdir, prefix="work-") as tmp:
            records = run_workload(root, workload, args.seed, args.seconds,
                                   bool(args.trace), Path(tmp))
            rows = (sweep(root, workload, Path(tmp), started + RUN_LIMIT_S)
                    if args.trace else [])
        result = report(workload, args.seed, bool(args.trace), records, spec,
                        outdir, rows)
        print(json.dumps(result), flush=True)
        all_ok = all_ok and result["correct"]
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
