"""Acceptance gate: one test per published criterion, run at stated tolerance.

Each test prints a single "criterion N PASS" line with the measured numbers;
a failed assertion is the corresponding FAIL.  Tests regenerate their own
inputs, so any criterion can run alone.
"""

import json
import random
import time
from functools import lru_cache
from math import gcd

import mpmath

from cubeforge import (
    CUBIC_IDENTITY,
    ApproxReal,
    CubicPoint,
    CurveConfig,
    build_certificate,
    canonical_height,
    certificate_to_json,
    count_reps,
    cubic_add,
    density_constant,
    generate_lattice_points,
    log_abs,
    minimal_box_size,
    parse_certificate,
    verify_certificate,
    weierstrass_image,
    z_size_constant,
)
from cubeforge.cli import main as cli_main
from cubeforge.construct import divisor_records, log_m, verify_checks
from tests.conftest import line
from tests.group_reference import (
    WeierstrassPoint,
    add,
    cubic_smul,
    from_weierstrass,
    naive_height,
    offset_window,
    offset_window_holds,
    to_weierstrass,
)

GENERATORS = {
    6: CubicPoint(17, 37, 21),
    7: CubicPoint(2, -1, 1),
    9: CubicPoint(1, 2, 1),
}
CURVES = (6, 7, 9)
SEED = 49244246


@lru_cache(maxsize=None)
def pool(m0: int) -> tuple[CubicPoint, ...]:
    """Multiples -3G .. 3G of the known generator, identity included."""
    cfg = CurveConfig(m0)
    return tuple(cubic_smul(cfg, k, GENERATORS[m0]) for k in range(-3, 4))


@lru_cache(maxsize=1)
def group_law_samples():
    rng = random.Random(SEED)
    samples = []
    for _ in range(200):
        m0 = rng.choice(CURVES)
        pts = pool(m0)
        samples.append((m0, rng.choice(pts), rng.choice(pts), rng.choice(pts)))
    return samples


_HEIGHTS: dict = {}


def height_of(m0: int, p: CubicPoint, tol: float = 1e-3) -> ApproxReal:
    """Canonical height memo.

    Keyed on the Weierstrass x-coordinate: negation flips Y only, and both
    the naive and the canonical height read nothing but X, so +-kG share
    one computation exactly.
    """
    cfg = CurveConfig(m0)
    key = (m0, to_weierstrass(cfg, p).x, tol)
    if key not in _HEIGHTS:
        _HEIGHTS[key] = canonical_height(cfg, p, tol)
    return _HEIGHTS[key]


HEIGHT_PAIRS = (
    (1, 2), (1, 3), (2, 3), (1, -2), (2, -3),
    (-1, 2), (1, -3), (3, -2), (3, 1), (-2, -3),
)


def test_criterion_1_exact_group_law():
    start = time.monotonic()
    for m0, p, q, r in group_law_samples():
        cfg = CurveConfig(m0)
        left = cubic_add(cfg, cubic_add(cfg, p, q), r)
        right = cubic_add(cfg, p, cubic_add(cfg, q, r))
        assert left == right
        assert cubic_add(cfg, p, q) == cubic_add(cfg, q, p)
        assert cubic_add(cfg, p, CUBIC_IDENTITY) == p
        assert cubic_add(cfg, p, p.neg()) == CUBIC_IDENTITY
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"criterion 1 PASS: 200 triples, 4 exact laws each, {elapsed:.2f}s")


def test_criterion_2_homomorphism_and_round_trip():
    for m0, p, q, _ in group_law_samples():
        cfg = CurveConfig(m0)
        image_of_sum = to_weierstrass(cfg, cubic_add(cfg, p, q))
        sum_of_images = add(cfg, to_weierstrass(cfg, p), to_weierstrass(cfg, q))
        assert image_of_sum == sum_of_images
        assert from_weierstrass(cfg, to_weierstrass(cfg, p)) == p
        assert from_weierstrass(cfg, to_weierstrass(cfg, q)) == q
        if not p.is_identity:
            w = to_weierstrass(cfg, p)
            assert weierstrass_image(cfg, p) == (
                w.x.numerator, w.x.denominator, w.y.numerator, w.y.denominator
            )
    print("criterion 2 PASS: map is a homomorphism and invertible, exact")


def test_criterion_3_height_laws():
    start = time.monotonic()
    pairs_checked = 0
    for m0 in (6, 7):
        cfg = CurveConfig(m0)
        g = GENERATORS[m0]
        for a, b in HEIGHT_PAIRS:
            p = cubic_smul(cfg, a, g)
            q = cubic_smul(cfg, b, g)
            h_p = height_of(m0, p)
            h_q = height_of(m0, q)
            h_2p = height_of(m0, cubic_add(cfg, p, p))
            h_sum = height_of(m0, cubic_add(cfg, p, q))
            h_diff = height_of(m0, cubic_add(cfg, p, q.neg()))
            quad = h_2p - h_p.ldexp(2)
            assert abs(quad.value) <= 5e-3
            para = h_sum + h_diff - h_p.ldexp(1) - h_q.ldexp(1)
            assert abs(para.value) <= 6e-3
            pairs_checked += 1
    # the unit curve's 3-torsion point has canonical height zero
    torsion = canonical_height(CurveConfig(1), CubicPoint(0, 1, 1), 1e-3)
    assert torsion.upper() <= 1e-3
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"criterion 3 PASS: {pairs_checked} pairs, quadratic residual <= 5e-3,"
        f" parallelogram <= 6e-3, torsion height {torsion.value:.1e},"
        f" {elapsed:.2f}s"
    )


def test_criterion_4_offset_window():
    checked = 0
    for m0 in CURVES:
        cfg = CurveConfig(m0)
        g = GENERATORS[m0]
        lo, hi = offset_window(cfg)
        # multiples to 9G cover every sum reachable from the criterion-1
        # pools (three +-3G operands) and every criterion-3 combination
        for k in range(1, 10):
            p = cubic_smul(cfg, k, g)
            w = to_weierstrass(cfg, p)
            half_naive = naive_height(w).ldexp(-1)
            tol = 1e-3 if half_naive.value <= 30 else 1e-2
            diff = height_of(m0, p, tol) - half_naive
            assert lo.lower() - tol <= diff.value <= hi.upper() + tol
            checked += 1
        assert offset_window_holds(cfg, to_weierstrass(cfg, g), 1e-3)
    # the torsion point from criterion 3
    cfg1 = CurveConfig(1)
    assert offset_window_holds(cfg1, WeierstrassPoint.affine(12, 36), 1e-3)
    checked += 1
    print(f"criterion 4 PASS: window held at {checked} points, 0 violations")


def test_criterion_5_divisor_checks():
    cfg = CurveConfig(6)
    lattice = generate_lattice_points(cfg, [GENERATORS[6]], line(5))
    assert len(lattice) == 5
    # the lemmas are decided on the gcds of the N=5 lattice, which the
    # certificate does not store: each is a function of m0 and its triple
    cert = build_certificate(cfg, [GENERATORS[6]], 5)
    assert cert.lattice_points == lattice
    assert divisor_records(cfg, [q for _, q in lattice]) == [
        gcd(12 * 6 * q.z, q.x + q.y) for _, q in lattice
    ]
    assert cert.checks["divisor_divisibility"]
    assert cert.checks["divisor_bound"]
    d = divisor_records(cfg, [GENERATORS[6]])[0]
    assert d == 54
    # the cofactors 12 m0 z / d = 28 and (x + y) / d = 1: d^2 | 5184 m0^2 b
    assert (12 * 6 * 21 // d, (17 + 37) // d) == (28, 1)
    assert (5184 * 36 * 1) % d**2 == 0
    # the paper's worked bound 3^(1/3) * 12 * 6^(5/2) * sqrt(21)
    with mpmath.workdps(60):
        bound = mpmath.cbrt(3) * 12 * mpmath.mpf(6) ** 2.5 * mpmath.sqrt(21)
        assert abs(bound - mpmath.mpf("6993.7392707726857")) < 1e-12
        assert abs(bound - 6995.9) / 6995.9 < 1e-3
        assert d < bound
    # decided exactly as d^6 < 9 * 12^6 * |m0|^15 * z^3
    assert d**6 < 9 * 12**6 * 6**15 * GENERATORS[6].z ** 3
    print(
        "criterion 5 PASS: divisibility and size bound hold to N=5;"
        f" worked point d=54, bound {float(bound):.1f}"
    )


def test_criterion_6_desk_scale_construction(tmp_path, capsys):
    start = time.monotonic()
    gen_file = tmp_path / "generators.json"
    gen_file.write_text(json.dumps([[17, 37, 21]]))
    cert_path = tmp_path / "cert3.json"
    rc = cli_main(
        ["construct", "--m0", "6", "--generators", str(gen_file),
         "--N", "3", "--out", str(cert_path)]
    )
    capsys.readouterr()
    assert rc == 1  # N=3 sits below the threshold box size, reps still exact
    # the document stores the lattice and m; the pairs expand from them
    parsed = parse_certificate(cert_path.read_text())
    m = parsed.m
    reps = parsed.representations
    assert len(reps) == 3
    assert len(set(reps)) == 3
    for x, y in reps:
        assert x**3 + y**3 == m
    rc = cli_main(["verify", "--cert", str(cert_path)])
    report = json.loads(capsys.readouterr().out)
    assert rc == 1
    checks = report["checks"]
    assert checks["theorem_preconditions"] is False
    assert all(ok for name, ok in checks.items()
               if name != "theorem_preconditions")

    cert2 = build_certificate(CurveConfig(6), [GENERATORS[6]], 2)
    assert cert2.m == 6 * 20171340**3 == 49244246842992972624000
    assert cert2.representations == [
        (16329180, 35539980), (46992183, -37920183),
    ]
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(
        "criterion 6 PASS: N=3 gives 3 exact distinct representations,"
        f" N=2 reproduces m = 6*20171340^3, {elapsed:.2f}s"
    )


def test_criterion_7_oracle_ground_truth():
    start = time.monotonic()
    assert count_reps(1729).ordered_count == 4
    assert count_reps(91).ordered_count == 4
    assert count_reps(2).ordered_count == 1
    small_certs = [
        build_certificate(CurveConfig(6), [GENERATORS[6]], 1),
        build_certificate(CurveConfig(7), [GENERATORS[7]], 2),
    ]
    assert [c.m for c in small_certs] == [55566, 189]
    confirmed = 0
    for cert in small_certs:
        assert abs(cert.m) <= 10**10
        census = count_reps(cert.m)
        for rep in cert.representations:
            assert rep in census.pairs
            confirmed += 1
    # the desk-scale m = 6 * 20171340^3 and a 28-digit m, out of reach of
    # any scan over x or x + y: the census factors m itself
    large_certs = [
        build_certificate(CurveConfig(6), [GENERATORS[6]], 2),
        build_certificate(CurveConfig(7), [GENERATORS[7]], 5),
    ]
    assert large_certs[0].m == 6 * 20171340**3
    assert [len(str(abs(c.m))) for c in large_certs] == [23, 28]
    for cert in large_certs:
        census = count_reps(cert.m)
        for rep in cert.representations:
            assert rep in census.pairs
            confirmed += 1
    largest = max(len(str(abs(c.m))) for c in large_certs)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(
        f"criterion 7 PASS: taxicab counts match, {confirmed} certified"
        f" representations found independently (largest m has"
        f" {largest} digits), {elapsed:.2f}s"
    )


# the certified m whose census is exactly the lattice's N^r representations
# and their swaps, with m's decimal digits: 41 at m0=91, N=3, up to 65 at
# m0=6, N=3
_ORDERED_COUNT_CASES = [
    (91, ((-5, 6, 1), (3, 4, 1)), 2, 7),
    (91, ((-5, 6, 1), (3, 4, 1)), 3, 41),
    (1729, ((1, 12, 1), (9, 10, 1)), 2, 9),
    (657, ((-7, 10, 1), (7, 17, 2), (-2890, 2971, 147)), 2, 42),
    (6, ((17, 37, 21),), 3, 65),
]


def test_criterion_7_ordered_count_is_twice_the_lattice():
    # the oracle counts exactly 2 N^r ordered pairs of each m: every
    # certified representation and its swap, and nothing else
    start = time.monotonic()
    for m0, generators, box_size, digits in _ORDERED_COUNT_CASES:
        cert = build_certificate(
            CurveConfig(m0), [CubicPoint(*g) for g in generators], box_size
        )
        assert len(str(abs(cert.m))) == digits, m0
        census = count_reps(cert.m)
        assert census.ordered_count == 2 * box_size**cert.rank, m0
        for x, y in cert.representations:
            assert (x, y) in census.pairs and (y, x) in census.pairs
    # N = 1 certifies one representation of m = 91 = 3^3 + 4^3, and the
    # census also finds 6^3 + (-5)^3: the certificate bounds the count
    # from below, it does not give it
    cert = build_certificate(
        CurveConfig(91), [CubicPoint(-5, 6, 1), CubicPoint(3, 4, 1)], 1
    )
    assert cert.m == 91
    assert count_reps(cert.m).ordered_count == 4
    elapsed = time.monotonic() - start
    print(
        f"criterion 7 PASS: ordered counts are 2 N^r on"
        f" {len(_ORDERED_COUNT_CASES)} certified m, {elapsed:.2f}s"
    )


def test_criterion_8_corollary_arithmetic(capsys):
    start = time.monotonic()
    rc = cli_main(
        ["certify-corollary", "--r", "11", "--hB", "121.767",
         "--hxmax", "76.61", "--target", "4.2e-6"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert abs(payload["hhat_bar_upper"]["value"] - 60.1755) < 1e-9
    assert payload["constant"]["value"] >= 4.2e-6
    assert payload["passes"] is True
    elapsed = time.monotonic() - start
    assert elapsed < 2.0
    print(
        "criterion 8 PASS: height bound 60.1755, constant"
        f" {payload['constant']['value']:.4e} >= 4.2e-6, {elapsed:.2f}s"
    )


def test_criterion_9_certified_inequality():
    cfg = CurveConfig(6)
    cert = build_certificate(cfg, [GENERATORS[6]], 4)
    assert cert.box_size >= minimal_box_size(z_size_constant(cfg), cert.hhat_bar)
    assert cert.checks["theorem_preconditions"]
    assert cert.checks["chain_bound"]
    assert cert.checks["final_inequality"]
    assert cert.all_checks_pass
    # the float bound (K2 hhat)^(-r/(r+2)) (log m)^(r/(r+2)), at the
    # height's upper end
    bound = density_constant(
        cert.rank, ApproxReal.exact(cert.hhat_bar.upper())
    ) * log_m(cert.m0, cert.Z).pow_ratio(cert.rank, cert.rank + 2)
    assert cert.box_size**cert.rank > bound.upper()
    print(
        "criterion 9 PASS: N^r = 4 beats the certified bound"
        f" {bound.upper():.4f}"
    )


# ROADMAP table 1's half-ellipsoid rows: the chosen set of N^r points at
# each curve's box size, with m's bit length (the pool) or natural log m
# (within 0.01%) as measured when the set was proposed
_TABLE_1 = [
    (91, ((-5, 6, 1), (3, 4, 1)), 12, "bits", 44_161),
    (1729, ((1, 12, 1), (9, 10, 1)), 12, "bits", 68_394),
    (657, ((-7, 10, 1), (7, 17, 2), (-2890, 2971, 147)), 8, "log", 125_951),
    (152551, ((54, -17, 1), (55, -24, 1), (226, -225, 1), (705, -668, 7)),
     6, "log", 241_312),
    (526535, ((207, -167, 2), (323, -3, 4), (363, 262, 5), (633, -418, 7)),
     6, "log", 304_220),
]


def test_criterion_10_half_ellipsoid_table():
    start = time.monotonic()
    for m0, generators, box_size, unit, expected in _TABLE_1:
        cfg = CurveConfig(m0)
        cert = build_certificate(
            cfg, [CubicPoint(*g) for g in generators], box_size
        )
        assert cert.all_checks_pass, m0
        if unit == "bits":
            assert cert.m.bit_length() == expected
            # the whole document, through the reader
            assert verify_certificate(certificate_to_json(cert)) == cert
        else:
            assert abs(log_abs(cert.m).value - expected) <= 1e-4 * expected
            # a rank-3 or rank-4 document runs to tens of megabytes, so the
            # verifier's checks run on the built record, unparsed
            assert verify_checks(cfg, cert) == cert.checks
    elapsed = time.monotonic() - start
    print(
        f"criterion 10 PASS: {len(_TABLE_1)} table rows reproduced, every"
        f" check true in build and verify, {elapsed:.2f}s"
    )
