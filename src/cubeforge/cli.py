"""Command-line interface.

Subcommands mirror the library: point search, the birational map, canonical
heights, independence certification, certificate construction and
verification, the exhaustive census, and the density-constant report.
Results go to stdout as JSON; diagnostics go to stderr.  Exit codes:
0 success, 1 a named check failed, 2 invalid input, 3 precision budget
exceeded, 4 an unexpected internal error (one "error:" line, no traceback).
"""

from __future__ import annotations

import argparse
import json
import sys

from .certificate import (
    CertificateFormatError,
    _interval_to_json,
    certificate_to_json,
    load_json,
    verify_certificate,
    write_certificate,
)
from .construct import (
    GeneratorDependenceError,
    build_certificate,
    checked_tol,
    density_constant,
    finite_float,
    m_factor,
)
from .curves import CubicPoint, CurveConfig, require_on_cubic, weierstrass_image
from .heights import (
    OFFSET_ABOVE,
    PrecisionBudgetError,
    canonical_height,
    independence,
)
from .numeric import ApproxReal, read_decimal
from .oracle import count_reps, search_points

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_PRECISION = 3
EXIT_INTERNAL = 4


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2))


def _parse_cubic(text: str) -> CubicPoint:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected x,y,z integers, got {text[:40]!r}")
    return CubicPoint(*map(read_decimal, parts))


def _ratio(num: int, den: int) -> str:
    return str(num) if den == 1 else f"{num}/{den}"


def _int_option(text: str) -> int:
    # argparse prints an ArgumentTypeError's reason, where for a ValueError
    # it would echo the value, of any length
    try:
        return read_decimal(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load_triples(path: str) -> list[CubicPoint]:
    with open(path, encoding="utf-8") as handle:
        data = load_json(handle.read())
    if not isinstance(data, list) or not data:
        raise ValueError(f"{path}: expected a nonempty JSON array of [x, y, z]")
    points = []
    for entry in data:
        if not isinstance(entry, list) or len(entry) != 3 or not all(
            isinstance(c, (int, str)) and not isinstance(c, bool) for c in entry
        ):
            raise ValueError(f"{path}: each entry must be an integer triple [x, y, z]")
        points.append(
            CubicPoint(*(c if isinstance(c, int) else read_decimal(c) for c in entry))
        )
    return points


def _cmd_search(args) -> int:
    cfg = CurveConfig(args.m0)
    points = search_points(cfg, args.zmax)
    _emit(
        {
            "m0": str(args.m0),
            "zmax": args.zmax,
            "count": len(points),
            "points": [[str(p.x), str(p.y), str(p.z)] for p in points],
        }
    )
    return EXIT_OK


def _cmd_phi(args) -> int:
    cfg = CurveConfig(args.m0)
    p = _parse_cubic(args.point)
    require_on_cubic(cfg, p)
    if p.is_identity:
        _emit("infinity")
    else:
        a, d, c, e = weierstrass_image(cfg, p)
        _emit({"X": _ratio(a, d), "Y": _ratio(c, e)})
    return EXIT_OK


def _cmd_height(args) -> int:
    cfg = CurveConfig(args.m0)
    p = _parse_cubic(args.point)
    _emit(_interval_to_json(canonical_height(cfg, p, checked_tol(args.tol))))
    return EXIT_OK


def _cmd_independence(args) -> int:
    cfg = CurveConfig(args.m0)
    points = _load_triples(args.points)
    gram, independent = independence(cfg, points, checked_tol(args.tol))
    _emit(
        {
            "independent": independent,
            "gram": [
                [_interval_to_json(e) for e in row] for row in gram
            ],
        }
    )
    return EXIT_OK if independent else EXIT_CHECK_FAILED


def _cmd_construct(args) -> int:
    cfg = CurveConfig(args.m0)
    generators = _load_triples(args.generators)
    cert = build_certificate(cfg, generators, args.N, args.tol)
    if args.out:
        write_certificate(cert, args.out)
    else:
        sys.stdout.write(certificate_to_json(cert))
    failed = [name for name, ok in cert.checks.items() if not ok]
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    count = len(cert.lattice_points)
    print(f"certificate ok: {count} representations", file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args) -> int:
    with open(args.cert, encoding="utf-8") as handle:
        document = handle.read()
    cert = verify_certificate(document)
    _emit(
        {
            "m0": hex(cert.m0),
            "r": cert.rank,
            "N": cert.box_size,
            "Z": hex(cert.Z),
            "checks": cert.checks,
            "all_passed": cert.all_checks_pass,
        }
    )
    return EXIT_OK if cert.all_checks_pass else EXIT_CHECK_FAILED


def _cmd_count(args) -> int:
    census = count_reps(args.m)
    payload = {
        "m": str(census.m),
        "ordered_count": census.ordered_count,
        "pairs": [[str(x), str(y)] for x, y in census.pairs],
        "scan_bound": str(census.scan_bound),
    }
    if args.unordered:
        unordered = census.unordered_pairs()
        payload["unordered_count"] = len(unordered)
        payload["unordered_pairs"] = [[str(x), str(y)] for x, y in unordered]
    _emit(payload)
    return EXIT_OK


def _cmd_certify_corollary(args) -> int:
    if args.target is not None:
        finite_float(args.target, "target")
    h_b = ApproxReal.from_decimal(args.hB)
    h_x_max = ApproxReal.from_decimal(args.hxmax)
    hhat_upper = (
        h_b * ApproxReal.from_ratio(1, 6)
        + h_x_max.ldexp(-1)
        + OFFSET_ABOVE
    )
    constant = density_constant(args.r, ApproxReal.exact(hhat_upper.upper()))
    payload = {
        "r": args.r,
        "m_factor": str(m_factor(args.r)),
        "hhat_bar_upper": _interval_to_json(hhat_upper),
        "exponent_num": args.r,
        "exponent_den": args.r + 2,
        "constant": _interval_to_json(constant),
        "target": args.target,
        "passes": None if args.target is None else constant.lower() >= args.target,
    }
    _emit(payload)
    if args.target is not None and not payload["passes"]:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubeforge",
        description="Sum-of-two-cubes curves, heights, and certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("search", _cmd_search, "enumerate primitive curve points up to zmax")
    p.add_argument("--m0", type=_int_option, required=True)
    p.add_argument("--zmax", type=_int_option, required=True)

    p = add("phi", _cmd_phi, "map a cubic point to the Weierstrass model")
    p.add_argument("--m0", type=_int_option, required=True)
    p.add_argument("--point", required=True, help="x,y,z")

    p = add("height", _cmd_height, "canonical height with certified radius")
    p.add_argument("--m0", type=_int_option, required=True)
    p.add_argument("--point", required=True, help="x,y,z")
    p.add_argument("--tol", type=float, default=1e-3)

    p = add("independence", _cmd_independence, "certify points independent")
    p.add_argument("--m0", type=_int_option, required=True)
    p.add_argument("--points", required=True, help="JSON file of [x,y,z] triples")
    p.add_argument("--tol", type=float, default=1e-3)

    p = add("construct", _cmd_construct, "build a representation certificate")
    p.add_argument("--m0", type=_int_option, required=True)
    p.add_argument(
        "--generators", required=True, help="JSON file of [x,y,z] triples"
    )
    p.add_argument("--N", type=_int_option, required=True, help="box size")
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--out", help="write the certificate here instead of stdout")

    p = add("verify", _cmd_verify, "recheck a stored certificate")
    p.add_argument("--cert", required=True, help="certificate JSON file")

    p = add("count", _cmd_count, "exhaustive census of x^3 + y^3 = m")
    p.add_argument("--m", type=_int_option, required=True)
    p.add_argument(
        "--unordered", action="store_true", help="also report unordered pairs"
    )

    p = add(
        "certify-corollary",
        _cmd_certify_corollary,
        "density constant from curve-level height bounds",
    )
    p.add_argument("--r", type=_int_option, required=True, help="generator count")
    p.add_argument(
        "--hB", required=True, help="naive height of the coefficient, decimal"
    )
    p.add_argument(
        "--hxmax", required=True, help="max naive generator height, decimal"
    )
    p.add_argument(
        "--target",
        type=float,
        default=None,
        help="fail unless the certified constant reaches this value",
    )

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PrecisionBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except GeneratorDependenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (CertificateFormatError, ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except Exception as exc:  # no documented code: report it, never as exit 1
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
