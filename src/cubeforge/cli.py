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
from fractions import Fraction

from .certificate import (
    CertificateFormatError,
    certificate_to_json,
    verify_certificate,
)
from .construct import (
    GeneratorDependenceError,
    build_certificate,
    density_constant,
    m_factor,
)
from .curves import (
    CubicPoint,
    CurveConfig,
    INFINITY,
    WeierstrassPoint,
    on_cubic,
    on_weierstrass,
    to_weierstrass,
)
from .heights import (
    OFFSET_ABOVE,
    PrecisionBudgetError,
    canonical_height,
    independence,
)
from .numeric import ApproxReal
from .oracle import count_reps, search_points

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_PRECISION = 3
EXIT_INTERNAL = 4


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2))


def _interval_json(a: ApproxReal) -> dict:
    return {"value": a.value, "radius": a.radius}


def _parse_cubic(text: str) -> CubicPoint:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected x,y,z integers, got {text!r}")
    x, y, z = (int(p.strip()) for p in parts)
    return CubicPoint(x, y, z)


def _parse_weierstrass(text: str) -> WeierstrassPoint:
    if text.strip().lower() == "infinity":
        return INFINITY
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected X,Y rationals or 'infinity', got {text!r}")
    return WeierstrassPoint(
        Fraction(parts[0].strip()), Fraction(parts[1].strip())
    )


def _weierstrass_json(p: WeierstrassPoint):
    if p.is_infinity:
        return "infinity"
    return {"X": str(p.x), "Y": str(p.y)}


def _load_triples(path: str) -> list[CubicPoint]:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, list) or not data:
        raise ValueError(f"{path}: expected a nonempty JSON array of [x, y, z]")
    points = []
    for entry in data:
        if not isinstance(entry, list) or len(entry) != 3:
            raise ValueError(f"{path}: each entry must be a triple [x, y, z]")
        points.append(CubicPoint(*(int(c) for c in entry)))
    return points


def _require_on_cubic(cfg: CurveConfig, p: CubicPoint) -> None:
    if not on_cubic(cfg, p.x, p.y, p.z):
        raise ValueError(
            f"({p.x}, {p.y}, {p.z}) is not on x^3 + y^3 = {cfg.m0} z^3"
        )


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
    _require_on_cubic(cfg, p)
    _emit(_weierstrass_json(to_weierstrass(cfg, p)))
    return EXIT_OK


def _cmd_height(args) -> int:
    cfg = CurveConfig(args.m0)
    p = _parse_weierstrass(args.point)
    if not on_weierstrass(cfg, p):
        raise ValueError(f"{args.point!r} is not on Y^2 = X^3 + ({cfg.b})")
    _emit(_interval_json(canonical_height(cfg, p, args.tol)))
    return EXIT_OK


def _cmd_independence(args) -> int:
    cfg = CurveConfig(args.m0)
    points = _load_triples(args.points)
    images = []
    for p in points:
        _require_on_cubic(cfg, p)
        images.append(to_weierstrass(cfg, p))
    gram, independent = independence(cfg, images, args.tol)
    _emit(
        {
            "independent": independent,
            "gram": [
                [_interval_json(e) for e in row] for row in gram.entries
            ],
        }
    )
    return EXIT_OK if independent else EXIT_CHECK_FAILED


def _cmd_construct(args) -> int:
    cfg = CurveConfig(args.m0)
    generators = _load_triples(args.generators)
    cert = build_certificate(cfg, generators, args.N, args.tol)
    text = certificate_to_json(cert)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    failed = [name for name, ok in cert.checks.items() if not ok]
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print(
        f"certificate ok: {len(cert.representations)} representations",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    with open(args.cert, encoding="utf-8") as handle:
        document = handle.read()
    report = verify_certificate(document)
    _emit(report.to_dict())
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


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
    if args.r < 1:
        raise ValueError("r must be at least 1")
    h_b = ApproxReal.from_decimal(args.hB)
    h_x_max = ApproxReal.from_decimal(args.hxmax)
    hhat_upper = (
        h_b * ApproxReal.from_fraction(Fraction(1, 6))
        + h_x_max.ldexp(-1)
        + OFFSET_ABOVE
    )
    constant = density_constant(args.r, ApproxReal.exact(hhat_upper.upper()))
    payload = {
        "r": args.r,
        "m_factor": str(m_factor(args.r)),
        "hhat_bar_upper": _interval_json(hhat_upper),
        "exponent_num": args.r,
        "exponent_den": args.r + 2,
        "constant": _interval_json(constant),
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
    p.add_argument("--m0", type=int, required=True)
    p.add_argument("--zmax", type=int, required=True)

    p = add("phi", _cmd_phi, "map a cubic point to the Weierstrass model")
    p.add_argument("--m0", type=int, required=True)
    p.add_argument("--point", required=True, help="x,y,z")

    p = add("height", _cmd_height, "canonical height with certified radius")
    p.add_argument("--m0", type=int, required=True)
    p.add_argument("--point", required=True, help="X,Y or 'infinity'")
    p.add_argument("--tol", type=float, default=1e-3)

    p = add("independence", _cmd_independence, "certify points independent")
    p.add_argument("--m0", type=int, required=True)
    p.add_argument("--points", required=True, help="JSON file of [x,y,z] triples")
    p.add_argument("--tol", type=float, default=1e-3)

    p = add("construct", _cmd_construct, "build a representation certificate")
    p.add_argument("--m0", type=int, required=True)
    p.add_argument(
        "--generators", required=True, help="JSON file of [x,y,z] triples"
    )
    p.add_argument("--N", type=int, required=True, help="box size")
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--out", help="write the certificate here instead of stdout")

    p = add("verify", _cmd_verify, "recheck a stored certificate")
    p.add_argument("--cert", required=True, help="certificate JSON file")

    p = add("count", _cmd_count, "exhaustive census of x^3 + y^3 = m")
    p.add_argument("--m", type=int, required=True)
    p.add_argument(
        "--unordered", action="store_true", help="also report unordered pairs"
    )

    p = add(
        "certify-corollary",
        _cmd_certify_corollary,
        "density constant from curve-level height bounds",
    )
    p.add_argument("--r", type=int, required=True, help="generator count")
    p.add_argument("--hB", required=True, help="naive height of the coefficient")
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
    except CertificateFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except Exception as exc:  # no documented code: report it, never as exit 1
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
