"""Machine-checkable certificate files.

A certificate is a JSON document that pins every input and every claimed
output of one construction run.  Serialization is deterministic: fixed key
order, approximate reals as value/radius pairs, and a timestamp that honors
SOURCE_DATE_EPOCH for reproducible runs.  Schema "3" writes every stored
integer string as ``hex(n)`` ("0x1f", "-0x1f"), which CPython converts in
linear time both ways, where decimal strings cost quadratic time; the
parser accepts exactly that form or a JSON number.  Divisor records are
exact integers and verdicts.  Verification re-derives everything from the
generators alone and compares; no stored boolean is ever trusted, and the
identity x^3 + y^3 = m is proved from the lattice instead of by cubing
every stored representation (see construct.evaluate_checks).
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass

from .construct import (
    Certificate,
    ChainConstants,
    DivisorCheck,
    verify_checks,
)
from .curves import CubicPoint, CurveConfig
from .numeric import ApproxReal

SCHEMA_VERSION = "3"

# hex() and int(s, 16) are exempt from the int<->str digit limit, but callers
# still write certificate integers such as m in decimal (str(), JSON numbers),
# and those routinely exceed the default limit of 4,300 digits
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(
        max(sys.get_int_max_str_digits(), 20_000_000)
    )


class CertificateFormatError(Exception):
    """The document is not a structurally valid certificate."""


def _interval_to_json(a: ApproxReal) -> dict:
    return {"value": a.value, "radius": a.radius}


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    moment = int(epoch) if epoch is not None else int(time.time())
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(moment))


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "generated_at": _timestamp(),
        "m0": hex(cert.m0),
        "r": cert.rank,
        "N": cert.box_size,
        "tol": cert.tol,
        "generators": [
            [hex(p.x), hex(p.y), hex(p.z)] for p in cert.generators
        ],
        "hhat_bar": _interval_to_json(cert.hhat_bar),
        "constants": {
            "height_factor": hex(cert.constants.height_factor),
            "z_factor": hex(cert.constants.z_factor),
            "m_factor": hex(cert.constants.m_factor),
            "z_constant": _interval_to_json(cert.constants.z_constant),
            "n_min": cert.constants.n_min,
        },
        "lattice_points": [
            {
                "index": list(idx),
                "point": [hex(q.x), hex(q.y), hex(q.z)],
                "divisor": {
                    "d": hex(dc.d),
                    "a": hex(dc.a),
                    "b": hex(dc.b),
                    "divisibility_pass": dc.divisibility_pass,
                    "bound_pass": dc.bound_pass,
                },
            }
            for (idx, q), dc in zip(cert.lattice_points, cert.divisor_checks)
        ],
        "m": hex(cert.m),
        "representations": [[hex(x), hex(y)] for x, y in cert.representations],
        "bound_rhs": _interval_to_json(cert.bound_rhs),
        "checks": dict(cert.checks),
    }


def certificate_to_json(cert: Certificate) -> str:
    return json.dumps(certificate_to_dict(cert), indent=2) + "\n"


def write_certificate(cert: Certificate, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(certificate_to_json(cert))


def _fail(message: str) -> CertificateFormatError:
    return CertificateFormatError(f"invalid certificate: {message}")


def _as_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise _fail(f"{what} must be an integer or hex string")
    if isinstance(value, int):
        return value
    # exactly what hex() writes, checked without writing it: "0x" or "-0x",
    # then as many lowercase ASCII digits as n has, which leaves no room for
    # the "_", whitespace, sign or leading zero that int(value, 16) accepts
    negative = value[:1] == "-"
    try:
        n = int(value, 16)
    except ValueError:
        n = None
    if (
        n is None
        or (n < 0) != negative
        or not value.startswith("0x", negative)
        or len(value) != negative + 2 + max(1, (n.bit_length() + 3) // 4)
        or not value.isascii()
        or any(c in value for c in "ABCDEF")
    ):
        raise _fail(f"{what} is not a hex() string: {value[:40]!r}")
    return n


def _as_float(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(f"{what} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise _fail(f"{what} is out of float range") from None


def _as_interval(value, what: str) -> ApproxReal:
    if not isinstance(value, dict) or set(value) != {"value", "radius"}:
        raise _fail(f"{what} must be an object with value and radius")
    try:
        return ApproxReal(
            _as_float(value["value"], f"{what} value"),
            _as_float(value["radius"], f"{what} radius"),
        )
    except ValueError as exc:
        raise _fail(f"{what}: {exc}") from None


def _as_triple(value, what: str) -> CubicPoint:
    if not isinstance(value, list) or len(value) != 3:
        raise _fail(f"{what} must be a three-element array")
    x, y, z = (_as_int(c, what) for c in value)
    return CubicPoint(x, y, z)


_REQUIRED_KEYS = {
    "schema_version",
    "m0",
    "r",
    "N",
    "tol",
    "generators",
    "hhat_bar",
    "constants",
    "lattice_points",
    "m",
    "representations",
    "bound_rhs",
    "checks",
}


def parse_certificate(document: str | dict) -> Certificate:
    """Parse and structurally validate a certificate document.

    Raises CertificateFormatError for anything malformed.  Semantic truth is
    not judged here; that is verify_certificate's job.
    """
    if isinstance(document, str):
        try:
            data = json.loads(document)
        except json.JSONDecodeError as exc:
            raise _fail(f"not valid JSON ({exc})") from None
    else:
        data = document
    if not isinstance(data, dict):
        raise _fail("top level must be an object")
    missing = _REQUIRED_KEYS - set(data)
    if missing:
        raise _fail(f"missing keys: {', '.join(sorted(missing))}")
    if data["schema_version"] != SCHEMA_VERSION:
        raise _fail(f"unsupported schema_version {data['schema_version']!r}")

    m0 = _as_int(data["m0"], "m0")
    if m0 == 0:
        raise _fail("m0 must be nonzero")
    rank = _as_int(data["r"], "r")
    box_size = _as_int(data["N"], "N")
    if box_size < 1:
        raise _fail("N must be at least 1")
    tol = _as_float(data["tol"], "tol")
    if not tol > 0.0:  # also refuses NaN
        raise _fail("tol must be a positive number")

    if not isinstance(data["generators"], list) or not data["generators"]:
        raise _fail("generators must be a nonempty array")
    generators = [
        _as_triple(g, "generator") for g in data["generators"]
    ]
    if rank != len(generators):
        raise _fail("r must equal the number of generators")

    constants_raw = data["constants"]
    if not isinstance(constants_raw, dict):
        raise _fail("constants must be an object")
    for key in ("height_factor", "z_factor", "m_factor", "z_constant", "n_min"):
        if key not in constants_raw:
            raise _fail(f"constants.{key} is missing")
    constants = ChainConstants(
        rank=rank,
        height_factor=_as_int(constants_raw["height_factor"], "height_factor"),
        z_factor=_as_int(constants_raw["z_factor"], "z_factor"),
        m_factor=_as_int(constants_raw["m_factor"], "m_factor"),
        z_constant=_as_interval(constants_raw["z_constant"], "z_constant"),
        n_min=_as_int(constants_raw["n_min"], "n_min"),
    )

    if not isinstance(data["lattice_points"], list):
        raise _fail("lattice_points must be an array")
    lattice_points = []
    divisor_checks = []
    for entry in data["lattice_points"]:
        if not isinstance(entry, dict) or {
            "index",
            "point",
            "divisor",
        } - set(entry):
            raise _fail("each lattice point needs index, point and divisor")
        idx_raw = entry["index"]
        if not isinstance(idx_raw, list) or len(idx_raw) != rank:
            raise _fail("lattice index arity must equal r")
        idx = tuple(_as_int(i, "lattice index") for i in idx_raw)
        point = _as_triple(entry["point"], "lattice point")
        div = entry["divisor"]
        if not isinstance(div, dict) or {
            "d",
            "a",
            "b",
            "divisibility_pass",
            "bound_pass",
        } - set(div):
            raise _fail("divisor record is incomplete")
        if not isinstance(div["divisibility_pass"], bool) or not isinstance(
            div["bound_pass"], bool
        ):
            raise _fail("divisor flags must be booleans")
        lattice_points.append((idx, point))
        divisor_checks.append(
            DivisorCheck(
                d=_as_int(div["d"], "divisor d"),
                a=_as_int(div["a"], "divisor a"),
                b=_as_int(div["b"], "divisor b"),
                divisibility_pass=div["divisibility_pass"],
                bound_pass=div["bound_pass"],
            )
        )

    if not isinstance(data["representations"], list):
        raise _fail("representations must be an array")
    representations = []
    for rep in data["representations"]:
        if not isinstance(rep, list) or len(rep) != 2:
            raise _fail("each representation must be a two-element array")
        representations.append(
            (_as_int(rep[0], "representation x"), _as_int(rep[1], "representation y"))
        )

    m = _as_int(data["m"], "m")
    if m == 0:
        raise _fail("m must be nonzero")
    checks_raw = data["checks"]
    if not isinstance(checks_raw, dict) or not all(
        isinstance(v, bool) for v in checks_raw.values()
    ):
        raise _fail("checks must be an object of booleans")

    return Certificate(
        m0=m0,
        rank=rank,
        box_size=box_size,
        tol=tol,
        generators=generators,
        hhat_bar=_as_interval(data["hhat_bar"], "hhat_bar"),
        lattice_points=lattice_points,
        divisor_checks=divisor_checks,
        m=m,
        representations=representations,
        constants=constants,
        bound_rhs=_as_interval(data["bound_rhs"], "bound_rhs"),
        checks=dict(checks_raw),
    )


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of re-deriving a certificate's claims from scratch."""

    m0: int
    rank: int
    box_size: int
    m: int
    checks: dict[str, bool]

    @property
    def all_passed(self) -> bool:
        return all(self.checks.values())

    def to_dict(self) -> dict:
        return {
            "m0": str(self.m0),
            "r": self.rank,
            "N": self.box_size,
            "m": hex(self.m),
            "checks": dict(self.checks),
            "all_passed": self.all_passed,
        }


def verify_certificate(document: str | dict) -> VerifyReport:
    """Recompute every check of a stored certificate.

    The stored checks map is ignored; the report carries freshly derived
    verdicts.  Structural problems raise CertificateFormatError, semantic
    failures surface as False entries in the report.
    """
    cert = parse_certificate(document)
    cfg = CurveConfig(cert.m0)
    checks = verify_checks(cfg, cert)
    return VerifyReport(
        m0=cert.m0,
        rank=cert.rank,
        box_size=cert.box_size,
        m=cert.m,
        checks=checks,
    )
