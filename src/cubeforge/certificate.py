"""Machine-checkable certificate files.

A certificate is a JSON document that pins every input and every claimed
output of one construction run.  Serialization is deterministic: fixed key
order, approximate reals as value/radius pairs, and a timestamp that honors
SOURCE_DATE_EPOCH for reproducible runs.  Schema "4" writes every stored
integer string as ``hex(n)`` writes it ("0x1f", "-0x1f"), and the parser
accepts exactly that form or a JSON number of at most 4,300 digits.  Hex
converts in linear time both ways, where decimal costs quadratic time; the
codec goes through bytes.hex() and bytes.fromhex(), which are faster still.
Divisor records are exact integers and verdicts.  There is no stored check
map: verification re-derives everything from the generators alone and
compares, and proves the identity x^3 + y^3 = m from the lattice without
cubing a representation (see construct.evaluate_checks).

The writer produces exactly the bytes of ``json.dumps(doc, indent=2)`` plus
a newline, without building ``doc`` whole.  The header, every key but
``lattice_points`` and ``representations``, goes through json.dumps.  The
two large arrays, N^r entries each, are rendered from fixed templates,
because a hex() string needs no JSON escaping, and with ``indent`` set json
would run its pure-Python encoder over every one of them.  The reader is
still json.loads, so any whitespace and key order parse the same.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from collections import namedtuple
from collections.abc import Iterator

from .construct import (
    Certificate,
    ChainConstants,
    DivisorCheck,
    verify_checks,
)
from .curves import CubicPoint, CurveConfig
from .numeric import ApproxReal

SCHEMA_VERSION = "4"

# hex() and int(s, 16) are exempt from the int<->str digit limit, but callers
# still print certificate integers such as m in decimal with str(), and those
# routinely exceed the default limit of 4,300 digits; the parser keeps that
# default for JSON number literals itself
_JSON_INT_DIGITS = 4300
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


def _hex(n: int) -> str:
    """Exactly hex(n), built with bytes.hex(), which is 3-4x faster on big n."""
    if not n:
        return "0x0"
    digits = abs(n).to_bytes((n.bit_length() + 7) // 8, "big").hex()
    if digits[0] == "0":
        digits = digits[1:]
    return ("-0x" if n < 0 else "0x") + digits


# the two slots the header leaves for the large arrays: an empty array is
# "[]" in json.dumps(indent=2) output, and the key's quotes cannot occur
# unescaped inside a JSON string, so each slot occurs exactly once
_LATTICE_SLOT = '"lattice_points": []'
_REPRESENTATIONS_SLOT = '"representations": []'

# one element of each large array, laid out as json.dumps(indent=2) lays it
# out at that depth; every %s is a hex() string or a JSON literal, and
# neither ever needs escaping
_LATTICE_ENTRY = """{
      "index": [
        %s
      ],
      "point": [
        "%s",
        "%s",
        "%s"
      ],
      "divisor": {
        "d": "%s",
        "a": "%s",
        "b": "%s",
        "divisibility_pass": %s,
        "bound_pass": %s
      }
    }"""
_REPRESENTATION = """[
      "%s",
      "%s"
    ]"""
_JSON_BOOL = {True: "true", False: "false"}


def _array(entries: Iterator[str]) -> Iterator[str]:
    """A top-level key's array of rendered entries, as json.dumps(indent=2)."""
    separator = "[\n    "
    for entry in entries:
        yield separator
        yield entry
        separator = ",\n    "
    yield "[]" if separator == "[\n    " else "\n  ]"


def _document(cert: Certificate) -> Iterator[str]:
    """The certificate document in pieces, json.dumps(indent=2) byte for byte.

    The header, everything but the lattice and the representations, goes
    through json.dumps; the two large arrays are rendered from the templates
    above, one piece per element, with no escaping pass over their strings.
    """
    header = json.dumps(
        {
            "schema_version": SCHEMA_VERSION,
            "generated_at": _timestamp(),
            "m0": _hex(cert.m0),
            "r": cert.rank,
            "N": cert.box_size,
            "tol": cert.tol,
            "generators": [
                [_hex(p.x), _hex(p.y), _hex(p.z)] for p in cert.generators
            ],
            "hhat_bar": _interval_to_json(cert.hhat_bar),
            "constants": {
                "height_factor": _hex(cert.constants.height_factor),
                "z_factor": _hex(cert.constants.z_factor),
                "m_factor": _hex(cert.constants.m_factor),
                "z_constant": _interval_to_json(cert.constants.z_constant),
                "n_min": cert.constants.n_min,
            },
            "lattice_points": [],
            "m": _hex(cert.m),
            "representations": [],
            "bound_rhs": _interval_to_json(cert.bound_rhs),
        },
        indent=2,
    )
    head, _, rest = header.partition(_LATTICE_SLOT)
    middle, _, tail = rest.partition(_REPRESENTATIONS_SLOT)
    yield head + '"lattice_points": '
    yield from _array(
        _LATTICE_ENTRY
        % (
            ",\n        ".join(map(str, idx)),
            _hex(q.x), _hex(q.y), _hex(q.z),
            _hex(dc.d), _hex(dc.a), _hex(dc.b),
            _JSON_BOOL[dc.divisibility_pass], _JSON_BOOL[dc.bound_pass],
        )
        for (idx, q), dc in zip(cert.lattice_points, cert.divisor_checks)
    )
    yield middle + '"representations": '
    yield from _array(
        _REPRESENTATION % (_hex(x), _hex(y)) for x, y in cert.representations
    )
    yield tail + "\n"


def certificate_to_json(cert: Certificate) -> str:
    return "".join(_document(cert))


def write_certificate(cert: Certificate, path: str) -> None:
    # piece by piece, so the whole document is never one string in memory
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(_document(cert))


def _fail(message: str) -> CertificateFormatError:
    return CertificateFormatError(f"invalid certificate: {message}")


def _as_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise _fail(f"{what} must be an integer or hex string")
    if isinstance(value, int):
        return value
    # exactly what hex() writes: "0x" or "-0x", then as many lowercase ASCII
    # digits as n has, which leaves no room for the whitespace between byte
    # pairs that bytes.fromhex() skips, nor for a sign or leading zero
    negative = value[:1] == "-"
    body = value[negative + 2:]
    try:
        n = int.from_bytes(bytes.fromhex("0" * (len(body) & 1) + body), "big")
    except ValueError:
        n = None
    if (
        n is None
        or not value.startswith("0x", negative)
        or len(body) != max(1, (n.bit_length() + 3) // 4)
        or (negative and not n)
        or not value.isascii()
        or any(c in body for c in "ABCDEF")
    ):
        raise _fail(f"{what} is not a hex() string: {value[:40]!r}")
    return -n if negative else n


def _as_float(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(f"{what} must be a number")
    try:
        x = float(value)
    except OverflowError:
        raise _fail(f"{what} is out of float range") from None
    # json.loads reads Infinity, NaN and 1e400 as non-finite floats
    if not math.isfinite(x):
        raise _fail(f"{what} must be a finite number")
    return x


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


def _as_list(value, what: str, length: int | None = None) -> list:
    if not isinstance(value, list):
        raise _fail(f"{what} must be an array")
    if length is not None and len(value) != length:
        raise _fail(f"{what} must have {length} elements")
    return value


def _as_record(value, what: str, keys) -> dict:
    if not isinstance(value, dict):
        raise _fail(f"{what} must be an object")
    missing = set(keys) - set(value)
    if missing:
        raise _fail(f"{what} is missing {', '.join(sorted(missing))}")
    return value


def _as_bool(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise _fail(f"{what} must be a boolean")
    return value


def _as_triple(value, what: str) -> CubicPoint:
    return CubicPoint(*(_as_int(c, what) for c in _as_list(value, what, 3)))


def _json_int(literal: str) -> int:
    # decimal literals convert in quadratic time: bounding their digits keeps
    # the parse linear in the document despite the raised global limit
    if len(literal.lstrip("-")) > _JSON_INT_DIGITS:
        raise _fail(f"a JSON integer has more than {_JSON_INT_DIGITS} digits")
    return int(literal)


_REQUIRED_KEYS = (
    "schema_version", "m0", "r", "N", "tol", "generators", "hhat_bar",
    "constants", "lattice_points", "m", "representations", "bound_rhs",
)


def parse_certificate(document: str | dict) -> Certificate:
    """Parse and structurally validate a certificate document.

    Raises CertificateFormatError for anything malformed.  Semantic truth is
    not judged here; that is verify_certificate's job.  Keys the schema does
    not name are ignored, so the parsed certificate carries no checks.
    """
    if isinstance(document, str):
        try:
            data = json.loads(document, parse_int=_json_int)
        except json.JSONDecodeError as exc:
            raise _fail(f"not valid JSON ({exc})") from None
    else:
        data = document
    data = _as_record(data, "certificate", _REQUIRED_KEYS)
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
    if not tol > 0.0:
        raise _fail("tol must be a positive number")

    generators = [
        _as_triple(g, "generator")
        for g in _as_list(data["generators"], "generators")
    ]
    if not generators:
        raise _fail("generators must be a nonempty array")
    if rank != len(generators):
        raise _fail("r must equal the number of generators")

    constants_raw = _as_record(
        data["constants"],
        "constants",
        ("height_factor", "z_factor", "m_factor", "z_constant", "n_min"),
    )
    constants = ChainConstants(
        rank=rank,
        height_factor=_as_int(constants_raw["height_factor"], "height_factor"),
        z_factor=_as_int(constants_raw["z_factor"], "z_factor"),
        m_factor=_as_int(constants_raw["m_factor"], "m_factor"),
        z_constant=_as_interval(constants_raw["z_constant"], "z_constant"),
        n_min=_as_int(constants_raw["n_min"], "n_min"),
    )

    lattice_points = []
    divisor_checks = []
    for entry in _as_list(data["lattice_points"], "lattice_points"):
        entry = _as_record(entry, "lattice point", ("index", "point", "divisor"))
        index = _as_list(entry["index"], "lattice index", rank)
        div = _as_record(
            entry["divisor"],
            "divisor record",
            ("d", "a", "b", "divisibility_pass", "bound_pass"),
        )
        lattice_points.append(
            (
                tuple(_as_int(i, "lattice index") for i in index),
                _as_triple(entry["point"], "lattice point"),
            )
        )
        divisor_checks.append(
            DivisorCheck(
                *(_as_int(div[key], f"divisor {key}") for key in "dab"),
                _as_bool(div["divisibility_pass"], "divisibility_pass"),
                _as_bool(div["bound_pass"], "bound_pass"),
            )
        )

    representations = [
        tuple(_as_int(c, "representation") for c in _as_list(p, "representation", 2))
        for p in _as_list(data["representations"], "representations")
    ]

    m = _as_int(data["m"], "m")
    if m == 0:
        raise _fail("m must be nonzero")

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
    )


class VerifyReport(
    namedtuple("VerifyReport", "m0 rank box_size m checks")
):
    """Outcome of re-deriving a certificate's claims from scratch.

    checks maps each check name to its freshly derived verdict.
    """

    __slots__ = ()

    @property
    def all_passed(self) -> bool:
        return all(self.checks.values())

    def to_dict(self) -> dict:
        return {
            "m0": str(self.m0),
            "r": self.rank,
            "N": self.box_size,
            "m": _hex(self.m),
            "checks": dict(self.checks),
            "all_passed": self.all_passed,
        }


def verify_certificate(document: str | dict) -> VerifyReport:
    """Recompute every check of a stored certificate.

    The report carries freshly derived verdicts; a stored check map, like
    any key the schema does not name, is never read.  Structural problems
    raise CertificateFormatError, semantic failures surface as False entries
    in the report.
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
