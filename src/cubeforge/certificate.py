"""Machine-checkable certificate files.

A certificate is a JSON document that pins every input and every claimed
output of one construction run, and nothing else: the same Certificate
always serializes to the same bytes, with a fixed key order and approximate
reals as value/radius pairs.  Schema "7" stores the lattice triples with
their indices and m, but not the N^r representations: each is
(Z/z_n)(x_n, y_n), a pure function of the triples, which
Certificate.representations expands for a consumer.  The lattice runs over
the N^r indices of least height that build chose (construct.index_set),
with the generators as given; verify screens the stored indices
(construct.index_set_screen) and never chooses them again.  A "6"
document, which also stored the pairs, is refused, as are older ones.
Keys the schema does not name, such as a stray ``representations`` array
or the ``generated_at`` of older writers, are ignored.

Every stored integer is written as ``hex(n)`` writes it ("0x1f", "-0x1f"),
and the parser accepts exactly that form or a JSON number.  Hex converts in
linear time both ways, where decimal costs quadratic time.  One loader,
load_json, reads all JSON text from outside the program, certificates and
the CLI's generator and point files: its numbers go through
numeric.read_decimal, which keeps the 4,300-digit bound that numeric.py
lifts for the package's own str().  The writer goes through bytes.hex(),
3-4x faster than hex() on big n.  The reader decides "exactly what hex()
writes" by its definition: int(s, 16), accepted iff hex() writes the value
back unchanged.  Divisor records are exact integers and verdicts.  There
is no stored check map: verify_certificate parses the document into a
Certificate, re-derives everything from the generators alone and compares,
proves the identity x^3 + y^3 = m from the lattice without forming a
representation (see construct.evaluate_checks), and returns the parsed
Certificate with those fresh checks.

The writer produces exactly the bytes of
``json.dumps(doc, separators=(",", ":"))`` plus a newline: one line, no
whitespace, built piece by piece without ``doc`` whole.  The header, every
key but ``lattice_points``, goes through json.dumps.  The lattice, N^r
entries, is rendered from a one-line template, because a hex() string
needs no JSON escaping, while json.dumps scans every string for escapes
even in its C encoder.  The reader is json.loads, so any whitespace and
key order parse the same: an indented document verifies to the same
checks, and ``python -m json.tool`` pretty-prints one.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from itertools import repeat

from .construct import (
    Certificate,
    ChainConstants,
    DivisorCheck,
    checked_box_size,
    checked_tol,
    finite_float,
    verify_checks,
)
from .curves import CubicPoint, CurveConfig
from .numeric import ApproxReal, read_decimal

SCHEMA_VERSION = "7"


class CertificateFormatError(Exception):
    """The document is not a structurally valid certificate."""


def _interval_to_json(a: ApproxReal) -> dict:
    return {"value": a.value, "radius": a.radius}


def _hex(n: int) -> str:
    """Exactly hex(n), built with bytes.hex(), which is 3-4x faster on big n."""
    if not n:
        return "0x0"
    digits = abs(n).to_bytes((n.bit_length() + 7) // 8, "big").hex()
    if digits[0] == "0":
        digits = digits[1:]
    return ("-0x" if n < 0 else "0x") + digits


# the slot the header leaves for the lattice: the key's quotes cannot occur
# unescaped inside a JSON string, so it occurs exactly once
_LATTICE_SLOT = '"lattice_points":[]'

# one lattice entry; every %s is a hex() string or a JSON literal, and
# neither ever needs escaping
_LATTICE_ENTRY = (
    '{"index":[%s],"point":["%s","%s","%s"],"divisor":{"d":"%s","a":"%s",'
    '"b":"%s","divisibility_pass":%s,"bound_pass":%s}}'
)
_JSON_BOOL = {True: "true", False: "false"}


def _array(entries: Iterator[str]) -> Iterator[str]:
    """A top-level key's array of rendered entries."""
    separator = "["
    for entry in entries:
        yield separator
        yield entry
        separator = ","
    yield "[]" if separator == "[" else "]"


def document_pieces(cert: Certificate) -> Iterator[str]:
    """The certificate document in pieces, byte for byte
    json.dumps(doc, separators=(",", ":")) plus a newline.

    The header, everything but the lattice, goes through json.dumps; the
    lattice is rendered from the template above, one piece per entry, with
    no escaping pass over its strings.
    """
    header = json.dumps(
        {
            "schema_version": SCHEMA_VERSION,
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
            "bound_rhs": _interval_to_json(cert.bound_rhs),
        },
        separators=(",", ":"),
    )
    head, _, tail = header.partition(_LATTICE_SLOT)
    yield head + '"lattice_points":'
    yield from _array(
        _LATTICE_ENTRY
        % (
            ",".join(map(str, idx)),
            _hex(q.x), _hex(q.y), _hex(q.z),
            _hex(dc.d), _hex(dc.a), _hex(dc.b),
            _JSON_BOOL[dc.divisibility_pass], _JSON_BOOL[dc.bound_pass],
        )
        for (idx, q), dc in zip(cert.lattice_points, cert.divisor_checks)
    )
    yield tail + "\n"


def certificate_to_json(cert: Certificate) -> str:
    return "".join(document_pieces(cert))


def write_certificate(cert: Certificate, path: str) -> None:
    # piece by piece, so the whole document is never one string in memory
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(document_pieces(cert))


def load_json(text: str):
    """json.loads with numbers read by read_decimal; anything malformed,
    nesting deeper than json.loads can recurse included, is a ValueError."""
    try:
        return json.loads(text, parse_int=read_decimal)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON ({exc})") from None
    except RecursionError:
        raise ValueError("JSON nested too deeply to read") from None


def _fail(message: str) -> CertificateFormatError:
    return CertificateFormatError(f"invalid certificate: {message}")


def _as_int(value, what: str) -> int:
    if isinstance(value, str):
        # exactly what hex() writes, by its definition: int(s, 16) also
        # reads a sign, "0x", "_", whitespace and non-ASCII digits, but
        # hex() writes back only the one form
        try:
            n = int(value, 16)
        except ValueError:
            pass
        else:
            if hex(n) == value:
                return n
        raise _fail(f"{what} is not a hex() string: {value[:40]!r}")
    # JSON numbers, and int subclasses in dict documents, pass unchanged
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise _fail(f"{what} must be an integer or hex string")


def _as_interval(value, what: str) -> ApproxReal:
    if not isinstance(value, dict) or set(value) != {"value", "radius"}:
        raise _fail(f"{what} must be an object with value and radius")
    try:
        return ApproxReal(
            finite_float(value["value"], "value"),
            finite_float(value["radius"], "radius"),
        )
    except ValueError as exc:
        raise _fail(f"{what}: {exc}") from None


def _as_list(value, what: str, length: int | None = None) -> list:
    if not isinstance(value, list):
        raise _fail(f"{what} must be an array")
    if length is not None and len(value) != length:
        raise _fail(f"{what} must have {length} elements")
    return value


def _as_record(value, what: str, keys: frozenset) -> dict:
    if isinstance(value, dict) and value.keys() >= keys:
        return value
    if not isinstance(value, dict):
        raise _fail(f"{what} must be an object")
    missing = ", ".join(sorted(keys.difference(value)))
    raise _fail(f"{what} is missing {missing}")


def _as_bool(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise _fail(f"{what} must be a boolean")
    return value


def _as_triple(value, what: str) -> CubicPoint:
    x, y, z = _as_list(value, what, 3)
    return CubicPoint(_as_int(x, what), _as_int(y, what), _as_int(z, what))


_REQUIRED_KEYS = frozenset((
    "schema_version", "m0", "r", "N", "tol", "generators", "hhat_bar",
    "constants", "lattice_points", "m", "bound_rhs",
))
_CONSTANTS_KEYS = frozenset(
    ("height_factor", "z_factor", "m_factor", "z_constant", "n_min")
)
_ENTRY_KEYS = frozenset(("index", "point", "divisor"))
_DIVISOR_KEYS = frozenset(("d", "a", "b", "divisibility_pass", "bound_pass"))


def parse_certificate(document: str | dict) -> Certificate:
    """Parse and structurally validate a certificate document.

    Raises CertificateFormatError for anything malformed.  Semantic truth is
    not judged here; that is verify_certificate's job.  Keys the schema does
    not name are ignored, so the parsed certificate carries no checks.
    """
    if isinstance(document, str):
        try:
            data = load_json(document)
        except ValueError as exc:
            raise _fail(str(exc)) from None
    else:
        data = document
    data = _as_record(data, "certificate", _REQUIRED_KEYS)
    if data["schema_version"] != SCHEMA_VERSION:
        raise _fail(f"unsupported schema_version {data['schema_version']!r}")

    m0 = _as_int(data["m0"], "m0")
    if m0 == 0:
        raise _fail("m0 must be nonzero")
    rank = _as_int(data["r"], "r")
    try:
        box_size = checked_box_size(_as_int(data["N"], "N"))
        tol = checked_tol(data["tol"])
    except ValueError as exc:
        raise _fail(str(exc)) from None

    generators = [
        _as_triple(g, "generator")
        for g in _as_list(data["generators"], "generators")
    ]
    if not generators:
        raise _fail("generators must be a nonempty array")
    if rank != len(generators):
        raise _fail("r must equal the number of generators")

    constants_raw = _as_record(data["constants"], "constants", _CONSTANTS_KEYS)
    constants = ChainConstants(
        height_factor=_as_int(constants_raw["height_factor"], "height_factor"),
        z_factor=_as_int(constants_raw["z_factor"], "z_factor"),
        m_factor=_as_int(constants_raw["m_factor"], "m_factor"),
        z_constant=_as_interval(constants_raw["z_constant"], "z_constant"),
        n_min=_as_int(constants_raw["n_min"], "n_min"),
    )

    lattice_points = []
    divisor_checks = []
    # N^r records: fixed labels and direct constructors, so a record that
    # parses formats no message and builds no set or generator
    for entry in _as_list(data["lattice_points"], "lattice_points"):
        entry = _as_record(entry, "lattice point", _ENTRY_KEYS)
        index = _as_list(entry["index"], "lattice index", rank)
        div = _as_record(entry["divisor"], "divisor record", _DIVISOR_KEYS)
        lattice_points.append(
            (
                tuple(map(_as_int, index, repeat("lattice index"))),
                _as_triple(entry["point"], "lattice point"),
            )
        )
        divisor_checks.append(
            DivisorCheck(
                _as_int(div["d"], "divisor d"),
                _as_int(div["a"], "divisor a"),
                _as_int(div["b"], "divisor b"),
                _as_bool(div["divisibility_pass"], "divisibility_pass"),
                _as_bool(div["bound_pass"], "bound_pass"),
            )
        )

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
        constants=constants,
        bound_rhs=_as_interval(data["bound_rhs"], "bound_rhs"),
        checks={},
    )


def verify_certificate(document: str | dict) -> Certificate:
    """Recompute every check of a stored certificate.

    Returns the parsed Certificate with freshly derived verdicts as its
    checks; a stored check map, like any key the schema does not name, is
    never read.  Structural problems raise CertificateFormatError, semantic
    failures surface as False entries in the checks.
    """
    cert = parse_certificate(document)
    return cert._replace(checks=verify_checks(CurveConfig(cert.m0), cert))
