"""Machine-checkable certificate files.

A certificate is a JSON document that pins every input of one
construction run and the lattice it claims, and nothing that verify
derives: the same Certificate always serializes to the same bytes, with a
fixed key order and approximate reals as value/radius pairs.  Schema "11"
stores the inputs (m0, r, N, tol and the generators), hhat_bar, the lattice
triples with their indices, and Z, the product of their z's.  It stores
neither m nor the N^r representations: m = m0 Z^3 and each pair
(Z/z_n)(x_n, y_n) are pure functions of the triples, which Certificate.m
and Certificate.representations form for a consumer.  Nor does it store
what verify computes afresh from those fields: the divisor record
d = gcd(12 m0 z, x + y) of each triple, the chain constants, which are
functions of m0, r and hhat_bar, and the representation bound.  The lattice
runs over the N^r indices of least height that build chose
(construct.index_set), with the generators as given; verify screens the
stored indices (construct.index_set_screen) and never chooses them again.
The lattice is stored as named columns, not one object per entry:
``index`` holds the r integers of each entry in turn, and ``x``, ``y`` and
``z`` one element per entry.  A "10" document, which also stored the d
column, the constants and bound_rhs, is refused, as are older ones; Z must
be positive, as the product of positive z's is.  Keys the schema does not
name, such as a stale ``d`` column, ``constants`` or ``bound_rhs``, the
``a``, ``b`` and verdict columns of "8", a stray ``m`` or
``representations`` or the ``generated_at`` of older writers, are
ignored.

Every stored integer is written as ``hex(n)`` writes it ("0x1f", "-0x1f"),
and the parser accepts exactly that form or a JSON number.  Hex converts in
linear time both ways, where decimal costs quadratic time.  One loader,
load_json, reads all JSON text from outside the program, certificates and
the CLI's generator and point files: its numbers go through
numeric.read_decimal, which keeps the 4,300-digit bound that numeric.py
lifts for the package's own str().  The reader decides "exactly what
hex() writes" by its definition: int(s, 16), accepted iff hex() writes the
value back unchanged.  _as_int is that rule for one value and _as_ints
for a column: one C-level pass of int(s, 16) and one of hex(), falling
back to _as_int element by element, which names the first refused one.
The reader checks every column's length (r per entry for ``index``, one per
entry for the rest, the entries counted by ``z``) before it converts any,
and builds the records with C-level maps, so no Python function runs per
entry.  There is no stored check map and no stored verdict:
verify_certificate parses the document into a Certificate, re-derives
everything from the generators alone and compares, proves the identity
x^3 + y^3 = m from the lattice without forming m or a representation (see
construct.evaluate_checks), and returns the parsed Certificate with those
fresh checks.

The writer produces exactly the bytes of
``json.dumps(doc, separators=(",", ":"))`` plus a newline: one line, no
whitespace, built as one string without ``doc`` whole.  The header, every
key but ``lattice_points``, goes through json.dumps.  Each lattice column
is one join (``'","'.join(map(hex, column))`` for the integers) filled into
a fixed template, because a hex() string needs no JSON escaping, while
json.dumps scans every string for escapes even in its C encoder.  A
schema-"11" document is tens of kilobytes, so write_certificate writes that
one string.  The reader is json.loads, so any whitespace and key order
parse the same: an indented document verifies to the same checks, and
``python -m json.tool`` pretty-prints one.
"""

from __future__ import annotations

import json
from itertools import chain, repeat

from .construct import (
    Certificate,
    _columns,
    checked_box_size,
    checked_tol,
    finite_float,
    verify_checks,
)
from .curves import CubicPoint, CurveConfig
from .numeric import ApproxReal, read_decimal

SCHEMA_VERSION = "11"


class CertificateFormatError(Exception):
    """The document is not a structurally valid certificate."""


def _interval_to_json(a: ApproxReal) -> dict:
    return {"value": a.value, "radius": a.radius}


# the slot the header leaves for the lattice: the key's quotes cannot occur
# unescaped inside a JSON string, so it occurs exactly once
_LATTICE_SLOT = '"lattice_points":{}'

# the lattice's columns in document order: index holds r JSON integers per
# entry, x, y and z one hex() string each; every %s is filled by one join,
# and nothing in it needs escaping
_LATTICE_COLUMNS = ("index", "x", "y", "z")
_LATTICE_TEMPLATE = '"lattice_points":{"index":[%s],"x":%s,"y":%s,"z":%s}'


def _hex_array(ints) -> str:
    # a hex() string needs no JSON escaping, so one join writes the array
    return '["%s"]' % '","'.join(map(hex, ints)) if ints else "[]"


def certificate_to_json(cert: Certificate) -> str:
    """The certificate document, byte for byte
    json.dumps(doc, separators=(",", ":")) plus a newline.

    The header, everything but the lattice, goes through json.dumps; the
    lattice is rendered column by column, each column in one join, with no
    escaping pass over its strings.
    """
    header = json.dumps(
        {
            "schema_version": SCHEMA_VERSION,
            "m0": hex(cert.m0),
            "r": cert.rank,
            "N": cert.box_size,
            "tol": cert.tol,
            "generators": [
                [hex(p.x), hex(p.y), hex(p.z)] for p in cert.generators
            ],
            "hhat_bar": _interval_to_json(cert.hhat_bar),
            "lattice_points": {},
            "Z": hex(cert.Z),
        },
        separators=(",", ":"),
    )
    head, _, tail = header.partition(_LATTICE_SLOT)
    indices, points = _columns(cert.lattice_points, 2)
    lattice = _LATTICE_TEMPLATE % (
        ",".join(map(str, chain.from_iterable(indices))),
        *map(_hex_array, _columns(points, 3)),
    )
    return f"{head}{lattice}{tail}\n"


def write_certificate(cert: Certificate, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(certificate_to_json(cert))


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


def _as_triple(value, what: str) -> CubicPoint:
    x, y, z = _as_list(value, what, 3)
    return CubicPoint(_as_int(x, what), _as_int(y, what), _as_int(z, what))


def _as_ints(values: list, what: str) -> list:
    """A column of integers, each read by the one rule of _as_int.

    A column of exact ints is copied as it is, so the parsed certificate
    shares no list with the document; otherwise one C-level pass reads
    every element as exactly what hex() writes.  If that pass
    refuses anything, _as_int reads the column element by element, which
    also accepts JSON numbers and names the first element it refuses.
    """
    if set(map(type, values)) <= {int}:
        return list(values)
    try:
        ints = list(map(int, values, repeat(16)))
    except (TypeError, ValueError):
        pass
    else:
        if list(map(hex, ints)) == values:
            return ints
    return [_as_int(v, what) for v in values]


_REQUIRED_KEYS = frozenset((
    "schema_version", "m0", "r", "N", "tol", "generators", "hhat_bar",
    "lattice_points", "Z",
))
_LATTICE_KEYS = frozenset(_LATTICE_COLUMNS)


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
    # the version first, so that an older document is refused as such and
    # not by a key its schema did not have
    data = _as_record(data, "certificate", frozenset(("schema_version",)))
    if data["schema_version"] != SCHEMA_VERSION:
        raise _fail(
            f"unsupported schema_version {repr(data['schema_version'])[:40]}: "
            f'this reader takes "{SCHEMA_VERSION}"; rebuild the document with '
            "cubeforge construct"
        )
    data = _as_record(data, "certificate", _REQUIRED_KEYS)

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

    # every column's length is checked before any is converted, and each
    # is then read in one pass: the records are built by C-level maps, with
    # no Python call per entry
    columns = _as_record(
        data["lattice_points"], "lattice_points", _LATTICE_KEYS
    )
    count = len(_as_list(columns["z"], "lattice z"))
    for key in _LATTICE_COLUMNS:
        length = rank * count if key == "index" else count
        _as_list(columns[key], f"lattice {key}", length)
    index = _as_ints(columns["index"], "lattice index")
    x, y, z = (_as_ints(columns[key], "lattice point") for key in "xyz")
    lattice_points = list(
        zip(
            zip(*[iter(index)] * rank),
            map(tuple.__new__, repeat(CubicPoint), zip(x, y, z)),
        )
    )

    z_total = _as_int(data["Z"], "Z")
    if z_total <= 0:
        raise _fail("Z must be positive")

    return Certificate(
        m0=m0,
        rank=rank,
        box_size=box_size,
        tol=tol,
        generators=generators,
        hhat_bar=_as_interval(data["hhat_bar"], "hhat_bar"),
        lattice_points=lattice_points,
        Z=z_total,
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
