"""The schema "7" and "8" layouts, kept as reference renderings for the tests.

Schema "7" stored the lattice as one object per entry, and schema "8" the
same values as columns; schema "9" keeps of each divisor record only d.
Both older layouts also stored the cofactors a = 12 m0 z / d and
b = (x + y) / d and the two verdicts, which divisor_record spells out from
the entry's triple and d.  schema7_json renders a Certificate in the "7"
layout, with the header of the "9" writer (tests/schema9_reference.py)
and the d's of tests/schema10_reference.py, so the hashes and lengths
pinned on "7" documents still pin m, every triple and every divisor
record.
"""

import json

from tests.schema10_reference import divisors
from tests.schema9_reference import schema9_doc


def divisor_record(m0: int, q, d: int) -> dict:
    """The "7" and "8" divisor record of the triple q with gcd d."""
    b = (q.x + q.y) // d
    return {
        "d": hex(d),
        "a": hex(12 * m0 * q.z // d),
        "b": hex(b),
        "divisibility_pass": (3 * 12**3 * m0**2 * b) % d**2 == 0,
        "bound_pass": d**6 < 9 * 12**6 * abs(m0) ** 15 * q.z**3,
    }


def _records(cert) -> list:
    return [
        divisor_record(cert.m0, q, d)
        for (_, q), d in zip(cert.lattice_points, divisors(cert))
    ]


def schema7_json(cert) -> str:
    """cert as the schema "7" writer wrote it, byte for byte."""
    doc = schema9_doc(cert)
    doc["schema_version"] = "7"
    doc["lattice_points"] = [
        {
            "index": list(idx),
            "point": [hex(q.x), hex(q.y), hex(q.z)],
            "divisor": record,
        }
        for (idx, q), record in zip(cert.lattice_points, _records(cert))
    ]
    return json.dumps(doc, separators=(",", ":")) + "\n"


def schema8_doc(cert) -> dict:
    """cert as a schema "8" document: the "9" columns followed by a, b and
    both verdicts, one column each."""
    doc = schema9_doc(cert)
    doc["schema_version"] = "8"
    records = _records(cert)
    for key in ("a", "b", "divisibility_pass", "bound_pass"):
        doc["lattice_points"][key] = [record[key] for record in records]
    return doc
