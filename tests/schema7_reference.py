"""The schema "7" layout, kept as a reference rendering for the tests.

Schema "7" stored the lattice as one object per entry; schema "8" stores
the same values as columns.  schema7_json renders a Certificate in the old
layout, with the header of today's writer, so the hashes and lengths pinned
on "7" documents still pin m, every triple and every divisor record.
"""

import json

from cubeforge import certificate_to_json


def schema7_json(cert) -> str:
    """cert as the schema "7" writer wrote it, byte for byte."""
    doc = json.loads(certificate_to_json(cert))
    doc["schema_version"] = "7"
    doc["lattice_points"] = [
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
    ]
    return json.dumps(doc, separators=(",", ":")) + "\n"
