"""The schema "9" document, kept as a reference rendering for the tests.

Schema "9" stored m = m0 Z^3 under "m", where "10" stored Z under "Z" in
the same place, and enclosed the log m of bound_rhs as log_abs(m), where
"10" read log |m0| + 3 log Z.  schema9_doc puts both back into the "10"
document of tests/schema10_reference.py, so the hashes and lengths pinned
on "9" documents still pin m, every triple and every other stored value.
"""

import json

from cubeforge import ApproxReal, density_constant, log_abs
from tests.schema10_reference import interval, schema10_doc


def _bound_rhs_from_m(cert) -> dict:
    """bound_rhs as "9" derived it, from log_abs(m)."""
    m = cert.m
    if abs(m) == 1:
        bound = ApproxReal(0.0, 0.0)
    else:
        scale = density_constant(
            cert.rank, ApproxReal.exact(cert.hhat_bar.upper())
        )
        bound = scale * log_abs(m).pow_ratio(cert.rank, cert.rank + 2)
    return interval(bound)


def schema9_doc(cert) -> dict:
    """cert as the schema "9" writer wrote it, as a dict in key order."""
    doc = schema10_doc(cert)
    # "m" takes Z's place in the key order; update keeps every key's place
    doc = {("m" if key == "Z" else key): value for key, value in doc.items()}
    doc.update(
        schema_version="9", m=hex(cert.m), bound_rhs=_bound_rhs_from_m(cert)
    )
    return doc


def schema9_json(cert) -> str:
    """cert as the schema "9" writer wrote it, byte for byte."""
    return json.dumps(schema9_doc(cert), separators=(",", ":")) + "\n"
