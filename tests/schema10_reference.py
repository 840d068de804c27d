"""The schema "10" document, kept as a reference rendering for the tests.

Schema "10" stored three things beside what "11" stores, each a function
of the stored inputs, hhat_bar and lattice: a ``d`` column, the divisor
record d = gcd(12 m0 z, x + y) of each triple; the ``constants`` object of
the chain; and ``bound_rhs``, the representation bound.  schema10_doc
computes all three from a "11" Certificate with the formulas of the "10"
writer, so the hashes and lengths pinned on "10" documents still pin m0,
every triple, hhat_bar and Z.
"""

import json
import math

from cubeforge import (
    ApproxReal,
    CurveConfig,
    certificate_to_json,
    density_constant,
    minimal_box_size,
    z_size_constant,
)
from cubeforge.construct import height_factor, log_m, m_factor, z_factor


def divisors(cert) -> list[int]:
    """d = gcd(12 m0 z, x + y) of each lattice point, in order."""
    return [
        math.gcd(12 * cert.m0 * q.z, q.x + q.y) for _, q in cert.lattice_points
    ]


def representation_bound(
    rank: int, hhat_upper: float, m0: int, z_total: int
) -> ApproxReal:
    """(K2 * hhat)^(-r/(r+2)) * (log m)^(r/(r+2)) for m = m0 Z^3, from the
    height's upper end and log_m: the bound_rhs "10" stored."""
    if abs(m0) == 1 and z_total == 1:
        return ApproxReal(0.0, 0.0)
    scale = density_constant(rank, ApproxReal.exact(hhat_upper))
    return scale * log_m(m0, z_total).pow_ratio(rank, rank + 2)


def interval(a: ApproxReal) -> dict:
    return {"value": a.value, "radius": a.radius}


def schema10_doc(cert) -> dict:
    """cert as the schema "10" writer wrote it, as a dict in key order: the
    constants before the lattice, d after z, and bound_rhs last."""
    z_constant = z_size_constant(CurveConfig(cert.m0))
    constants = {
        "height_factor": hex(height_factor(cert.rank)),
        "z_factor": hex(z_factor(cert.rank)),
        "m_factor": hex(m_factor(cert.rank)),
        "z_constant": interval(z_constant),
        "n_min": minimal_box_size(z_constant, cert.hhat_bar),
    }
    doc = {}
    for key, value in json.loads(certificate_to_json(cert)).items():
        if key == "lattice_points":
            doc["constants"] = constants
            value["d"] = list(map(hex, divisors(cert)))
        doc[key] = value
    bound = representation_bound(
        cert.rank, cert.hhat_bar.upper(), cert.m0, cert.Z
    )
    doc.update(schema_version="10", bound_rhs=interval(bound))
    return doc


def schema10_json(cert) -> str:
    """cert as the schema "10" writer wrote it, byte for byte."""
    return json.dumps(schema10_doc(cert), separators=(",", ":")) + "\n"
