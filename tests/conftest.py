import json
from contextlib import contextmanager
from functools import lru_cache

import pytest

from cubeforge import CubicPoint, CurveConfig, build_certificate, certificate_to_json
from cubeforge.construct import index_set
from cubeforge.heights import independence

# the 4,253-bit Mersenne prime 2^4253 - 1: a factor that inflates a
# divisor d past both of the paper's divisor lemmas
M4253 = 2**4253 - 1

# rank-1 curves with a known small generator, one per m0
KNOWN_GENERATORS = {
    6: CubicPoint(17, 37, 21),
    7: CubicPoint(2, -1, 1),
    9: CubicPoint(1, 2, 1),
}


def pool_draws(pair):
    """The four draws perfbench/run.py's blocks() makes of a generator pair:
    both orders, each as given and with every (x, y, z) negated to (y, x, z)."""
    for ordered in (list(pair), list(pair)[::-1]):
        yield ordered
        yield [(y, x, z) for x, y, z in ordered]


def line(box_size):
    """The rank-1 index set [1..N], as the index tuples the lattice takes."""
    return [(n,) for n in range(1, box_size + 1)]


def chosen_indices(cfg, generators, box_size, tol=1e-3):
    """The index set build_certificate chooses for these generators."""
    gram, _ = independence(cfg, list(generators), tol)
    return index_set(gram, box_size)


# the stored index that replaces the last of [0, 1], [1, -1], [1, 0], [1, 1]
# in the m0=91 pool document at N=2, for each way to fail the verifier's
# index screen; None drops the entry, leaving N^r - 1
SCREEN_TAMPERS = {
    "zero": [0, 0],
    "pair": [-1, 1],
    "beyond-N": [3, 1],
    "repeated": [1, 0],
    "short": None,
    "256-hex-digits": [hex(16**255), 1],
}


@lru_cache(maxsize=1)
def _pool_document_n2() -> str:
    cert = build_certificate(
        CurveConfig(91), [CubicPoint(-5, 6, 1), CubicPoint(3, 4, 1)], 2
    )
    return certificate_to_json(cert)


@contextmanager
def lattice_entries(doc: dict):
    """The lattice columns of a certificate document as one mutable record
    per entry, {"index": [r ints], "point": [x, y, z]}, written back
    as columns on exit.

    A tamper addresses one entry, as a per-entry layout would: change a
    field, drop or repeat an entry, or replace the list.  r is read from
    the columns, so the document's r may be changed first.
    """
    columns = doc["lattice_points"]
    rank = len(columns["index"]) // max(len(columns["z"]), 1)
    entries = [
        {
            "index": columns["index"][k * rank:(k + 1) * rank],
            "point": [columns[key][k] for key in "xyz"],
        }
        for k in range(len(columns["z"]))
    ]
    yield entries
    columns["index"] = [n for entry in entries for n in entry["index"]]
    for i, key in enumerate("xyz"):
        columns[key] = [entry["point"][i] for entry in entries]


def screen_tampered(name) -> dict:
    """The m0=91, N=2 document with SCREEN_TAMPERS[name] applied."""
    doc = json.loads(_pool_document_n2())
    with lattice_entries(doc) as lattice:
        assert [e["index"] for e in lattice] == [
            [0, 1], [1, -1], [1, 0], [1, 1]
        ]
        if SCREEN_TAMPERS[name] is None:
            del lattice[-1]
        else:
            lattice[-1]["index"] = SCREEN_TAMPERS[name]
    return doc


def representation_repeated() -> dict:
    """The m0=91, N=2 document with its last lattice triple replaced by its
    first: N^r entries, which expand to only N^r - 1 distinct
    representations."""
    doc = json.loads(_pool_document_n2())
    with lattice_entries(doc) as lattice:
        lattice[-1]["point"] = lattice[0]["point"]
    return doc


@pytest.fixture(scope="session")
def cfg6():
    return CurveConfig(6)


@pytest.fixture(scope="session")
def cfg7():
    return CurveConfig(7)


@pytest.fixture(scope="session")
def cfg9():
    return CurveConfig(9)


@pytest.fixture(scope="session")
def cfg1():
    return CurveConfig(1)


@pytest.fixture(scope="session")
def gen6():
    return KNOWN_GENERATORS[6]


@pytest.fixture(scope="session")
def gen7():
    return KNOWN_GENERATORS[7]
