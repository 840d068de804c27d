"""Certificate serialization, determinism, and adversarial verification."""

import copy
import hashlib
import json
import math
import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubeforge import (
    Certificate,
    CertificateFormatError,
    CubicPoint,
    CurveConfig,
    PrecisionBudgetError,
    build_certificate,
    certificate_to_json,
    parse_certificate,
    verify_certificate,
    write_certificate,
)
from cubeforge import construct
from cubeforge.cli import main
from cubeforge import certificate
from cubeforge.certificate import _as_int, _as_ints
from cubeforge.construct import (
    CHECK_NAMES,
    _generator_checks,
    derive_lattice,
    evaluate_checks,
    minimal_box_size,
    z_size_constant,
)
from cubeforge.heights import independence
from tests.conftest import (
    M4253,
    SCREEN_TAMPERS,
    lattice_entries,
    line,
    representation_repeated,
    screen_tampered,
)
from tests.schema7_reference import schema7_json, schema8_doc
from tests.schema9_reference import schema9_doc, schema9_json
from tests.schema10_reference import schema10_doc, schema10_json

# sha256 of the m0=6, (17, 37, 21), N=4 certificate: a change to how the
# certificate is derived must not change a byte of it.  Schema "4" is the
# schema "3" document without its "checks" key and with schema_version "4",
# re-dumped with json.dumps(indent=2) plus a newline.  The local-height
# engine changed the hhat_bar and bound_rhs floats only.  The document has
# no "generated_at" line: it holds nothing the run did not determine.
# Schemas "5" and "6" change only the index set at rank 2 and up (rank 1
# is [1..N] in all three), and "7" drops the stored representations, so
# the rank-1 document with its expanded pairs put back is the schema "4"
# one.  Schema "4" documents were written with indent=2 and the writer is
# compact, so GOLDEN_SHA256_SCHEMA_4 pins that document re-dumped with
# indent=2 and schema_version set back to "4".  Schema "8" stores the
# lattice as columns, and "9" keeps of each divisor record only d:
# GOLDEN_SHA256 pins the document rendered in the "7" layout
# (tests/schema7_reference.py), which spells out a, b and both verdicts
# from each triple and d, so m, every triple and every divisor record are
# pinned across both changes.  Schema "10" stored Z where "9" stored
# m = m0 Z^3: GOLDEN_SHA256_SCHEMA_9 pins the document rendered in the "9"
# layout (tests/schema9_reference.py), which puts m back.  Schema "11"
# drops the d column, the constants and bound_rhs, which verify derives:
# GOLDEN_SHA256_SCHEMA_10 pins the document rendered in the "10" layout
# (tests/schema10_reference.py), which computes the three and puts them
# back, and GOLDEN_SHA256_SCHEMA_11 pins the document itself.
GOLDEN_SHA256_SCHEMA_4 = (
    "b034543eb2abff9d100dc85ee4740eea87f3bdf0279518685f5ad8005bdec88d"
)
GOLDEN_SHA256 = "840e74111a83bd2db28e20216b59d0789de905806fbd371264c282f2a9c8e913"
GOLDEN_SHA256_SCHEMA_9 = (
    "b782797d608201231b721b982799c71f39129719194e56976b3fdb1a6989e99f"
)
GOLDEN_SHA256_SCHEMA_10 = (
    "17d0afff38b251f30082cbd03c06c454e1cdbaa289e4056bf0d07b3f6b196894"
)
GOLDEN_SHA256_SCHEMA_11 = (
    "ebcdc6fc7ede5e56af7931d51347f081d8ee709bef3fbef91c72771e2e1f7f3a"
)


def certificate_to_dict(cert):
    """The document as a mutable dict, for tampering and fuzzing."""
    return json.loads(certificate_to_json(cert))


@pytest.fixture(scope="module")
def cert6(cfg6, gen6):
    return build_certificate(cfg6, [gen6], 2)


@pytest.fixture(scope="module")
def cert6_doc(cert6):
    return certificate_to_dict(cert6)


class TestSerialization:
    def test_big_ints_as_strings(self, cert6_doc):
        # Z = 20171340 and m = 6 Z^3 = 49244246842992972624000
        assert cert6_doc["Z"] == hex(20171340)
        assert cert6_doc["Z"] == "0x133ca4c"
        assert cert6_doc["m0"] == "0x6"
        assert cert6_doc["generators"] == [["0x11", "0x25", "0x15"]]
        with lattice_entries(copy.deepcopy(cert6_doc)) as entries:
            assert entries[1]["point"] == [
                hex(2237723), "-0x1b8d9b", hex(960540)
            ]

    def test_schema_fields_present(self, cert6_doc):
        expected = {
            "schema_version",
            "m0",
            "r",
            "N",
            "tol",
            "generators",
            "hhat_bar",
            "lattice_points",
            "Z",
        }
        # no stored check map, no stored representations and nothing else
        # verify derives: it derives every verdict, d, constant and bound
        # afresh, and a consumer expands the pairs
        assert list(cert6_doc) == [
            "schema_version", "m0", "r", "N", "tol", "generators", "hhat_bar",
            "lattice_points", "Z",
        ]
        assert set(cert6_doc) == expected
        assert cert6_doc["schema_version"] == "11"
        # the lattice is named columns, one element per entry (r for index)
        assert list(cert6_doc["lattice_points"]) == ["index", "x", "y", "z"]

    def test_divisor_record_is_exact(self, cfg6, cert6_doc):
        # a divisor record is its gcd d, which the document does not store:
        # it is an exact int read off each stored triple
        parsed = parse_certificate(cert6_doc)
        points = [q for _, q in parsed.lattice_points]
        assert "d" not in cert6_doc["lattice_points"]
        assert construct.divisor_records(cfg6, points) == [
            math.gcd(12 * 6 * q.z, q.x + q.y) for q in points
        ]

    def test_deterministic_bytes(self, cert6, monkeypatch):
        # no timestamp: the environment cannot change a byte of the document
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1755129600")
        first = certificate_to_json(cert6)
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        second = certificate_to_json(cert6)
        assert first == second
        assert "generated_at" not in json.loads(first)

    def test_golden_bytes(self, cfg6, gen6):
        cert = build_certificate(cfg6, [gen6], 4)
        text = certificate_to_json(cert)
        assert (
            hashlib.sha256(text.encode("utf-8")).hexdigest()
            == GOLDEN_SHA256_SCHEMA_11
        )
        _assert_json_fixed_point(text)
        assert cert.m == 6 * cert.Z**3
        as_schema_10 = schema10_json(cert)
        assert (
            hashlib.sha256(as_schema_10.encode("utf-8")).hexdigest()
            == GOLDEN_SHA256_SCHEMA_10
        )
        as_schema_9 = schema9_json(cert)
        assert (
            hashlib.sha256(as_schema_9.encode("utf-8")).hexdigest()
            == GOLDEN_SHA256_SCHEMA_9
        )
        as_schema_7 = schema7_json(cert)
        assert (
            hashlib.sha256(as_schema_7.encode("utf-8")).hexdigest()
            == GOLDEN_SHA256
        )
        # the pairs expanded on demand are the ones schema "4" stored,
        # between m and bound_rhs, beside the per-entry lattice objects
        doc = json.loads(as_schema_7)
        pairs = parse_certificate(text).representations
        doc = {
            **{k: v for k, v in doc.items() if k != "bound_rhs"},
            "schema_version": "4",
            "representations": [[hex(x), hex(y)] for x, y in pairs],
            "bound_rhs": doc["bound_rhs"],
        }
        as_schema_4 = (json.dumps(doc, indent=2) + "\n").encode("utf-8")
        assert hashlib.sha256(as_schema_4).hexdigest() == GOLDEN_SHA256_SCHEMA_4

    def test_round_trip(self, cert6):
        parsed = parse_certificate(certificate_to_json(cert6))
        assert parsed.m0 == cert6.m0
        assert parsed.box_size == cert6.box_size
        assert parsed.generators == cert6.generators
        assert parsed.lattice_points == cert6.lattice_points
        assert parsed.Z == cert6.Z
        assert parsed.m == cert6.m
        assert parsed.representations == cert6.representations
        assert parsed.hhat_bar == cert6.hhat_bar
        # the document stores no checks, so a parsed certificate has none
        assert list(cert6.checks) == list(CHECK_NAMES)
        assert parsed.checks == {}

    def test_write_certificate(self, cert6, tmp_path):
        path = tmp_path / "cert.json"
        write_certificate(cert6, str(path))
        assert path.read_bytes() == certificate_to_json(cert6).encode("utf-8")
        assert parse_certificate(path.read_text()).m == cert6.m


def _assert_json_fixed_point(text):
    # the writer renders the large arrays itself; json must agree on every byte
    assert json.dumps(json.loads(text), separators=(",", ":")) + "\n" == text


# the benchmark's certificate inputs (both curves at both workload sizes,
# both generator orders, every generator plain or negated, (x, y) -> (y, x)),
# one-element arrays at rank 1, N=1, and the rank-3 set at N=4
_POOL = {91: ((-5, 6, 1), (3, 4, 1)), 1729: ((1, 12, 1), (9, 10, 1))}
_WRITER_CASES = [
    pytest.param(m0, gens, box_size, tol, id=f"{m0}-N{box_size}-{order}-{sign}")
    for m0, pair in _POOL.items()
    for box_size, tol in ((12, 1e-3), (8, 1e-4))
    for order, ordered in (("P1P2", pair), ("P2P1", pair[::-1]))
    for sign, gens in (
        ("plain", ordered),
        ("negated", tuple((y, x, z) for x, y, z in ordered)),
    )
] + [
    pytest.param(6, ((17, 37, 21),), 1, 1e-3, id="rank1-N1"),
    pytest.param(
        657, ((-7, 10, 1), (7, 17, 2), (-2890, 2971, 147)), 4, 1e-3, id="rank3-N4"
    ),
]


def _document_for(m0, generators, box_size, tol=1e-3):
    cert = build_certificate(
        CurveConfig(m0), [CubicPoint(*g) for g in generators], box_size, tol
    )
    return certificate_to_json(cert)


class TestTemplateWriter:
    @pytest.mark.parametrize("m0, generators, box_size, tol", _WRITER_CASES)
    def test_json_fixed_point(self, m0, generators, box_size, tol):
        _assert_json_fixed_point(_document_for(m0, generators, box_size, tol))

    def test_empty_arrays(self, cert6):
        # build never writes one, but a parsed document may hold no lattice
        empty = cert6._replace(lattice_points=[])
        text = certificate_to_json(empty)
        assert '"lattice_points":{"index":[],"x":[],"y":[],"z":[]},' in text
        assert parse_certificate(text) == empty._replace(checks={})
        assert empty.representations == []
        _assert_json_fixed_point(text)

    def test_escaped_strings_do_not_grow_with_the_box(self, monkeypatch):
        # json escapes only the header's strings; the N^r entries of the
        # large arrays never pass through its string encoder
        escaped = []
        for name in (
            "encode_basestring_ascii",
            "py_encode_basestring_ascii",
            "encode_basestring",
        ):
            original = getattr(json.encoder, name)

            def counted(s, _original=original):
                escaped.append(s)
                return _original(s)

            monkeypatch.setattr(json.encoder, name, counted)
        counts = []
        for box_size in (2, 6):
            escaped.clear()
            _document_for(91, _POOL[91], box_size)
            counts.append(len(escaped))
        assert counts[0] == counts[1] > 0

    def test_int_reads_do_not_grow_with_the_box(self, monkeypatch):
        # the reader calls _as_int for the header's fields only; the N^r
        # entries are read a column at a time
        calls = []

        def counted(value, what, _original=certificate._as_int):
            calls.append(what)
            return _original(value, what)

        monkeypatch.setattr(certificate, "_as_int", counted)
        counts = []
        for box_size in (2, 6):
            text = _document_for(91, _POOL[91], box_size)
            calls.clear()
            parse_certificate(text)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


# the pool pairs at both cert workloads, the rank-3 set, and the rank-4
# m0=152551 set at N=3
_ROUND_TRIP_CASES = [
    pytest.param(m0, pair, box_size, tol, id=f"{m0}-N{box_size}")
    for m0, pair in _POOL.items()
    for box_size, tol in ((12, 1e-3), (8, 1e-4))
] + [
    pytest.param(
        657, ((-7, 10, 1), (7, 17, 2), (-2890, 2971, 147)), 4, 1e-3,
        id="rank3-N4",
    ),
    pytest.param(
        152551,
        ((54, -17, 1), (55, -24, 1), (226, -225, 1), (705, -668, 7)),
        3,
        1e-3,
        id="rank4-N3",
    ),
]


def _column_doc():
    """The m0=91, N=2 document as a dict: r = 2 and E = 4 entries."""
    return copy.deepcopy(_FUZZ_DOC_RANK_2)


# elements a lattice column may hold: what hex() writes, JSON numbers, the
# forms int(s, 16) reads but hex() never writes, and non-integers
_COLUMN_ELEMENTS = st.one_of(
    st.integers().map(hex),
    st.integers(),
    st.from_regex(r"[+-]?0[xX]0?[0-9a-fA-F_]{0,6}\s?", fullmatch=True),
    st.booleans(),
    st.floats(),
    st.none(),
)


class TestColumnReader:
    @pytest.mark.parametrize("m0, generators, box_size, tol", _ROUND_TRIP_CASES)
    def test_round_trip(self, m0, generators, box_size, tol):
        cert = build_certificate(
            CurveConfig(m0), [CubicPoint(*g) for g in generators], box_size, tol
        )
        assert parse_certificate(certificate_to_json(cert)) == cert._replace(
            checks={}
        )

    @pytest.mark.parametrize(
        "key, change, message",
        [
            ("x", lambda column: column[:-1], "lattice x must have 4 elements"),
            ("y", lambda column: column + ["0x1"],
             "lattice y must have 4 elements"),
            # r·E is 8: one entry's index short, or an index of length 3
            ("index", lambda column: column[:-1],
             "lattice index must have 8 elements"),
            ("index", lambda column: [*column, 1],
             "lattice index must have 8 elements"),
            # E is z's length, so every column before z is one too long
            ("z", lambda column: column[:-1],
             "lattice index must have 6 elements"),
        ],
        ids=["x-short", "y-long", "index-short", "index-long", "z-short"],
    )
    def test_column_lengths_are_named(self, key, change, message):
        doc = _column_doc()
        lattice = doc["lattice_points"]
        lattice[key] = change(lattice[key])
        with pytest.raises(CertificateFormatError, match=re.escape(message)):
            parse_certificate(doc)

    def test_lengths_are_checked_before_any_conversion(self, monkeypatch):
        # a bad element in an early column does not mask a length mismatch
        # in a later one, and no column is converted before the mismatch
        doc = _column_doc()
        doc["lattice_points"]["x"][0] = "0x01"
        doc["lattice_points"]["y"].pop()

        def refuse(*args):
            raise AssertionError("a column was converted")

        monkeypatch.setattr(certificate, "_as_ints", refuse)
        with pytest.raises(CertificateFormatError,
                           match="lattice y must have 4 elements"):
            parse_certificate(doc)

    def test_column_that_is_no_array_is_named(self):
        doc = _column_doc()
        doc["lattice_points"]["y"] = {"0": "0x1"}
        with pytest.raises(CertificateFormatError,
                           match="lattice y must be an array"):
            parse_certificate(doc)

    def test_long_column_costs_only_its_length(self):
        # a 10^6-entry y beside a 4-entry z is refused by its length alone
        doc = _column_doc()
        doc["lattice_points"]["y"] = ["0x1"] * 10**6
        start = time.perf_counter()
        with pytest.raises(CertificateFormatError,
                           match="lattice y must have 4 elements"):
            parse_certificate(doc)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("entry", range(4))
    def test_bad_hex_is_named_at_every_entry(self, entry):
        doc = _column_doc()
        doc["lattice_points"]["y"][entry] = "0x01"
        with pytest.raises(CertificateFormatError,
                           match=re.escape("lattice point is not a hex() string")):
            parse_certificate(doc)

    @pytest.mark.parametrize("entry", range(8))
    def test_bool_in_index_is_named(self, entry):
        doc = _column_doc()
        doc["lattice_points"]["index"][entry] = True
        with pytest.raises(CertificateFormatError,
                           match="lattice index must be an integer"):
            parse_certificate(doc)

    @pytest.mark.parametrize("entry", range(4))
    def test_json_number_in_x_is_accepted(self, entry):
        doc = _column_doc()
        clean = parse_certificate(json.dumps(doc))
        x = doc["lattice_points"]["x"]
        x[entry] = int(x[entry], 16)
        text = json.dumps(doc)
        assert type(json.loads(text)["lattice_points"]["x"][entry]) is int
        assert parse_certificate(text) == clean

    def test_parsed_divisors_do_not_alias_the_document(self):
        # a d column, as "10" stored it, is a key "11" does not name: the
        # parsed certificate holds no divisors, so no edit of the
        # document's d reaches it
        doc = _column_doc()
        d = doc["lattice_points"]["d"] = [1, 2, 3, 4]
        parsed = parse_certificate(doc)
        assert "divisors" not in parsed._fields
        d[0] += 1
        assert parsed == parse_certificate(_column_doc())

    @settings(max_examples=500)
    @given(
        values=st.one_of(
            st.lists(st.integers().map(hex), max_size=8),
            st.lists(st.integers(), max_size=8),
            st.lists(_COLUMN_ELEMENTS, max_size=8),
        )
    )
    def test_one_rule_for_a_column(self, values):
        # _as_ints reads a column exactly as _as_int reads its elements, and
        # refuses one with _as_int's message for the first element refused
        try:
            expected = [_as_int(v, "column") for v in values]
        except CertificateFormatError as exc:
            with pytest.raises(CertificateFormatError) as refused:
                _as_ints(values, "column")
            assert str(refused.value) == str(exc)
        else:
            got = _as_ints(values, "column")
            assert got == expected
            assert [type(n) for n in got] == [int] * len(values)


class TestVerification:
    def test_verify_built_certificate(self, cert6):
        report = verify_certificate(certificate_to_json(cert6))
        assert report.checks == cert6.checks
        assert not report.all_checks_pass  # box below threshold by design
        assert report.checks["representation_identity"]
        assert not report.checks["theorem_preconditions"]

    def test_verify_full_pass(self, cfg6, gen6):
        cert = build_certificate(cfg6, [gen6], 4)
        report = verify_certificate(certificate_to_json(cert))
        assert report.all_checks_pass

    def test_stored_booleans_ignored(self, cert6_doc):
        # a forged all-true check map is a key the schema does not name
        doc = copy.deepcopy(cert6_doc)
        doc["checks"] = {name: True for name in CHECK_NAMES}
        report = verify_certificate(json.dumps(doc))
        assert not report.checks["theorem_preconditions"]
        assert report.checks == verify_certificate(cert6_doc).checks

    def test_tampered_m(self, cert6_doc):
        # m is m0 Z^3 of the stored Z, so a wrong Z is a wrong m
        doc = copy.deepcopy(cert6_doc)
        doc["Z"] = hex(int(doc["Z"], 16) + 18)
        report = verify_certificate(doc)
        assert not report.checks["m_matches_product"]
        assert not report.checks["representation_identity"]
        assert not report.all_checks_pass

    def test_tampered_representation(self, cert6_doc):
        # the first representation is (Z/z_1)(x_1, y_1), so a wrong y_1 in
        # the stored triple it expands from is a wrong representation
        doc = copy.deepcopy(cert6_doc)
        with lattice_entries(doc) as entries:
            entries[0]["point"][1] = hex(38)
        report = verify_certificate(doc)
        assert report.checks["m_matches_product"]
        assert not report.checks["representations_match_formula"]
        assert not report.checks["representation_identity"]

    def test_tampered_lattice_point(self, cert6_doc):
        doc = copy.deepcopy(cert6_doc)
        with lattice_entries(doc) as entries:
            entries[1]["point"][0] = hex(2237724)
        report = verify_certificate(doc)
        assert not report.checks["lattice_points_match"]

    def test_tampered_constants(self, cert6_doc):
        # the constants are functions of m0, r and hhat_bar, so a forged
        # constants object, as "10" stored it, is a key "11" does not name,
        # and a tampered hhat_bar is what fails constants_match
        doc = copy.deepcopy(cert6_doc)
        doc["constants"] = {"n_min": 1}
        report = verify_certificate(doc)
        assert report == verify_certificate(cert6_doc)
        # a forged n_min cannot flip the recomputed precondition outcome
        assert not report.checks["theorem_preconditions"]
        doc["hhat_bar"] = {"value": 99.0, "radius": 0.001}
        report = verify_certificate(doc)
        assert not report.checks["heights_match"]
        assert not report.checks["constants_match"]

    def test_tampered_divisor_record(self, cert6_doc):
        # each d is gcd(12 m0 z, x + y) of its triple, so a tampered triple
        # is a tampered divisor record
        doc = copy.deepcopy(cert6_doc)
        with lattice_entries(doc) as entries:
            entries[0]["point"][1] = hex(38)
        report = verify_certificate(doc)
        assert not report.checks["lattice_points_match"]
        assert not report.checks["divisor_records_match"]

    def test_tampered_d_fails_only_its_match(self, cfg6, gen6):
        # the document stores no d, so a wrong d is a wrong triple: the
        # last one scaled by a 4,253-bit prime, whose d is inflated past
        # both lemmas.  The lemmas are decided on the derived triples, so
        # the comparison of the stored triple, and the checks that read
        # it, catch it alone
        cert = build_certificate(cfg6, [gen6], 4)
        doc = certificate_to_dict(cert)
        q = cert.lattice_points[-1][1]
        with lattice_entries(doc) as entries:
            entries[-1]["point"] = [hex(c * M4253) for c in q.triple()]
        report = verify_certificate(doc)
        assert list(report.checks) == list(CHECK_NAMES)
        failed = [name for name, ok in report.checks.items() if not ok]
        assert failed == [
            "lattice_points_match",
            "divisor_records_match",
            "representations_match_formula",
            "representation_identity",
        ]

    def test_tampered_height(self, cert6_doc):
        doc = copy.deepcopy(cert6_doc)
        doc["hhat_bar"] = {"value": 99.0, "radius": 0.001}
        report = verify_certificate(doc)
        assert not report.checks["heights_match"]

    def test_off_curve_generator(self, cert6_doc):
        doc = copy.deepcopy(cert6_doc)
        doc["generators"] = [[hex(17), hex(37), hex(22)]]
        report = verify_certificate(doc)
        assert not report.checks["generators_on_curve"]
        assert not report.all_checks_pass
        assert list(report.checks) == list(CHECK_NAMES)

    def test_dependent_generators_detected(self, cfg6, gen6, cert6_doc):
        # claim a rank-2 certificate built from P and 3P: its N=2 lattice,
        # P - 3P, P, 2P - 3P, 2P, has no collision and no identity, but
        # independence certification must fail
        from cubeforge.curves import CurveConfig
        from tests.group_reference import cubic_smul

        doc = copy.deepcopy(cert6_doc)
        double = cubic_smul(CurveConfig(6), 3, gen6)
        doc["r"] = 2
        doc["generators"] = [
            [hex(17), hex(37), hex(21)],
            [hex(double.x), hex(double.y), hex(double.z)],
        ]
        # N^r = 4 stored entries whose indices pass the index screen, so
        # the representation count holds
        with lattice_entries(doc) as entries:
            entries[:] = [
                {**entries[0], "index": index}
                for index in ([1, 0], [0, 1], [1, 1], [1, -1])
            ]
        report = verify_certificate(doc)
        assert report.checks["representation_count"]
        assert not report.checks["generators_independent"]
        assert not report.all_checks_pass
        assert list(report.checks) == list(CHECK_NAMES)

    def test_colliding_generators_end_early(self, gen6, cert6_doc, monkeypatch):
        # P and 2P at N=3: the 9 stored indices pass the screen, but (2,0)
        # and (0,1) both land on 2P, as (3,1) and (1,2) both land on 5P, so
        # generating the lattice raises, the lattice is never compared, and
        # every check from generators_independent on is false
        doc = copy.deepcopy(cert6_doc)
        doc["r"], doc["N"] = 2, 3
        doc["generators"] = [
            [hex(17), hex(37), hex(21)],
            [hex(2237723), hex(-1805723), hex(960540)],
        ]
        with lattice_entries(doc) as entries:
            entries[:] = [
                {**entries[0], "index": index}
                for index in (
                    [1, 0], [2, 0], [3, 0], [0, 1], [1, 1],
                    [1, 2], [3, 1], [1, -1], [2, 1],
                )
            ]
        raised = []
        generate = construct.generate_lattice_points

        def spy(*args):
            try:
                return generate(*args)
            except construct.GeneratorDependenceError as exc:
                raised.append(str(exc))
                raise

        monkeypatch.setattr(construct, "generate_lattice_points", spy)
        report = verify_certificate(doc)
        assert raised == [
            "generators not independent: combinations (2, 0) and (0, 1) collide"
        ]
        assert list(report.checks) == list(CHECK_NAMES)
        assert [name for name, ok in report.checks.items() if ok] == [
            "generators_on_curve",
            "generators_primitive",
            "generators_nontrivial",
        ]

    def test_torsion_generator_ends_early(self, cert6_doc):
        # (1, 0, 1) has height 0 on x^3 + y^3 = z^3: the lattice is checked,
        # but no chain constant exists, so the checks from constants_match
        # on are false
        doc = copy.deepcopy(cert6_doc)
        doc["m0"] = "0x1"
        doc["generators"] = [["0x1", "0x0", "0x1"]]
        report = verify_certificate(doc)
        assert list(report.checks) == list(CHECK_NAMES)
        assert report.checks["lattice_on_curve"]
        assert not report.checks["generators_independent"]
        tail = CHECK_NAMES[CHECK_NAMES.index("constants_match"):]
        assert not any(report.checks[name] for name in tail)

    @pytest.mark.parametrize("name", sorted(SCREEN_TAMPERS))
    def test_index_screen_fails_closed(self, name, monkeypatch):
        # a stored index set the chain bounds do not cover leaves every
        # check after the generators' false, and no height is computed
        doc = screen_tampered(name)
        calls = []
        monkeypatch.setattr(
            construct, "independence", lambda *args: calls.append(args)
        )
        report = verify_certificate(doc)
        assert calls == []
        assert list(report.checks) == list(CHECK_NAMES)
        assert [check for check, ok in report.checks.items() if ok] == [
            "generators_on_curve",
            "generators_primitive",
            "generators_nontrivial",
        ]

    def test_missing_representation_fails_only_what_it_touches(self):
        # a repeated triple leaves N^r - 1 distinct representations; the
        # lattice passes its screens, so everything is derived: the
        # generators stay independent, and besides N=2 < n_min only the
        # checks that read the stored triples fail
        report = verify_certificate(representation_repeated())
        assert list(report.checks) == list(CHECK_NAMES)
        assert {name for name, ok in report.checks.items() if not ok} == {
            "lattice_points_match",
            "divisor_records_match",
            "representations_match_formula",
            "representation_identity",
            "representations_distinct",
            "theorem_preconditions",
        }

    def test_padded_representations_cost_no_more_than_their_bytes(self):
        # a stray "representations" key, even 100,000 entries long, is a
        # key the schema does not name: it is read as JSON and ignored
        doc = copy.deepcopy(_FUZZ_DOC_RANK_2)
        clean = verify_certificate(doc)
        doc["representations"] = [["0x1", "-0x1"]] * 100_000
        text = json.dumps(doc)
        start = time.perf_counter()
        report = verify_certificate(text)
        assert time.perf_counter() - start < 0.5
        assert report.checks == clean.checks
        assert report == clean

    @pytest.mark.parametrize("box_size", [1, 3, 10**7])
    def test_box_size_is_screened_against_the_document(self, cert6_doc, box_size):
        # N^r must equal the stored lattice entry count before anything is
        # regenerated, so an inflated N costs nothing
        doc = copy.deepcopy(cert6_doc)
        doc["N"] = box_size
        start = time.perf_counter()
        report = verify_certificate(doc)
        assert time.perf_counter() - start < 2.0
        assert not report.checks["representation_count"]
        assert report.checks["generators_on_curve"]
        assert not report.all_checks_pass
        assert list(report.checks) == list(CHECK_NAMES)


# both benchmark curves at both cert workloads' (N, tol), a failing rank-1
# box below its minimal N, and the rank-3 set at its minimal N
_ONE_RECORD_CASES = [
    pytest.param(m0, pair, box_size, tol, True, id=f"{m0}-N{box_size}")
    for m0, pair in _POOL.items()
    for box_size, tol in ((12, 1e-3), (8, 1e-4))
] + [
    pytest.param(6, ((17, 37, 21),), 2, 1e-3, False, id="rank1-N2"),
    pytest.param(
        657,
        ((-7, 10, 1), (7, 17, 2), (-2890, 2971, 147)),
        4,
        1e-3,
        True,
        id="rank3-N4",
    ),
]


class TestOneRecord:
    @pytest.mark.parametrize(
        "m0, generators, box_size, tol, passes", _ONE_RECORD_CASES
    )
    def test_verify_returns_the_built_certificate(
        self, m0, generators, box_size, tol, passes
    ):
        # every field, the checks included, survives write, parse and verify
        cert = build_certificate(
            CurveConfig(m0), [CubicPoint(*g) for g in generators], box_size, tol
        )
        assert cert.all_checks_pass is passes
        assert verify_certificate(certificate_to_json(cert)) == cert

    def test_indented_layout_verifies_alike(self):
        # the reader is json.loads: the same document in the indent=2
        # layout of earlier writers verifies to the same Certificate
        cert = build_certificate(
            CurveConfig(91), [CubicPoint(-5, 6, 1), CubicPoint(3, 4, 1)], 8
        )
        text = certificate_to_json(cert)
        indented = json.dumps(json.loads(text), indent=2) + "\n"
        assert indented != text
        assert verify_certificate(indented) == cert


class CountingInt(int):
    """An int that counts how often it is raised to a power."""

    powers = 0

    def __pow__(self, exponent, modulo=None):
        CountingInt.powers += 1
        return int.__pow__(self, exponent, modulo)


def _refuse_to_expand(*args):
    raise AssertionError("the representations were expanded")


class TestIdentityProof:
    def test_passing_document_cubes_no_representation(
        self, cfg6, gen6, monkeypatch
    ):
        # the identity follows from the lattice, m = m0 Z^3 and the formula:
        # no pair is formed, and the stored Z and triples are only compared
        cert = build_certificate(cfg6, [gen6], 4)
        counted = cert._replace(
            Z=CountingInt(cert.Z),
            lattice_points=[
                (idx, CubicPoint(*map(CountingInt, q.triple())))
                for idx, q in cert.lattice_points
            ],
        )
        monkeypatch.setattr(CountingInt, "powers", 0)
        monkeypatch.setattr(
            construct, "representations_from_lattice", _refuse_to_expand
        )
        gram, independent = independence(cfg6, [gen6], cert.tol)
        derived = derive_lattice(cfg6, [gen6], gram, line(4), 4, cert.tol)
        checks = evaluate_checks(
            cfg6, counted, _generator_checks(cfg6, [gen6]), independent, derived
        )
        assert all(checks.values())
        assert CountingInt.powers == 0

    def test_no_step_raises_Z_to_a_power(self, monkeypatch):
        # m = m0 Z^3 is read only through Certificate.m: build, write, parse
        # and verify carry Z, derived and stored, as it is
        def counted_tree(factors):
            return CountingInt(math.prod(factors))

        monkeypatch.setattr(construct, "product_tree", counted_tree)
        monkeypatch.setattr(CountingInt, "powers", 0)
        gens = [CubicPoint(-5, 6, 1), CubicPoint(3, 4, 1)]
        cert = build_certificate(CurveConfig(91), gens, 8, 1e-4)
        assert cert.all_checks_pass and isinstance(cert.Z, CountingInt)
        doc = json.loads(certificate_to_json(cert))
        doc["Z"] = CountingInt(int(doc["Z"], 16))
        parsed = parse_certificate(doc)
        assert isinstance(parsed.Z, CountingInt)
        report = verify_certificate(doc)
        assert report.all_checks_pass and isinstance(report.Z, CountingInt)
        assert CountingInt.powers == 0
        # the one cube is Certificate.m's, on the consumer's read
        assert report.m == 91 * int(report.Z) ** 3
        assert CountingInt.powers == 1

    def test_swapped_representations_still_satisfy_the_identity(
        self, cfg6, gen6, monkeypatch
    ):
        # every stored triple swapped to (y, x, z), the negated point: each
        # is on the curve, so its pair (y, x) cubes to m as well, but it
        # breaks the formula that proves the identity, so the identity fails
        # too and no stored coordinate is cubed
        cert = build_certificate(cfg6, [gen6], 4)
        doc = certificate_to_dict(cert)
        with lattice_entries(doc) as entries:
            for entry, (_, q) in zip(entries, cert.lattice_points):
                entry["point"] = [CountingInt(c) for c in (q.y, q.x, q.z)]
        monkeypatch.setattr(CountingInt, "powers", 0)
        report = verify_certificate(doc)
        assert CountingInt.powers == 0
        failed = {name for name, ok in report.checks.items() if not ok}
        assert failed == {
            "lattice_points_match",
            "divisor_records_match",
            "representations_match_formula",
            "representation_identity",
        }

    def test_short_lattice_fails_the_count(self, cfg6, gen6):
        # verify's screen refuses a document short of N^r entries before the
        # checks run; evaluated anyway, the count is what fails
        cert = build_certificate(cfg6, [gen6], 4)
        short = cert._replace(lattice_points=cert.lattice_points[:-1])
        checks = evaluate_checks(
            cfg6, short, _generator_checks(cfg6, [gen6]), True, cert
        )
        failed = {name for name, ok in checks.items() if not ok}
        assert failed == {
            "lattice_points_match",
            "divisor_records_match",
            "representations_match_formula",
            "representation_identity",
            "representation_count",
        }


class TestRepresentationsOnDemand:
    def test_consumer_path_never_expands(self, tmp_path, monkeypatch, capsys):
        # build, write, verify and the CLI's construct and verify all run
        # with the expansion refused
        monkeypatch.setattr(
            construct, "representations_from_lattice", _refuse_to_expand
        )
        gens = [CubicPoint(-5, 6, 1), CubicPoint(3, 4, 1)]
        cert = build_certificate(CurveConfig(91), gens, 8, 1e-4)
        assert cert.all_checks_pass
        assert verify_certificate(certificate_to_json(cert)) == cert
        gen_path = tmp_path / "pool91.json"
        gen_path.write_text(json.dumps([list(p) for p in gens]))
        cert_path = tmp_path / "cert.json"
        assert main(["construct", "--m0", "91", "--generators", str(gen_path),
                     "--N", "8", "--tol", "1e-4", "--out", str(cert_path)]) == 0
        assert main(["verify", "--cert", str(cert_path)]) == 0
        assert capsys.readouterr().err == "certificate ok: 64 representations\n"

    def test_pairs_of_a_pool_certificate(self):
        # cert_tight's m0=91 certificate: N^r distinct pairs, each a sum of
        # two cubes equal to m
        gens = [CubicPoint(-5, 6, 1), CubicPoint(3, 4, 1)]
        cert = build_certificate(CurveConfig(91), gens, 8, 1e-4)
        pairs = cert.representations
        assert len(pairs) == len(set(pairs)) == 8**2
        assert all(x**3 + y**3 == cert.m for x, y in pairs)
        # a parsed certificate expands the same pairs
        assert parse_certificate(certificate_to_json(cert)).representations == pairs

    def test_no_lattice_no_pairs(self, cert6):
        assert cert6._replace(lattice_points=None).representations is None


# strings bytes.fromhex() accepts but hex() never writes: whitespace between
# byte pairs (2,106 digits, an even count, so pairs start after "0x"), and
# one upper-cased digit
_LONG = hex(7**3000)
_LONG_SPACED = _LONG[:1000] + " " + _LONG[1000:]
_UPPER_AT = next(i for i in range(1000, len(_LONG)) if _LONG[i] in "abcdef")
_LONG_UPPER = _LONG[:_UPPER_AT] + _LONG[_UPPER_AT].upper() + _LONG[_UPPER_AT + 1:]


# small values, and 2^k +- 1 on both sides of byte boundaries
_BYTE_EDGES = [2**k + d for k in (8, 16, 64, 1024) for d in (-1, 1)]
_EDGE_INTS = [0] + [
    sign * n for n in (1, 15, 16, 255, 256, *_BYTE_EDGES) for sign in (1, -1)
]


def _assert_writes_hex(cert, n):
    # n as Z, in the header json.dumps writes, and as a lattice point, in
    # the lattice columns: every one written as hex() writes it
    (idx, _), *points = cert.lattice_points
    text = certificate_to_json(
        cert._replace(
            Z=n,
            lattice_points=[(idx, CubicPoint(n, -n, n)), *points],
        )
    )
    _assert_json_fixed_point(text)
    doc = json.loads(text)
    with lattice_entries(doc) as entries:
        assert [doc["Z"], *entries[0]["point"]] == [
            hex(n), hex(n), hex(-n), hex(n)
        ]


# the length at which _as_int read through bytes.fromhex() instead, while
# schema "6" stored representations as long as m
_FORMER_SWITCH = 256


class TestHexCodec:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(min_value=-(2**20000), max_value=2**20000))
    def test_round_trip(self, n):
        assert _as_int(hex(n), "n") == n

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(min_value=-(2**20000), max_value=2**20000))
    def test_writes_what_hex_writes(self, cert6, n):
        _assert_writes_hex(cert6, n)

    @pytest.mark.parametrize("n", _EDGE_INTS)
    def test_writes_what_hex_writes_at_edges(self, cert6, n):
        _assert_writes_hex(cert6, n)

    @pytest.mark.parametrize(
        "text",
        [
            "49abc",
            "12",
            "0X1f",
            "0x1F",
            "0x_1f",
            "0x1_f",
            " 0x1f",
            "0x1f ",
            "0x1f\n",
            "+0x1f",
            "0x",
            "-0x",
            "",
            "0x01",
            "-0x01",
            "-0x0",
            "0b101",
            "0x\u0661",
        ],
    )
    def test_refuses_what_hex_does_not_write(self, text):
        with pytest.raises(CertificateFormatError):
            _as_int(text, "n")

    @settings(max_examples=500)
    @given(
        text=st.one_of(
            st.integers().map(hex),
            st.from_regex(r"[+-]?0[xX][0-9a-fA-F_]{0,6}\s?", fullmatch=True),
            st.text(alphabet="0123456789abcdefABCDEFxX_+- \n\u0661", max_size=8),
        )
    )
    @example(text="0x1f 2a")
    @example(text="-0x1f 2a")
    @example(text="0x1f\t2a")
    @example(text="0x1f\n2a")
    @example(text=_LONG_SPACED)
    @example(text=_LONG_UPPER)
    @example(text=_LONG)
    def test_accepts_exactly_what_hex_writes(self, text):
        # reference: the definition, hex(int(text, 16)) == text
        try:
            written_by_hex = hex(int(text, 16)) == text
        except ValueError:
            written_by_hex = False
        if written_by_hex:
            assert _as_int(text, "n") == int(text, 16)
        else:
            with pytest.raises(CertificateFormatError):
                _as_int(text, "n")

    def test_json_numbers_are_accepted(self):
        assert _as_int(12, "n") == 12
        with pytest.raises(CertificateFormatError):
            _as_int(True, "n")

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_switch_between_paths(self, data):
        # hex() strings within 2 characters of the length where _as_int
        # once switched to a bytes.fromhex() path, and mutations that
        # int(s, 16) or bytes.fromhex() would still read; each mutation
        # inserts at most one character, so it can carry a string across
        # the former switch, which must leave no trace
        length = data.draw(st.integers(_FORMER_SWITCH - 2, _FORMER_SWITCH + 2))
        prefix = data.draw(st.sampled_from(["0x", "-0x"]))
        size = length - len(prefix)
        n = data.draw(st.integers(16 ** (size - 1), 16**size - 1))
        text = hex(-n if prefix == "-0x" else n)
        digits = text[len(prefix):]
        assert len(text) == length
        at = len(prefix) + data.draw(st.integers(1, len(digits) - 1))
        letters = [i for i, c in enumerate(text) if c in "abcdef"]
        upper = data.draw(st.sampled_from(letters)) if letters else 0
        text = data.draw(
            st.sampled_from(
                [
                    text,
                    text[:upper] + text[upper].upper() + text[upper + 1:],
                    text[:at] + " " + text[at:],
                    text[:at] + "_" + text[at:],
                    prefix + "0" + digits,
                    "+" + text,
                    "-0x0" + digits,
                    text[:at] + "\u0661" + text[at:],
                ]
            )
        )
        try:
            written_by_hex = hex(int(text, 16)) == text
        except ValueError:
            written_by_hex = False
        if written_by_hex:
            assert _as_int(text, "n") == int(text, 16)
        else:
            with pytest.raises(CertificateFormatError):
                _as_int(text, "n")


class TestScale:
    # whole certificates at sizes the decimal schema made slow: rank 2 at
    # N=16 (about 19 MB) and rank 3 at its minimal box
    @pytest.mark.parametrize(
        "m0, generators, box_size",
        [
            (91, [(-5, 6, 1), (3, 4, 1)], 16),
            (657, [(-7, 10, 1), (7, 17, 2), (-2890, 2971, 147)], 4),
        ],
    )
    def test_build_and_verify(self, m0, generators, box_size):
        cert = build_certificate(
            CurveConfig(m0), [CubicPoint(*g) for g in generators], box_size
        )
        assert list(cert.checks) == list(CHECK_NAMES)
        assert all(cert.checks.values())
        assert len(cert.representations) == box_size ** len(generators)
        if len(generators) == 3:
            cfg = CurveConfig(m0)
            assert minimal_box_size(z_size_constant(cfg), cert.hhat_bar) == (
                box_size
            )
        assert verify_certificate(certificate_to_json(cert)).all_checks_pass

    # the sizes a stored-pair document could not reach: m0=91 at N=32 and
    # the rank-4 m0=152551 at N=8 were 389 MB and 1,379 MB in schema "6"
    @pytest.mark.parametrize(
        "m0, generators, box_size",
        [
            (91, [(-5, 6, 1), (3, 4, 1)], 32),
            (152551, [(54, -17, 1), (55, -24, 1), (226, -225, 1),
                      (705, -668, 7)], 8),
        ],
        ids=["91-N32", "152551-N8"],
    )
    def test_lattice_only_sizes(self, m0, generators, box_size):
        cert = build_certificate(
            CurveConfig(m0), [CubicPoint(*g) for g in generators], box_size
        )
        assert list(cert.checks) == list(CHECK_NAMES)
        assert all(cert.checks.values())
        text = certificate_to_json(cert)
        assert len(text) < 2_000_000
        report = verify_certificate(text)
        assert report.all_checks_pass
        assert len(report.lattice_points) == box_size ** len(generators)


# a bool, an int past float range, zero, a negative and NaN: the one tol
# rule (construct.checked_tol) refuses each, in build and in parse alike
_REFUSED_TOLS = [
    pytest.param(True, "must be a number", id="True"),
    pytest.param(10**400, "out of float range", id="10**400"),
    pytest.param(0, "positive and finite", id="0"),
    pytest.param(-1.0, "positive and finite", id="-1.0"),
    pytest.param(math.nan, "positive and finite", id="nan"),
]


class TestTolRule:
    @pytest.mark.parametrize("tol, message", _REFUSED_TOLS)
    def test_build_and_parse_refuse_alike(self, cfg6, gen6, cert6_doc, tol,
                                          message):
        with pytest.raises(ValueError, match=message):
            build_certificate(cfg6, [gen6], 4, tol)
        doc = copy.deepcopy(cert6_doc)
        doc["tol"] = tol
        with pytest.raises(CertificateFormatError, match=message):
            verify_certificate(json.dumps(doc))


# box sizes the one box-size rule (construct.checked_box_size) refuses, in
# build before any work and in parse alike
_REFUSED_BOX_SIZES = [
    pytest.param(True, "must be an integer", id="True"),
    pytest.param(4.0, "must be an integer", id="4.0"),
    pytest.param(0, "at least 1", id="0"),
    pytest.param(-4, "at least 1", id="-4"),
]


class TestBoxSizeRule:
    @pytest.mark.parametrize("box_size, message", _REFUSED_BOX_SIZES)
    def test_build_and_parse_refuse_alike(self, cfg6, gen6, cert6_doc,
                                          box_size, message, monkeypatch):
        def refuse(*args):
            raise AssertionError("a height was computed")

        with monkeypatch.context() as patch:
            patch.setattr(construct, "independence", refuse)
            with pytest.raises(ValueError, match=message):
                build_certificate(cfg6, [gen6], box_size)
        doc = copy.deepcopy(cert6_doc)
        doc["N"] = box_size
        with pytest.raises(CertificateFormatError, match=message):
            verify_certificate(json.dumps(doc))


class TestFormatErrors:
    def test_not_json(self):
        with pytest.raises(CertificateFormatError):
            verify_certificate("this is not json")

    def test_nesting_too_deep_for_json_loads(self):
        # json.loads raises RecursionError here; the reader turns it into
        # a format error like any other malformed text
        with pytest.raises(CertificateFormatError, match="nested too deeply"):
            parse_certificate("[" * 100_000)

    def test_missing_key(self, cert6_doc):
        doc = copy.deepcopy(cert6_doc)
        del doc["Z"]
        with pytest.raises(CertificateFormatError):
            verify_certificate(doc)

    def test_bad_schema_version(self, cert6_doc):
        doc = copy.deepcopy(cert6_doc)
        doc["schema_version"] = "1"
        with pytest.raises(CertificateFormatError, match=_refused_schema("1")):
            verify_certificate(doc)

    def test_schema_4_is_refused(self, cert6_doc):
        # a "4" document's lattice is the box [1..N]^r
        doc = copy.deepcopy(cert6_doc)
        doc["schema_version"] = "4"
        with pytest.raises(CertificateFormatError, match=_refused_schema("4")):
            verify_certificate(doc)

    def test_schema_6_is_refused(self, cert6_doc):
        # a "6" document stored the representations beside the lattice
        doc = copy.deepcopy(cert6_doc)
        doc["schema_version"] = "6"
        with pytest.raises(CertificateFormatError, match=_refused_schema("6")):
            verify_certificate(doc)

    def test_schema_5_is_refused(self, cert6_doc):
        # a "5" document's lattice is the centred set over generators that
        # build rearranged, not the stored set of least height
        doc = copy.deepcopy(cert6_doc)
        doc["schema_version"] = "5"
        with pytest.raises(CertificateFormatError, match=_refused_schema("5")):
            verify_certificate(doc)

    def test_schema_7_is_refused(self, cert6):
        # a "7" document stored one object per lattice entry: the same
        # values, read by the per-entry reader that schema "8" deleted
        with pytest.raises(CertificateFormatError, match=_refused_schema("7")):
            verify_certificate(schema7_json(cert6))

    def test_schema_8_is_refused(self, cert6):
        # an "8" document also stored a, b and both verdicts per entry
        with pytest.raises(CertificateFormatError, match=_refused_schema("8")):
            verify_certificate(schema8_doc(cert6))

    def test_schema_9_is_refused(self, cert6):
        # a "9" document stored m = m0 Z^3 in place of Z
        with pytest.raises(CertificateFormatError, match=_refused_schema("9")):
            verify_certificate(schema9_json(cert6))

    def test_schema_10_is_refused(self, cert6):
        # a "10" document also stored the d column, the constants and
        # bound_rhs, which verify derives
        with pytest.raises(CertificateFormatError, match=_refused_schema("10")):
            verify_certificate(schema10_json(cert6))

    @pytest.mark.parametrize(
        "bad", ["0x01", "-0x0" + "1" * 300, None, "inflated-d"],
        ids=["0x01", "long-hex", "None", "inflated-d"],
    )
    def test_stale_derived_keys_are_never_read(self, cfg6, gen6, bad):
        # a "10" document relabelled "11": its d column, constants and
        # bound_rhs are keys "11" does not name.  A garbage leaf in each,
        # one the "10" reader refused, or a d inflated past both lemmas,
        # which "10" failed in divisor_records_match, leaves all 22
        # verdicts as they are
        cert = build_certificate(cfg6, [gen6], 4)
        assert cert.all_checks_pass
        doc = {**schema10_doc(cert), "schema_version": "11"}
        d = doc["lattice_points"]["d"]
        if bad == "inflated-d":
            d[-1] = hex(int(d[-1], 16) * M4253)
        else:
            d[1] = bad
            doc["constants"]["n_min"] = bad
            doc["constants"]["z_constant"]["value"] = bad
            doc["bound_rhs"]["radius"] = bad
        report = verify_certificate(json.dumps(doc))
        assert list(report.checks) == list(CHECK_NAMES)
        assert report == cert

    def test_schema_9_with_the_version_changed_lacks_Z(self, cert6):
        # its m is a key "11" does not name, so nothing stands for Z
        doc = {**schema9_doc(cert6), "schema_version": "11"}
        with pytest.raises(CertificateFormatError, match="missing Z"):
            verify_certificate(doc)

    @pytest.mark.parametrize(
        "key", ["a", "b", "divisibility_pass", "bound_pass"]
    )
    @pytest.mark.parametrize("bad", ["0x01", 1, None])
    def test_leftover_divisor_column_is_never_read(self, cert6, key, bad):
        # the "8" columns a, b and both verdicts are keys "11" does not
        # name: what the "8" reader refused in them, a non-hex() string, an
        # int among the verdicts or a null, the "11" reader never reads
        doc = certificate_to_dict(cert6)
        doc["lattice_points"] = schema8_doc(cert6)["lattice_points"]
        assert list(doc["lattice_points"])[5:] == [
            "a", "b", "divisibility_pass", "bound_pass"
        ]
        doc["lattice_points"][key][1] = bad
        assert parse_certificate(doc) == cert6._replace(checks={})
        assert verify_certificate(json.dumps(doc)) == cert6

    def test_empty_generators(self, cert6_doc):
        doc = copy.deepcopy(cert6_doc)
        doc["generators"] = []
        with pytest.raises(CertificateFormatError):
            verify_certificate(doc)

    def test_rank_mismatch(self, cert6_doc):
        doc = copy.deepcopy(cert6_doc)
        doc["r"] = 3
        with pytest.raises(CertificateFormatError):
            verify_certificate(doc)

    def test_bad_integer_string(self, cert6_doc):
        doc = copy.deepcopy(cert6_doc)
        doc["Z"] = "49abc"
        with pytest.raises(CertificateFormatError):
            verify_certificate(doc)

    def test_bad_tol(self, cert6_doc):
        doc = copy.deepcopy(cert6_doc)
        doc["tol"] = -1.0
        with pytest.raises(CertificateFormatError):
            verify_certificate(doc)

    @pytest.mark.parametrize("literal", ["Infinity", "1e400", "NaN"])
    def test_non_finite_tol(self, cert6_doc, literal):
        # json.loads turns each literal into a float that is not finite
        doc = copy.deepcopy(cert6_doc)
        doc["tol"] = "TOL"
        text = json.dumps(doc).replace('"TOL"', literal)
        with pytest.raises(CertificateFormatError, match="finite"):
            verify_certificate(text)

    def test_zero_m0(self, cert6_doc):
        doc = copy.deepcopy(cert6_doc)
        doc["m0"] = "0x0"
        with pytest.raises(CertificateFormatError):
            verify_certificate(doc)

    def test_malformed_interval(self, cert6_doc):
        doc = copy.deepcopy(cert6_doc)
        doc["hhat_bar"] = {"value": 1.0}
        with pytest.raises(CertificateFormatError):
            verify_certificate(doc)

    def test_malformed_lattice_entry(self, cert6_doc):
        # entry 0 without its x: the x column is one short
        doc = copy.deepcopy(cert6_doc)
        del doc["lattice_points"]["x"][0]
        with pytest.raises(CertificateFormatError):
            verify_certificate(doc)

    @pytest.mark.parametrize(
        "path",
        [
            ("tol",),
            ("hhat_bar", "value"),
            ("hhat_bar", "radius"),
            ("bound_rhs", "value"),
            ("bound_rhs", "radius"),
            ("constants", "z_constant", "value"),
            ("constants", "z_constant", "radius"),
        ],
    )
    def test_integer_beyond_float_range(self, cert6, path):
        # refused where "11" reads a float; in bound_rhs and the constants,
        # which "10" stored and "11" does not name, never read
        doc = {**schema10_doc(cert6), "schema_version": "11"}
        _leaf_parent(doc, path)[path[-1]] = 10**400
        if path[0] in ("bound_rhs", "constants"):
            assert verify_certificate(json.dumps(doc)) == cert6
            return
        with pytest.raises(CertificateFormatError, match="out of float range"):
            verify_certificate(json.dumps(doc))

    def test_zero_m(self, cert6_doc):
        # m = m0 Z^3 is zero exactly when Z is
        doc = copy.deepcopy(cert6_doc)
        doc["Z"] = "0x0"
        with pytest.raises(CertificateFormatError, match="Z must be positive"):
            verify_certificate(doc)

    @pytest.mark.parametrize("bad", ["-0x1", "-0x133ca4c", -(10**40)])
    def test_negative_Z_is_refused(self, cert6_doc, bad):
        # every z_n is positive, so their product is: a negative Z, which
        # would stand for a negative m0 Z^3, is no product of the lattice
        doc = copy.deepcopy(cert6_doc)
        doc["Z"] = bad
        with pytest.raises(CertificateFormatError, match="Z must be positive"):
            verify_certificate(doc)

    @pytest.mark.parametrize(
        "field, bad, message",
        [
            ("point", ["0x1", "0x2", "0x01"], "lattice point is not a hex()"),
            ("point", ["0x1", "0x2", "0x" + "F" * 300],
             "lattice point is not a hex()"),
            ("point", ["0x1", "0x2", 1.5],
             "lattice point must be an integer or hex string"),
            ("point", ["0x1", "0x2", True],
             "lattice point must be an integer or hex string"),
            ("index", ["0x01"], "lattice index is not a hex()"),
            ("index", [True], "lattice index must be an integer"),
            # one index too many: 3 elements where r·E is 2
            ("index", [1, 2], "lattice index must have 2 elements"),
        ],
    )
    def test_lattice_field_is_named(self, cert6_doc, field, bad, message):
        doc = copy.deepcopy(cert6_doc)
        with lattice_entries(doc) as entries:
            entries[0][field] = bad
        with pytest.raises(CertificateFormatError, match=re.escape(message)):
            verify_certificate(doc)

    @pytest.mark.parametrize(
        "path, missing, message",
        [
            ((), ("Z", "hhat_bar"), "certificate is missing Z, hhat_bar"),
            pytest.param(("lattice_points",), ("y",),
                         "lattice_points is missing y", id="lattice-y"),
            pytest.param(("lattice_points",), ("x", "index"),
                         "lattice_points is missing index, x",
                         id="lattice-index-x"),
        ],
    )
    def test_missing_keys_are_named(self, cert6_doc, path, missing, message):
        doc = copy.deepcopy(cert6_doc)
        record = doc
        for key in path:
            record = record[key]
        for key in missing:
            del record[key]
        with pytest.raises(
            CertificateFormatError, match=re.escape(f"invalid certificate: {message}")
        ):
            verify_certificate(json.dumps(doc))

    @pytest.mark.parametrize(
        "path, message",
        [
            pytest.param(("lattice_points",), "lattice_points must be an object",
                         id="lattice"),
            pytest.param(("hhat_bar",),
                         "hhat_bar must be an object with value and radius",
                         id="hhat_bar"),
        ],
    )
    def test_record_that_is_no_object_is_named(self, cert6_doc, path, message):
        doc = copy.deepcopy(cert6_doc)
        _leaf_parent(doc, path)[path[-1]] = ["index", "point", "divisor"]
        with pytest.raises(CertificateFormatError, match=re.escape(message)):
            verify_certificate(doc)

    @pytest.mark.parametrize(
        "sign, digits, refused",
        [("", 4300, False), ("-", 4300, False), ("", 4301, True),
         ("-", 4301, True), ("", 400_000, True)],
    )
    def test_json_integer_literal_digit_limit(
        self, cert6_doc, sign, digits, refused
    ):
        # CPython's default int<->str limit, kept for JSON numbers: decimal
        # conversion is quadratic, and 400,000 digits took over a second.
        # The literal is a lattice x, an integer of either sign
        doc = copy.deepcopy(cert6_doc)
        doc["lattice_points"]["x"][0] = "LITERAL"
        text = json.dumps(doc).replace('"LITERAL"', sign + "9" * digits)
        if refused:
            start = time.perf_counter()
            with pytest.raises(CertificateFormatError, match="4300 digits"):
                verify_certificate(text)
            assert time.perf_counter() - start < 0.5
        else:
            assert not verify_certificate(text).checks["lattice_points_match"]


def _refused_schema(version):
    # the refusal names the version read, the one this reader takes, and
    # how to get a document in it
    return re.escape(
        f"unsupported schema_version '{version}': this reader takes \"11\"; "
        "rebuild the document with cubeforge construct"
    )


def _leaf_parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [p for k, v in items for p in _leaf_paths(v, path + (k,))]


_FUZZ_DOC = certificate_to_dict(
    build_certificate(CurveConfig(6), [CubicPoint(17, 37, 21)], 2)
)

def _node_paths(node, path=()):
    """Paths to every leaf, and to every array and record above one."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    below = [p for k, v in items for p in _node_paths(v, path + (k,))]
    return [path, *below] if path else below


_FUZZ_DOC_RANK_2 = certificate_to_dict(
    build_certificate(
        CurveConfig(91), [CubicPoint(-5, 6, 1), CubicPoint(3, 4, 1)], 2
    )
)
_DELETE = object()
_RECORD_KEYS = ["index", "x", "y", "z", "value", "radius"]

_HOSTILE_LEAVES = st.one_of(
    st.integers(min_value=2**1024, max_value=2**1400),
    st.integers(max_value=0),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=8),
    st.lists(st.integers(), max_size=3),
)


class TestMutationFuzz:
    # each example verifies one m0=6, N=2 document: milliseconds when it
    # works, so a 2 s deadline catches any hostile input that makes it slow
    @settings(max_examples=500, deadline=2000)
    @given(path=st.sampled_from(_leaf_paths(_FUZZ_DOC)), leaf=_HOSTILE_LEAVES)
    @example(path=("tol",), leaf=10**400)
    @example(path=("tol",), leaf=math.inf)
    @example(path=("Z",), leaf=0)
    @example(path=("Z",), leaf=-1)
    @example(path=("Z",), leaf="20171340")
    @example(path=("Z",), leaf=10**4300)
    def test_verifier_is_total(self, path, leaf):
        doc = copy.deepcopy(_FUZZ_DOC)
        _leaf_parent(doc, path)[path[-1]] = leaf
        try:
            report = verify_certificate(json.dumps(doc))
        except (CertificateFormatError, PrecisionBudgetError):
            return
        assert isinstance(report, Certificate)

    # the m0=91 pool generators at N=2: hostile values also replace whole
    # records and arrays, or delete them, so every record's key check and
    # the length-r lattice indices are reached
    @settings(max_examples=400, deadline=2000)
    @given(
        path=st.sampled_from(_node_paths(_FUZZ_DOC_RANK_2)),
        leaf=st.one_of(
            _HOSTILE_LEAVES,
            st.just(_DELETE),
            st.dictionaries(st.sampled_from(_RECORD_KEYS), _HOSTILE_LEAVES,
                            max_size=3),
        ),
    )
    # entry k's field f at lattice column f, element k (index: r·k + i)
    @example(path=("lattice_points", "index"), leaf=[1])
    @example(path=("lattice_points", "index", 7), leaf="0x1")
    @example(path=("lattice_points", "index", 7), leaf=2**1024)
    @example(path=("lattice_points", "y", 2), leaf=_DELETE)
    @example(path=("lattice_points", "x", 2), leaf=_DELETE)
    @example(path=("lattice_points", "z", 1), leaf="0x0")
    def test_verifier_is_total_at_rank_2(self, path, leaf):
        doc = copy.deepcopy(_FUZZ_DOC_RANK_2)
        parent = _leaf_parent(doc, path)
        if leaf is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = leaf
        try:
            report = verify_certificate(json.dumps(doc))
        except (CertificateFormatError, PrecisionBudgetError):
            return
        assert isinstance(report, Certificate)
