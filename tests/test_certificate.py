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
from cubeforge.certificate import _as_int
from cubeforge.construct import (
    CHECK_NAMES,
    _generator_checks,
    derive_lattice,
    evaluate_checks,
)
from cubeforge.heights import independence
from tests.conftest import (
    SCREEN_TAMPERS,
    line,
    representation_repeated,
    screen_tampered,
)

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
# indent=2 and schema_version set back to "4".
GOLDEN_SHA256_SCHEMA_4 = (
    "b034543eb2abff9d100dc85ee4740eea87f3bdf0279518685f5ad8005bdec88d"
)
GOLDEN_SHA256 = "840e74111a83bd2db28e20216b59d0789de905806fbd371264c282f2a9c8e913"


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
        assert cert6_doc["m"] == hex(49244246842992972624000)
        assert cert6_doc["m"] == "0xa6d89355c80175d7080"
        assert cert6_doc["m0"] == "0x6"
        assert cert6_doc["generators"] == [["0x11", "0x25", "0x15"]]
        assert cert6_doc["lattice_points"][1]["point"] == [
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
            "constants",
            "lattice_points",
            "m",
            "bound_rhs",
        }
        # no stored check map and no stored representations: verify
        # derives every verdict afresh, and a consumer expands the pairs
        assert set(cert6_doc) == expected
        assert cert6_doc["schema_version"] == "7"

    def test_divisor_record_is_exact(self, cert6_doc):
        for entry in cert6_doc["lattice_points"]:
            record = entry["divisor"]
            assert list(record) == ["d", "a", "b", "divisibility_pass", "bound_pass"]
            assert not any(isinstance(v, float) for v in record.values())

    def test_deterministic_bytes(self, cert6, monkeypatch):
        # no timestamp: the environment cannot change a byte of the document
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1755129600")
        first = certificate_to_json(cert6)
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        second = certificate_to_json(cert6)
        assert first == second
        assert "generated_at" not in json.loads(first)

    def test_golden_bytes(self, cfg6, gen6):
        text = certificate_to_json(build_certificate(cfg6, [gen6], 4))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_SHA256
        _assert_json_fixed_point(text)
        # the pairs expanded on demand are the ones schema "4" stored,
        # between m and bound_rhs
        doc = json.loads(text)
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
        assert parsed.m == cert6.m
        assert parsed.representations == cert6.representations
        assert parsed.constants.n_min == cert6.constants.n_min
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
        empty = cert6._replace(lattice_points=[], divisor_checks=[])
        text = certificate_to_json(empty)
        assert '"lattice_points":[],' in text
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
        doc = copy.deepcopy(cert6_doc)
        doc["m"] = hex(int(doc["m"], 16) + 18)
        report = verify_certificate(doc)
        assert not report.checks["m_matches_product"]
        assert not report.checks["representation_identity"]
        assert not report.all_checks_pass

    def test_tampered_representation(self, cert6_doc):
        # the first representation is (Z/z_1)(x_1, y_1), so a wrong y_1 in
        # the stored triple it expands from is a wrong representation
        doc = copy.deepcopy(cert6_doc)
        doc["lattice_points"][0]["point"][1] = hex(38)
        report = verify_certificate(doc)
        assert report.checks["m_matches_product"]
        assert not report.checks["representations_match_formula"]
        assert not report.checks["representation_identity"]

    def test_tampered_lattice_point(self, cert6_doc):
        doc = copy.deepcopy(cert6_doc)
        doc["lattice_points"][1]["point"][0] = hex(2237724)
        report = verify_certificate(doc)
        assert not report.checks["lattice_points_match"]

    def test_tampered_constants(self, cert6_doc):
        doc = copy.deepcopy(cert6_doc)
        doc["constants"]["n_min"] = 1
        report = verify_certificate(doc)
        assert not report.checks["constants_match"]
        # a forged n_min cannot flip the recomputed precondition outcome
        assert not report.checks["theorem_preconditions"]

    def test_tampered_divisor_record(self, cert6_doc):
        doc = copy.deepcopy(cert6_doc)
        doc["lattice_points"][0]["divisor"]["d"] = hex(27)
        report = verify_certificate(doc)
        assert not report.checks["divisor_records_match"]

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
        entry = doc["lattice_points"][0]
        doc["lattice_points"] = [
            {**entry, "index": index}
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
        entry = doc["lattice_points"][0]
        doc["lattice_points"] = [
            {**entry, "index": index}
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
        # no pair is formed, and the stored m and triples are only compared
        cert = build_certificate(cfg6, [gen6], 4)
        counted = cert._replace(
            m=CountingInt(cert.m),
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

    def test_swapped_representations_still_satisfy_the_identity(
        self, cfg6, gen6, monkeypatch
    ):
        # every stored triple swapped to (y, x, z), the negated point: each
        # is on the curve, so its pair (y, x) cubes to m as well, but it
        # breaks the formula that proves the identity, so the identity fails
        # too and no stored coordinate is cubed
        cert = build_certificate(cfg6, [gen6], 4)
        doc = certificate_to_dict(cert)
        for entry, (_, q) in zip(doc["lattice_points"], cert.lattice_points):
            entry["point"] = [CountingInt(c) for c in (q.y, q.x, q.z)]
        monkeypatch.setattr(CountingInt, "powers", 0)
        report = verify_certificate(doc)
        assert CountingInt.powers == 0
        failed = {name for name, ok in report.checks.items() if not ok}
        assert failed == {
            "lattice_points_match",
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
    # n as m, in the header json.dumps writes, and as a lattice point and a
    # divisor d, in the entry template: every one written as hex() writes it
    (idx, _), *points = cert.lattice_points
    check, *checks = cert.divisor_checks
    text = certificate_to_json(
        cert._replace(
            m=n,
            lattice_points=[(idx, CubicPoint(n, -n, n)), *points],
            divisor_checks=[check._replace(d=n), *checks],
        )
    )
    _assert_json_fixed_point(text)
    doc = json.loads(text)
    entry = doc["lattice_points"][0]
    assert [doc["m"], *entry["point"], entry["divisor"]["d"]] == [
        hex(n), hex(n), hex(-n), hex(n), hex(n)
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
            assert cert.constants.n_min == box_size
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
        del doc["m"]
        with pytest.raises(CertificateFormatError):
            verify_certificate(doc)

    def test_bad_schema_version(self, cert6_doc):
        doc = copy.deepcopy(cert6_doc)
        doc["schema_version"] = "1"
        with pytest.raises(CertificateFormatError):
            verify_certificate(doc)

    def test_schema_4_is_refused(self, cert6_doc):
        # a "4" document's lattice is the box [1..N]^r
        doc = copy.deepcopy(cert6_doc)
        doc["schema_version"] = "4"
        with pytest.raises(CertificateFormatError, match="unsupported schema"):
            verify_certificate(doc)

    def test_schema_6_is_refused(self, cert6_doc):
        # a "6" document stored the representations beside the lattice
        doc = copy.deepcopy(cert6_doc)
        doc["schema_version"] = "6"
        with pytest.raises(CertificateFormatError, match="unsupported schema"):
            verify_certificate(doc)

    def test_schema_5_is_refused(self, cert6_doc):
        # a "5" document's lattice is the centred set over generators that
        # build rearranged, not the stored set of least height
        doc = copy.deepcopy(cert6_doc)
        doc["schema_version"] = "5"
        with pytest.raises(CertificateFormatError, match="unsupported schema"):
            verify_certificate(doc)

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
        doc["m"] = "49abc"
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
        doc = copy.deepcopy(cert6_doc)
        del doc["lattice_points"][0]["divisor"]
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
    def test_integer_beyond_float_range(self, cert6_doc, path):
        doc = copy.deepcopy(cert6_doc)
        _leaf_parent(doc, path)[path[-1]] = 10**400
        with pytest.raises(CertificateFormatError, match="out of float range"):
            verify_certificate(json.dumps(doc))

    def test_zero_m(self, cert6_doc):
        doc = copy.deepcopy(cert6_doc)
        doc["m"] = "0x0"
        with pytest.raises(CertificateFormatError):
            verify_certificate(doc)

    @pytest.mark.parametrize("key", ["d", "a", "b"])
    @pytest.mark.parametrize("bad", ["0x01", "-0x0" + "1" * 300, None])
    def test_divisor_field_is_named(self, cert6_doc, key, bad):
        doc = copy.deepcopy(cert6_doc)
        doc["lattice_points"][1]["divisor"][key] = bad
        with pytest.raises(CertificateFormatError, match=f"divisor {key} "):
            verify_certificate(doc)

    @pytest.mark.parametrize(
        "field, bad, message",
        [
            ("point", ["0x1", "0x2", "0x01"], "lattice point is not a hex()"),
            ("point", ["0x1", "0x2", "0x" + "F" * 300],
             "lattice point is not a hex()"),
            ("point", ["0x1", "0x2", 1.5],
             "lattice point must be an integer or hex string"),
            ("point", ["0x1", "0x2"], "lattice point must have 3 elements"),
            ("index", ["0x01"], "lattice index is not a hex()"),
            ("index", [True], "lattice index must be an integer"),
            ("index", [1, 2], "lattice index must have 1 elements"),
        ],
    )
    def test_lattice_field_is_named(self, cert6_doc, field, bad, message):
        doc = copy.deepcopy(cert6_doc)
        doc["lattice_points"][0][field] = bad
        with pytest.raises(CertificateFormatError, match=re.escape(message)):
            verify_certificate(doc)

    @pytest.mark.parametrize(
        "path, missing, message",
        [
            ((), ("m", "bound_rhs"), "certificate is missing bound_rhs, m"),
            (("constants",), ("n_min",), "constants is missing n_min"),
            (("lattice_points", 1), ("divisor",),
             "lattice point is missing divisor"),
            (("lattice_points", 1), ("point", "index"),
             "lattice point is missing index, point"),
            (("lattice_points", 1, "divisor"), ("bound_pass", "a"),
             "divisor record is missing a, bound_pass"),
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
            (("lattice_points", 0), "lattice point must be an object"),
            (("lattice_points", 0, "divisor"), "divisor record must be an object"),
            (("constants",), "constants must be an object"),
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
         ("", 400_000, True)],
    )
    def test_json_integer_literal_digit_limit(
        self, cert6_doc, sign, digits, refused
    ):
        # CPython's default int<->str limit, kept for JSON numbers: decimal
        # conversion is quadratic, and 400,000 digits took over a second
        doc = copy.deepcopy(cert6_doc)
        doc["m"] = "LITERAL"
        text = json.dumps(doc).replace('"LITERAL"', sign + "9" * digits)
        if refused:
            start = time.perf_counter()
            with pytest.raises(CertificateFormatError, match="4300 digits"):
                verify_certificate(text)
            assert time.perf_counter() - start < 0.5
        else:
            assert not verify_certificate(text).checks["m_matches_product"]


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
_RECORD_KEYS = ["index", "point", "divisor", "d", "a", "b", "divisibility_pass",
                "bound_pass", "value", "radius"]

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
    @example(path=("m",), leaf=0)
    @example(path=("m",), leaf="49244246842992972624000")
    @example(path=("m",), leaf=10**4300)
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
    @example(path=("lattice_points", 3, "index"), leaf=[1])
    @example(path=("lattice_points", 3, "index", 1), leaf="0x1")
    @example(path=("lattice_points", 3, "index", 1), leaf=2**1024)
    @example(path=("lattice_points", 2, "divisor", "a"), leaf=_DELETE)
    @example(path=("lattice_points", 2, "point"), leaf=_DELETE)
    @example(path=("lattice_points", 1, "point", 2), leaf="0x0")
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
