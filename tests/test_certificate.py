"""Certificate serialization, determinism, and adversarial verification."""

import copy
import hashlib
import json
import math
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubeforge import (
    CertificateFormatError,
    CubicPoint,
    CurveConfig,
    PrecisionBudgetError,
    VerifyReport,
    build_certificate,
    certificate_to_json,
    parse_certificate,
    verify_certificate,
    write_certificate,
)
from cubeforge.certificate import _as_int, _hex
from cubeforge.construct import CHECK_NAMES, derive, evaluate_checks

# sha256 of the m0=6, (17, 37, 21), N=4 certificate at SOURCE_DATE_EPOCH=0:
# a change to how the certificate is derived must not change a byte of it.
# Schema "4" is the schema "3" document without its "checks" key and with
# schema_version "4", re-dumped with json.dumps(indent=2) plus a newline.
# The local-height engine changed the hhat_bar and bound_rhs floats only.
GOLDEN_SHA256 = "d848138525fd3747527362a14179dde5c38ba3f19627a59262b37b16bcb0e266"


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
        assert cert6_doc["representations"][0] == [
            hex(16329180), hex(35539980)
        ]
        assert cert6_doc["representations"][1][1] == "-0x2429db7"

    def test_schema_fields_present(self, cert6_doc):
        expected = {
            "schema_version",
            "generated_at",
            "m0",
            "r",
            "N",
            "tol",
            "generators",
            "hhat_bar",
            "constants",
            "lattice_points",
            "m",
            "representations",
            "bound_rhs",
        }
        # no stored check map: verify derives every verdict afresh
        assert set(cert6_doc) == expected
        assert cert6_doc["schema_version"] == "4"

    def test_divisor_record_is_exact(self, cert6_doc):
        for entry in cert6_doc["lattice_points"]:
            record = entry["divisor"]
            assert list(record) == ["d", "a", "b", "divisibility_pass", "bound_pass"]
            assert not any(isinstance(v, float) for v in record.values())

    def test_deterministic_bytes(self, cert6, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1755129600")
        first = certificate_to_json(cert6)
        second = certificate_to_json(cert6)
        assert first == second
        assert '"generated_at": "2025-08-14T00:00:00Z"' in first

    def test_golden_bytes(self, cfg6, gen6, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        text = certificate_to_json(build_certificate(cfg6, [gen6], 4))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_SHA256
        _assert_json_fixed_point(text)

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

    def test_write_certificate(self, cert6, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        path = tmp_path / "cert.json"
        write_certificate(cert6, str(path))
        assert path.read_bytes() == certificate_to_json(cert6).encode("utf-8")
        assert parse_certificate(path.read_text()).m == cert6.m


def _assert_json_fixed_point(text):
    # the writer renders the large arrays itself; json must agree on every byte
    assert json.dumps(json.loads(text), indent=2) + "\n" == text


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
        empty = cert6._replace(
            lattice_points=[], divisor_checks=[], representations=[]
        )
        text = certificate_to_json(empty)
        assert '"lattice_points": [],' in text
        assert '"representations": [],' in text
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
        assert not report.all_passed  # box below threshold by design
        assert report.checks["representation_identity"]
        assert not report.checks["theorem_preconditions"]

    def test_verify_full_pass(self, cfg6, gen6):
        cert = build_certificate(cfg6, [gen6], 4)
        report = verify_certificate(certificate_to_json(cert))
        assert report.all_passed

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
        assert not report.all_passed

    def test_tampered_representation(self, cert6_doc):
        doc = copy.deepcopy(cert6_doc)
        doc["representations"][0] = [hex(16329180), hex(35539981)]
        report = verify_certificate(doc)
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
        assert not report.all_passed

    def test_dependent_generators_detected(self, cfg6, gen6, cert6_doc):
        # claim a rank-2 certificate built from P and 2P: the box of size 2
        # has no collision, but independence certification must fail
        from cubeforge.curves import CurveConfig
        from tests.group_reference import cubic_smul

        doc = copy.deepcopy(cert6_doc)
        double = cubic_smul(CurveConfig(6), 2, gen6)
        doc["r"] = 2
        doc["generators"] = [
            [hex(17), hex(37), hex(21)],
            [hex(double.x), hex(double.y), hex(double.z)],
        ]
        doc["lattice_points"] = []
        # N^r = 4 stored representations, so the count screen lets it through
        doc["representations"] = doc["representations"] * 2
        report = verify_certificate(doc)
        assert report.checks["representation_count"]
        assert not report.checks["generators_independent"]
        assert not report.all_passed

    @pytest.mark.parametrize("box_size", [1, 3, 10**7])
    def test_box_size_is_screened_against_the_document(self, cert6_doc, box_size):
        # N^r must equal the stored representation count before anything is
        # regenerated, so an inflated N costs nothing
        doc = copy.deepcopy(cert6_doc)
        doc["N"] = box_size
        start = time.perf_counter()
        report = verify_certificate(doc)
        assert time.perf_counter() - start < 2.0
        assert not report.checks["representation_count"]
        assert report.checks["generators_on_curve"]
        assert not report.all_passed


class CountingInt(int):
    """An int that counts how often it is raised to a power."""

    powers = 0

    def __pow__(self, exponent, modulo=None):
        CountingInt.powers += 1
        return int.__pow__(self, exponent, modulo)


class TestIdentityProof:
    def test_passing_document_cubes_no_representation(
        self, cfg6, gen6, monkeypatch
    ):
        # the identity follows from the lattice, m = m0 Z^3 and the formula
        cert = build_certificate(cfg6, [gen6], 4)
        counted = cert._replace(
            representations=[
                (CountingInt(x), CountingInt(y)) for x, y in cert.representations
            ],
        )
        monkeypatch.setattr(CountingInt, "powers", 0)
        checks = evaluate_checks(cfg6, counted, derive(cfg6, [gen6], 4, cert.tol))
        assert all(checks.values())
        assert CountingInt.powers == 0

    def test_swapped_representations_still_satisfy_the_identity(
        self, cfg6, gen6, monkeypatch
    ):
        # (y, x) cubes to m as well, but it breaks the formula that proves
        # the identity, so the identity fails too and nothing is cubed
        cert = build_certificate(cfg6, [gen6], 4)
        doc = certificate_to_dict(cert)
        doc["representations"] = [
            [CountingInt(y), CountingInt(x)] for x, y in cert.representations
        ]
        monkeypatch.setattr(CountingInt, "powers", 0)
        report = verify_certificate(doc)
        assert CountingInt.powers == 0
        failed = {name for name, ok in report.checks.items() if not ok}
        assert failed == {
            "representations_match_formula",
            "representation_identity",
        }


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


class TestHexCodec:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(min_value=-(2**20000), max_value=2**20000))
    def test_round_trip(self, n):
        assert _as_int(hex(n), "n") == n

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(min_value=-(2**20000), max_value=2**20000))
    def test_writes_what_hex_writes(self, n):
        assert _hex(n) == hex(n)

    @pytest.mark.parametrize("n", _EDGE_INTS)
    def test_writes_what_hex_writes_at_edges(self, n):
        assert _hex(n) == hex(n)

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
        assert verify_certificate(certificate_to_json(cert)).all_passed


class TestFormatErrors:
    def test_not_json(self):
        with pytest.raises(CertificateFormatError):
            verify_certificate("this is not json")

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
        assert isinstance(report, VerifyReport)
