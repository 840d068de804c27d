"""Certificate serialization, determinism, and adversarial verification."""

import copy
import hashlib
import time

import pytest

from cubeforge import (
    CertificateFormatError,
    build_certificate,
    certificate_to_json,
    parse_certificate,
    verify_certificate,
    write_certificate,
)
from cubeforge.certificate import certificate_to_dict
from cubeforge.construct import CHECK_NAMES

# sha256 of the m0=6, (17, 37, 21), N=4 certificate at SOURCE_DATE_EPOCH=0:
# a change to how the certificate is derived must not change a byte of it
GOLDEN_SHA256 = "418108e42651f708c1f806c56a741af51ebb93a7b4b9b1e9dd9014f5c698ec4a"


@pytest.fixture(scope="module")
def cert6(cfg6, gen6):
    return build_certificate(cfg6, [gen6], 2)


@pytest.fixture(scope="module")
def cert6_doc(cert6):
    return certificate_to_dict(cert6)


class TestSerialization:
    def test_big_ints_as_strings(self, cert6_doc):
        assert cert6_doc["m"] == "49244246842992972624000"
        assert cert6_doc["m0"] == "6"
        assert cert6_doc["generators"] == [["17", "37", "21"]]
        assert cert6_doc["representations"][0] == ["16329180", "35539980"]

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
            "checks",
        }
        assert set(cert6_doc) == expected
        assert cert6_doc["schema_version"] == "1"
        assert set(cert6_doc["checks"]) == set(CHECK_NAMES)

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

    def test_round_trip(self, cert6):
        parsed = parse_certificate(certificate_to_json(cert6))
        assert parsed.m0 == cert6.m0
        assert parsed.box_size == cert6.box_size
        assert parsed.generators == cert6.generators
        assert parsed.lattice_points == cert6.lattice_points
        assert parsed.m == cert6.m
        assert parsed.representations == cert6.representations
        assert parsed.constants.n_min == cert6.constants.n_min
        assert parsed.checks == cert6.checks

    def test_write_certificate(self, cert6, tmp_path):
        path = tmp_path / "cert.json"
        write_certificate(cert6, str(path))
        assert parse_certificate(path.read_text()).m == cert6.m


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
        doc = copy.deepcopy(cert6_doc)
        doc["checks"] = {name: True for name in doc["checks"]}
        report = verify_certificate(doc)
        assert not report.checks["theorem_preconditions"]

    def test_tampered_m(self, cert6_doc):
        doc = copy.deepcopy(cert6_doc)
        doc["m"] = str(int(doc["m"]) + 18)
        report = verify_certificate(doc)
        assert not report.checks["m_matches_product"]
        assert not report.checks["representation_identity"]
        assert not report.all_passed

    def test_tampered_representation(self, cert6_doc):
        doc = copy.deepcopy(cert6_doc)
        doc["representations"][0] = ["16329180", "35539981"]
        report = verify_certificate(doc)
        assert not report.checks["representations_match_formula"]
        assert not report.checks["representation_identity"]

    def test_tampered_lattice_point(self, cert6_doc):
        doc = copy.deepcopy(cert6_doc)
        doc["lattice_points"][1]["point"][0] = "2237724"
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
        doc["lattice_points"][0]["divisor"]["d"] = "27"
        report = verify_certificate(doc)
        assert not report.checks["divisor_records_match"]

    def test_tampered_height(self, cert6_doc):
        doc = copy.deepcopy(cert6_doc)
        doc["hhat_bar"] = {"value": 99.0, "radius": 0.001}
        report = verify_certificate(doc)
        assert not report.checks["heights_match"]

    def test_off_curve_generator(self, cert6_doc):
        doc = copy.deepcopy(cert6_doc)
        doc["generators"] = [["17", "37", "22"]]
        report = verify_certificate(doc)
        assert not report.checks["generators_on_curve"]
        assert not report.all_passed

    def test_dependent_generators_detected(self, cfg6, gen6, cert6_doc):
        # claim a rank-2 certificate built from P and 2P: the box of size 2
        # has no collision, but independence certification must fail
        from cubeforge import cubic_smul
        from cubeforge.curves import CurveConfig

        doc = copy.deepcopy(cert6_doc)
        double = cubic_smul(CurveConfig(6), 2, gen6)
        doc["r"] = 2
        doc["generators"] = [
            ["17", "37", "21"],
            [str(double.x), str(double.y), str(double.z)],
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
        doc["schema_version"] = "2"
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

    def test_zero_m0(self, cert6_doc):
        doc = copy.deepcopy(cert6_doc)
        doc["m0"] = "0"
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
