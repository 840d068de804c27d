"""Immutable value records, and what importing the package loads."""

import copy
import json
import math
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import cubeforge
from cubeforge import (
    ApproxReal,
    CertificateFormatError,
    CubicPoint,
    CurveConfig,
    build_certificate,
    certificate_to_json,
    parse_certificate,
)

# heavy standard modules the package must not pull in at import: dataclasses
# brings inspect, ast, dis and tokenize with it, typing costs as much, and
# fractions brings decimal and numbers
_COLD_START_EXCLUDED = (
    "dataclasses", "inspect", "typing", "fractions", "decimal", "numbers",
)


def test_import_loads_no_heavy_modules():
    # -S keeps site .pth files from preloading anything, so sys.modules
    # holds only what the package and the interpreter itself import
    src = Path(cubeforge.__file__).resolve().parent.parent
    probe = (
        f"import sys; sys.path.insert(0, {str(src)!r}); "
        "import cubeforge, cubeforge.cli; "
        f"print([m for m in {_COLD_START_EXCLUDED!r} if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"


@pytest.fixture(scope="module")
def cert6_text(cfg6, gen6):
    return certificate_to_json(build_certificate(cfg6, [gen6], 2))


class TestNotTuples:
    @pytest.mark.parametrize(
        "a, b",
        [(ApproxReal(1.0), ApproxReal(2.0)), (CurveConfig(6), CurveConfig(7))],
        ids=["ApproxReal", "CurveConfig"],
    )
    def test_no_order_and_no_len(self, a, b):
        with pytest.raises(TypeError):
            a < b
        with pytest.raises(TypeError):
            len(a)
        with pytest.raises(TypeError):
            a + (1,)

    @pytest.mark.parametrize(
        "record, field",
        [
            (ApproxReal(1.0, 0.5), "radius"),
            (CurveConfig(6), "m0"),
            (CubicPoint(17, 37, 21), "z"),
        ],
        ids=["ApproxReal", "CurveConfig", "CubicPoint"],
    )
    def test_fields_cannot_be_assigned(self, record, field):
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) == before

    def test_certificate_is_immutable(self, cert6_text):
        cert = parse_certificate(cert6_text)
        with pytest.raises(AttributeError):
            cert.checks = {"final_inequality": True}


class TestApproxRealValue:
    def test_equality_and_hash_follow_value_and_radius(self):
        a = ApproxReal(1.5, 0.25)
        assert a == ApproxReal(1.5, 0.25)
        assert hash(a) == hash(ApproxReal(1.5, 0.25)) == hash((1.5, 0.25))
        assert a != ApproxReal(1.5, 0.125)
        assert a != ApproxReal(1.25, 0.25)
        assert a != (1.5, 0.25)
        assert ApproxReal(2.0) == ApproxReal(2.0, 0.0)
        assert len({a, ApproxReal(1.5, 0.25), ApproxReal(1.5)}) == 2

    def test_invalid_intervals_raise(self):
        with pytest.raises(ValueError):
            ApproxReal(math.nan, 0.0)
        with pytest.raises(ValueError):
            ApproxReal(1.0, math.nan)
        with pytest.raises(ValueError):
            ApproxReal(1.0, -1e-300)

    @pytest.mark.parametrize("radius", ["NaN", "-0.5"])
    def test_document_with_invalid_interval_is_rejected(self, cert6_text, radius):
        doc = json.loads(cert6_text)
        doc["hhat_bar"]["radius"] = "RADIUS"
        text = json.dumps(doc).replace('"RADIUS"', radius)
        with pytest.raises(CertificateFormatError, match="hhat_bar"):
            parse_certificate(text)

    def test_copy_and_pickle(self):
        a = ApproxReal(1.5, 0.25)
        cfg = CurveConfig(91)
        assert copy.deepcopy(a) == a
        assert pickle.loads(pickle.dumps(a)) == a
        assert pickle.loads(pickle.dumps(cfg)) == cfg


class TestCurveConfigValue:
    def test_hb_is_computed_once(self):
        cfg = CurveConfig(91)
        assert cfg.hb is cfg.hb
        assert cfg.hb.contains(math.log(432 * 91 * 91))

    def test_equality_and_hash_follow_m0(self):
        assert CurveConfig(91) == CurveConfig(91)
        assert hash(CurveConfig(91)) == hash(CurveConfig(91))
        assert CurveConfig(91) != CurveConfig(-91)
        assert CurveConfig(91) != 91
        assert repr(CurveConfig(91)) == "CurveConfig(m0=91)"


class TestCertificateChecks:
    def test_parsed_certificates_do_not_share_checks(self, cert6_text):
        a = parse_certificate(cert6_text)
        b = parse_certificate(cert6_text)
        assert a.checks == {} and b.checks == {}
        a.checks["final_inequality"] = True
        assert b.checks == {}
        assert parse_certificate(cert6_text).checks == {}
