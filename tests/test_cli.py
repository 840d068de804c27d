"""End-to-end command-line tests: output shapes and exit codes."""

import json
import time

import pytest

from cubeforge import (
    CubicPoint,
    CurveConfig,
    build_certificate,
    certificate_to_json,
    cli,
)
from cubeforge.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INTERNAL,
    EXIT_INVALID_INPUT,
    EXIT_OK,
    EXIT_PRECISION,
    main,
)
from tests.conftest import (
    SCREEN_TAMPERS,
    representation_repeated,
    screen_tampered,
)


@pytest.fixture(scope="module")
def gen_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "generators.json"
    path.write_text(json.dumps([[17, 37, 21]]))
    return str(path)


@pytest.fixture(scope="module")
def cert4_path(tmp_path_factory, gen_file):
    path = tmp_path_factory.mktemp("cli") / "cert4.json"
    rc = main(
        ["construct", "--m0", "6", "--generators", gen_file, "--N", "4",
         "--out", str(path)]
    )
    assert rc == EXIT_OK
    return str(path)


# m = 6 Z^3 of the m0=6, (17, 37, 21), N=4 certificate, pinned through the
# Z that verify reports
CERT4_M = "0x6835303c1568c666fd163654817a3ce620aa2fc3e7af0d697c4e65883cc69d12d2f2c914b076c98710a73d06da2a3daef7d0da42edf2314610000"

# `cubeforge verify` on the m0=6, (17, 37, 21), N=4 certificate
VERIFY_CERT4_STDOUT = """\
{
  "m0": "0x6",
  "r": 1,
  "N": 4,
  "Z": "0x686902cdfcf686410bd123ac6417fad08008260",
  "checks": {
    "generators_on_curve": true,
    "generators_primitive": true,
    "generators_nontrivial": true,
    "generators_independent": true,
    "heights_match": true,
    "lattice_points_match": true,
    "lattice_on_curve": true,
    "lattice_primitive": true,
    "divisor_divisibility": true,
    "divisor_bound": true,
    "divisor_records_match": true,
    "m_matches_product": true,
    "representations_match_formula": true,
    "representation_identity": true,
    "representations_distinct": true,
    "representation_count": true,
    "constants_match": true,
    "log_m_consistency": true,
    "theorem_preconditions": true,
    "chain_bound": true,
    "bound_rhs_match": true,
    "final_inequality": true
  },
  "all_passed": true
}
"""


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestSearch:
    def test_finds_generator(self, capsys):
        rc, out, _ = run(capsys, ["search", "--m0", "6", "--zmax", "25"])
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert ["17", "37", "21"] in payload["points"]
        assert payload["count"] == len(payload["points"])

    def test_finds_rank_3_generators(self, capsys):
        rc, out, _ = run(capsys, ["search", "--m0", "657", "--zmax", "150"])
        assert rc == EXIT_OK
        points = json.loads(out)["points"]
        for triple in (["-7", "10", "1"], ["7", "17", "2"],
                       ["-2890", "2971", "147"]):
            assert triple in points

    def test_bad_zmax(self, capsys):
        rc, _, err = run(capsys, ["search", "--m0", "6", "--zmax", "0"])
        assert rc == EXIT_INVALID_INPUT
        assert "error:" in err

    def test_zmax_past_the_budget(self, capsys):
        rc, out, err = run(
            capsys, ["search", "--m0", "91", "--zmax", "1000000000000"]
        )
        assert rc == EXIT_INVALID_INPUT
        assert out == ""
        assert "search budget of 1,048,576" in err

    def test_zmax_times_cube_divisors_past_the_budget(self, capsys):
        # (2*5*...*31)^3 has 1,024 cube divisors: zmax = 2,000 is within
        # the zmax budget but past it in kernel runs
        m0 = (2 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31) ** 3
        rc, out, err = run(
            capsys, ["search", "--m0", str(m0), "--zmax", "2000"]
        )
        assert rc == EXIT_INVALID_INPUT
        assert out == ""
        assert "1,024 cube divisors of m0 is past the search budget" in err


class TestPhi:
    def test_maps_generator(self, capsys):
        rc, out, _ = run(capsys, ["phi", "--m0", "6", "--point", "17,37,21"])
        assert rc == EXIT_OK
        assert json.loads(out) == {"X": "28", "Y": "80"}

    def test_identity_maps_to_infinity(self, capsys):
        rc, out, _ = run(capsys, ["phi", "--m0", "6", "--point", "1,-1,0"])
        assert rc == EXIT_OK
        assert json.loads(out) == "infinity"

    def test_off_curve(self, capsys):
        rc, _, _ = run(capsys, ["phi", "--m0", "6", "--point", "1,1,1"])
        assert rc == EXIT_INVALID_INPUT

    def test_malformed_point(self, capsys):
        rc, _, _ = run(capsys, ["phi", "--m0", "6", "--point", "17,37"])
        assert rc == EXIT_INVALID_INPUT

    def test_fractional_image(self, capsys):
        rc, out, _ = run(
            capsys, ["phi", "--m0", "6", "--point", "2237723,-1805723,960540"]
        )
        assert rc == EXIT_OK
        assert json.loads(out) == {"X": "16009/100", "Y": "-2021723/1000"}

    def test_zero_triple(self, capsys):
        rc, out, err = run(capsys, ["phi", "--m0", "6", "--point", "0,0,0"])
        assert rc == EXIT_INVALID_INPUT
        assert out == ""
        assert "(0, 0, 0) is not on" in err


class TestHeight:
    def test_generator_height(self, capsys):
        rc, out, _ = run(capsys, ["height", "--m0", "6", "--point", "17,37,21"])
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert 1.2215 < payload["value"] < 1.2225
        assert 0 < payload["radius"] <= 1e-3

    def test_infinity_is_exact_zero(self, capsys):
        rc, out, _ = run(capsys, ["height", "--m0", "6", "--point", "1,-1,0"])
        assert rc == EXIT_OK
        assert json.loads(out) == {"value": 0.0, "radius": 0.0}

    @pytest.mark.parametrize("point", ["infinity", "28,80"])
    def test_weierstrass_input_rejected(self, capsys, point):
        rc, out, err = run(capsys, ["height", "--m0", "6", "--point", point])
        assert rc == EXIT_INVALID_INPUT
        assert out == ""
        assert "expected x,y,z integers" in err

    def test_off_curve(self, capsys):
        # canonical_height rejects the point before any other work
        rc, out, err = run(capsys, ["height", "--m0", "6", "--point", "17,37,22"])
        assert rc == EXIT_INVALID_INPUT
        assert out == ""
        assert "(17, 37, 22) is not on x^3 + y^3 = 6 z^3" in err

    def test_zero_triple(self, capsys):
        rc, out, err = run(capsys, ["height", "--m0", "6", "--point", "0,0,0"])
        assert rc == EXIT_INVALID_INPUT
        assert out == ""
        assert "(0, 0, 0) is not on" in err

    def test_budget_exhaustion(self, capsys):
        # no float enclosure of a height carries a radius of 1e-300
        rc, _, err = run(
            capsys,
            ["height", "--m0", "6", "--point", "17,37,21", "--tol", "1e-300"],
        )
        assert rc == EXIT_PRECISION
        assert "achievable tolerance" in err

    @pytest.mark.parametrize("tol", ["inf", "1e400", "0", "-1e-3", "nan"])
    def test_tol_rule_of_construct(self, capsys, tol):
        # construct.checked_tol, the rule construct and verify apply
        rc, out, err = run(
            capsys,
            ["height", "--m0", "6", "--point", "17,37,21", f"--tol={tol}"],
        )
        assert rc == EXIT_INVALID_INPUT
        assert out == ""
        assert "tol must be positive and finite" in err


class TestIndependence:
    def test_infinite_tol(self, capsys, gen_file):
        rc, out, err = run(
            capsys,
            ["independence", "--m0", "6", "--points", gen_file,
             "--tol", "inf"],
        )
        assert rc == EXIT_INVALID_INPUT
        assert out == ""
        assert "tol must be positive and finite" in err

    def test_far_good_multiple(self, capsys, tmp_path):
        # (202, -101, 1) on m0 = 7 * 101^3: the least multiple of
        # nonsingular reduction at every prime is 102, past the cap
        path = tmp_path / "far.json"
        path.write_text(json.dumps([[202, -101, 1]]))
        rc, out, err = run(
            capsys,
            ["independence", "--m0", str(7 * 101**3), "--points", str(path)],
        )
        assert rc == EXIT_INVALID_INPUT
        assert out == ""
        assert "nonsingular reduction" in err

    def test_single_generator(self, capsys, gen_file):
        rc, out, _ = run(
            capsys, ["independence", "--m0", "6", "--points", gen_file]
        )
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert payload["independent"] is True
        assert len(payload["gram"]) == 1

    def test_dependent_pair(self, capsys, tmp_path):
        path = tmp_path / "dep.json"
        path.write_text(
            json.dumps([[17, 37, 21], [2237723, -1805723, 960540]])
        )
        rc, out, _ = run(
            capsys, ["independence", "--m0", "6", "--points", str(path)]
        )
        assert rc == EXIT_CHECK_FAILED
        assert json.loads(out)["independent"] is False

    def test_torsion_point(self, capsys, tmp_path):
        path = tmp_path / "tors.json"
        path.write_text(json.dumps([[1, 1, 1]]))
        rc, out, _ = run(
            capsys, ["independence", "--m0", "2", "--points", str(path)]
        )
        assert rc == EXIT_CHECK_FAILED
        assert json.loads(out)["independent"] is False

    def test_zero_triple(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps([[0, 0, 0]]))
        rc, out, err = run(
            capsys, ["independence", "--m0", "6", "--points", str(path)]
        )
        assert rc == EXIT_INVALID_INPUT
        assert out == ""
        assert "(0, 0, 0) is not on" in err

    def test_off_curve(self, capsys, tmp_path):
        path = tmp_path / "off.json"
        path.write_text(json.dumps([[17, 37, 21], [17, 37, 22]]))
        rc, out, err = run(
            capsys, ["independence", "--m0", "6", "--points", str(path)]
        )
        assert rc == EXIT_INVALID_INPUT
        assert out == ""
        assert "(17, 37, 22) is not on x^3 + y^3 = 6 z^3" in err

    def test_empty_file(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        rc, _, _ = run(
            capsys, ["independence", "--m0", "6", "--points", str(path)]
        )
        assert rc == EXIT_INVALID_INPUT


# where decimal text enters the CLI, "{}" standing for it: the entries of a
# generator or point file, as JSON numbers or as decimal strings (the file's
# path then stands in), a --point coordinate, and the mantissa and exponent
# of a --hB decimal
_FILE_PLACES = {
    "construct": ["construct", "--N", "4", "--generators", "{}", "--m0", "6"],
    "independence": ["independence", "--points", "{}", "--m0", "6"],
}
_ARGUMENT_PLACES = {
    "phi": ["phi", "--m0", "6", "--point={},37,21"],
    "height": ["height", "--m0", "6", "--point={},37,21"],
    "hB-mantissa": ["certify-corollary", "--r", "2", "--hB", "{}",
                    "--hxmax", "1e400"],
    "hB-exponent": ["certify-corollary", "--r", "2", "--hB", "1e{}",
                    "--hxmax", "1e400"],
}
_DIGIT_LIMIT_CASES = [
    pytest.param(
        argv, quoted, sign, digits, refused,
        id=f"{name}-{sign}-{digits}-{refused}{form}",
    )
    for places, forms in (
        (_FILE_PLACES, {False: "-number", True: "-string"}),
        (_ARGUMENT_PLACES, {None: ""}),
    )
    for name, argv in places.items()
    for sign, digits, refused in [
        ("", 4300, False), ("-", 4300, False), ("", 4301, True),
        ("-", 4301, True), ("", 400_000, True),
    ]
    for quoted, form in forms.items()
]


class TestTripleFiles:
    @pytest.mark.parametrize(
        "entries",
        [
            [[17.9, 37, 21]],
            [[17.0, 37, 21]],
            [[True, 37, 21]],
            [[17, None, 21]],
            [[17, 37, [21]]],
            [["17.9", 37, 21]],
            [["seventeen", 37, 21]],
        ],
    )
    @pytest.mark.parametrize(
        "argv",
        [["construct", "--N", "4", "--generators"], ["independence", "--points"]],
        ids=["construct", "independence"],
    )
    def test_non_integer_entries_rejected(self, capsys, tmp_path, entries, argv):
        # int() would truncate 17.9 and read true as 1, silently changing the point
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(entries))
        rc, out, err = run(capsys, [*argv, str(path), "--m0", "6"])
        assert rc == EXIT_INVALID_INPUT
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv, quoted, sign, digits, refused", _DIGIT_LIMIT_CASES
    )
    def test_decimal_digit_limit(self, capsys, tmp_path, argv, sign, digits,
                                 refused, quoted):
        # the bound read_decimal puts on decimal text from outside, since
        # decimal conversion is quadratic; 0.5 s is far above a refusal's cost
        literal = sign + "9" * digits
        if quoted is not None:
            path = tmp_path / "big.json"
            path.write_text(
                f'[[{json.dumps(literal) if quoted else literal}, 37, 21]]'
            )
            literal = str(path)
        start = time.perf_counter()
        rc, out, err = run(capsys, [a.format(literal) for a in argv])
        elapsed = time.perf_counter() - start
        assert rc == EXIT_INVALID_INPUT
        assert out == ""
        if refused:
            assert err == "error: an integer has more than 4300 digits\n"
            assert elapsed < 0.5
        else:
            # read, and refused only for being off the curve, or for the
            # --hxmax beyond float range that follows a --hB
            assert "4300 digits" not in err

    def test_decimal_strings_accepted(self, capsys, tmp_path):
        path = tmp_path / "strings.json"
        path.write_text(json.dumps([["17", "37", "21"]]))
        rc, out, _ = run(
            capsys, ["independence", "--m0", "6", "--points", str(path)]
        )
        assert rc == EXIT_OK
        assert json.loads(out)["independent"] is True


class TestConstruct:
    def test_small_box_fails_preconditions(self, capsys, gen_file, tmp_path):
        out_path = tmp_path / "cert2.json"
        rc, _, err = run(
            capsys,
            ["construct", "--m0", "6", "--generators", gen_file, "--N", "2",
             "--out", str(out_path)],
        )
        assert rc == EXIT_CHECK_FAILED
        assert "theorem_preconditions" in err
        payload = json.loads(out_path.read_text())
        # the document stores Z; m = 6 Z^3 = 49244246842992972624000
        assert payload["Z"] == hex(20171340)
        assert "m" not in payload

    def test_stdout_when_no_out(self, capsys, gen_file):
        rc, out, _ = run(
            capsys,
            ["construct", "--m0", "6", "--generators", gen_file, "--N", "2"],
        )
        assert rc == EXIT_CHECK_FAILED
        assert json.loads(out)["N"] == 2

    def test_full_run_exit_zero(self, cert4_path):
        # the fixture asserts exit 0, which means every check passed
        payload = json.loads(open(cert4_path).read())
        assert payload["N"] == 4
        assert payload["schema_version"] == "11"
        assert "checks" not in payload

    @pytest.mark.parametrize("box_size", ["20", "24"])
    def test_large_box_construct_and_verify(self, capsys, gen_file, tmp_path,
                                            box_size):
        # the coordinates pass any float's range from N=20 on
        out_path = tmp_path / "cert.json"
        rc, _, err = run(
            capsys,
            ["construct", "--m0", "6", "--generators", gen_file, "--N",
             box_size, "--out", str(out_path)],
        )
        assert rc == EXIT_OK, err
        rc, out, _ = run(capsys, ["verify", "--cert", str(out_path)])
        assert rc == EXIT_OK
        assert json.loads(out)["all_passed"] is True

    @pytest.mark.parametrize(
        "generators",
        [[[-5, 6, 1], [3, 4, 1]], [[3, 4, 1], [-5, 6, 1]]],
        ids=["flipped", "as-given"],
    )
    def test_names_negated_generators(self, capsys, tmp_path, generators):
        # on m0=91 at N=8 construct neither reorders nor negates the pair:
        # it is stored as given, the stderr line names only the count, and
        # the other order manufactures the same Z, so the same m
        def construct(gens):
            gen_path = tmp_path / "pool91.json"
            gen_path.write_text(json.dumps(gens))
            out_path = tmp_path / "cert.json"
            rc, out, err = run(
                capsys,
                ["construct", "--m0", "91", "--generators", str(gen_path),
                 "--N", "8", "--out", str(out_path)],
            )
            assert rc == EXIT_OK, err
            assert out == ""
            assert err == "certificate ok: 64 representations\n"
            return json.loads(out_path.read_text())

        stored = construct(generators)
        assert stored["generators"] == [
            [hex(c) for c in g] for g in generators
        ]
        assert construct(generators[::-1])["Z"] == stored["Z"]

    def test_stdout_is_the_document(self, capsys, tmp_path):
        # without --out stdout gets the bytes write_certificate writes
        gens = tmp_path / "pool91.json"
        gens.write_text(json.dumps([[-5, 6, 1], [3, 4, 1]]))
        rc, out, _ = run(
            capsys,
            ["construct", "--m0", "91", "--generators", str(gens), "--N", "8"],
        )
        assert rc == EXIT_OK
        cert = build_certificate(
            CurveConfig(91), [CubicPoint(-5, 6, 1), CubicPoint(3, 4, 1)], 8
        )
        assert out == certificate_to_json(cert)

    def test_rank_three_construct_and_verify(self, capsys, tmp_path):
        gens = tmp_path / "rank3.json"
        gens.write_text(json.dumps([[-7, 10, 1], [7, 17, 2], [-2890, 2971, 147]]))
        out_path = tmp_path / "cert.json"
        rc, _, err = run(
            capsys,
            ["construct", "--m0", "657", "--generators", str(gens), "--N", "4",
             "--out", str(out_path)],
        )
        assert rc == EXIT_OK, err
        rc, out, _ = run(capsys, ["verify", "--cert", str(out_path)])
        assert rc == EXIT_OK
        assert json.loads(out)["all_passed"] is True

    def test_dependent_generators(self, capsys, tmp_path):
        path = tmp_path / "dep.json"
        path.write_text(
            json.dumps([[17, 37, 21], [2237723, -1805723, 960540]])
        )
        rc, _, err = run(
            capsys,
            ["construct", "--m0", "6", "--generators", str(path), "--N", "2"],
        )
        assert rc == EXIT_CHECK_FAILED
        assert "independent" in err

    def test_non_finite_tol_writes_nothing(self, capsys, gen_file, tmp_path):
        # "tol": Infinity is not JSON, and the verifier refuses it
        out_path = tmp_path / "cert.json"
        rc, out, err = run(
            capsys,
            ["construct", "--m0", "6", "--generators", gen_file, "--N", "4",
             "--tol", "inf", "--out", str(out_path)],
        )
        assert rc == EXIT_INVALID_INPUT
        assert out == ""
        assert "tol must be positive and finite" in err
        assert not out_path.exists()

    def test_missing_generator_file(self, capsys, tmp_path):
        rc, _, _ = run(
            capsys,
            ["construct", "--m0", "6", "--generators",
             str(tmp_path / "nope.json"), "--N", "2"],
        )
        assert rc == EXIT_INVALID_INPUT

    def test_unexpected_exception_is_exit_4(self, capsys, gen_file, monkeypatch):
        # an exception with no documented code must not read as "check failed"
        def overflow(*args, **kwargs):
            raise OverflowError("math range error")

        monkeypatch.setattr(cli, "build_certificate", overflow)
        rc, out, err = run(
            capsys,
            ["construct", "--m0", "6", "--generators", gen_file, "--N", "2"],
        )
        assert rc == EXIT_INTERNAL == 4
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "OverflowError" in err and "Traceback" not in err


class TestVerify:
    def test_good_certificate(self, capsys, cert4_path):
        rc, out, _ = run(capsys, ["verify", "--cert", cert4_path])
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert payload["all_passed"] is True
        # m0 and Z are echoed in the certificate's hex encoding; m = m0 Z^3
        # is never formed
        stored = json.loads(open(cert4_path).read())
        assert payload["m0"] == stored["m0"]
        assert payload["Z"] == stored["Z"]
        assert "m" not in payload

    def test_stdout_is_pinned(self, capsys, cert4_path):
        # key order, every check in CHECK_NAMES order, Z in hex, all_passed
        rc, out, _ = run(capsys, ["verify", "--cert", cert4_path])
        assert rc == EXIT_OK
        assert out == VERIFY_CERT4_STDOUT
        # so m itself is pinned too
        assert hex(6 * int(json.loads(out)["Z"], 16) ** 3) == CERT4_M

    def test_tampered_certificate(self, capsys, cert4_path, tmp_path):
        doc = json.loads(open(cert4_path).read())
        doc["Z"] = hex(int(doc["Z"], 16) + 6)
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(doc))
        rc, out, _ = run(capsys, ["verify", "--cert", str(bad)])
        assert rc == EXIT_CHECK_FAILED
        assert json.loads(out)["checks"]["m_matches_product"] is False

    def test_malformed_certificate(self, capsys, tmp_path):
        bad = tmp_path / "garbage.json"
        bad.write_text("{not json")
        rc, _, err = run(capsys, ["verify", "--cert", str(bad)])
        assert rc == EXIT_INVALID_INPUT
        assert "error:" in err

    def test_missing_file(self, capsys, tmp_path):
        rc, _, _ = run(
            capsys, ["verify", "--cert", str(tmp_path / "absent.json")]
        )
        assert rc == EXIT_INVALID_INPUT


class TestCount:
    def test_taxicab(self, capsys):
        rc, out, _ = run(capsys, ["count", "--m", "1729"])
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert payload["ordered_count"] == 4
        assert ["1", "12"] in payload["pairs"]

    def test_unordered_flag(self, capsys):
        rc, out, _ = run(capsys, ["count", "--m", "1729", "--unordered"])
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert payload["unordered_count"] == 2

    def test_desk_scale_certificate_m(self, capsys):
        # m = 6 * 20171340^3, the README's N = 2 certificate on m0 = 6
        rc, out, _ = run(
            capsys, ["count", "--m", "49244246842992972624000", "--unordered"]
        )
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert payload["ordered_count"] == 4
        assert payload["unordered_count"] == 2
        assert ["16329180", "35539980"] in payload["unordered_pairs"]

    def test_zero_rejected(self, capsys):
        rc, _, err = run(capsys, ["count", "--m", "0"])
        assert rc == EXIT_INVALID_INPUT
        assert "infinite family" in err

    @pytest.mark.parametrize(
        "which", ["m0=91,N=4", "primorial-61-cubed", "squarefree-28", "m0=6,N=5"]
    )
    def test_past_the_budget_refused(self, capsys, which):
        # the m of the m0 = 91, N = 4 certificate, (2 * 3 * ... * 61)^3, the
        # squarefree product of the first 28 primes other than 3, and the m
        # of the m0 = 6, N = 5 certificate: each past the census budget,
        # the two certificate m on their trial-division part alone
        if which == "m0=91,N=4":
            cert = build_certificate(
                CurveConfig(91), [CubicPoint(-5, 6, 1), CubicPoint(3, 4, 1)], 4
            )
            m, work = str(cert.m), "653,006,880"
        elif which == "m0=6,N=5":
            cert = build_certificate(CurveConfig(6), [CubicPoint(17, 37, 21)], 5)
            m, work = str(cert.m), "8,757,288"
        elif which == "squarefree-28":
            m = "93244998939284978726092053957355936558332410"
            work = "268,435,457"
        else:
            m = (
                "1613485171766425360438651451902506476925609794419195008385"
                "535091783000"
            )
            work = "258,542,470"
        start = time.perf_counter()
        rc, out, err = run(capsys, ["count", "--m", m])
        assert time.perf_counter() - start < 1.0
        assert rc == EXIT_INVALID_INPUT
        assert out == ""
        assert err == (
            f"error: the census of m takes at least {work} steps, past the"
            " census budget of 8,388,608\n"
        )
        assert len(err) < 300


class TestCertifyCorollary:
    ARGS = [
        "certify-corollary", "--r", "11", "--hB", "121.767",
        "--hxmax", "76.61",
    ]

    def test_reports_constant(self, capsys):
        rc, out, _ = run(capsys, self.ARGS)
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert payload["m_factor"] == "36844"
        assert abs(payload["hhat_bar_upper"]["value"] - 60.1755) < 1e-9
        assert abs(payload["constant"]["value"] - 4.2705947526e-6) < 1e-15
        assert payload["passes"] is None

    def test_target_met(self, capsys):
        rc, out, _ = run(capsys, self.ARGS + ["--target", "4.2e-6"])
        assert rc == EXIT_OK
        assert json.loads(out)["passes"] is True

    def test_target_missed(self, capsys):
        rc, out, _ = run(capsys, self.ARGS + ["--target", "1e-3"])
        assert rc == EXIT_CHECK_FAILED
        assert json.loads(out)["passes"] is False

    def test_bad_rank(self, capsys):
        rc, _, _ = run(
            capsys,
            ["certify-corollary", "--r", "0", "--hB", "1", "--hxmax", "1"],
        )
        assert rc == EXIT_INVALID_INPUT

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--hB", "1e400", "--hxmax", "1"], "beyond float range"),
            (["--hB", "1", "--hxmax", "1e400"], "beyond float range"),
            (["--hB", "1", "--hxmax", "1", "--target", "nan"], "finite"),
            (["--hB", "1", "--hxmax", "1", "--target", "inf"], "finite"),
        ],
        ids=["hB", "hxmax", "target-nan", "target-inf"],
    )
    def test_out_of_range_input(self, capsys, extra, message):
        # exit 2 before any output: JSON has no NaN or Infinity
        rc, out, err = run(capsys, ["certify-corollary", "--r", "2", *extra])
        assert rc == EXIT_INVALID_INPUT
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("value", ["1e999999999", "1e16000000"])
    def test_huge_exponent_refused_at_once(self, capsys, value):
        # the range is read off the literal before any power of ten is formed
        start = time.perf_counter()
        rc, out, err = run(
            capsys, ["certify-corollary", "--r", "2", "--hB", value, "--hxmax", "1"]
        )
        assert time.perf_counter() - start < 1.0
        assert rc == EXIT_INVALID_INPUT
        assert out == ""
        assert "beyond float range" in err

    @pytest.mark.parametrize("value", ["121767/1000", "inf"])
    def test_not_a_decimal(self, capsys, value):
        rc, out, err = run(
            capsys, ["certify-corollary", "--r", "2", "--hB", value, "--hxmax", "1"]
        )
        assert rc == EXIT_INVALID_INPUT
        assert out == ""
        assert "is not a decimal literal" in err

    def test_huge_rank_refused_at_once(self, capsys):
        # refused from the bit count, before 2^(r+1) is formed
        start = time.perf_counter()
        rc, out, err = run(
            capsys,
            ["certify-corollary", "--r", "1000000000", "--hB", "1",
             "--hxmax", "1"],
        )
        assert time.perf_counter() - start < 0.5
        assert rc == EXIT_INVALID_INPUT
        assert out == ""
        assert "1000000005-bit integer is beyond float range" in err

    def test_rank_beyond_float_range(self, capsys):
        # m_factor(1100) = 9 * 2^1101 - 20 has no float
        rc, out, err = run(
            capsys,
            ["certify-corollary", "--r", "1100", "--hB", "1", "--hxmax", "1"],
        )
        assert rc == EXIT_INVALID_INPUT
        assert out == ""
        assert "1105-bit integer is beyond float range" in err


_LONG = "9" * 4301


class TestHostileInput:
    """Input built to break a reader: exit 2 at once, with one short reason."""

    @staticmethod
    def assert_refused(capsys, argv, cause):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse's usage error
            rc = exc.code
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert rc == EXIT_INVALID_INPUT
        assert captured.out == ""
        assert cause in captured.err
        assert len(captured.err) < 300
        assert elapsed < 0.5

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--cert"],
            ["construct", "--m0", "6", "--N", "4", "--generators"],
            ["independence", "--m0", "6", "--points"],
        ],
        ids=["verify", "construct", "independence"],
    )
    def test_deeply_nested_json(self, capsys, tmp_path, argv):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000)
        self.assert_refused(capsys, [*argv, str(path)], "nested too deeply")

    @pytest.mark.parametrize(
        "argv",
        [
            ["phi", "--m0", "6", "--point", f"{_LONG},37,21"],
            ["height", "--m0", "6", "--point", f"{_LONG},37,21"],
            # integer options: a usage error that names the bound and does
            # not echo the value
            ["search", "--m0", _LONG, "--zmax", "10"],
            ["search", "--m0", "6", "--zmax", _LONG],
            ["construct", "--m0", "6", "--generators", "g.json", "--N", _LONG],
            ["count", "--m", _LONG],
            ["certify-corollary", "--r", _LONG, "--hB", "1", "--hxmax", "1"],
        ],
        ids=["phi-point", "height-point", "search-m0", "search-zmax",
             "construct-N", "count-m", "certify-corollary-r"],
    )
    def test_long_integer(self, capsys, argv):
        self.assert_refused(capsys, argv, "more than 4300 digits")

    def test_long_zmax_within_the_digit_limit(self, capsys):
        # 4,300 digits convert, and the budget's refusal does not echo them
        self.assert_refused(
            capsys, ["search", "--m0", "6", "--zmax", "9" * 4300],
            "past the search budget",
        )

    def test_long_schema_version_is_not_echoed(self, capsys, cert4_path,
                                               tmp_path):
        # the refusal names the version it read in at most 40 characters
        doc = json.loads(open(cert4_path).read())
        doc["schema_version"] = "7" * 100_000
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        self.assert_refused(capsys, ["verify", "--cert", str(path)],
                            "unsupported schema_version '777")

    @pytest.mark.parametrize("name", sorted(SCREEN_TAMPERS))
    def test_screened_index_set(self, capsys, tmp_path, name):
        # not an input error: the document parses, and its index screen
        # fails every check after the generators' with a short stderr
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(screen_tampered(name)))
        rc, out, err = run(capsys, ["verify", "--cert", str(path)])
        assert rc == EXIT_CHECK_FAILED
        assert len(err) < 300
        payload = json.loads(out)
        assert payload["all_passed"] is False
        assert not payload["checks"]["generators_independent"]

    def test_missing_representation(self, capsys, tmp_path):
        # derived and compared like any tampered field: exit 1, short stderr
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(representation_repeated()))
        rc, out, err = run(capsys, ["verify", "--cert", str(path)])
        assert rc == EXIT_CHECK_FAILED
        assert len(err) < 300
        checks = json.loads(out)["checks"]
        assert checks["generators_independent"]
        assert not checks["representations_distinct"]

    def test_long_m0_is_echoed_in_hex(self, capsys, cert4_path, tmp_path):
        # m0 is an unbounded hex field: the echo stays linear in its length,
        # where str() would take seconds on 400,000 hex digits
        doc = json.loads(open(cert4_path).read())
        doc["m0"] = "0x" + "7" * 400_000
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        rc, out, err = run(capsys, ["verify", "--cert", str(path)])
        assert time.perf_counter() - start < 1.0
        assert rc == EXIT_CHECK_FAILED
        assert len(err) < 300
        payload = json.loads(out)
        assert payload["m0"] == doc["m0"]
        assert not payload["checks"]["generators_on_curve"]

    @pytest.mark.parametrize("command", ["phi", "height"])
    def test_long_two_field_point(self, capsys, command):
        # not three fields, so read_decimal never sees it: the message
        # echoes only its first 40 characters
        point = "9" * 100_000 + ",1"
        self.assert_refused(
            capsys, [command, "--m0", "6", "--point", point],
            "expected x,y,z integers",
        )


class TestParser:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--m0", "6"])
        assert exc.value.code == 2
