"""End-to-end command-line tests: output shapes and exit codes."""

import json

import pytest

from cubeforge import cli
from cubeforge.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INTERNAL,
    EXIT_INVALID_INPUT,
    EXIT_OK,
    EXIT_PRECISION,
    main,
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

    def test_bad_zmax(self, capsys):
        rc, _, err = run(capsys, ["search", "--m0", "6", "--zmax", "0"])
        assert rc == EXIT_INVALID_INPUT
        assert "error:" in err


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


class TestHeight:
    def test_generator_height(self, capsys):
        rc, out, _ = run(capsys, ["height", "--m0", "6", "--point", "28,80"])
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert 1.2215 < payload["value"] < 1.2225
        assert 0 < payload["radius"] <= 1e-3

    def test_infinity_is_exact_zero(self, capsys):
        rc, out, _ = run(capsys, ["height", "--m0", "6", "--point", "infinity"])
        assert rc == EXIT_OK
        assert json.loads(out) == {"value": 0.0, "radius": 0.0}

    def test_off_curve(self, capsys):
        rc, _, _ = run(capsys, ["height", "--m0", "6", "--point", "28,81"])
        assert rc == EXIT_INVALID_INPUT

    def test_budget_exhaustion(self, capsys, monkeypatch):
        monkeypatch.setenv("CUBEFORGE_DIGIT_BUDGET", "50")
        rc, _, err = run(
            capsys,
            ["height", "--m0", "6", "--point", "28,80", "--tol", "1e-6"],
        )
        assert rc == EXIT_PRECISION
        assert "budget" in err


class TestIndependence:
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

    def test_empty_file(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        rc, _, _ = run(
            capsys, ["independence", "--m0", "6", "--points", str(path)]
        )
        assert rc == EXIT_INVALID_INPUT


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
        assert payload["m"] == "49244246842992972624000"

    def test_stdout_when_no_out(self, capsys, gen_file):
        rc, out, _ = run(
            capsys,
            ["construct", "--m0", "6", "--generators", gen_file, "--N", "2"],
        )
        assert rc == EXIT_CHECK_FAILED
        assert json.loads(out)["N"] == 2

    def test_full_run_exit_zero(self, cert4_path):
        payload = json.loads(open(cert4_path).read())
        assert payload["N"] == 4
        assert all(payload["checks"].values())

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
        assert payload["m0"] == "6"

    def test_tampered_certificate(self, capsys, cert4_path, tmp_path):
        doc = json.loads(open(cert4_path).read())
        doc["m"] = str(int(doc["m"]) + 6)
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

    def test_zero_rejected(self, capsys):
        rc, _, err = run(capsys, ["count", "--m", "0"])
        assert rc == EXIT_INVALID_INPUT
        assert "infinite family" in err


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


class TestParser:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--m0", "6"])
        assert exc.value.code == 2
