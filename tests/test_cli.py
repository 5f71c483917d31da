import csv
import json

import numpy as np
import pytest

from specband import serialize as ser
from specband import truncate
from specband.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, run_cli

from conftest import make_fix7


@pytest.fixture
def flip2_file(tmp_path, flip2):
    path = tmp_path / "flip2.json"
    ser.dump(ser.spec_to_dict(flip2), path)
    return str(path)


@pytest.fixture
def fix7_file(tmp_path):
    path = tmp_path / "fix7.json"
    ser.dump(ser.spec_to_dict(make_fix7()), path)
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestValidateCommand:
    def test_pass(self, fix7_file, capsys):
        assert run_cli(["validate", "--class", "m", fix7_file]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["passed"]

    def test_mtilde_fails_with_clause_a(self, fix7_file, capsys):
        assert run_cli(["validate", "--class", "mtilde", fix7_file]) == EXIT_VALIDATION
        out = json.loads(capsys.readouterr().out)
        assert any(v["clause"] == "a" for v in out["violations"])


class TestPipelineCommands:
    def test_truncate_then_spectrum(self, flip2_file, tmp_path, capsys):
        mat = tmp_path / "mat.json"
        assert run_cli(["truncate", "--N", "2", flip2_file, "-o", str(mat)]) == EXIT_OK
        assert run_cli(["spectrum", str(mat)]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert np.allclose(out["eigenvalues"], [-1.0, 1.0])

    def test_measure_moments_staircase(self, flip2_file, tmp_path, capsys):
        sigma = tmp_path / "sigma.json"
        assert run_cli(["measure", flip2_file, "-o", str(sigma)]) == EXIT_OK
        assert run_cli(["moments", "--k", "2", str(sigma)]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        s0, s1, s2 = (np.array(m)[0, 0, 0] for m in out["moments"])
        assert (s0, s1, s2) == pytest.approx((1.0, 0.0, 1.0), abs=1e-12)

        stairs = tmp_path / "stairs.csv"
        assert run_cli(["staircase", str(sigma), "-o", str(stairs)]) == EXIT_OK
        with open(stairs) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "lambda"
        assert len(rows) == 3  # header + one row per distinct eigenvalue
        # cumulative mass after the last jump is the full mass
        assert float(rows[-1][1]) == pytest.approx(1.0)

    def test_measure_from_dense_needs_n(self, flip2_file, tmp_path, capsys):
        mat = tmp_path / "mat.json"
        run_cli(["truncate", "--N", "2", flip2_file, "-o", str(mat)])
        assert run_cli(["measure", str(mat)]) == EXIT_VALIDATION
        sigma = tmp_path / "sigma.json"
        assert run_cli(["measure", str(mat), "--n", "1", "-o", str(sigma)]) == EXIT_OK
        assert read_json(sigma)["n"] == 1
        capsys.readouterr()

    def test_check_solution(self, flip2_file, tmp_path, capsys):
        sigma = tmp_path / "sigma.json"
        run_cli(["measure", flip2_file, "-o", str(sigma)])
        qpoly = tmp_path / "q.json"
        ser.dump({"n": 1, "comps": [[[1, 0], [0, 0], [-1, 0]]]}, qpoly)
        assert run_cli(["check-solution", str(sigma), str(qpoly)]) == EXIT_OK
        ppoly = tmp_path / "p.json"
        ser.dump({"n": 1, "comps": [[[0, 0], [1, 0]]]}, ppoly)
        assert run_cli(["check-solution", str(sigma), str(ppoly)]) == EXIT_VALIDATION

    def test_generators(self, fix7_file, capsys):
        assert run_cli(["generators", fix7_file]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["p_heights"][:4] == [0, 1, 2, 3]
        assert len(out["heights"]) == 3

    def test_height_command(self, tmp_path, capsys):
        poly = tmp_path / "poly.json"
        ser.dump({"n": 3, "comps": [[[0, 0], [1, 0]], [], [[1, 0]]]}, poly)
        assert run_cli(["height", str(poly)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["height"] == 3

    def test_reconstruct(self, flip2_file, tmp_path, capsys):
        sigma = tmp_path / "sigma.json"
        run_cli(["measure", flip2_file, "-o", str(sigma)])
        out_file = tmp_path / "mtilde.json"
        assert run_cli(
            ["reconstruct", str(sigma), "--max-k", "20", "-o", str(out_file)]
        ) == EXIT_OK
        payload = read_json(out_file)
        data = np.array(payload["matrix"]["data"])[:, :, 0]
        assert np.allclose(data, [[0, 1], [1, 0]], atol=1e-12)
        assert payload["rank_exhausted"]

    def test_roundtrip(self, flip2_file, tmp_path):
        report = tmp_path / "report.json"
        code = run_cli(["roundtrip", flip2_file, "--N", "2", "--report", str(report)])
        assert code == EXIT_OK
        rep = read_json(report)
        assert rep["eigenvalue_error"] <= 1e-12
        assert rep["class_ok"]

    def test_gen_validates(self, tmp_path, capsys):
        out = tmp_path / "spec.json"
        assert run_cli(
            ["gen", "--n", "2", "--N-max", "8", "--seed", "7", "-o", str(out)]
        ) == EXIT_OK
        assert run_cli(["validate", "--class", "m", str(out)]) == EXIT_OK
        capsys.readouterr()

    def test_gen_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["gen", "--n", "1", "--N-max", "6", "--seed", "3", "--mtilde", "-o", str(a)])
        run_cli(["gen", "--n", "1", "--N-max", "6", "--seed", "3", "--mtilde", "-o", str(b)])
        assert read_json(a) == read_json(b)

    def test_roundtrip_batch(self, fix7_file, tmp_path):
        report = tmp_path / "batch.json"
        code = run_cli(
            ["roundtrip", fix7_file, "--N", "8", "--batch", "4", "--report", str(report)]
        )
        assert code == EXIT_OK
        rep = read_json(report)
        assert rep["batch"] == 4
        assert len(rep["reports"]) == 4
        assert rep["all_class_ok"]
        assert rep["max_eigenvalue_error"] <= 1e-8

    def test_roundtrip_batch_starts_at_seed(self, fix7_file, tmp_path):
        def batch(seed):
            report = tmp_path / f"batch{seed}.json"
            run_cli(["roundtrip", fix7_file, "--N", "8", "--batch", "2", "--seed", str(seed),
                     "--report", str(report)])
            return read_json(report)["reports"]

        from0, from1 = batch(0), batch(1)
        assert from0 != from1
        assert from0[1] == from1[0]


class TestExitCodes:
    def test_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["bogus-command"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_file(self, capsys):
        assert run_cli(["validate", "--class", "m", "/nonexistent.json"]) == EXIT_VALIDATION

    def test_numerical_failure_exit(self, tmp_path, capsys):
        # singular zeroth moment: measure supported on one direction only
        sigma = tmp_path / "sigma.json"
        ser.dump(
            {
                "n": 2,
                "points": [
                    {"lambda": 0.0, "C": [[1, 0], [0, 0]]},
                    {"lambda": 1.0, "C": [[1, 0], [0, 0]]},
                ],
            },
            sigma,
        )
        assert run_cli(["reconstruct", str(sigma)]) == EXIT_NUMERICAL

    def test_tol_env_override(self, flip2_file, tmp_path, monkeypatch, capsys):
        sigma = tmp_path / "sigma.json"
        run_cli(["measure", flip2_file, "-o", str(sigma)])
        monkeypatch.setenv("SPECBAND_TOL", "1e-3")
        assert run_cli(["reconstruct", str(sigma)]) == EXIT_OK
        capsys.readouterr()


class TestToleranceAndLimitChecks:
    @pytest.fixture
    def sigma_file(self, fix7_file, tmp_path):
        sigma = tmp_path / "sigma.json"
        assert run_cli(["measure", fix7_file, "-o", str(sigma)]) == EXIT_OK
        return str(sigma)

    @pytest.mark.parametrize("flag", ["--tol-zero", "--cluster-tol"])
    @pytest.mark.parametrize("value", ["0", "-1e-8", "nan", "inf", "abc"])
    def test_bad_tolerance_flag_is_a_usage_error(self, sigma_file, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["reconstruct", sigma_file, flag, value])
        assert exc.value.code == EXIT_USAGE
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1e-3", "abc", "nan"])
    def test_bad_tolerance_env_is_a_usage_error(self, sigma_file, value, monkeypatch, capsys):
        monkeypatch.setenv("SPECBAND_TOL", value)
        with pytest.raises(SystemExit) as exc:
            run_cli(["reconstruct", sigma_file])
        assert exc.value.code == EXIT_USAGE
        assert "SPECBAND_TOL" in capsys.readouterr().err

    def test_tolerance_flag_beats_env(self, sigma_file, tmp_path, monkeypatch):
        monkeypatch.setenv("SPECBAND_TOL", "0.5")
        loose, strict = tmp_path / "loose.json", tmp_path / "strict.json"
        assert run_cli(["reconstruct", sigma_file, "-o", str(loose)]) == EXIT_OK
        assert run_cli(
            ["reconstruct", sigma_file, "--tol-zero", "1e-8", "-o", str(strict)]
        ) == EXIT_OK
        # a relative threshold of 0.5 declares degenerations the default does not
        assert read_json(loose)["emitted"] < read_json(strict)["emitted"] == 7

    def test_cluster_tol_is_used(self, fix7_file, tmp_path):
        sigma = tmp_path / "sigma.json"
        run_cli(["measure", fix7_file, "-o", str(sigma)])
        out = tmp_path / "stairs.csv"
        assert run_cli(["staircase", str(sigma), "--cluster-tol", "1e300", "-o", str(out)]) == EXIT_OK
        with open(out) as fh:
            assert len(list(csv.reader(fh))) == 2  # header + one cluster of all points

    @pytest.mark.parametrize("max_k", ["2", "0", "-3"])
    def test_max_k_below_n_is_a_usage_error(self, sigma_file, max_k, capsys):
        assert run_cli(["reconstruct", sigma_file, "--max-k", max_k]) == EXIT_USAGE
        assert "--max-k" in capsys.readouterr().err

    def test_max_k_equal_to_n_runs(self, sigma_file, capsys):
        assert run_cli(["reconstruct", sigma_file, "--max-k", "3"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["emitted"] == 3
