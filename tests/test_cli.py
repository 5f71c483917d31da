import csv
import dataclasses
import json

import numpy as np
import pytest

from specband import cli
from specband import serialize as ser
from specband import GenProfile, generate_random, truncate
from specband.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, run_cli
from specband.reconstruct import (
    BAND_NOISE_TOL,
    ROUNDTRIP_EIG_TOL,
    ZERO_NORM_TOL,
    orthonormalize,
    recover_band,
    recover_matrix,
)
from specband.spectral import (
    CLUSTER_TOL,
    BoundaryMatrix,
    StepMeasure,
    eigen_decompose,
    step_measure,
)

from conftest import (
    gue_measure,
    make_fix7,
    pairs_as_lists,
    reference_dumps,
    tie_keeping_permutation,
)

#: the one subcommand that reads each tolerance flag
FLAG_OWNER = {"--tol-zero": "reconstruct", "--cluster-tol": "staircase", "--tol": "check-solution"}


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

    def test_staircase_has_no_negative_zero(self, tmp_path, capsys):
        # C C* of C = (1 - 0i, -0 + 0i) has -0.0 in its (1, 2) entry; sigma starts at 0.0
        sigma = tmp_path / "sigma.json"
        ser.dump({"n": 2, "points": [{"lambda": 0.5, "C": [[1.0, -0.0], [-0.0, 0.0]]}]}, sigma)
        assert run_cli(["staircase", str(sigma)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1] == "0.5,1.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0"

    def test_moments_have_no_negative_zero(self, tmp_path):
        # C C* of C = (1, -0) has -0.0 entries, and lambda < 0 gives negative powers
        sigma, out = tmp_path / "sigma.json", tmp_path / "moments.json"
        points = [{"lambda": -1.5, "C": [[1.0, -0.0], [-0.0, -0.0]]},
                  {"lambda": 0.5, "C": [[-0.0, 0.0], [2.0, -1.0]]}]
        ser.dump({"n": 2, "points": points}, sigma)
        assert run_cli(["moments", "--k", "5", str(sigma), "-o", str(out)]) == EXIT_OK
        values = np.array(read_json(out)["moments"], dtype=float)
        assert values.shape == (6, 2, 2, 2)
        assert (values == 0.0).any() and not np.signbit(values[values == 0.0]).any()

    def test_spectrum_truncates_like_measure(self, tmp_path, capsys):
        # N = n needs no structure: spectrum and measure both take the 2 x 2 corner
        spec = tmp_path / "spec.json"
        assert run_cli(["gen", "--n", "2", "--N-max", "10", "--seed", "7", "-o", str(spec)]) == EXIT_OK
        assert run_cli(["measure", str(spec), "--N", "2"]) == EXIT_OK
        capsys.readouterr()
        assert run_cli(["spectrum", str(spec), "--N", "2"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        data = truncate(ser.spec_from_dict(read_json(spec)), 2).data
        assert out["N"] == 2
        assert out["eigenvalues"] == pytest.approx(np.linalg.eigvalsh(data), abs=1e-12)

    def test_spectrum_refuses_to_retruncate_a_dense_matrix(self, flip2_file, tmp_path, capsys):
        mat = tmp_path / "mat.json"
        assert run_cli(["truncate", "--N", "2", flip2_file, "-o", str(mat)]) == EXIT_OK
        assert run_cli(["spectrum", str(mat), "--N", "2"]) == EXIT_OK
        assert run_cli(["spectrum", str(mat), "--N", "1"]) == EXIT_VALIDATION
        assert "cannot retruncate a dense matrix" in capsys.readouterr().err

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
        # p_2 = z is no solution, but its residual is within a loose threshold
        assert run_cli(["check-solution", str(sigma), str(ppoly), "--tol", "10"]) == EXIT_OK
        zero = tmp_path / "zero.json"
        ser.dump({"n": 1, "comps": [[]]}, zero)
        assert run_cli(["check-solution", str(sigma), str(zero)]) == EXIT_OK

    def test_generators(self, fix7_file, tmp_path, capsys):
        assert run_cli(["generators", fix7_file]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["p_heights"][:4] == [0, 1, 2, 3]
        assert len(out["heights"]) == 3
        assert out["solution_flags"] and all(out["solution_flags"])
        # the q_j of a band matrix with degenerations are its generators (n=3, N=40)
        spec = tmp_path / "mtilde.json"
        assert run_cli(["gen", "--n", "3", "--N-max", "40", "--mtilde", "--seed", "0",
                        "-o", str(spec)]) == EXIT_OK
        assert run_cli(["generators", str(spec)]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["minimal"], out["height_table"]

    def test_height_command(self, tmp_path, capsys):
        # a polynomial is stored up to its last nonzero coefficient: in the second,
        # slot 1 ends at z^2 past a -0.0 (height 4), and slot 2 holds only zeros
        poly = tmp_path / "poly.json"
        for comps, h in [([[[0, 0], [1, 0]], [], [[1, 0]]], 3),
                         ([[[1, 0], [-0.0, 0], [2, 0], [0, 0]], [[0, 0], [-0.0, 0]]], 4)]:
            ser.dump({"n": len(comps), "comps": comps}, poly)
            assert run_cli(["height", str(poly)]) == EXIT_OK
            assert json.loads(capsys.readouterr().out) == {"n": len(comps), "height": h}

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

    def test_reconstruct_verbose_reports_the_sweep(self, fix7_file, tmp_path, capsys):
        sigma, out = tmp_path / "sigma.json", str(tmp_path / "out.json")
        run_cli(["measure", fix7_file, "-o", str(sigma)])
        assert run_cli(["reconstruct", str(sigma), "-o", out]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert run_cli(["reconstruct", str(sigma), "-v", "-o", out]) == EXIT_OK
        res = orthonormalize(ser.measure_from_dict(read_json(sigma)), 20)
        leakage = recover_band(res)[1]
        assert capsys.readouterr().err == (
            f"emitted 7, q heights {list(res.q_heights)}, skips {len(res.skip_log)}, "
            f"orthogonality loss {res.orthogonality_loss:.3e}, band leakage {leakage:.3e}\n"
        )
        assert len(res.weights) == 7 and len(res.q_heights) == 3
        assert read_json(out)["band_leakage"] == leakage

    def test_roundtrip(self, flip2_file, tmp_path):
        report = tmp_path / "report.json"
        code = run_cli(["roundtrip", flip2_file, "--N", "2", "-o", str(report)])
        assert code == EXIT_OK
        rep = read_json(report)
        assert rep["eigenvalue_error"] <= 1e-12
        assert rep["class_ok"]

    def test_gen_validates(self, tmp_path, capsys):
        out = tmp_path / "spec.json"
        # the second profile takes the generator's --real path through the mtilde check
        for flags, klass in [(["--n", "2", "--N-max", "8", "--seed", "7"], "m"),
                             (["--n", "1", "--N-max", "12", "--real", "--mtilde", "--seed", "3"],
                              "mtilde")]:
            assert run_cli(["gen", *flags, "-o", str(out)]) == EXIT_OK
            assert run_cli(["validate", "--class", klass, str(out)]) == EXIT_OK
        assert all(im == 0 for _, _, _, im in read_json(out)["entries"])
        capsys.readouterr()

    def test_gen_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["gen", "--n", "1", "--N-max", "6", "--seed", "3", "--mtilde", "-o", str(a)])
        run_cli(["gen", "--n", "1", "--N-max", "6", "--seed", "3", "--mtilde", "-o", str(b)])
        assert read_json(a) == read_json(b)

    def test_roundtrip_batch(self, fix7_file, tmp_path):
        report = tmp_path / "batch.json"
        code = run_cli(
            ["roundtrip", fix7_file, "--N", "8", "--batch", "4", "-o", str(report)]
        )
        assert code == EXIT_OK
        rep = read_json(report)
        assert rep["batch"] == 4
        assert len(rep["reports"]) == 4
        assert rep["all_class_ok"]
        assert rep["max_eigenvalue_error"] <= 1e-8
        assert rep["failed"] == 0

    def test_roundtrip_batch_fails_on_wrong_sizes(self, tmp_path):
        # n=1, N=40: every recovered matrix has the wrong size and inf errors,
        # while every class check passes
        spec, report = tmp_path / "spec.json", tmp_path / "batch.json"
        assert run_cli(["gen", "--n", "1", "--N-max", "10", "--seed", "7", "-o", str(spec)]) == EXIT_OK
        code = run_cli(["roundtrip", str(spec), "--N", "40", "--batch", "3", "-o", str(report)])
        assert code == EXIT_VALIDATION
        rep = read_json(report)
        assert rep["all_class_ok"]
        assert rep["failed"] == 3
        assert all(r["eigenvalue_error"] == float("inf") for r in rep["reports"])

    def test_roundtrip_fails_on_wrong_size(self, tmp_path):
        # n=1, N=30: the class check passes, but the recovered matrix has the
        # wrong size and both errors are inf, so criterion 09 is missed
        spec, report = tmp_path / "spec.json", tmp_path / "report.json"
        assert run_cli(["gen", "--n", "1", "--N-max", "30", "--seed", "7", "-o", str(spec)]) == EXIT_OK
        code = run_cli(["roundtrip", str(spec), "--N", "30", "-o", str(report)])
        assert code == EXIT_VALIDATION
        rep = read_json(report)
        assert rep["class_ok"]
        assert rep["eigenvalue_error"] == rep["jump_matrix_error"] == float("inf")

    def test_roundtrip_batch_starts_at_seed(self, fix7_file, tmp_path):
        def batch(seed):
            report = tmp_path / f"batch{seed}.json"
            run_cli(["roundtrip", fix7_file, "--N", "8", "--batch", "2", "--seed", str(seed),
                     "-o", str(report)])
            return read_json(report)["reports"]

        from0, from1 = batch(0), batch(1)
        assert from0 != from1
        assert from0[1] == from1[0]


def written_band(tmp_path, mu, *flags):
    """(exit code, written document, the sweep's result) of ``reconstruct`` on ``mu``."""
    sigma, out = tmp_path / "sigma.json", tmp_path / "out.json"
    ser.dump(ser.measure_to_dict(mu), sigma)
    code = run_cli(["reconstruct", str(sigma), "--max-k", str(mu.size), *flags, "-o", str(out)])
    res = orthonormalize(ser.measure_from_dict(read_json(sigma)), mu.size)
    return code, read_json(out), res


def far_from_band(res):
    """Mask of the entries between rows whose sweep heights differ by more than n."""
    h = np.array(res.p_heights)
    return np.abs(np.subtract.outer(h, h)) > res.t_tilde.n


def mtilde_measure():
    """The measure of gen --n 3 --N-max 40 --mtilde --seed 0, truncated at N = 40."""
    spec = generate_random(GenProfile(n=3, n_max=40, mtilde=True), 0)
    return step_measure(eigen_decompose(truncate(spec, 40)), BoundaryMatrix.identity(3))


class TestWrittenBand:
    """``reconstruct`` writes recover_matrix's entries inside the band and 0.0 outside it."""

    @pytest.mark.parametrize("make_mu", [
        pytest.param(lambda: gue_measure(0, 1, 20), id="1-0"),
        pytest.param(lambda: gue_measure(3, 2, 20), id="2-3"),
        pytest.param(lambda: gue_measure(1, 3, 20), id="3-1"),
        pytest.param(mtilde_measure, id="mtilde-3-40"),
    ])
    def test_in_band_bytes_and_zeros_outside(self, tmp_path, make_mu):
        mu = make_mu()
        code, doc, res = written_band(tmp_path, mu)
        assert code == EXIT_OK
        # no skips: the q heights are the indices N..N+n-1, and the leakage is residue
        n = mu.n
        assert doc["q_heights"] == list(range(mu.size, mu.size + n)) and doc["skip_log"] == []
        assert doc["band_leakage"] <= 1e-8
        # T~ is upper triangular with a real positive diagonal, and T~* S_0 T~ = I
        t_pairs = np.array(doc["boundary"]["t"], dtype=float)
        assert np.all(t_pairs[np.tril_indices(n, -1)] == 0.0)
        diag = t_pairs[range(n), range(n)]
        assert np.all(diag[:, 1] == 0.0) and np.all(diag[:, 0] > 0.0)
        t = t_pairs[..., 0] + 1j * t_pairs[..., 1]
        s0 = mu.c.T @ mu.c.conj()
        assert np.max(np.abs(t.conj().T @ s0 @ t - np.eye(n))) <= 1e-12
        pairs = np.array(doc["matrix"]["data"], dtype=float)
        written = pairs[..., 0] + 1j * pairs[..., 1]
        dense = recover_matrix(res).data
        far = far_from_band(res)
        assert far.any()
        assert written[~far].tobytes() == dense[~far].tobytes()
        assert np.all(pairs[far] == 0.0) and not np.signbit(pairs[far]).any()
        # the theory's zeros come out of W diag(lambda) W* as rounding residue
        assert np.max(np.abs(dense[far])) > 0.0
        scale = np.max(np.abs(dense))
        assert doc["band_leakage"] == np.max(np.abs(dense[far])) / scale
        assert doc["band_leakage"] == recover_band(res)[1]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_eigenvalues_of_the_written_band(self, tmp_path, n):
        # criterion 09's bound on every measure whose size the sweep recovers
        checked = 0
        for seed in range(8):
            mu = gue_measure(seed, n, 20)
            code, doc, _ = written_band(tmp_path, mu)
            assert code == EXIT_OK
            if doc["emitted"] < mu.size:
                continue
            data = np.array(doc["matrix"]["data"], dtype=float)
            eig = np.linalg.eigvalsh(data[..., 0] + 1j * data[..., 1])
            assert np.max(np.abs(eig - mu.lambdas)) <= ROUNDTRIP_EIG_TOL
            checked += 1
        assert checked >= 2

    def test_a_row_per_point_keeps_the_spectrum(self, tmp_path):
        # at --tol-zero 1e-4 the sweep declares a degeneration of nonzero norm at
        # height 19 and still emits a row per point: W is unitary, and the dense
        # recovery, written in place of the band, keeps the measure's spectrum
        mu = gue_measure(6, 2, 20)
        code, doc, _ = written_band(tmp_path, mu, "--tol-zero", "1e-4")
        res = orthonormalize(mu, mu.size, zero_tol=1e-4)
        assert code == EXIT_OK and doc["emitted"] == mu.size and doc["q_heights"] == [19, 22]
        assert doc["band_leakage"] == recover_band(res)[1] > BAND_NOISE_TOL
        pairs = np.array(doc["matrix"]["data"], dtype=float)
        written = pairs[..., 0] + 1j * pairs[..., 1]
        assert written.tobytes() == recover_matrix(res).data.tobytes()
        assert np.max(np.abs(np.linalg.eigvalsh(written) - mu.lambdas)) <= ROUNDTRIP_EIG_TOL

    def test_leakage_never_refuses(self, tmp_path):
        # at a relative threshold of 0.5 the sweep declares degenerations of
        # nonzero norm and stops at 7 of 20 rows: the band is written all the same
        mu = gue_measure(0, 3, 20)
        code, doc, _ = written_band(tmp_path, mu, "--tol-zero", "0.5")
        assert code == EXIT_OK
        assert doc["band_leakage"] > BAND_NOISE_TOL
        assert doc["q_heights"] == [6, 7, 11] and doc["emitted"] == 7
        res = orthonormalize(mu, mu.size, zero_tol=0.5)
        pairs = np.array(doc["matrix"]["data"], dtype=float)
        assert pairs.tobytes() == recover_band(res)[0].data.view(float).tobytes()


class TestPointOrder:
    """A measure file may list its points in any order; they are sorted when read."""

    COMMANDS = (
        ["staircase", "{sigma}"],
        ["staircase", "{sigma}", "--cluster-tol", "1e-2"],
        ["moments", "--k", "6", "{sigma}"],
        ["check-solution", "{sigma}", "{zero}"],
        ["check-solution", "{sigma}", "{e1}"],
        ["reconstruct", "{sigma}", "--max-k", "20"],
    )

    def outputs(self, sigma, n, tmp_path, capsys):
        zero, e1 = tmp_path / "zero.json", tmp_path / "e1.json"
        ser.dump({"n": n, "comps": [[]] * n}, zero)
        ser.dump({"n": n, "comps": [[[1, 0]]] + [[]] * (n - 1)}, e1)
        files = {"sigma": str(sigma), "zero": str(zero), "e1": str(e1)}
        got = []
        for argv in self.COMMANDS:
            code = run_cli([a.format(**files) for a in argv])
            got.append((code, capsys.readouterr()))
        return got

    def reordered(self, sigma, perm, path):
        d = read_json(sigma)
        d["points"] = [d["points"][i] for i in perm]
        ser.dump(d, path)
        return path

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_shuffled_points_give_the_same_outputs(self, n, tmp_path, capsys):
        for seed in range(2):
            spec, sigma = tmp_path / "spec.json", tmp_path / "sigma.json"
            run_cli(["gen", "--n", str(n), "--N-max", "12", "--seed", str(seed), "-o", str(spec)])
            assert run_cli(["measure", str(spec), "--N", "10", "-o", str(sigma)]) == EXIT_OK
            lam = np.array([p["lambda"] for p in read_json(sigma)["points"]])
            shuffled = self.reordered(sigma, tie_keeping_permutation(lam, seed), tmp_path / "s.json")
            assert self.outputs(shuffled, n, tmp_path, capsys) == self.outputs(sigma, n, tmp_path, capsys)

    def test_ties_keep_their_order(self, tmp_path, capsys):
        # two points at lambda = 2 and one below them, listed out of order
        points = [(2.0, [[1.0, 0.0], [0.5, 0.0]]), (-1.0, [[0.0, 1.0], [1.0, 0.0]]),
                  (2.0, [[0.25, -0.5], [0.0, 2.0]])]
        sigma, ordered = tmp_path / "sigma.json", tmp_path / "ordered.json"
        ser.dump({"n": 2, "points": [{"lambda": x, "C": c} for x, c in points]}, sigma)
        self.reordered(sigma, [1, 0, 2], ordered)
        assert self.outputs(sigma, 2, tmp_path, capsys) == self.outputs(ordered, 2, tmp_path, capsys)
        assert run_cli(["staircase", str(sigma)]) == EXIT_OK
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert [float(r[0]) for r in rows[1:]] == [-1.0, 2.0]
        # the (1, 1) entry of sigma: |i|^2, then + |1|^2 + |0.25 - 0.5i|^2
        assert [float(r[1]) for r in rows[1:]] == [1.0, 2.3125]


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

    @pytest.mark.parametrize("argv, payload, message", [
        (["staircase"], {"n": 1, "points": [{"lambda": None, "C": [[1, 0]]}]},
         "point 0: field 'lambda' cannot hold null"),
        (["staircase"], {"n": 1, "points": [{"lambda": 0, "C": [[1, 0]]},
                                            {"lambda": 1, "C": [[None, 0]]}]},
         "point 1: field 'C' cannot hold [[null, 0]]"),
        (["moments", "--k", "2"], {"n": None, "points": []}, "field 'n' cannot hold null"),
        (["reconstruct"], {"n": 1, "points": None}, "field 'points' cannot hold null"),
        (["staircase"], {"n": 1, "points": [[0, [1, 0]]]},
         "point 0: expected an object, not [0, [1, 0]]"),
        (["spectrum"], {"N": 1, "data": [[None]]}, "field 'data' cannot hold [[null]]"),
        (["validate", "--class", "m"], {"n": 1, "N_max": 2, "entries": [[1, 1, None, 0]]},
         "field 'entries' cannot hold [[1, 1, null, 0]]"),
        (["validate", "--class", "m"], {"n": 1, "N_max": 2, "entries": [], "tail": [None, 2]},
         "field 'tail' cannot hold [null, 2]"),
        (["height"], {"n": 1, "comps": [[None]]}, "field 'comps' cannot hold [[null]]"),
    ])
    def test_null_in_a_file_is_an_error_line(self, argv, payload, message, tmp_path, capsys):
        path = tmp_path / "bad.json"
        ser.dump(payload, path)
        assert run_cli(argv + [str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, payload, message", [
        (["staircase"], {"n": 1}, "missing field 'points'"),
        (["reconstruct"], {"points": []}, "missing field 'n'"),
        (["staircase"], {"n": 1, "points": [{"C": [[1, 0]]}]}, "point 0: missing field 'lambda'"),
        (["staircase"], {"n": 1, "points": [{"lambda": 0, "C": [[1, 0]]}, {"lambda": 1}]},
         "point 1: missing field 'C'"),
        (["validate", "--class", "m"], {"n": 1, "N_max": 2}, "missing field 'entries'"),
        (["truncate", "--N", "1"], {"n": 1, "entries": []}, "missing field 'N_max'"),
        (["spectrum"], {"data": [[[1, 0]]]}, "missing field 'N'"),
        (["validate", "--class", "m"], {"n": 1, "N_max": 2, "entries": [],
                                        "tail_profile": {"interior": {}}},
         "tail_profile: missing field 'edge'"),
        (["height"], {"n": 1, "comps": [[[1]]]}, "field 'comps' cannot hold [[[1]]]"),
    ])
    def test_missing_field_is_an_error_line(self, argv, payload, message, tmp_path, capsys):
        path = tmp_path / "bad.json"
        ser.dump(payload, path)
        assert run_cli(argv + [str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, payload, message", [
        (["staircase"], {"n": 1, "points": [{"lambda": 0, "C": [[1]]}]},
         "point 0: field 'C' cannot hold [[1]]"),
        (["reconstruct"], {"n": 1, "points": [{"lambda": 0, "C": [[1, 0], [1, 0]]}]},
         "point 0: field 'C' cannot hold [[1, 0], [1, 0]]"),
        (["reconstruct"], {"n": 0, "points": [{"lambda": 0, "C": []}]},
         "field 'n' cannot hold 0"),
        (["reconstruct"], {"n": 1.7, "points": [{"lambda": 0, "C": [[1, 0]]}]},
         "field 'n' cannot hold 1.7"),
        (["reconstruct"], {"n": 1, "points": [{"lambda": 0, "C": [[1, 0]]},
                                              {"lambda": float("nan"), "C": [[1, 0]]}]},
         "point 1: field 'lambda' cannot hold NaN"),
        (["moments", "--k", "1"], {"n": 1, "points": [{"lambda": 0, "C": [[float("inf"), 0]]}]},
         "point 0: field 'C' cannot hold [[Infinity, 0]]"),
        (["spectrum"], {"N": 3, "data": [[[1, 0]]]}, "field 'data' cannot hold [[[1, 0]]]"),
        (["spectrum"], {"N": 2, "data": [[[1, 0], [0, 0]]]},
         "field 'data' cannot hold [[[1, 0], [0, 0]]]"),
        (["spectrum"], {"N": 2, "data": [[[1, 0], [0, 0]], [[0, 0]]]},
         "field 'data' cannot hold [[[1, 0], [0, 0]], [[0, 0]]]"),
        (["validate", "--class", "m"], {"n": 1, "N_max": 2, "entries": [[1, 1, 0]]},
         "field 'entries' cannot hold [[1, 1, 0]]"),
        (["validate", "--class", "m"], {"n": 1, "N_max": 2, "entries": [[1, 2, 1, 0], [2, 1, 3, 0]]},
         "field 'entries': conflicting Hermitian values for entry (1, 2)"),
        (["height"], {"n": 2, "comps": [[[1, 0]]]}, "field 'comps' cannot hold [[[1, 0]]]"),
    ])
    def test_malformed_value_is_an_error_line(self, argv, payload, message, tmp_path, capsys):
        path = tmp_path / "bad.json"
        ser.dump(payload, path)
        assert run_cli(argv + [str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_pivot_is_named_in_the_same_words(self, tmp_path, capsys):
        # column 3 has no pivot: validate reports condition 1, and generators and
        # roundtrip raise its first breach in the same words; no table here takes
        # a report on stdout or a line that names its stage
        path = str(tmp_path / "nopivot.json")
        ser.dump({"n": 1, "N_max": 3, "tail": [1, 2], "pivot": {"2": 1},
                  "entries": [[1, 2, 1, 0], [2, 3, 1, 0]]}, path)
        assert run_cli(["validate", path]) == EXIT_VALIDATION
        violations = json.loads(capsys.readouterr().out)["violations"]
        assert violations[0] == {"clause": "1", "where": [3],
                                 "message": "column 3 lacks a pivot row"}
        assert run_cli(["generators", path]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: column 3 lacks a pivot row\n"
        assert run_cli(["roundtrip", path, "--N", "3"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "error in structure: column 3 lacks a pivot row\n"

    def test_non_finite_boundary_is_an_error_line(self, fix7_file, tmp_path, capsys):
        path = tmp_path / "t.json"
        t = [[[float("nan") if j == k == 1 else float(j == k), 0.0] for k in range(3)]
             for j in range(3)]
        ser.dump({"n": 3, "t": t}, path)
        assert run_cli(["measure", fix7_file, "--boundary", str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: field 't' cannot hold [[[1.0, 0.0]")

    def test_overflow_is_a_numerical_failure(self, tmp_path, capsys):
        # |e_2| overflows in the sweep: no warning, no false degeneration at height 1
        path = tmp_path / "big.json"
        pts = [{"lambda": lam, "C": [[1.0, 0.0]]} for lam in (1e200, -1e200, 0.0)]
        ser.dump({"n": 1, "points": pts}, path)
        assert run_cli(["reconstruct", str(path), "--max-k", "3"]) == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical failure: overflow")

    def test_overflowing_moment_is_a_numerical_failure(self, fix7_file, tmp_path, capsys):
        sigma = tmp_path / "sigma.json"
        assert run_cli(["measure", fix7_file, "-o", str(sigma)]) == EXIT_OK
        assert run_cli(["moments", str(sigma), "--k", "2000"]) == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical failure: overflow")

    def test_overflowing_moment_product_is_a_numerical_failure(self, tmp_path, capsys):
        # lambda^2 = 1e308 is finite; its product with C C* = 1e4 is not, and
        # JSON has no Infinity to write for it
        sigma, out = tmp_path / "sigma.json", tmp_path / "moments.json"
        ser.dump({"n": 1, "points": [{"lambda": 1e154, "C": [[100.0, 0.0]]}]}, sigma)
        assert run_cli(["moments", str(sigma), "--k", "1"]) == EXIT_OK
        capsys.readouterr()
        assert run_cli(["moments", str(sigma), "--k", "2", "-o", str(out)]) == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical failure: overflow")
        assert not out.exists()

    def test_overflowing_jump_is_a_numerical_failure(self, tmp_path, capsys):
        # C C* = 1e400 at the one point: the staircase would read inf
        sigma, out = tmp_path / "sigma.json", tmp_path / "stairs.csv"
        ser.dump({"n": 1, "points": [{"lambda": 1.0, "C": [[1e200, 0.0]]}]}, sigma)
        assert run_cli(["staircase", str(sigma), "-o", str(out)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: overflow") and "Traceback" not in err
        assert not out.exists()

    def test_overflowing_solution_bound_is_a_numerical_failure(self, tmp_path, capsys):
        # 1e155 z at the one node -1: the bound is inf and would pass any residual
        sigma, poly = tmp_path / "sigma.json", tmp_path / "poly.json"
        ser.dump({"n": 1, "points": [{"lambda": -1.0, "C": [[1.0, 0.0]]}]}, sigma)
        ser.dump({"n": 1, "comps": [[[0.0, 0.0], [1e155, 0.0]]]}, poly)
        assert run_cli(["check-solution", str(sigma), str(poly)]) == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical failure: the bound ")

    def test_overflowing_moment_gap_is_a_verify_failure(self, tmp_path, capsys):
        # scaled by 1e16, the sweep stays finite but a moment of order 2l does not
        spec = ser.spec_to_dict(generate_random(GenProfile(n=2, n_max=14), 1))
        spec["entries"] = [[j, k, 1e16 * re, 1e16 * im] for j, k, re, im in spec["entries"]]
        path = tmp_path / "big.json"
        ser.dump(spec, path)
        assert run_cli(["roundtrip", str(path), "--N", "14"]) == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("error in verify: overflow")


class TestToleranceAndLimitChecks:
    @pytest.fixture
    def sigma_file(self, fix7_file, tmp_path):
        sigma = tmp_path / "sigma.json"
        assert run_cli(["measure", fix7_file, "-o", str(sigma)]) == EXIT_OK
        return str(sigma)

    @pytest.mark.parametrize("flag", ["--tol-zero", "--cluster-tol", "--tol"])
    @pytest.mark.parametrize("value", ["0", "-1e-8", "nan", "inf", "abc"])
    def test_bad_tolerance_flag_is_a_usage_error(self, sigma_file, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli([FLAG_OWNER[flag], sigma_file, flag, value])
        assert exc.value.code == EXIT_USAGE
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["validate", "f.json"],
        ["truncate", "--N", "5", "f.json"],
        ["spectrum", "f.json"],
        ["measure", "f.json"],
        ["moments", "--k", "2", "f.json"],
        ["staircase", "f.json"],
        ["check-solution", "f.json", "g.json"],
        ["generators", "f.json"],
        ["height", "f.json"],
        ["reconstruct", "f.json"],
        ["roundtrip", "--N", "8", "f.json"],
        ["gen", "--n", "2", "--N-max", "5"],
    ])
    @pytest.mark.parametrize("flag", ["--tol-zero", "--cluster-tol"])
    def test_tolerance_flag_only_where_it_is_read(self, argv, flag, capsys):
        if argv[0] == FLAG_OWNER[flag]:
            assert getattr(cli.build_parser().parse_args(argv + [flag, "1e-6"]),
                           flag[2:].replace("-", "_")) == 1e-6
            return
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + [flag, "1e-6"])
        assert exc.value.code == EXIT_USAGE
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, full", [("reconstruct", "--tol", "--tol-zero"),
                                                     ("staircase", "--cluster", "--cluster-tol")])
    def test_abbreviated_flag_is_a_usage_error(self, command, flag, full, capsys):
        parsed = cli.build_parser().parse_args([command, "f.json", full, "1e-3"])
        assert getattr(parsed, full[2:].replace("-", "_")) == 1e-3
        with pytest.raises(SystemExit) as exc:
            run_cli([command, "f.json", flag, "1e-3"])
        assert exc.value.code == EXIT_USAGE
        assert f"unrecognized arguments: {flag} 1e-3" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["moments", "f.json", "--k"],
                                      ["roundtrip", "f.json", "--N", "8", "--batch"],
                                      ["roundtrip", "f.json", "--N", "8", "--batch", "2", "--seed"],
                                      ["gen", "--n", "2", "--N-max", "10", "--seed"]])
    @pytest.mark.parametrize("value", ["-1", "-2", "1.5", "abc"])
    def test_bad_count_is_a_usage_error(self, argv, value, capsys):
        # a negative seed is refused by its flag, not by numpy's seeding
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + [value])
        assert exc.value.code == EXIT_USAGE
        assert f"argument {argv[-1]}: must be a nonnegative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command",
                             ["truncate", "spectrum", "measure", "generators", "roundtrip", "gen"])
    @pytest.mark.parametrize("value", ["0", "-3", "1.5", "abc"])
    def test_bad_size_is_a_usage_error(self, fix7_file, command, value, capsys):
        # --N 0 is no request for N_max, and no size reaches truncate unchecked;
        # gen's boundary order --n is a size too
        argv = ["gen", "--N-max", "10", "--n"] if command == "gen" else [command, fix7_file, "--N"]
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + [value])
        assert exc.value.code == EXIT_USAGE
        assert f"argument {argv[-1]}: must be a positive integer" in capsys.readouterr().err

    def test_size_one_runs(self, fix7_file, capsys):
        assert run_cli(["truncate", "--N", "1", fix7_file]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["N"] == 1

    def test_zero_counts_run(self, sigma_file, fix7_file, capsys):
        assert run_cli(["moments", "--k", "0", sigma_file]) == EXIT_OK
        assert len(json.loads(capsys.readouterr().out)["moments"]) == 1
        # --batch 0 is the default: one round trip of the given spec
        assert run_cli(["roundtrip", "--N", "7", "--batch", "0", fix7_file]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["N"] == 7

    def test_no_environment_variable_sets_the_threshold(self, sigma_file, tmp_path, monkeypatch):
        # --tol-zero 0.5 declares degenerations that the default does not;
        # SPECBAND_TOL=0.5 in the environment changes no byte of the output
        plain, loose, env = (tmp_path / f"{name}.json" for name in ("plain", "loose", "env"))
        assert run_cli(["reconstruct", sigma_file, "-o", str(plain)]) == EXIT_OK
        assert run_cli(["reconstruct", sigma_file, "--tol-zero", "0.5", "-o", str(loose)]) == EXIT_OK
        assert read_json(loose)["emitted"] < read_json(plain)["emitted"] == 7
        monkeypatch.setenv("SPECBAND_TOL", "0.5")
        assert run_cli(["reconstruct", sigma_file, "-o", str(env)]) == EXIT_OK
        assert env.read_bytes() == plain.read_bytes()

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

    def test_tiny_tolerance_stops_at_n_emitted(self, tmp_path, capsys):
        sigma = tmp_path / "sigma3.json"
        ser.dump(ser.measure_to_dict(gue_measure(0, 1, 3)), sigma)
        argv = ["reconstruct", str(sigma), "--tol-zero", "1e-300", "--max-k", "12"]
        assert run_cli(argv) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["emitted"] == 3
        assert np.array(out["matrix"]["data"]).shape == (3, 3, 2)


class TestBoundaryOrderFlags:
    """``measure --n``, ``--N``, ``--boundary`` and ``gen``'s flags on gen --n 2 --N-max 6
    --seed 1, truncated to 6 x 6; t3.json is the 3 x 3 identity boundary."""

    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli(["gen", "--n", "2", "--N-max", "6", "--seed", "1", "-o", "spec.json"]) == EXIT_OK
        assert run_cli(["truncate", "spec.json", "--N", "6", "-o", "dense.json"]) == EXIT_OK
        ser.dump(ser.boundary_to_dict(BoundaryMatrix.identity(3)), "t3.json")
        return tmp_path

    @pytest.mark.parametrize("argv, line", [
        (["measure", "dense.json", "--n", "0"],
         "error: argument --n: must be a positive integer, got '0'"),
        (["measure", "dense.json", "--n", "-1"],
         "error: argument --n: must be a positive integer, got '-1'"),
        (["measure", "dense.json", "--n", "7"], "error: --n 7 exceeds the dense matrix's size N=6"),
        (["measure", "spec.json", "--n", "3"], "error: --n 3 differs from the spec's n=2"),
        (["measure", "spec.json", "--N", "1"], "error: --N 1 is below the spec's n=2"),
        (["measure", "spec.json", "--boundary", "t3.json"],
         "error: --boundary order 3 differs from n=2"),
        (["measure", "dense.json", "--n", "2", "--boundary", "t3.json"],
         "error: --boundary order 3 differs from n=2"),
        (["generators", "spec.json", "--boundary", "t3.json"],
         "error: --boundary order 3 differs from n=2"),
        (["roundtrip", "spec.json", "--N", "6", "--boundary", "t3.json"],
         "error: --boundary order 3 differs from n=2"),
        (["gen", "--n", "2", "--N-max", "0"],
         "error: argument --N-max: must be a positive integer, got '0'"),
        (["roundtrip", "spec.json", "--N", "2"], "error: --N 2 does not exceed the spec's n=2"),
        (["roundtrip", "spec.json", "--N", "1", "--batch", "2"],
         "error: --N 1 does not exceed the spec's n=2"),
        (["generators", "spec.json", "--N", "2"], "error: --N 2 does not exceed the spec's n=2"),
        (["gen", "--n", "2", "--N-max", "2"],
         "error: --n 2 --N-max 2: need n >= 1 and declared size > n"),
        (["gen", "--n", "2", "--N-max", "10", "--tail", "5", "4"],
         "error: --n 2 --N-max 10 --tail 5 4: tail offset must lie in 1..n"),
        (["gen", "--n", "2", "--N-max", "10", "--tail", "0", "1"],
         "error: --n 2 --N-max 10 --tail 0 1: tail must start beyond the boundary columns"),
        (["gen", "--n", "2", "--N-max", "10", "--tail", "10", "12"],
         "error: --n 2 --N-max 10 --tail 10 12: tail must start by column N_max + 1"),
    ])
    def test_refusal_is_a_usage_error(self, workdir, argv, line, capsys):
        capsys.readouterr()
        try:
            code = run_cli(argv)
        except SystemExit as exc:  # argparse's refusal
            code = exc.code
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.splitlines()[-1] == line

    def test_generators_on_a_spec_of_no_larger_size_is_a_file_error(self, workdir, capsys):
        # without --N, generators truncates at N_max, which here is n: the file is at fault
        ser.dump({"n": 2, "N_max": 2, "tail": None, "pivot": {}, "entries": [[1, 1, 1, 0]]},
                 "small.json")
        capsys.readouterr()
        assert run_cli(["generators", "small.json"]) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == ["error: truncation size must exceed n=2"]

    @pytest.mark.parametrize("argv", [["measure", "dense.json", "--n", "6"],
                                      ["measure", "spec.json", "--n", "2"]])
    def test_n_up_to_the_dense_size_or_equal_to_the_spec_runs(self, workdir, argv, capsys):
        assert run_cli(argv) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["n"] == int(argv[-1])


class TestDenseSizeAndRemovedSpellings:
    """``--N`` on the 8 x 8 truncation of gen --n 2 --N-max 10 --seed 7, and the
    spellings ``roundtrip --report``, ``roundtrip -v`` and ``validate --class m_tilde``,
    now refused."""

    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli(["gen", "--n", "2", "--N-max", "10", "--seed", "7", "-o", "spec.json"]) == EXIT_OK
        assert run_cli(["truncate", "spec.json", "--N", "8", "-o", "mat.json"]) == EXIT_OK
        return tmp_path

    @pytest.mark.parametrize("argv", [["measure", "mat.json", "--n", "2"], ["spectrum", "mat.json"]])
    @pytest.mark.parametrize("N", ["3", "9"])
    def test_other_size_of_a_dense_matrix_is_refused(self, workdir, argv, N, capsys):
        capsys.readouterr()
        assert run_cli([*argv, "--N", N, "-o", "out.json"]) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            "error: cannot retruncate a dense matrix; pass the structural file"]
        assert not (workdir / "out.json").exists()

    @pytest.mark.parametrize("argv", [["measure", "mat.json", "--n", "2"], ["spectrum", "mat.json"]])
    def test_own_size_of_a_dense_matrix_runs(self, workdir, argv):
        assert run_cli([*argv, "--N", "8", "-o", "with_N.json"]) == EXIT_OK
        assert run_cli([*argv, "-o", "without_N.json"]) == EXIT_OK
        assert (workdir / "with_N.json").read_bytes() == (workdir / "without_N.json").read_bytes()

    @pytest.mark.parametrize("argv, line", [
        (["roundtrip", "spec.json", "--N", "8", "--report", "x.json"],
         "error: unrecognized arguments: --report x.json"),
        # only reconstruct reads -v
        (["roundtrip", "spec.json", "--N", "8", "-v", "-o", "x.json"],
         "error: unrecognized arguments: -v"),
        # the text after the refused value is argparse's list of the choices
        (["validate", "--class", "m_tilde", "spec.json"],
         "error: argument --class: invalid choice: 'm_tilde'"),
    ])
    def test_removed_spelling_is_a_usage_error(self, workdir, argv, line, capsys):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().err.splitlines()[-1].startswith(line)
        assert not (workdir / "x.json").exists()


class TestOutputText:
    """Every JSON output file is the reference text of its payload."""

    @pytest.fixture
    def files(self, tmp_path):
        paths = {name: str(tmp_path / f"{name}.json") for name in ("spec", "inf", "mat", "sigma", "poly", "T")}
        assert run_cli(["gen", "--n", "2", "--N-max", "8", "--seed", "7", "-o", paths["spec"]]) == 0
        # n=1, N=30, seed 7: the round trip's sizes differ and its errors are inf
        assert run_cli(["gen", "--n", "1", "--N-max", "30", "--seed", "7", "-o", paths["inf"]]) == 0
        assert run_cli(["truncate", "--N", "6", paths["spec"], "-o", paths["mat"]]) == 0
        assert run_cli(["measure", paths["spec"], "-o", paths["sigma"]]) == 0
        ser.dump({"n": 2, "comps": [[[1, 0], [-0.0, 2.5]], [[0.125, -1]]]}, paths["poly"])
        ser.dump({"n": 2, "t": [[[1, 0], [0.5, -0.25]], [[0, 0], [2, 0]]]}, paths["T"])
        return paths

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--n", "3", "--N-max", "9", "--seed", "4", "--mtilde"],
            ["gen", "--n", "3", "--N-max", "160", "--seed", "0"],
            ["validate", "--class", "m", "{spec}"],
            ["validate", "--class", "mtilde", "{spec}"],
            ["truncate", "--N", "5", "{spec}"],
            ["spectrum", "{mat}"],
            ["measure", "{spec}", "--boundary", "{T}"],
            ["measure", "{mat}", "--n", "2"],
            ["moments", "--k", "4", "{sigma}"],
            ["check-solution", "{sigma}", "{poly}"],
            ["generators", "{spec}"],
            ["height", "{poly}"],
            ["reconstruct", "{sigma}", "--max-k", "8"],
            ["roundtrip", "--N", "8", "{spec}"],
            ["roundtrip", "--N", "30", "{inf}"],
            ["roundtrip", "--N", "6", "--batch", "2", "--seed", "3", "{spec}"],
            ["gen", "--n", "1", "--N-max", "12", "--real", "--mtilde", "--seed", "3"],
            ["reconstruct", "{sigma}", "--tol-zero", "1e-6"],
            # 128 floats and more: the writer's dedupe path
            ["truncate", "--N", "8", "{spec}"],
            ["moments", "--k", "20", "{sigma}"],
        ],
    )
    def test_file_is_reference_text(self, files, argv, tmp_path, monkeypatch):
        payloads = []
        dumps = ser.dumps

        def spy(obj):
            payloads.append(obj)
            return dumps(obj)

        monkeypatch.setattr(ser, "dumps", spy)
        out = tmp_path / "out.json"
        run_cli([a.format(**files) for a in argv] + ["-o", str(out)])
        assert len(payloads) == 1
        text = reference_dumps(pairs_as_lists(payloads[0]))
        assert out.read_text(encoding="utf-8") == text + "\n"

    def test_roundtrip_report_with_infinity(self, files, tmp_path, monkeypatch):
        # a real report whose errors are set to inf, whatever size the sweep recovers
        roundtrip = cli.rec.roundtrip

        def infinite(spec, t, N):
            return dataclasses.replace(roundtrip(spec, t, N), eigenvalue_error=float("inf"),
                                       jump_matrix_error=float("inf"))

        monkeypatch.setattr(cli.rec, "roundtrip", infinite)
        payloads = []
        dumps = ser.dumps
        monkeypatch.setattr(ser, "dumps", lambda obj: payloads.append(obj) or dumps(obj))
        out = tmp_path / "out.json"
        assert run_cli(["roundtrip", "--N", "8", files["spec"], "-o", str(out)]) == EXIT_VALIDATION
        text = out.read_text(encoding="utf-8")
        assert text == reference_dumps(pairs_as_lists(payloads[0])) + "\n"
        assert '"eigenvalue_error": Infinity' in text and '"jump_matrix_error": Infinity' in text

    def test_stdout_is_reference_text(self, files, capsys):
        assert run_cli(["moments", "--k", "2", files["sigma"]]) == EXIT_OK
        text = capsys.readouterr().out
        assert text == reference_dumps(json.loads(text)) + "\n"


class TestParserReuse:
    @pytest.fixture
    def sigma_file(self, tmp_path):
        sigma = tmp_path / "sigma.json"
        ser.dump(ser.measure_to_dict(gue_measure(1, 2, 6)), sigma)
        return str(sigma)

    @pytest.fixture
    def configs(self, monkeypatch):
        """The tolerance of every sweep and jump grouping run_cli starts, in order."""
        seen = []
        sweep, group = cli.rec.orthonormalize, StepMeasure.grouped_jumps

        def orthonormalize(mu, max_k, zero_tol):
            seen.append(("zero", zero_tol))
            return sweep(mu, max_k, zero_tol=zero_tol)

        def grouped_jumps(mu, cluster_tol):
            seen.append(("cluster", cluster_tol))
            return group(mu, cluster_tol)

        monkeypatch.setattr(cli.rec, "orthonormalize", orthonormalize)
        monkeypatch.setattr(StepMeasure, "grouped_jumps", grouped_jumps)
        return seen

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_fresh_namespace_per_parse(self):
        parser = cli.build_parser()
        first = parser.parse_args(["gen", "--n", "2", "--N-max", "5", "--tail", "1", "2", "--real",
                                   "--mtilde"])
        second = parser.parse_args(["gen", "--n", "1", "--N-max", "3"])
        assert first is not second
        assert (first.tail, first.real, first.mtilde) == ([1, 2], True, True)
        assert (second.tail, second.real, second.mtilde) == (None, False, False)

    def test_settings_do_not_leak(self, sigma_file, configs, capsys):
        sweep = ["reconstruct", "--max-k", "6", sigma_file]
        stairs = ["staircase", sigma_file]
        for argv in (sweep + ["--tol-zero", "1e-3"], sweep,
                     stairs + ["--cluster-tol", "1e-4"], stairs):
            assert run_cli(argv) == EXIT_OK
        assert configs == [
            ("zero", 1e-3),
            ("zero", ZERO_NORM_TOL),
            ("cluster", 1e-4),
            ("cluster", CLUSTER_TOL),
        ]
        # the same calls on a parser built afresh give the same settings
        cli.build_parser.cache_clear()
        assert run_cli(sweep) == EXIT_OK
        assert run_cli(stairs) == EXIT_OK
        assert configs[-2:] == [("zero", ZERO_NORM_TOL), ("cluster", CLUSTER_TOL)]
        capsys.readouterr()

    def test_usage_error_after_reuse(self, sigma_file, capsys):
        assert run_cli(["moments", "--k", "1", sigma_file]) == EXIT_OK
        for argv in (["reconstruct"], ["moments", sigma_file], ["bogus"],
                     ["reconstruct", sigma_file, "--tol-zero", "0"]):
            with pytest.raises(SystemExit) as exc:
                run_cli(argv)
            assert exc.value.code == EXIT_USAGE
        assert run_cli(["reconstruct", sigma_file, "--max-k", "6"]) == EXIT_OK
        capsys.readouterr()
