import math

import numpy as np
import pytest

import graphminimax as gm
from graphminimax.cli import main
from graphminimax.harness import _rep_seeds


def run_cli(*args):
    return main(list(args))


def write_obs_csv(path, values, header="i,y"):
    lines = [header] + [f"{i},{float(v)!r}" for i, v in enumerate(values)]
    path.write_text("\n".join(lines) + "\n")


class TestSpectrumCommand:
    def test_path4_values(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        assert run_cli("spectrum", "--graph", "path:4", "--out", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "j,lambda"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        expected = [0.0, 2.0 - math.sqrt(2), 2.0, 2.0 + math.sqrt(2)]
        assert np.allclose(values, expected, atol=1e-9)
        printed = capsys.readouterr().out
        assert "n = 4" in printed
        assert "lambda_1" in printed

    def test_grid_2x2(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run_cli("spectrum", "--graph", "grid:2x2", "--out", str(out)) == 0
        values = [float(line.split(",")[1]) for line in out.read_text().strip().split("\n")[1:]]
        assert np.allclose(sorted(values), [0.0, 2.0, 2.0, 4.0], atol=1e-9)

    def test_missing_file_is_io_error(self, tmp_path):
        code = run_cli("spectrum", "--graph", "file:missing.txt", "--out", str(tmp_path / "x.csv"))
        assert code == 3

    def test_unwritable_output_is_io_error(self, tmp_path):
        code = run_cli("spectrum", "--graph", "path:4", "--out", str(tmp_path / "nodir" / "x.csv"))
        assert code == 3

    def test_bad_graph_spec(self, tmp_path):
        assert run_cli("spectrum", "--graph", "path:one", "--out", str(tmp_path / "x.csv")) == 1
        assert run_cli("spectrum", "--graph", "blob:4", "--out", str(tmp_path / "x.csv")) == 1

    def test_torus_3x5_matches_closed_form(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run_cli("spectrum", "--graph", "torus:3x5", "--out", str(out)) == 0
        values = [float(line.split(",")[1]) for line in out.read_text().strip().split("\n")[1:]]
        # cycle eigenvalues 2 - 2 cos(2 pi j / m), summed over the two axes
        cycle3 = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(3) / 3)
        cycle5 = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(5) / 5)
        assert np.allclose(values, np.sort(np.add.outer(cycle3, cycle5).ravel()), atol=1e-11)

    def test_path_above_dense_cap_needs_no_laplacian(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a dense Laplacian was built")

        monkeypatch.setattr("graphminimax.spectral.laplacian", refuse)
        monkeypatch.setattr("graphminimax.graphs.laplacian", refuse)
        n = 10000
        assert n > gm.DEFAULT_DENSE_CAP
        out = tmp_path / "spec.csv"
        assert run_cli("spectrum", "--graph", f"path:{n}", "--out", str(out)) == 0
        values = [float(line.split(",")[1]) for line in out.read_text().strip().split("\n")[1:]]
        assert len(values) == n
        assert values[-1] == pytest.approx(4.0 * math.sin(math.pi * (n - 1) / (2 * n)) ** 2)

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("spectrum", "--graph", "path:64", "--out", str(a))
        run_cli("spectrum", "--graph", "path:64", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestArgumentHandling:
    def test_unknown_flag(self, tmp_path):
        assert run_cli("spectrum", "--graph", "path:4", "--out", str(tmp_path / "x"), "--bogus") == 1

    def test_unknown_subcommand(self):
        assert run_cli("frobnicate") == 1

    def test_help_exits_zero(self):
        assert run_cli("--help") == 0


class TestFitRCommand:
    def test_path512(self, capsys):
        assert run_cli("fit-r", "--graph", "path:512") == 0
        out = capsys.readouterr().out
        r_hat = float(out.split("r_hat = ")[1].split("\n")[0])
        assert 0.9 <= r_hat <= 1.1
        assert "c1_hat" in out and "c2_hat" in out

    def test_small_world_prints_reference_note(self, capsys):
        assert run_cli("fit-r", "--graph", "ws:200,4,0.1,3") == 0
        assert "1.4" in capsys.readouterr().out

    def test_bad_range(self):
        assert run_cli("fit-r", "--graph", "path:64", "--i0", "0") == 1


class TestDenoiseCommand:
    def test_near_zero_noise_is_identity(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(64)
        obs = tmp_path / "obs.csv"
        write_obs_csv(obs, y)
        out = tmp_path / "fhat.csv"
        code = run_cli(
            "denoise", "--graph", "path:64", "--obs", str(obs), "--beta", "1",
            "--Q", "1", "--sigma", "1e-9", "--out", str(out),
        )
        assert code == 0
        fhat = np.array([float(l.split(",")[1]) for l in out.read_text().strip().split("\n")[1:]])
        assert np.max(np.abs(fhat - y)) < 1e-6
        printed = capsys.readouterr().out
        assert "N = " in printed and "x = " in printed and "S = " in printed

    def test_constant_observations_stay_constant(self, tmp_path):
        obs = tmp_path / "obs.csv"
        write_obs_csv(obs, np.full(32, 2.0))
        out = tmp_path / "fhat.csv"
        code = run_cli(
            "denoise", "--graph", "path:32", "--obs", str(obs), "--beta", "1",
            "--sigma", "0.5", "--out", str(out),
        )
        assert code == 0
        fhat = np.array([float(l.split(",")[1]) for l in out.read_text().strip().split("\n")[1:]])
        assert np.ptp(fhat) < 1e-9  # still constant (mean component kept)

    def test_missing_vertex_is_validation_error(self, tmp_path):
        obs = tmp_path / "obs.csv"
        obs.write_text("i,y\n0,1.0\n2,1.0\n")
        code = run_cli(
            "denoise", "--graph", "path:4", "--obs", str(obs), "--beta", "1",
            "--sigma", "1", "--out", str(tmp_path / "o.csv"),
        )
        assert code == 1

    def test_duplicate_vertex_rejected(self, tmp_path):
        obs = tmp_path / "obs.csv"
        obs.write_text("i,y\n0,1.0\n0,2.0\n1,1.0\n2,1.0\n3,0.0\n")
        code = run_cli(
            "denoise", "--graph", "path:4", "--obs", str(obs), "--beta", "1",
            "--sigma", "1", "--out", str(tmp_path / "o.csv"),
        )
        assert code == 1

    @pytest.mark.parametrize("bad", ["inf", "nan", "-inf"])
    def test_non_finite_observation_rejected(self, tmp_path, capsys, bad):
        obs = tmp_path / "obs.csv"
        values = ["0.5"] * 64
        values[3] = bad
        obs.write_text("i,y\n" + "".join(f"{i},{v}\n" for i, v in enumerate(values)))
        out = tmp_path / "o.csv"
        code = run_cli(
            "denoise", "--graph", "path:64", "--obs", str(obs), "--beta", "1",
            "--sigma", "1", "--out", str(out),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"{obs}:5: observation '{bad}' is not finite" in err
        assert "missing" not in err
        assert not out.exists()

    def test_projection_mode_prints_cutoff(self, tmp_path, capsys):
        obs = tmp_path / "obs.csv"
        write_obs_csv(obs, np.zeros(64))
        code = run_cli(
            "denoise", "--graph", "path:64", "--obs", str(obs), "--beta", "1",
            "--sigma", "1", "--estimator", "projection", "--out", str(tmp_path / "o.csv"),
        )
        assert code == 0
        assert "m = " in capsys.readouterr().out

    def test_matches_harness_risk_for_same_seed(self, tmp_path):
        # regenerate the harness replicate (n=64, rep 0) in vertex space as
        # y = gft_inverse(c + eps * zeta) and denoise it through the CLI: the
        # realized risk must match the recorded coefficient-space harness row
        spec = gm.ExperimentSpec(
            family="path", n_values=(64, 128), beta=1.0, Q=1.0, sigma=1.0,
            estimator="pinsker", reps=1, seed=9,
        )
        report = gm.run_regression_experiment(spec)
        row = report.rows[0]
        ball_seed, noise_seed = _rep_seeds(9, 64, 0)
        assert row[3] == ball_seed
        s = gm.eigendecompose(gm.build_path(64))
        ball = gm.SobolevSpec(beta=1.0, Q=1.0, r=1.0)
        c = gm.sample_ball_coefficients(gm.ellipsoid_weights(s, ball), 1.0, ball_seed)
        zeta = np.random.default_rng(noise_seed).standard_normal(64)
        f = gm.gft_inverse(s, c)
        y = gm.gft_inverse(s, c + 1.0 / np.sqrt(64) * zeta)
        obs = tmp_path / "obs.csv"
        write_obs_csv(obs, y)
        out = tmp_path / "fhat.csv"
        code = run_cli(
            "denoise", "--graph", "path:64", "--obs", str(obs), "--beta", "1",
            "--Q", "1", "--sigma", "1", "--out", str(out),
        )
        assert code == 0
        fhat = np.array([float(l.split(",")[1]) for l in out.read_text().strip().split("\n")[1:]])
        risk = float(np.mean((fhat - f) ** 2))
        assert abs(risk - row[4]) < 1e-9 * row[4]

    def test_eigenvectors_above_dense_cap_rejected(self, tmp_path, capsys):
        n = 10000
        obs = tmp_path / "obs.csv"
        write_obs_csv(obs, np.zeros(n))
        code = run_cli(
            "denoise", "--graph", f"path:{n}", "--obs", str(obs), "--beta", "1",
            "--sigma", "1", "--out", str(tmp_path / "fhat.csv"),
        )
        assert code == 1
        assert "exceeds the dense Laplacian cap" in capsys.readouterr().err


class TestClassifyCommand:
    def test_smoke(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        labels = (rng.random(64) < 0.5).astype(float)
        obs = tmp_path / "labels.csv"
        write_obs_csv(obs, labels)
        out = tmp_path / "rho.csv"
        code = run_cli(
            "classify", "--graph", "path:64", "--obs", str(obs), "--beta", "1",
            "--out", str(out),
        )
        assert code == 0
        rho = np.array([float(l.split(",")[1]) for l in out.read_text().strip().split("\n")[1:]])
        assert np.all(rho >= 1e-3) and np.all(rho <= 1 - 1e-3)
        assert "S = " in capsys.readouterr().out

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_label_rejected(self, tmp_path, capsys, bad):
        obs = tmp_path / "labels.csv"
        labels = ["1"] * 16
        labels[3] = bad
        obs.write_text("i,y\n" + "".join(f"{i},{v}\n" for i, v in enumerate(labels)))
        code = run_cli(
            "classify", "--graph", "path:16", "--obs", str(obs), "--beta", "1",
            "--out", str(tmp_path / "rho.csv"),
        )
        assert code == 1
        assert f"{obs}:5: observation '{bad}' is not finite" in capsys.readouterr().err

    def test_non_binary_labels_rejected(self, tmp_path):
        obs = tmp_path / "labels.csv"
        write_obs_csv(obs, np.full(16, 0.25))
        code = run_cli(
            "classify", "--graph", "path:16", "--obs", str(obs), "--beta", "1",
            "--out", str(tmp_path / "rho.csv"),
        )
        assert code == 1


class TestSimulateCommand:
    def test_writes_both_csvs(self, tmp_path, capsys):
        prefix = tmp_path / "run"
        code = run_cli(
            "simulate", "--family", "path", "--n-list", "64,128", "--beta", "1",
            "--sigma", "1", "--reps", "3", "--seed", "5", "--out-prefix", str(prefix),
        )
        assert code == 0
        results = (tmp_path / "run_results.csv").read_text()
        aggregate = (tmp_path / "run_aggregate.csv").read_text()
        assert results.startswith("family,n,beta,Q,sigma,r_used,estimator,rep,seed,risk\n")
        assert aggregate.startswith("family,estimator,beta,r_used,slope,stderr,theory_slope\n")
        out = capsys.readouterr().out
        assert "slope = " in out and "theory_slope = " in out

    def test_deterministic_output(self, tmp_path):
        args = [
            "simulate", "--family", "path", "--n-list", "64,128", "--beta", "1",
            "--sigma", "1", "--reps", "3", "--seed", "5",
        ]
        run_cli(*args, "--out-prefix", str(tmp_path / "a"))
        run_cli(*args, "--out-prefix", str(tmp_path / "b"))
        assert (tmp_path / "a_results.csv").read_bytes() == (tmp_path / "b_results.csv").read_bytes()
        assert (tmp_path / "a_aggregate.csv").read_bytes() == (tmp_path / "b_aggregate.csv").read_bytes()

    def test_bad_n_list(self, tmp_path):
        code = run_cli(
            "simulate", "--family", "path", "--n-list", "64;128", "--beta", "1",
            "--sigma", "1", "--out-prefix", str(tmp_path / "x"),
        )
        assert code == 1

    def test_bad_family_syntax(self, tmp_path, capsys):
        code = run_cli(
            "simulate", "--family", "ws:4", "--n-list", "64,128", "--beta", "1",
            "--sigma", "1", "--out-prefix", str(tmp_path / "x"),
        )
        assert code == 1
        assert "ws:4" in capsys.readouterr().err


class TestFanoCommand:
    def test_small_graph_rejected_with_message(self, tmp_path, capsys):
        code = run_cli(
            "fano", "--graph", "path:16", "--beta", "1", "--out", str(tmp_path / "c.csv")
        )
        assert code == 1
        assert "n too small for packing" in capsys.readouterr().err

    def test_valid_certificate(self, tmp_path, capsys):
        out = tmp_path / "cert.csv"
        code = run_cli(
            "fano", "--graph", "path:1024", "--beta", "1", "--seed", "3",
            "--mode", "clf", "--out", str(out),
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "valid = true" in printed
        header = out.read_text().split("\n")[0]
        assert header.startswith("n,beta,r,Q,N,M,delta")

    def test_deterministic(self, tmp_path):
        args = ["fano", "--graph", "path:1024", "--beta", "1", "--seed", "3", "--mode", "clf"]
        run_cli(*args, "--out", str(tmp_path / "a.csv"))
        run_cli(*args, "--out", str(tmp_path / "b.csv"))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_reg_mode_above_dense_cap_needs_no_laplacian(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a dense Laplacian was built")

        monkeypatch.setattr("graphminimax.spectral.laplacian", refuse)
        monkeypatch.setattr("graphminimax.graphs.laplacian", refuse)
        out = tmp_path / "cert.csv"
        code = run_cli(
            "fano", "--graph", "path:10000", "--beta", "1", "--mode", "reg", "--out", str(out)
        )
        assert code == 0
        fields = out.read_text().split("\n")[1].split(",")
        assert fields[0] == "10000" and fields[12] == "true"

    def test_clf_mode_above_dense_cap_rejected(self, tmp_path, capsys):
        code = run_cli(
            "fano", "--graph", "path:10000", "--beta", "1", "--mode", "clf",
            "--out", str(tmp_path / "cert.csv"),
        )
        assert code == 1
        assert "exceeds the dense Laplacian cap" in capsys.readouterr().err

    def test_packing_limit_rejected_before_packing(self, tmp_path, capsys, monkeypatch):
        import time
        import tracemalloc

        def refuse(*args, **kwargs):
            raise AssertionError("a packing was built")

        monkeypatch.setattr("graphminimax.fano.vg_packing", refuse)
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            code = run_cli(
                "fano", "--graph", "grid:128x128", "--beta", "1", "--mode", "reg",
                "--out", str(tmp_path / "cert.csv"),
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - t0 < 5.0
        assert peak < 64 << 20
        assert code == 1
        assert "N=128 exceeds the greedy packing limit 4096" in capsys.readouterr().err


class TestPriorDemoCommand:
    def test_tiny_prior_mass(self, capsys):
        code = run_cli(
            "prior-demo", "--graph", "path:128", "--beta", "1", "--sigma", "1",
            "--delta", "0.99", "--draws", "200", "--seed", "4",
        )
        assert code == 0
        out = capsys.readouterr().out
        S = float(out.split("S = ")[1].split("\n")[0])
        bayes = float(out.split("bayes_risk = ")[1].split("\n")[0])
        assert bayes < S

    def test_band_at_moderate_delta(self, capsys):
        code = run_cli(
            "prior-demo", "--graph", "path:512", "--beta", "1", "--sigma", "1",
            "--delta", "0.1", "--draws", "2000", "--seed", "4",
        )
        assert code == 0
        out = capsys.readouterr().out
        S = float(out.split("S = ")[1].split("\n")[0])
        bayes = float(out.split("bayes_risk = ")[1].split("\n")[0])
        assert 0.9 * 0.8 * S <= bayes <= 1.05 * S

    @pytest.mark.parametrize("draws", ["0", "-3"])
    def test_draws_must_be_positive(self, draws, capsys):
        code = run_cli(
            "prior-demo", "--graph", "path:128", "--beta", "1", "--draws", draws,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "--draws" in err and "Traceback" not in err

    def test_reproducible(self, capsys):
        args = [
            "prior-demo", "--graph", "path:128", "--beta", "1", "--sigma", "1",
            "--delta", "0.2", "--draws", "100", "--seed", "11",
        ]
        run_cli(*args)
        first = capsys.readouterr().out
        run_cli(*args)
        assert capsys.readouterr().out == first
