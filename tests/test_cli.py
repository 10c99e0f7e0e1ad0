import math
import sys
import warnings

import numpy as np
import pytest

import graphminimax as gm
from graphminimax.cli import _build_parser, main
from graphminimax.harness import _rep_seeds

PACKING_LIMIT = "packing dimension N must be in [8, the greedy packing limit 8 log2(4096) = 96]"


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

    @pytest.mark.parametrize(
        "command, extra, sigma",
        [
            ("denoise", ["--obs", "o.csv", "--out", "x", "--sigma", "0.3"], 0.3),
            ("classify", ["--obs", "o.csv", "--out", "x"], 0.5),
            ("fano", ["--out", "x"], 1.0),
            ("prior-demo", [], 1.0),
        ],
    )
    def test_model_flags(self, command, extra, sigma):
        args = _build_parser().parse_args([command, "--graph", "g", "--beta", "2", *extra])
        assert (args.graph, args.beta, args.Q, args.sigma, args.r) == ("g", 2.0, 1.0, sigma, None)

    def test_denoise_needs_sigma(self, capsys):
        assert run_cli("denoise", "--graph", "g", "--obs", "o", "--beta", "1", "--out", "x") == 1
        assert "required: --sigma" in capsys.readouterr().err


class TestFitRCommand:
    def test_path512(self, capsys):
        assert run_cli("fit-r", "--graph", "path:512") == 0
        out = capsys.readouterr().out
        r_hat = float(out.split("r_hat = ")[1].split("\n")[0])
        assert 0.9 <= r_hat <= 1.1
        assert "c1_hat" in out and "c2_hat" in out

    def test_small_world_prints_what_its_edge_list_prints(self, tmp_path, capsys):
        # the printed fit depends on the eigenvalues, not on how the graph is spelled
        g = gm.build_small_world(200, 4, 0.1, 3)
        edges = tmp_path / "ws.txt"
        edges.write_text("".join(f"{u} {v}\n" for u, v in g.edges.tolist()))
        assert run_cli("fit-r", "--graph", "ws:200,4,0.1,3") == 0
        spelled = capsys.readouterr().out
        assert run_cli("fit-r", "--graph", f"file:{edges}") == 0
        assert capsys.readouterr().out == spelled
        keys = [line.split(" = ")[0] for line in spelled.splitlines()]
        assert keys == ["r_hat", "slope", "c1_hat", "c2_hat", "rss"]
        assert spelled.count(" = ") == spelled.count("\n") == 5

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

    def test_cutoff_gap_beyond_the_float_range_is_quiet(self, tmp_path, capsys):
        # the gap eps^2 sum_{j<m} a_j (a_{m-1} - a_j) overflows from m = 2 on: an inf gap is
        # not below R, so N = 1, and no RuntimeWarning on the way
        obs = tmp_path / "obs.csv"
        write_obs_csv(obs, np.zeros(64))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(
                "denoise", "--graph", "path:64", "--obs", str(obs), "--beta", "1",
                "--Q", "1e153", "--sigma", "8e153", "--out", str(tmp_path / "fhat.csv"),
            )
        assert code == 0 and not caught
        assert capsys.readouterr().out.startswith("N = 1\n")

    @pytest.mark.parametrize("beta", ["36", "73.1"])
    def test_steep_weights_keep_one_coefficient(self, beta, tmp_path, capsys):
        # a_1 = 7.9e17 at beta = 36: the m = 2 gap is about 1e16 against R = 1, so N = 1;
        # at beta = 73.1 the squared weights overflow, and no RuntimeWarning is raised
        obs = tmp_path / "obs.csv"
        write_obs_csv(obs, np.zeros(64))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(
                "denoise", "--graph", "path:64", "--obs", str(obs), "--beta", beta,
                "--sigma", "1", "--out", str(tmp_path / "fhat.csv"),
            )
        assert code == 0 and not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert capsys.readouterr().out.startswith("N = 1\n")

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

    @pytest.mark.parametrize("estimator", ["pinsker", "projection"])
    def test_matches_harness_risk_for_same_seed(self, estimator, tmp_path):
        # regenerate the harness replicate (n=64, rep 0) in vertex space as
        # y = gft_inverse(c + eps * zeta) and denoise it through the CLI: the
        # realized risk must match the recorded coefficient-space harness row
        spec = gm.ExperimentSpec(
            family="path", n_values=(64, 128), beta=1.0, Q=1.0, sigma=1.0,
            estimator=estimator, reps=1, seed=9,
        )
        report = gm.run_experiment(spec)
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
            "--Q", "1", "--sigma", "1", "--estimator", estimator, "--out", str(out),
        )
        assert code == 0
        fhat = np.array([float(l.split(",")[1]) for l in out.read_text().strip().split("\n")[1:]])
        risk = float(np.mean((fhat - f) ** 2))
        assert abs(risk - row[4]) < 1e-9 * row[4]

    def test_projection_builds_no_ellipsoid_weights(self, tmp_path, capsys):
        # at beta = 400 the Sobolev weights of path 64 overflow; the projection rule
        # needs only the cutoff m = round(64^(1/801)) = 1
        obs = tmp_path / "obs.csv"
        write_obs_csv(obs, np.zeros(64))
        code = run_cli(
            "denoise", "--estimator", "projection", "--graph", "path:64", "--obs", str(obs),
            "--beta", "400", "--sigma", "1", "--out", str(tmp_path / "fhat.csv"),
        )
        assert code == 0
        assert capsys.readouterr().out == "m = 1\n"

    def test_eigenvectors_above_dense_cap_rejected(self, tmp_path, capsys):
        # a graph without shape has no closed form; its dense eigh needs n <= the cap
        n = 10000
        obs = tmp_path / "obs.csv"
        write_obs_csv(obs, np.zeros(n))
        code = run_cli(
            "denoise", "--graph", f"ws:{n},6,0.1,1", "--obs", str(obs), "--beta", "1",
            "--sigma", "1", "--out", str(tmp_path / "fhat.csv"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "small-world n must be in [3, DEFAULT_DENSE_CAP = 8192], got 10000" in err

    def test_path_above_dense_cap_reads_the_dct_head(self, tmp_path):
        n = 10000
        i = np.arange(n)
        y = np.cos(2 * np.pi * i / n) + np.random.default_rng(5).standard_normal(n)
        obs = tmp_path / "obs.csv"
        write_obs_csv(obs, y)
        out = tmp_path / "fhat.csv"
        code = run_cli(
            "denoise", "--graph", f"path:{n}", "--obs", str(obs), "--beta", "1",
            "--sigma", "1", "--out", str(out),
        )
        assert code == 0
        ball = gm.SobolevSpec(beta=1.0, Q=1.0, r=1.0)
        plan = gm.pinsker_plan(gm.ellipsoid_weights(gm.eigenvalues(gm.build_path(n)), ball), 1.0, n)
        # the DCT-II head psi_j(i) = c_j cos(pi j (2i + 1) / (2n)), c_0 = 1, c_j = sqrt(2)
        j = np.arange(plan.N)
        head = np.cos(np.pi * np.outer(2 * i + 1, j) / (2 * n)) * np.where(j > 0, np.sqrt(2.0), 1.0)
        want = head @ (plan.l[: plan.N] * (head.T @ y / n))
        got = np.array([float(l.split(",")[1]) for l in out.read_text().strip().split("\n")[1:]])
        assert np.max(np.abs(got - want)) < 1e-10


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


    @pytest.mark.parametrize(
        "family, n_list, bad",
        [("grid:2", "-4,16", -4), ("torus:2", f"16,{10**400}", 10**400)],
        ids=["negative", "1e400"],
    )
    def test_size_outside_the_limits(self, family, n_list, bad, tmp_path, capsys):
        code = run_cli(
            "simulate", "--family", family, f"--n-list={n_list}", "--beta", "1",
            "--sigma", "0.5", "--out-prefix", str(tmp_path / "x"),
        )
        assert code == 1
        err = capsys.readouterr().err
        limit = gm.DEFAULT_DENSE_CAP**2
        assert err == (
            f"error: each n in n_values must be in [2, DEFAULT_DENSE_CAP**2 = {limit}], got {bad}\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_reps_above_the_limit(self, tmp_path, capsys):
        code = run_cli(
            "simulate", "--family", "path", "--n-list", "64,128", "--beta", "1", "--sigma", "1",
            "--reps", str(10**15), "--out-prefix", str(tmp_path / "x"),
        )
        assert code == 1
        err = capsys.readouterr().err
        limit, total = gm.harness._REPLICATE_CAP, 2 * 10**15
        message = f"reps * len(n_values) must be in [1, _REPLICATE_CAP = {limit}], got {total}"
        assert err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []


class TestFanoCommand:
    def test_small_graph_rejected_with_message(self, tmp_path, capsys):
        code = run_cli(
            "fano", "--graph", "path:16", "--beta", "1", "--out", str(tmp_path / "c.csv")
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"{PACKING_LIMIT}, got 3" in err

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
        # a graph without shape still needs its dense eigh within the cap
        code = run_cli(
            "fano", "--graph", "ws:10000,6,0.1,1", "--beta", "1", "--mode", "clf",
            "--out", str(tmp_path / "cert.csv"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "small-world n must be in [3, DEFAULT_DENSE_CAP = 8192], got 10000" in err

    def test_clf_mode_above_dense_cap_on_a_path(self, tmp_path, capsys):
        out = tmp_path / "cert.csv"
        code = run_cli(
            "fano", "--graph", "path:20000", "--beta", "1", "--mode", "clf", "--out", str(out)
        )
        assert code == 0
        assert "valid = true" in capsys.readouterr().out
        fields = out.read_text().split("\n")[1].split(",")
        assert fields[0] == "20000" and fields[12] == "true"

    @pytest.mark.parametrize("n, beta", [(884736, "1"), (4000000, "2")])
    def test_clf_mode_beyond_the_factor_cap_is_the_sigma_2_certificate(self, n, beta, tmp_path):
        # path 884736 has N = 96: a head of 96 columns would exceed 8192^2
        # values, but both modes read the eigenvalues alone
        args = ["fano", "--graph", f"path:{n}", "--beta", beta]
        assert run_cli(*args, "--mode", "clf", "--out", str(tmp_path / "clf.csv")) == 0
        reg = ("--mode", "reg", "--sigma", "2", "--out", str(tmp_path / "reg.csv"))
        assert run_cli(*args, *reg) == 0
        assert (tmp_path / "clf.csv").read_bytes() == (tmp_path / "reg.csv").read_bytes()

    def test_clf_mode_with_a_large_radius(self, tmp_path, capsys):
        # at the ball's cap the sigmoid would round to 1 at some vertex; the KL
        # condition keeps delta below it
        code = run_cli(
            "fano", "--graph", "path:2048", "--beta", "1", "--Q", "200", "--mode", "clf",
            "--out", str(tmp_path / "cert.csv"),
        )
        assert code == 0
        assert "valid = true" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["reg", "clf"])
    def test_packing_dimension_too_large_for_a_float_target(self, mode, tmp_path, capsys):
        # N = 35112 here, and 2^(N/8) overflows a float above N = 8192; N is
        # compared with 96 first
        code = run_cli(
            "fano", "--graph", "path:100000", "--beta", "0.05", "--mode", mode,
            "--out", str(tmp_path / "cert.csv"),
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {PACKING_LIMIT}, got 35112\n"
        assert list(tmp_path.iterdir()) == []

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
        err = capsys.readouterr().err
        assert f"{PACKING_LIMIT}, got 128" in err


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

    def test_draws_above_the_limit_are_refused_before_the_model(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("the model was built")

        monkeypatch.setattr("graphminimax.cli._model", refuse)
        draws = str(gm.DEFAULT_DENSE_CAP**2 + 1)
        assert run_cli("prior-demo", "--graph", "path:128", "--beta", "1", "--draws", draws) == 1
        err = capsys.readouterr().err
        assert "--draws must be in [1, DEFAULT_DENSE_CAP**2 = 67108864], got 67108865" in err

    def test_reproducible(self, capsys):
        args = [
            "prior-demo", "--graph", "path:128", "--beta", "1", "--sigma", "1",
            "--delta", "0.2", "--draws", "100", "--seed", "11",
        ]
        run_cli(*args)
        first = capsys.readouterr().out
        run_cli(*args)
        assert capsys.readouterr().out == first



SIMULATE = ["simulate", "--family", "path", "--n-list", "64,128", "--reps", "2",
            "--out-prefix", "sim"]
DENOISE = ["denoise", "--graph", "path:64", "--obs", "obs.csv", "--beta", "1", "--out", "f.csv"]
FANO = ["fano", "--graph", "path:512", "--out", "c.csv"]
PRIOR = ["prior-demo", "--graph", "path:64", "--beta", "1"]
SEED_MESSAGE = "seed must be a non-negative integer"


@pytest.mark.parametrize(
    "args, message",
    [
        (SIMULATE + ["--beta", "1", "--sigma", "1", "--seed", "-1"], SEED_MESSAGE),
        (FANO + ["--beta", "1", "--seed", "-1"], SEED_MESSAGE),
        (PRIOR + ["--seed", "-1"], SEED_MESSAGE),
        (["spectrum", "--graph", "ws:64,4,0.1,-1", "--out", "s.csv"], SEED_MESSAGE),
        (FANO + ["--beta", "1", "--Q", "inf"], "Q must be in (0, inf), got inf"),
        (FANO + ["--beta", "1", "--r", "inf"], "r must be in [1, inf), got inf"),
        (SIMULATE + ["--beta", "inf", "--sigma", "1"], "beta must be in (0, inf), got inf"),
        (SIMULATE + ["--beta", "1", "--sigma", "nan"], "sigma must be in (0, inf), got nan"),
        (SIMULATE + ["--beta", "1", "--sigma", "inf"], "sigma must be in (0, inf), got inf"),
        (SIMULATE + ["--beta", "1", "--sigma", "0"], "sigma must be in (0, inf), got 0.0"),
        (DENOISE + ["--sigma", "inf"], "sigma must be in (0, inf), got inf"),
        (PRIOR + ["--sigma", "inf"], "sigma must be in (0, inf), got inf"),
        (FANO + ["--beta", "1", "--mode", "reg", "--sigma", "inf"],
         "sigma must be in (0, inf), got inf"),
        (DENOISE + ["--estimator", "projection", "--sigma", "nan"],
         "sigma must be in (0, inf), got nan"),
        (DENOISE + ["--estimator", "projection", "--sigma", "0"],
         "sigma must be in (0, inf), got 0.0"),
    ],
)
def test_bad_seed_or_non_finite_parameter_is_a_validation_error(
    args, message, tmp_path, monkeypatch, capsys
):
    # each fails with the exit-1 error line, not numpy's traceback or exit 2
    monkeypatch.chdir(tmp_path)
    write_obs_csv(tmp_path / "obs.csv", np.zeros(64))
    assert run_cli(*args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["obs.csv"]


CLASSIFY = ["classify", "--graph", "path:64", "--obs", "obs.csv", "--beta", "1", "--out", "r.csv"]
FANO_REG_4096 = ["fano", "--mode", "reg", "--graph", "path:4096", "--beta", "1", "--out", "c.csv"]
MIN_NORMAL = sys.float_info.min
SHARE = "must be in [1e-08, 1], got "
Q_SQUARED = f"must be in [{MIN_NORMAL}, inf), "
BEYOND_FLOATS = "on n=64 vertices put the Sobolev weights 1 + n^(2 beta / r) lambda_j^beta"


@pytest.mark.parametrize(
    "args, message",
    [
        (DENOISE + ["--beta", "400", "--sigma", "1"], f"beta=400.0 and r=1.0 {BEYOND_FLOATS}"),
        (SIMULATE + ["--beta", "1e300", "--sigma", "1"], f"beta=1e+300 and r=1.0 {BEYOND_FLOATS}"),
        (FANO + ["--beta", "1", "--Q", "1e300"], f"Q^2 for Q=1e+300 {Q_SQUARED}got inf"),
        (PRIOR + ["--Q", "1e300"], f"Q^2 for Q=1e+300 {Q_SQUARED}got inf"),
        (SIMULATE + ["--beta", "1", "--Q", "1e300", "--sigma", "1"],
         f"Q^2 for Q=1e+300 {Q_SQUARED}got inf"),
        (DENOISE + ["--Q", "1e-300", "--sigma", "1"], f"Q^2 for Q=1e-300 {Q_SQUARED}got 0.0"),
        (FANO + ["--beta", "1", "--mode", "reg", "--sigma", "1e-300"],
         "sigma^2 for sigma=1e-300 must be in (0, inf), got 0.0"),
        (DENOISE + ["--sigma", "1e300"],
         "sigma^2/n for sigma=1e+300, n=64 must be in (0, inf), got inf"),
        (CLASSIFY + ["--sigma", "1e300"],
         "sigma^2/n for sigma=1e+300, n=64 must be in (0, inf), got inf"),
        (SIMULATE + ["--beta", "1", "--sigma", "1e300"],
         "sigma^2/n for sigma=1e+300, n=64 must be in (0, inf), got inf"),
        (DENOISE + ["--sigma", "1e-300"],
         "sigma^2/n for sigma=1e-300, n=64 must be in (0, inf), got 0.0"),
        (SIMULATE + ["--beta", "1", "--sigma", "1e300", "--estimator", "projection"],
         "sigma^2/n for sigma=1e+300, n=64 must be in (0, inf), got inf"),
        (DENOISE + ["--sigma", "1e-160"],
         f"the root x for sigma=1e-160 and Q=1.0 must be in [{MIN_NORMAL}, inf), got 8.1465e-319"),
        (DENOISE + ["--sigma", "1e-100", "--Q", "1e150"],
         f"the root x for sigma=1e-100 and Q=1e+150 must be in [{MIN_NORMAL}, inf), got 0.0"),
        (FANO_REG_4096 + ["--sigma", "1e-160"],
         "the KL at delta = 1 for sigma=1e-160 must be in (0, inf), got inf"),
        (FANO_REG_4096 + ["--sigma", "1.5e-154"],
         "the KL at delta = 1 for sigma=1.5e-154 must be in (0, inf), got inf"),
        (DENOISE + ["--estimator", "projection", "--sigma", "1e300"],
         "sigma^2/n for sigma=1e+300, n=64 must be in (0, inf), got inf"),
        (DENOISE + ["--sigma", "1e6"],
         f"the signal share R/(R + eps^2) for sigma=1000000.0 and Q=1.0 {SHARE}"),
        (DENOISE + ["--sigma", "1e154"],
         f"the signal share R/(R + eps^2) for sigma=1e+154 and Q=1.0 {SHARE}"),
        (DENOISE + ["--Q", "1e-160", "--sigma", "1"], f"Q^2 for Q=1e-160 {Q_SQUARED}got 1e-320"),
        (DENOISE + ["--Q", "1e-50", "--sigma", "1e-160"],
         "the numerator eps^2 sum_(j<N) a_j of x for sigma=1e-160 and Q=1e-50 "
         f"must be in [{MIN_NORMAL}, inf), got 8.1465e-319"),
    ],
    ids=[
        "denoise-beta", "simulate-beta", "fano-Q", "prior-demo-Q", "simulate-Q", "denoise-Q-tiny",
        "fano-sigma-tiny", "denoise-sigma", "classify-sigma", "simulate-sigma",
        "denoise-sigma-tiny", "simulate-projection-sigma", "denoise-root-subnormal",
        "denoise-root-zero", "fano-kl-overflow", "fano-kl-overflow-normal-sigma-squared",
        "denoise-projection-sigma", "denoise-sigma-large", "denoise-sigma-large-overflow",
        "denoise-Q-subnormal", "denoise-root-numerator-subnormal",
    ],
)
def test_parameters_beyond_the_float_range_are_refused(
    args, message, tmp_path, monkeypatch, capsys
):
    # one error line naming the parameter: no OverflowError, ZeroDivisionError,
    # empty cutoff, exit 2 or RuntimeWarning on the way
    monkeypatch.chdir(tmp_path)
    write_obs_csv(tmp_path / "obs.csv", np.zeros(64))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(*args) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["obs.csv"]


@pytest.mark.parametrize(
    "model, message",
    [
        (["--beta", "-1"], "beta must be in (0, inf), got -1.0"),
        (["--beta", "1", "--Q", "nan"], "Q must be in (0, inf), got nan"),
    ],
    ids=["beta-negative", "Q-nan"],
)
@pytest.mark.parametrize("estimator", ["classification-direct", "pinsker"])
def test_simulate_checks_beta_and_q_before_running(
    model, message, estimator, tmp_path, monkeypatch, capsys
):
    # the spec refuses them: no graph, no regime warning, no size suffix
    monkeypatch.chdir(tmp_path)
    args = SIMULATE + model + ["--sigma", "0.5", "--estimator", estimator]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(*args) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []
