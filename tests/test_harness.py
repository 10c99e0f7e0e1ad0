import dataclasses
import math
import re

import numpy as np
import pytest

import graphminimax as gm
from graphminimax.errors import NumericError, ValidationError
from graphminimax.harness import AGGREGATE_HEADER, RESULTS_HEADER, _rep_seeds


def small_spec(**overrides):
    base = dict(
        family="path",
        n_values=(64, 128),
        beta=1.0,
        Q=1.0,
        sigma=1.0,
        estimator="pinsker",
        reps=3,
        seed=1,
    )
    base.update(overrides)
    return gm.ExperimentSpec(**base)


class TestFitRate:
    def test_exact_power_law(self):
        ns = np.array([100, 200, 400, 800, 1600])
        slope, _ = gm.fit_rate(ns, 3.0 * ns ** (-2.0 / 3.0))
        assert abs(slope - (-2.0 / 3.0)) < 1e-12

    def test_two_points_exact_line_no_stderr(self):
        slope, stderr = gm.fit_rate([100, 1000], [1.0, 0.1])
        assert abs(slope - (-1.0)) < 1e-12
        assert math.isnan(stderr)

    def test_calibration_coverage(self):
        # the +-3 stderr interval should cover the true slope in at least
        # 95% of noisy synthetic draws
        rng = np.random.default_rng(123)
        ns = np.array([100, 160, 250, 400, 640, 1000, 1600, 2500])
        hits = 0
        for _ in range(1000):
            y = 3.0 * ns ** (-2.0 / 3.0) * np.exp(rng.normal(0.0, 0.05, len(ns)))
            slope, stderr = gm.fit_rate(ns, y)
            hits += abs(slope - (-2.0 / 3.0)) <= 3.0 * stderr
        assert hits >= 950

    @pytest.mark.parametrize(
        "ns, means",
        [([256, 512, 1024, 2048], [0.031, 0.0204, 0.0127, 0.0081]), ([100, 1000], [0.3, 0.07])],
    )
    def test_line_fit_is_the_inline_formula_bit_for_bit(self, ns, means):
        # the shared line fit against the formula fit_rate wrote out before
        # it had one, in the same order of operations
        x = np.log(np.asarray(ns, dtype=float))
        y = np.log(np.asarray(means, dtype=float))
        xc = x - x.mean()
        sxx = float(np.dot(xc, xc))
        slope = float(np.dot(xc, y) / sxx)
        intercept = float(y.mean() - slope * x.mean())
        rss = float(np.sum((y - (slope * x + intercept)) ** 2))
        got = gm.fit_rate(ns, means)
        if len(ns) == 2:
            assert got[0] == slope and math.isnan(got[1])
        else:
            assert got == (slope, math.sqrt(rss / (len(ns) - 2) / sxx))

    def test_errors(self):
        with pytest.raises(ValidationError):
            gm.fit_rate([100], [1.0])
        with pytest.raises(NumericError):
            gm.fit_rate([100, 200], [1.0, 0.0])
        for bad in (-1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(NumericError, match="degenerate rate fit"):
                gm.fit_rate([100, 200, 400], [bad, 0.5, 0.2])


class TestExperimentSpecValidation:
    def test_needs_two_sizes(self):
        with pytest.raises(ValidationError):
            small_spec(n_values=(64,))

    def test_strictly_increasing(self):
        with pytest.raises(ValidationError):
            small_spec(n_values=(128, 64))

    def test_reps_positive(self):
        with pytest.raises(ValidationError):
            small_spec(reps=0)

    def test_known_estimator(self):
        with pytest.raises(ValidationError):
            small_spec(estimator="ridge")

    def test_family_syntax(self):
        with pytest.raises(ValidationError):
            small_spec(family="hypercube:3")
        with pytest.raises(ValidationError):
            small_spec(family="ws:4")

    def test_fill_range(self):
        with pytest.raises(ValidationError):
            small_spec(fill=0.0)

    @pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf")])
    def test_sigma_non_negative_and_finite(self, sigma):
        with pytest.raises(ValidationError, match="sigma must be non-negative and finite"):
            small_spec(sigma=sigma)

    def test_seed_non_negative(self):
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            small_spec(seed=-1)

    @pytest.mark.parametrize("seed", [True, 1.0])
    def test_seed_is_an_integer_not_a_bool(self, seed):
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            small_spec(seed=seed)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("beta", -1.0, "beta must be positive and finite"),
            ("beta", float("nan"), "beta must be positive and finite"),
            ("beta", float("inf"), "beta must be positive and finite"),
            ("Q", float("nan"), "Q must be positive and finite"),
            ("Q", 0.0, "Q must be positive and finite"),
        ],
    )
    def test_beta_and_q_are_checked_before_any_graph(self, field, value, message, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a graph was built")

        monkeypatch.setattr(gm.harness, "parse_graph_spec", refuse)
        for estimator in ("pinsker", "classification-direct"):
            with pytest.raises(ValidationError, match=message):
                small_spec(estimator=estimator, sigma=0.5, **{field: value})

    @pytest.mark.parametrize("reps", [2.5, True, np.bool_(True), "3", None])
    def test_reps_is_an_integer(self, reps):
        message = re.escape(f"reps must be an integer, got {reps!r}")
        with pytest.raises(ValidationError, match=message):
            small_spec(reps=reps)

    @pytest.mark.parametrize("n_values", [(64.9, 128), (64, 128.0), (True, 128)])
    def test_sizes_are_integers(self, n_values):
        with pytest.raises(ValidationError, match="each n in n_values must be an integer"):
            small_spec(n_values=n_values)

    def test_numpy_integers_are_integers(self):
        spec = small_spec(n_values=np.array([64, 128]), reps=np.int64(2), seed=np.uint32(3))
        assert spec.n_values == (64, 128) and all(type(n) is int for n in spec.n_values)
        assert len(gm.run_experiment(spec).rows) == 4


class TestRegressionRunner:
    def test_smoke_rows_and_order(self):
        report = gm.run_regression_experiment(small_spec())
        assert len(report.rows) == 6
        assert [row[0] for row in report.rows] == [64, 64, 64, 128, 128, 128]
        assert [row[2] for row in report.rows] == [0, 1, 2, 0, 1, 2]
        assert all(row[4] > 0 for row in report.rows)
        assert report.r_used_final == 1.0
        assert report.theory_slope == pytest.approx(-2.0 / 3.0)

    def test_deterministic_csv(self):
        r1 = gm.run_regression_experiment(small_spec())
        r2 = gm.run_regression_experiment(small_spec())
        assert gm.results_csv_text(r1) == gm.results_csv_text(r2)
        assert gm.aggregate_csv_text(r1) == gm.aggregate_csv_text(r2)

    def test_zero_noise_flags_degenerate(self):
        report = gm.run_regression_experiment(small_spec(sigma=0.0))
        assert report.note == "degenerate: zero risk"
        assert all(row[4] < 1e-12 for row in report.rows)
        assert math.isnan(report.slope)

    def test_mean_risk_decreases_with_n(self):
        # monotone sanity; tolerate at most one adjacent bump within 1 sem
        spec = small_spec(n_values=(256, 512, 1024, 2048), reps=20, seed=7)
        report = gm.run_regression_experiment(spec)
        violations = 0
        for (na, ma, sa), (nb, mb, sb) in zip(report.per_n, report.per_n[1:]):
            if mb > ma:
                violations += 1
                assert mb <= ma + max(sa, sb)
        assert violations <= 1

    def test_grid_family_requires_perfect_power(self):
        with pytest.raises(ValidationError):
            gm.run_regression_experiment(small_spec(family="grid:2", n_values=(50, 100)))

    def test_grid_family_smoke(self):
        spec = small_spec(family="grid:2", n_values=(64, 256), reps=2)
        report = gm.run_regression_experiment(spec)
        assert report.r_used_final == 2.0
        assert report.theory_slope == pytest.approx(-0.5)

    def test_file_family_with_size_placeholder(self, tmp_path):
        for n in (32, 64):
            lines = "\n".join(f"{i} {i + 1}" for i in range(n - 1))
            (tmp_path / f"path{n}.txt").write_text(lines + "\n")
        spec = small_spec(family=f"file:{tmp_path}/path{{n}}.txt", n_values=(32, 64), reps=2)
        report = gm.run_regression_experiment(spec)
        assert len(report.rows) == 4
        assert report.r_used_final >= 1.0

    def test_rejects_classification_estimator(self):
        with pytest.raises(ValidationError):
            gm.run_regression_experiment(small_spec(estimator="classification-direct"))


class TestCoefficientSpaceOracle:
    """Harness risks against the same replicates simulated in vertex space.

    The vertex-space side draws f with sample_ball, adds the noise as the
    inverse GFT of eps * zeta, and runs the library estimator on a full
    eigendecomposition.  On the degenerate 8x8 grid the eigenbasis inside
    each repeated eigenvalue is whatever the solver returns; Parseval makes
    the risk independent of that choice.
    """

    @pytest.mark.parametrize(
        "family,n_values,dims",
        [("path", (32, 64), None), ("grid:2", (16, 64), [8, 8])],
    )
    @pytest.mark.parametrize(
        "estimator,sigma", [("pinsker", 1.0), ("projection", 1.0), ("pinsker", 0.0)]
    )
    def test_replicate_risk_matches_vertex_space(self, family, n_values, dims, estimator, sigma):
        spec = small_spec(family=family, n_values=n_values, estimator=estimator,
                          sigma=sigma, reps=3, seed=11, fill=0.8)
        report = gm.run_regression_experiment(spec)
        r = report.r_used_final
        s = gm.eigendecompose(gm.build_path(64) if dims is None else gm.build_grid(dims))
        ball = gm.SobolevSpec(beta=1.0, Q=1.0, r=r)
        rows = [row for row in report.rows if row[0] == 64]
        assert len(rows) == 3
        for _, _, rep, ball_seed, risk in rows:
            expected_ball_seed, noise_seed = _rep_seeds(11, 64, rep)
            assert ball_seed == expected_ball_seed
            f = gm.sample_ball(s, ball, 0.8, ball_seed)
            zeta = np.random.default_rng(noise_seed).standard_normal(64)
            y = f + gm.gft_inverse(s, sigma / np.sqrt(64) * zeta)
            if estimator == "projection":
                fhat = gm.projection_estimate(s, y, gm.projection_cutoff(64, 1.0, r))
            elif sigma > 0:
                plan = gm.pinsker_plan(gm.ellipsoid_weights(s, ball), sigma, 64)
                fhat = gm.estimate_regression(s, plan, y)
            else:  # the noiseless Pinsker estimate is the identity
                fhat = gm.projection_estimate(s, y, 64)
            vertex = float(np.mean((fhat - f) ** 2))
            if sigma > 0:
                assert abs(risk - vertex) <= 1e-9 * vertex
            else:
                assert risk == 0.0 and vertex < 1e-20


class TestClassificationRunner:
    def test_smoke(self):
        spec = small_spec(estimator="classification-direct", sigma=0.5)
        report = gm.run_classification_experiment(spec)
        assert len(report.rows) == 6
        assert all(0.0 < row[4] < 0.25 for row in report.rows)

    def test_link_mode_smoke(self):
        spec = small_spec(estimator="classification-link", sigma=0.5)
        report = gm.run_classification_experiment(spec)
        assert all(row[4] > 0 for row in report.rows)

    def test_warns_outside_theorem_regime(self):
        spec = small_spec(estimator="classification-direct", sigma=0.5, beta=0.4)
        with pytest.warns(RuntimeWarning, match="below r/2"):
            gm.run_classification_experiment(spec)

    def test_no_warning_inside_regime(self):
        import warnings

        spec = small_spec(estimator="classification-direct", sigma=0.5, beta=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            gm.run_classification_experiment(spec)

    def test_needs_positive_sigma(self):
        with pytest.raises(ValidationError):
            gm.run_classification_experiment(
                small_spec(estimator="classification-direct", sigma=0.0)
            )

    def test_truth_is_sample_ball_bit_for_bit(self, grid8_eig, monkeypatch):
        # each truth is drawn from the per-n weights; it is the sample_ball
        # signal of the replicate's ball seed, on grid 8x8 at n = 64
        truths = []

        def recording(s, coeffs):
            truths.append(gm.spectral.gft_inverse(s, coeffs))
            return truths[-1]

        monkeypatch.setattr(gm.harness, "gft_inverse", recording)
        spec = small_spec(family="grid:2", n_values=(64, 256), estimator="classification-link",
                          sigma=0.5, reps=1, seed=5, fill=0.7)
        report = gm.run_classification_experiment(spec)
        ball_seed = report.rows[0][3]
        ball = gm.SobolevSpec(beta=1.0, Q=1.0, r=2.0)
        assert np.array_equal(truths[0], gm.sample_ball(grid8_eig, ball, 0.7, ball_seed))


@pytest.mark.parametrize("family, dims", [("grid:2", (16, 16)), ("torus:2", (16, 16))])
def test_vertex_space_readers_form_no_head_on_grids_and_tori(family, dims, monkeypatch):
    # the GFT applies the full per-axis factors, so sample_ball, sobolev_form,
    # hard_alternatives and the classification simulate expand no product column
    def refuse(*args, **kwargs):
        raise AssertionError("an n x k product head was formed")

    monkeypatch.setattr(gm.spectral._AxisFactors, "rows", refuse)
    g = gm.build_grid(list(dims)) if family == "grid:2" else gm.build_torus(list(dims))
    s = gm.eigendecompose(g)
    ball = gm.SobolevSpec(beta=1.0, Q=1.0, r=2.0)
    f = gm.sample_ball(s, ball, 0.9, seed=4)
    assert gm.sobolev_form(s, ball, f) == pytest.approx(0.9, rel=1e-10)
    alts = gm.hard_alternatives(s, ball, 0.1, gm.vg_packing(8, seed=0))
    assert alts.shape[1] == g.n
    assert sum(v.size for v in s._factors.vectors) == sum(d * d for d in dims)
    spec = small_spec(family=family, n_values=(64, 256), estimator="classification-link",
                      sigma=0.5, reps=2)
    assert len(gm.run_classification_experiment(spec).rows) == 4


def test_rate_report_restates_no_spec_field():
    spec_fields = {f.name for f in dataclasses.fields(gm.ExperimentSpec)}
    assert not spec_fields & {f.name for f in dataclasses.fields(gm.RateReport)}
    spec = small_spec()
    assert gm.run_experiment(spec).spec is spec


class TestCsvFormat:
    def test_headers(self):
        report = gm.run_regression_experiment(small_spec())
        res = gm.results_csv_text(report)
        agg = gm.aggregate_csv_text(report)
        assert res.startswith(RESULTS_HEADER + "\n")
        assert agg.startswith(AGGREGATE_HEADER + "\n")
        assert RESULTS_HEADER == "family,n,beta,Q,sigma,r_used,estimator,rep,seed,risk"
        assert AGGREGATE_HEADER == "family,estimator,beta,r_used,slope,stderr,theory_slope"

    def test_results_row_fields(self):
        report = gm.run_regression_experiment(small_spec())
        line = gm.results_csv_text(report).strip().split("\n")[1].split(",")
        assert line[0] == "path"
        assert int(line[1]) == 64
        assert line[6] == "pinsker"
        assert int(line[7]) == 0
        float(line[9])  # parses

    def test_run_experiment_dispatch(self):
        rep1 = gm.run_experiment(small_spec())
        assert rep1.spec.estimator == "pinsker"
        rep2 = gm.run_experiment(small_spec(estimator="classification-direct", sigma=0.5))
        assert rep2.spec.estimator == "classification-direct"
