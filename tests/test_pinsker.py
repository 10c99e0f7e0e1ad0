import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphminimax as gm
from graphminimax.errors import NumericError, ValidationError
from graphminimax.sobolev import EllipsoidWeights


BALL = gm.SobolevSpec(beta=1.0, Q=1.0, r=1.0)


def path_plan(n, sigma=1.0):
    s = gm.path_spectrum_closed_form(n)
    w = gm.ellipsoid_weights(s, BALL)
    return s, w, gm.pinsker_plan(w, sigma, n)


def random_weights(rng, n):
    a = np.concatenate([[1.0], np.sort(1.0 + np.cumsum(rng.uniform(0.0, 1.0, n - 1)))])
    return EllipsoidWeights(a=a, R=float(rng.uniform(0.3, 3.0)))


class TestCutoff:
    def test_flat_weights_keep_everything(self):
        w = EllipsoidWeights(a=np.ones(20), R=0.7)
        assert gm.cutoff_N(w, epsilon=0.3) == 20

    def test_brute_force_oracle(self):
        # exhaustive evaluation of the defining predicate, pivot at the top
        # weight of the candidate support
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = random_weights(rng, 16)
            eps = float(rng.uniform(0.05, 1.0))
            best = 0
            for m in range(1, 17):
                val = eps**2 * sum(w.a[j] * (w.a[m - 1] - w.a[j]) for j in range(m))
                if val < w.R:
                    best = m
            assert gm.cutoff_N(w, eps) == best

    def test_growth_matches_expected_order(self):
        # N should scale like n^(r/(2 beta + r)) = n^(1/3) here
        Ns = {}
        for n in (512, 1024, 2048):
            _, _, plan = path_plan(n)
            Ns[n] = plan.N
            assert 0.3 <= plan.N / n ** (1.0 / 3.0) <= 3.0
        assert Ns[512] <= Ns[1024] <= Ns[2048]

    def test_epsilon_validation(self):
        w = EllipsoidWeights(a=np.ones(4), R=1.0)
        with pytest.raises(ValidationError):
            gm.cutoff_N(w, epsilon=0.0)


class TestSolveX:
    def test_scalar_case(self):
        w = EllipsoidWeights(a=np.array([1.0]), R=0.8)
        eps = 0.5
        x = gm.solve_x(w, eps, 1)
        assert abs(x - eps**2 / (w.R + eps**2)) < 1e-15
        assert abs(eps**2 / x * (1.0 - x) - w.R) < 1e-12

    def test_agrees_with_independent_bisection(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            w = random_weights(rng, 32)
            eps = float(rng.uniform(0.05, 0.8))
            N = gm.cutoff_N(w, eps)
            x = gm.solve_x(w, eps, N)

            def lhs(t):
                return eps**2 / t * np.sum(w.a * np.maximum(1.0 - t * w.a, 0.0))

            lo, hi = 1e-12, 1.0 / w.a[0]
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if lhs(mid) > w.R:
                    lo = mid
                else:
                    hi = mid
            assert abs(x - 0.5 * (lo + hi)) < 1e-10

    def test_wrong_support_is_rejected(self):
        rng = np.random.default_rng(2)
        w = random_weights(rng, 24)
        eps = 0.4
        N = gm.cutoff_N(w, eps)
        assert N > 2
        with pytest.raises(NumericError):
            gm.solve_x(w, eps, max(1, N - 2))


class TestPinskerPlan:
    def test_noiseless_limit(self):
        _, _, plan = path_plan(128, sigma=1e-9)
        assert plan.l.min() > 1.0 - 1e-6
        assert plan.S < 1e-15

    def test_plan_invariants(self):
        for n in (64, 256, 1024):
            _, w, plan = path_plan(n)
            assert np.all(np.diff(plan.l) <= 1e-15)  # non-increasing
            assert np.all(plan.l[plan.N:] == 0.0)
            assert np.all(plan.l[: plan.N] > 0.0)
            assert abs(plan.S - plan.epsilon**2 * plan.l.sum()) < 1e-15
            lhs = plan.epsilon**2 / plan.x * np.sum(w.a * np.maximum(1 - plan.x * w.a, 0))
            assert abs(lhs - w.R) < 1e-8 * w.R

    def test_scaling_exponents_stable(self):
        # x ~ n^(-beta/(2 beta + r)), S ~ n^(-2 beta/(2 beta + r))
        xs, Ss = [], []
        for n in (512, 1024, 2048, 4096):
            _, _, plan = path_plan(n)
            xs.append(plan.x * n ** (1.0 / 3.0))
            Ss.append(plan.S * n ** (2.0 / 3.0))
        assert max(xs) / min(xs) <= 2.0
        assert max(Ss) / min(Ss) <= 2.0

    def test_sigma_validation(self):
        s = gm.path_spectrum_closed_form(32)
        w = gm.ellipsoid_weights(s, BALL)
        with pytest.raises(ValidationError):
            gm.pinsker_plan(w, 0.0, 32)


class TestEstimateRegression:
    def test_near_identity_plan_recovers_data(self):
        s, _, plan = path_plan(64, sigma=1e-9)
        rng = np.random.default_rng(5)
        y = rng.standard_normal(64)
        assert np.max(np.abs(gm.estimate_regression(s, plan, y) - y)) < 1e-8

    def test_tail_eigenvectors_are_zeroed(self):
        s, _, plan = path_plan(256)
        assert plan.N < 256
        fhat = gm.estimate_regression(s, plan, s.basis[:, plan.N])
        assert np.max(np.abs(fhat)) < 1e-12

    def test_matches_full_basis_reference(self):
        s, _, plan = path_plan(256)
        rng = np.random.default_rng(9)
        for _ in range(10):
            y = rng.standard_normal(256)
            want = gm.gft_inverse(s, plan.l * gm.gft_forward(s, y))
            assert np.max(np.abs(gm.estimate_regression(s, plan, y) - want)) < 1e-12

    def test_rejects_plan_for_another_size(self):
        s, _, _ = path_plan(64)
        _, _, other = path_plan(128)
        assert other.N <= 64  # only the weight count is wrong
        with pytest.raises(ValidationError, match="128 weights"):
            gm.estimate_regression(s, other, np.zeros(64))
        with pytest.raises(ValidationError, match="signal length"):
            gm.estimate_regression(s, path_plan(64)[2], np.zeros(63))

    def test_monte_carlo_risk_within_sup_risk(self):
        # the risk at any ball point is at most S; allow Monte Carlo slack
        s, w, plan = path_plan(1024)
        f = gm.sample_ball(s, BALL, 1.0, seed=11)
        rng = np.random.default_rng(12)
        risks = [
            np.mean((gm.estimate_regression(s, plan, f + rng.standard_normal(1024)) - f) ** 2)
            for _ in range(200)
        ]
        assert np.mean(risks) <= 1.5 * plan.S


class TestLinearRisk:
    def test_zero_weights_pure_bias(self):
        f = np.array([1.0, 2.0, -0.5])
        assert gm.linear_risk(np.zeros(3), f, 0.3) == pytest.approx(np.sum(f**2), abs=1e-15)

    def test_unit_weights_pure_variance(self):
        n, sigma = 50, 0.7
        eps = sigma / np.sqrt(n)
        val = gm.linear_risk(np.ones(n), np.zeros(n), eps)
        assert abs(val - sigma**2) < 1e-12

    def test_matches_monte_carlo(self):
        s, _, plan = path_plan(64)
        f = gm.sample_ball(s, BALL, 1.0, seed=3)
        fc = gm.gft_forward(s, f)
        expected = gm.linear_risk(plan.l, fc, plan.epsilon)
        rng = np.random.default_rng(9)
        risks = np.empty(10000)
        for i in range(10000):
            y = f + rng.standard_normal(64)
            risks[i] = np.mean((gm.estimate_regression(s, plan, y) - f) ** 2)
        se = risks.std(ddof=1) / np.sqrt(len(risks))
        assert abs(risks.mean() - expected) <= 3.0 * se

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            gm.linear_risk(np.ones(3), np.ones(4), 0.1)


class TestSupRisk:
    def test_pinsker_weights_attain_S(self):
        for n in (64, 256, 1024):
            _, w, plan = path_plan(n)
            sup = gm.sup_risk_over_ellipsoid(plan.l, w, plan.epsilon)
            assert abs(sup - plan.S) < 1e-9

    def test_zero_weights(self):
        w = EllipsoidWeights(a=np.array([1.0, 2.0, 5.0]), R=1.7)
        assert gm.sup_risk_over_ellipsoid(np.zeros(3), w, 0.2) == pytest.approx(1.7)

    def test_no_grid_point_beats_the_plan(self):
        # exhaustive search over a 0.01-step weight grid on 5 random
        # three-dimensional ellipsoids
        rng = np.random.default_rng(42)
        axis = np.round(np.arange(0.0, 1.0000001, 0.01), 10)
        grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
        for _ in range(5):
            a = np.concatenate([[1.0], np.sort(1.0 + rng.uniform(0.0, 3.0, 2))])
            w = EllipsoidWeights(a=a, R=float(rng.uniform(0.5, 2.0)))
            eps = float(rng.uniform(0.05, 0.25))
            N = gm.cutoff_N(w, eps)
            x = gm.solve_x(w, eps, N)
            l_opt = np.maximum(1.0 - x * a, 0.0)
            S = eps**2 * l_opt.sum()
            vals = w.R * np.max((1.0 - grid) ** 2 / a**2, axis=1) + eps**2 * np.sum(grid**2, axis=1)
            gap = float(vals.min()) - S
            assert -1e-9 <= gap <= 1e-3

    def test_worst_case_prior_saturates_ellipsoid(self):
        for n in (128, 512):
            _, w, plan = path_plan(n)
            active = plan.l > 0
            v2 = np.zeros(n)
            v2[active] = plan.epsilon**2 * plan.l[active] / (plan.x * w.a[active])
            assert abs(np.sum(w.a**2 * v2) - w.R) < 1e-8 * w.R


class TestProjection:
    def test_full_cutoff_recovers_clean_data(self):
        s = gm.path_spectrum_closed_form(64)
        f = gm.sample_ball(s, BALL, 1.0, seed=6)
        assert np.max(np.abs(gm.projection_estimate(s, f, 64) - f)) < 1e-9

    def test_m1_returns_the_mean(self):
        s = gm.path_spectrum_closed_form(32)
        rng = np.random.default_rng(7)
        y = rng.standard_normal(32)
        fhat = gm.projection_estimate(s, y, 1)
        assert np.max(np.abs(fhat - y.mean())) < 1e-10

    def test_invalid_cutoff(self):
        s = gm.path_spectrum_closed_form(16)
        for m in (0, 17):
            with pytest.raises(ValidationError):
                gm.projection_estimate(s, np.zeros(16), m)

    def test_cutoff_formula_and_clipping(self):
        assert gm.projection_cutoff(64, 1.0, 1.0) == 4  # 64^(1/3)
        assert gm.projection_cutoff(1024, 1.0, 2.0) == 32  # 1024^(1/2)
        assert gm.projection_cutoff(2, 1e-6, 1.0) == 2  # never above n
        assert gm.projection_cutoff(2, 1e6, 1.0) == 1  # never below 1

    def test_rate_matched_cutoff_within_factor_of_pinsker(self):
        cfg = dict(family="path", n_values=(512, 1024), beta=1.0, Q=1.0,
                   sigma=1.0, reps=50, seed=7)
        rp = gm.run_regression_experiment(gm.ExperimentSpec(estimator="pinsker", **cfg))
        rj = gm.run_regression_experiment(gm.ExperimentSpec(estimator="projection", **cfg))
        for (n, mp, _), (_, mj, _) in zip(rp.per_n, rj.per_n):
            assert mj <= 4.0 * mp  # both rate-optimal; constants differ
            assert mp <= 1.1 * mj  # the minimax plan is never materially worse


class TestSigmoidLink:
    def test_midpoint(self):
        link = gm.sigmoid_link()
        assert link.psi(0.0) == pytest.approx(0.5)
        assert link.psi_inv(np.array([0.5]))[0] == pytest.approx(0.0)

    def test_inverse_round_trip(self):
        link = gm.sigmoid_link()
        p = np.arange(0.01, 1.0, 0.01)
        assert np.max(np.abs(link.psi(link.psi_inv(p)) - p)) < 1e-12

    def test_inverse_domain(self):
        link = gm.sigmoid_link()
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValidationError):
                link.psi_inv(np.array([bad]))

    def test_inverse_rejects_nan(self):
        link = gm.sigmoid_link()
        for bad in ([np.nan], [0.3, np.nan]):
            with pytest.raises(ValidationError, match="strictly inside"):
                link.psi_inv(np.array(bad))

    def test_constants(self):
        link = gm.sigmoid_link()
        assert link.sup_dpsi == 0.25
        assert link.sup_ratio == 1.0
        assert link.kl_constant == 0.25

    def test_derivative_identity(self):
        # Psi' = Psi (1 - Psi) for the sigmoid; compare two independent
        # floating-point routes (1 - Psi(t) evaluated as Psi(-t))
        link = gm.sigmoid_link()
        t = np.linspace(-50.0, 50.0, 2001)
        ratio = link.dpsi(t) / (link.psi(t) * link.psi(-t))
        assert np.max(np.abs(ratio - 1.0)) < 1e-10


    def test_matches_scipy_oracle(self):
        special = pytest.importorskip("scipy.special")
        link = gm.sigmoid_link()
        t = np.linspace(-700.0, 700.0, 20001)
        assert np.max(np.abs(link.psi(t) / special.expit(t) - 1.0)) < 1e-14
        p = np.linspace(1e-12, 1.0 - 1e-12, 20001)
        assert np.max(np.abs(link.psi_inv(p) - special.logit(p))) < 1e-14

    def test_saturates_without_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(gm.sigmoid_link().psi(np.array([-800.0, 800.0])), [0.0, 1.0])


class TestEstimateClassification:
    def test_all_ones_direct(self):
        s, _, plan = path_plan(64, sigma=1e-6)
        rho = gm.estimate_classification(s, plan, np.ones(64))
        assert np.allclose(rho, 1.0 - 1e-3, atol=1e-9)

    def test_outputs_clipped_both_modes(self):
        s, _, plan = path_plan(64, sigma=0.5)
        rng = np.random.default_rng(8)
        y = (rng.random(64) < 0.5).astype(float)
        for mode in ("direct", "link"):
            rho = gm.estimate_classification(s, plan, y, mode=mode)
            assert np.all(rho >= 1e-3) and np.all(rho <= 1.0 - 1e-3)

    def test_shrinkage_beats_raw_labels(self):
        # constant soft labels 1/2: raw labels have risk exactly 1/4
        s, _, plan = path_plan(1024, sigma=0.5)
        rho = np.full(1024, 0.5)
        rng = np.random.default_rng(5)
        risks = []
        for _ in range(200):
            y = (rng.random(1024) < rho).astype(float)
            risks.append(np.mean((gm.estimate_classification(s, plan, y) - rho) ** 2))
        assert np.mean(risks) < 0.25

    def test_rejects_non_binary_labels(self):
        s, _, plan = path_plan(32, sigma=0.5)
        with pytest.raises(ValidationError):
            gm.estimate_classification(s, plan, np.full(32, 0.5))

    def test_rejects_unknown_mode(self):
        s, _, plan = path_plan(32, sigma=0.5)
        with pytest.raises(ValidationError):
            gm.estimate_classification(s, plan, np.zeros(32), mode="other")


def test_estimators_read_only_their_head_columns():
    # every column an estimator may not read is NaN, so reading one shows
    s = gm.eigendecompose(gm.build_grid([12, 12]))
    plan = gm.pinsker_plan(gm.ellipsoid_weights(s, gm.SobolevSpec(1.0, 1.0, 2.0)), 0.5, s.n)
    m = 20
    rng = np.random.default_rng(4)
    y = rng.standard_normal(s.n)
    labels = (rng.random(s.n) < 0.5).astype(float)
    for k, estimate in (
        (plan.N, lambda t: gm.estimate_regression(t, plan, y)),
        (plan.N, lambda t: gm.estimate_classification(t, plan, labels, mode="link")),
        (m, lambda t: gm.projection_estimate(t, y, m)),
    ):
        assert k < s.n
        basis = s.basis.copy(order="F")
        basis[:, k:] = np.nan
        assert np.array_equal(estimate(dataclasses.replace(s, basis=basis)), estimate(s))


def rotate_within_eigenspaces(s, rng):
    """The basis turned by a random orthogonal matrix inside every eigenvalue cluster.

    Clusters use a relative tolerance of 1e-12: mathematically equal
    eigenvalues can differ by an ulp (torus 32x64 has such pairs).
    """
    lams = s.lambdas
    basis = s.basis.copy(order="F")
    bounds = np.flatnonzero(np.diff(lams) > 1e-12 * lams[1:]) + 1
    for sel in np.split(np.arange(s.n), bounds):
        if len(sel) > 1:
            q, _ = np.linalg.qr(rng.standard_normal((len(sel), len(sel))))
            basis[:, sel] = basis[:, sel] @ q
    return dataclasses.replace(s, basis=basis), bounds


@settings(max_examples=30, deadline=None)
@given(
    torus=st.booleans(),
    dims=st.lists(st.integers(min_value=2, max_value=7), min_size=1, max_size=3),
    beta=st.sampled_from([0.5, 1.0, 2.0]),
    sigma=st.sampled_from([0.1, 0.5, 1.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(torus=True, dims=[32, 64], beta=1.0, sigma=1.0, seed=0)
@example(torus=False, dims=[32, 32], beta=1.0, sigma=1.0, seed=0)
def test_estimates_do_not_depend_on_the_basis_inside_an_eigenspace(
    torus, dims, beta, sigma, seed
):
    # Pinsker weights are equal on equal eigenvalues, so the estimators must
    # not change when the basis turns inside an eigenspace.  A head read that
    # split an eigenvalue cluster would change; the control at the end shows
    # that the rotation detects such a split.  projection_estimate is left
    # out: its rate-matched cutoff can split a cluster (m = 32 on grid 32x32,
    # ROADMAP item 5).
    if torus:
        dims = [max(d, 3) for d in dims]
    g = gm.build_torus(dims) if torus else gm.build_grid(dims)
    s = gm.eigendecompose(g)
    rng = np.random.default_rng(seed)
    turned, bounds = rotate_within_eigenspaces(s, rng)
    ball = gm.SobolevSpec(beta=beta, Q=1.0, r=float(len(dims)))
    plan = gm.pinsker_plan(gm.ellipsoid_weights(s, ball), sigma, s.n)
    y = rng.standard_normal(s.n)
    labels = (rng.random(s.n) < 0.5).astype(float)
    for estimate in (
        lambda t: gm.estimate_regression(t, plan, y),
        lambda t: gm.estimate_classification(t, plan, labels, mode="direct"),
        lambda t: gm.estimate_classification(t, plan, labels, mode="link"),
    ):
        assert np.max(np.abs(estimate(turned) - estimate(s))) < 1e-10
    splits = [b + 1 for b, e in zip(np.r_[0, bounds], np.r_[bounds, s.n]) if e - b > 1]
    if splits:
        diff = gm.projection_estimate(turned, y, splits[0]) - gm.projection_estimate(s, y, splits[0])
        assert np.max(np.abs(diff)) > 1e-8
