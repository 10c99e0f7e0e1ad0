"""Acceptance suite.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints a single PASS/FAIL line (run with ``pytest -s`` to see
the lines as they stream).  Monte Carlo criteria use frozen master seeds so
the whole suite is deterministic on a given platform.
"""
import dataclasses
import functools
import math
import time

import numpy as np

import graphminimax as gm
from graphminimax.cli import main as cli_main

MC_SEED = 7  # frozen master seed for the rate-recovery experiments


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d}: {status} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@functools.cache
def path_regression_report():
    spec = gm.ExperimentSpec(
        family="path", n_values=(256, 512, 1024, 2048, 4096), beta=1.0, Q=1.0,
        sigma=1.0, estimator="pinsker", reps=50, seed=MC_SEED,
    )
    return gm.run_experiment(spec)


@functools.cache
def grid_regression_report():
    # all five sizes are perfect squares inside the 256..4096 range
    spec = gm.ExperimentSpec(
        family="grid:2", n_values=(256, 529, 1024, 2025, 4096), beta=1.0, Q=1.0,
        sigma=1.0, estimator="pinsker", reps=50, seed=MC_SEED,
    )
    return gm.run_experiment(spec)


def test_criterion_01_closed_form_spectrum():
    t0 = time.monotonic()
    worst_lam = worst_vec = 0.0
    for n in (16, 64, 256):
        # the shape-free copy gets the dense eigh, not the closed form
        s = gm.eigendecompose(dataclasses.replace(gm.build_path(n)))
        cf = gm.path_spectrum_closed_form(n)
        worst_lam = max(worst_lam, float(np.max(np.abs(s.lambdas - cf.lambdas))))
        worst_vec = max(worst_vec, float(np.max(np.abs(s.basis - cf.basis))))
    elapsed = time.monotonic() - t0
    ok = worst_lam < 1e-8 and worst_vec < 1e-8 and elapsed < 5.0
    report(1, ok, f"eigenvalue dev {worst_lam:.2e}, eigenvector dev {worst_vec:.2e}, {elapsed:.1f}s")


def test_criterion_02_normalization_identities():
    # norm identities of the raw cosine eigenvectors
    worst_norm = 0.0
    for n in (16, 64, 256):
        i = np.arange(1, n + 1)
        for j in range(n):
            raw = np.cos(np.pi * j * (2 * i - 1) / (2 * n))
            target = 1.0 if j == 0 else 0.5
            worst_norm = max(worst_norm, abs(float(np.mean(raw**2)) - target))
    norms_ok = worst_norm < 1e-12

    # sup norm of the normalized basis: the amplitude sqrt(2) is attained
    # exactly only when the cosine grid hits a lattice point (n = 6, 10, 18
    # among small sizes); at power-of-two sizes the exact maximum is the
    # sharp finite-n value sqrt(2) cos(pi/(2n)).
    sup_exact_ok = all(
        abs(gm.sup_norm_bound(gm.path_spectrum_closed_form(n)) - math.sqrt(2)) < 1e-9
        for n in (6, 10, 18)
    )
    sup_sharp_ok = True
    for n in (16, 64, 256):
        got = gm.sup_norm_bound(gm.path_spectrum_closed_form(n))
        sharp = math.sqrt(2) * math.cos(math.pi / (2 * n))
        sup_sharp_ok &= abs(got - sharp) < 1e-12 and got <= math.sqrt(2) + 1e-12

    # 2-d grids: product basis sup is the product of the path sups, equal
    # to 2 exactly when each factor attains sqrt(2)
    p6 = gm.path_spectrum_closed_form(6)
    grid_sup = float(np.abs(np.kron(p6.basis, p6.basis)).max())
    grid_ok = abs(grid_sup - 2.0) < 1e-9

    ok = norms_ok and sup_exact_ok and sup_sharp_ok and grid_ok
    report(2, ok, f"norm dev {worst_norm:.2e}, path sup sqrt(2) {sup_exact_ok}, "
                  f"sharp finite-n sup {sup_sharp_ok}, grid sup {grid_sup:.12f}")


def test_criterion_03_geometry_fit():
    t0 = time.monotonic()
    r_path = gm.fit_geometry(gm.eigendecompose(gm.build_path(2048))).r_hat
    r_grid = gm.fit_geometry(gm.eigendecompose(gm.build_grid([32, 32]))).r_hat
    n = 400
    synth = gm.spectral.Spectrum(
        n=n, lambdas=(np.arange(n) / n) ** (2.0 / 3.0), basis=np.sqrt(n) * np.eye(n)
    )
    r_synth = gm.fit_geometry(synth).r_hat
    elapsed = time.monotonic() - t0
    ok = (
        0.95 <= r_path <= 1.05
        and 1.8 <= r_grid <= 2.2
        and abs(r_synth - 3.0) < 1e-9
        and elapsed < 30.0
    )
    report(3, ok, f"path r={r_path:.4f}, grid r={r_grid:.4f}, "
                  f"synthetic |r-3|={abs(r_synth - 3.0):.1e}, {elapsed:.1f}s")


def test_criterion_04_regression_rate():
    t0 = time.monotonic()
    rp = path_regression_report()
    rg = grid_regression_report()
    elapsed = time.monotonic() - t0
    dev_path = abs(rp.slope - (-2.0 / 3.0))
    dev_grid = abs(rg.slope - (-0.5))
    ok = dev_path <= 0.12 and dev_grid <= 0.12 and elapsed < 600.0
    report(4, ok, f"path slope {rp.slope:.4f} (dev {dev_path:.3f} <= 0.12), "
                  f"grid slope {rg.slope:.4f} (dev {dev_grid:.3f} <= 0.12), {elapsed:.0f}s")


def test_criterion_05_classification_rate():
    t0 = time.monotonic()
    spec = gm.ExperimentSpec(
        family="path", n_values=(256, 512, 1024, 2048, 4096), beta=1.0, Q=1.0,
        sigma=0.5, estimator="classification-direct", reps=50, seed=MC_SEED,
    )
    rep = gm.run_experiment(spec)
    elapsed = time.monotonic() - t0
    dev = abs(rep.slope - (-2.0 / 3.0))
    ok = dev <= 0.15 and elapsed < 600.0
    report(5, ok, f"classification slope {rep.slope:.4f} (dev {dev:.3f} <= 0.15), {elapsed:.0f}s")


def test_criterion_06_linear_minimax_oracle():
    rng = np.random.default_rng(42)
    axis = np.round(np.arange(0.0, 1.0000001, 0.01), 10)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    worst_gap = -np.inf
    worst_identity = 0.0
    for _ in range(20):
        a = np.concatenate([[1.0], np.sort(1.0 + rng.uniform(0.0, 3.0, 2))])
        w = gm.EllipsoidWeights(a=a, R=float(rng.uniform(0.5, 2.0)))
        eps = float(rng.uniform(0.05, 0.25))
        N = gm.cutoff_N(w, eps)
        x = gm.solve_x(w, eps, N)
        l_opt = np.maximum(1.0 - x * a, 0.0)
        S = eps**2 * l_opt.sum()
        worst_identity = max(worst_identity, abs(gm.sup_risk_over_ellipsoid(l_opt, w, eps) - S))
        vals = w.R * np.max((1.0 - grid) ** 2 / a**2, axis=1) + eps**2 * np.sum(grid**2, axis=1)
        worst_gap = max(worst_gap, float(vals.min()) - S)
    ok = -1e-9 <= worst_gap <= 1e-3 and worst_identity <= 1e-9
    report(6, ok, f"worst grid gap {worst_gap:.2e} <= 1e-3, "
                  f"sup_risk identity dev {worst_identity:.2e} <= 1e-9")


def test_criterion_07_pinsker_self_consistency():
    ball = gm.SobolevSpec(beta=1.0, Q=1.0, r=1.0)
    worst_eq = worst_prior = 0.0
    xs, Ss = [], []
    for n in (512, 1024, 2048, 4096):
        s = gm.path_spectrum_closed_form(n)
        w = gm.ellipsoid_weights(s, ball)
        plan = gm.pinsker_plan(w, 1.0, n)
        lhs = plan.epsilon**2 / plan.x * np.sum(w.a * np.maximum(1.0 - plan.x * w.a, 0.0))
        worst_eq = max(worst_eq, abs(lhs - w.R) / w.R)
        active = plan.l > 0
        v2 = plan.epsilon**2 * plan.l[active] / (plan.x * w.a[active])
        worst_prior = max(worst_prior, abs(float(np.sum(w.a[active] ** 2 * v2)) - w.R) / w.R)
        xs.append(plan.x * n ** (1.0 / 3.0))
        Ss.append(plan.S * n ** (2.0 / 3.0))
    x_drift = max(xs) / min(xs)
    s_drift = max(Ss) / min(Ss)
    ok = worst_eq <= 1e-8 and worst_prior <= 1e-8 and x_drift <= 2.0 and s_drift <= 2.0
    report(7, ok, f"equation dev {worst_eq:.2e}, prior identity dev {worst_prior:.2e}, "
                  f"x drift {x_drift:.3f}, S drift {s_drift:.3f}")


def test_criterion_08_fano_certificate():
    t0 = time.monotonic()
    ball = gm.SobolevSpec(beta=1.0, Q=1.0, r=1.0)
    link = gm.sigmoid_link()
    certs = {}
    norm_dev = 0.0
    packing_ok = True
    for n in (1024, 4096):
        s = gm.path_spectrum_closed_form(n)
        cert = gm.fano_certificate(s, ball, link, seed=3)
        certs[n] = cert
        pack = gm.vg_packing(cert.N, cert.seed)
        packing_ok &= pack.M >= math.floor(2 ** (cert.N / 8.0))
        packing_ok &= pack.min_hamming >= math.ceil(cert.N / 8)
        alts = gm.hard_alternatives(s, ball, cert.delta, pack)
        scale = cert.delta**2 * cert.N ** (-(2.0 * ball.beta + ball.r) / ball.r)
        gramd = (pack.N - pack.thetas @ pack.thetas.T) // 2
        for i in range(pack.M):
            norm_dev = max(norm_dev, abs(np.mean((alts[i + 1] - alts[0]) ** 2) - scale * pack.N))
            for j in range(i + 1, pack.M):
                got = np.mean((alts[i + 1] - alts[j + 1]) ** 2)
                norm_dev = max(norm_dev, abs(got - 4.0 * scale * gramd[i, j]))
    sep_scaled = [certs[n].separation_min * n ** (1.0 / 3.0) for n in (1024, 4096)]
    sep_drift = max(sep_scaled) / min(sep_scaled)
    elapsed = time.monotonic() - t0
    ok = (
        all(c.valid and c.alpha <= 0.5 for c in certs.values())
        and packing_ok
        and norm_dev <= 1e-10
        and sep_drift <= 2.0
        and elapsed < 120.0
    )
    report(8, ok, f"valid {certs[4096].valid}, alpha {certs[4096].alpha:.4f} <= 0.5, "
                  f"M={certs[4096].M}, norm identity dev {norm_dev:.2e}, "
                  f"separation drift {sep_drift:.3f}, {elapsed:.0f}s")


def test_criterion_09_divergence_bound():
    link = gm.sigmoid_link()
    rng = np.random.default_rng(99)
    violations = 0
    for _ in range(1000):
        v1 = rng.standard_normal(100)
        v2 = rng.standard_normal(100)
        kl, bound, holds = gm.kl_link_bound_check(v1, v2, link)
        violations += not holds
        # bound is exactly (n/4) ||v1 - v2||_n^2 for the sigmoid
        assert abs(bound - 0.25 * np.sum((v1 - v2) ** 2)) < 1e-12
    ok = violations == 0
    report(9, ok, f"{violations} violations of K <= (n/4)||v1-v2||_n^2 in 1000 pairs")


def test_criterion_10_determinism(tmp_path):
    # library harness: identical spec -> identical CSV text
    r1 = path_regression_report()
    spec = gm.ExperimentSpec(
        family="path", n_values=(256, 512, 1024, 2048, 4096), beta=1.0, Q=1.0,
        sigma=1.0, estimator="pinsker", reps=50, seed=MC_SEED,
    )
    r2 = gm.run_experiment(spec)
    harness_ok = (
        gm.results_csv_text(r1) == gm.results_csv_text(r2)
        and gm.aggregate_csv_text(r1) == gm.aggregate_csv_text(r2)
    )

    # CLI runs: byte-identical outputs for repeated seeds
    sim = ["simulate", "--family", "path", "--n-list", "64,128", "--beta", "1",
           "--sigma", "1", "--reps", "3", "--seed", "5"]
    assert cli_main(sim + ["--out-prefix", str(tmp_path / "a")]) == 0
    assert cli_main(sim + ["--out-prefix", str(tmp_path / "b")]) == 0
    sim_ok = (
        (tmp_path / "a_results.csv").read_bytes() == (tmp_path / "b_results.csv").read_bytes()
        and (tmp_path / "a_aggregate.csv").read_bytes() == (tmp_path / "b_aggregate.csv").read_bytes()
    )

    fano = ["fano", "--graph", "path:1024", "--beta", "1", "--seed", "3", "--mode", "clf"]
    assert cli_main(fano + ["--out", str(tmp_path / "c1.csv")]) == 0
    assert cli_main(fano + ["--out", str(tmp_path / "c2.csv")]) == 0
    fano_ok = (tmp_path / "c1.csv").read_bytes() == (tmp_path / "c2.csv").read_bytes()

    assert cli_main(["spectrum", "--graph", "path:64", "--out", str(tmp_path / "s1.csv")]) == 0
    assert cli_main(["spectrum", "--graph", "path:64", "--out", str(tmp_path / "s2.csv")]) == 0
    spec_ok = (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()

    ok = harness_ok and sim_ok and fano_ok and spec_ok
    report(10, ok, f"harness {harness_ok}, simulate {sim_ok}, fano {fano_ok}, spectrum {spec_ok}")
