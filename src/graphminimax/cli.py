"""Command-line driver.

Subcommands: spectrum, fit-r, denoise, classify, simulate, fano,
prior-demo.  Graphs are named with the one-line spec language of
graphs.parse_graph_spec (the harness builds its graphs through it too), so
every experiment is reproducible from its command line:

    path:N  grid:AxB[xC...]  torus:AxB[...]  ws:N,K,P,SEED  file:PATH

Paths, grids and tori get their closed-form eigenvalues and known r (the
number of axes); --r overrides r, and other graphs get a fitted r.

Exit codes: 0 success, 1 validation error, 2 numeric failure, 3 I/O error.
All floating-point output uses 12 significant digits.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import NumericError, ValidationError
from .fano import certificate_csv_text, fano_certificate, worst_case_prior_sample
from .graphs import parse_graph_spec
from .harness import (
    ExperimentSpec,
    aggregate_csv_text,
    results_csv_text,
    run_experiment,
)
from .pinsker import (
    estimate_classification,
    estimate_regression,
    linear_risk,
    pinsker_plan,
    projection_cutoff,
    projection_estimate,
    sigmoid_link,
)
from .sobolev import SobolevSpec, ellipsoid_weights
from .spectral import eigendecompose, eigenvalues, fit_geometry, geometry_r, spectrum_csv_text


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


class _Parser(argparse.ArgumentParser):
    # argparse normally exits with code 2 on bad flags; route through the
    # package's validation-error path (exit 1) instead.
    def error(self, message):
        raise ValidationError(message)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _read_observation_csv(path: str, n: int) -> np.ndarray:
    """Read an ``i,y`` CSV covering all vertices 0..n-1 exactly once."""
    values = np.full(n, np.nan)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header.split(",")[0] != "i":
            raise ValidationError(f"{path}: expected header starting with 'i', got {header!r}")
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            tokens = line.split(",")
            if len(tokens) != 2:
                raise ValidationError(f"{path}:{lineno}: expected 'i,y', got {line!r}")
            try:
                i, y = int(tokens[0]), float(tokens[1])
            except ValueError:
                raise ValidationError(f"{path}:{lineno}: could not parse {line!r}") from None
            if not 0 <= i < n:
                raise ValidationError(f"{path}:{lineno}: vertex {i} out of range for n={n}")
            if not np.isfinite(y):
                raise ValidationError(f"{path}:{lineno}: observation {tokens[1]!r} is not finite")
            if not np.isnan(values[i]):
                raise ValidationError(f"{path}:{lineno}: duplicate vertex {i}")
            values[i] = y
    missing = np.flatnonzero(np.isnan(values))
    if len(missing):
        raise ValidationError(f"{path}: missing observation for vertex {missing[0]}")
    return values


def _signal_csv_text(values: np.ndarray, column: str) -> str:
    lines = [f"i,{column}"]
    lines.extend(f"{i},{_fmt(v)}" for i, v in enumerate(values))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- commands


def _cmd_spectrum(args) -> int:
    g = parse_graph_spec(args.graph)
    s = eigenvalues(g)
    _write_text(args.out, spectrum_csv_text(s))
    print(f"n = {s.n}")
    print(f"lambda_1 = {_fmt(s.lambdas[1])}")
    return 0


def _cmd_fit_r(args) -> int:
    g = parse_graph_spec(args.graph)
    s = eigenvalues(g)
    fit = fit_geometry(s, i0=args.i0, kappa=args.kappa)
    print(f"r_hat = {_fmt(fit.r_hat)}")
    print(f"slope = {_fmt(fit.slope)}")
    print(f"c1_hat = {_fmt(fit.c1_hat)}")
    print(f"c2_hat = {_fmt(fit.c2_hat)}")
    print(f"rss = {_fmt(fit.rss)}")
    if args.graph.startswith("ws:"):
        print("note: compare with r = 1.4, the value reported for a small-world graph")
    return 0


def _cmd_denoise(args) -> int:
    g = parse_graph_spec(args.graph)
    s = eigendecompose(g)
    y = _read_observation_csv(args.obs, s.n)
    r = args.r if args.r is not None else geometry_r(g, s)
    ball = SobolevSpec(beta=args.beta, Q=args.Q, r=r)
    if args.estimator == "pinsker":
        plan = pinsker_plan(ellipsoid_weights(s, ball), args.sigma, s.n)
        fhat = estimate_regression(s, plan, y)
        print(f"N = {plan.N}")
        print(f"x = {_fmt(plan.x)}")
        print(f"S = {_fmt(plan.S)}")
    else:
        m = projection_cutoff(s.n, args.beta, r)
        fhat = projection_estimate(s, y, m)
        print(f"m = {m}")
    _write_text(args.out, _signal_csv_text(fhat, "f_hat"))
    return 0


def _cmd_classify(args) -> int:
    g = parse_graph_spec(args.graph)
    s = eigendecompose(g)
    y = _read_observation_csv(args.obs, s.n)
    r = args.r if args.r is not None else geometry_r(g, s)
    ball = SobolevSpec(beta=args.beta, Q=args.Q, r=r)
    plan = pinsker_plan(ellipsoid_weights(s, ball), args.sigma, s.n)
    rho_hat = estimate_classification(s, plan, y, mode=args.mode)
    print(f"N = {plan.N}")
    print(f"x = {_fmt(plan.x)}")
    print(f"S = {_fmt(plan.S)}")
    _write_text(args.out, _signal_csv_text(rho_hat, "rho_hat"))
    return 0


def _cmd_simulate(args) -> int:
    try:
        n_values = tuple(int(tok) for tok in args.n_list.split(","))
    except ValueError:
        raise ValidationError(f"bad --n-list {args.n_list!r}") from None
    spec = ExperimentSpec(
        family=args.family,
        n_values=n_values,
        beta=args.beta,
        Q=args.Q,
        sigma=args.sigma,
        estimator=args.estimator,
        reps=args.reps,
        seed=args.seed,
        fill=args.fill,
    )
    report = run_experiment(spec)
    _write_text(f"{args.out_prefix}_results.csv", results_csv_text(report))
    _write_text(f"{args.out_prefix}_aggregate.csv", aggregate_csv_text(report))
    if report.note:
        print(f"note: {report.note}")
    print(f"slope = {_fmt(report.slope)}")
    print(f"stderr = {_fmt(report.slope_stderr)}")
    print(f"theory_slope = {_fmt(report.theory_slope)}")
    return 0


def _cmd_fano(args) -> int:
    g = parse_graph_spec(args.graph)
    s = eigenvalues(g) if args.mode == "reg" else eigendecompose(g)
    r = args.r if args.r is not None else geometry_r(g, s)
    ball = SobolevSpec(beta=args.beta, Q=args.Q, r=r)
    sigma_or_link = sigmoid_link() if args.mode == "clf" else args.sigma
    cert = fano_certificate(s, ball, sigma_or_link, args.seed)
    _write_text(args.out, certificate_csv_text(cert))
    print(f"valid = {'true' if cert.valid else 'false'}")
    print(f"M = {cert.M}")
    print(f"alpha = {_fmt(cert.alpha)}")
    print(f"fano_bound = {_fmt(cert.fano_bound)}")
    return 0


def _cmd_prior_demo(args) -> int:
    if args.draws < 1:
        raise ValidationError(f"--draws must be >= 1, got {args.draws}")
    g = parse_graph_spec(args.graph)
    s = eigenvalues(g)
    r = args.r if args.r is not None else geometry_r(g, s)
    ball = SobolevSpec(beta=args.beta, Q=args.Q, r=r)
    w = ellipsoid_weights(s, ball)
    plan = pinsker_plan(w, args.sigma, s.n)
    seeds = np.random.SeedSequence(args.seed).generate_state(args.draws, np.uint64)
    risks = np.empty(args.draws)
    for i, seed in enumerate(seeds):
        coeffs = worst_case_prior_sample(plan, w, args.delta, int(seed))
        risks[i] = linear_risk(plan.l, coeffs, plan.epsilon)
    bayes = float(risks.mean())
    print(f"S = {_fmt(plan.S)}")
    print(f"lower_band = {_fmt((1.0 - args.delta) * plan.S)}")
    print(f"bayes_risk = {_fmt(bayes)}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="graphminimax", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("spectrum", help="write Laplacian eigenvalues to CSV")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("fit-r", help="fit the eigenvalue growth law")
    p.add_argument("--graph", required=True)
    p.add_argument("--i0", type=int, default=5)
    p.add_argument("--kappa", type=float, default=0.5)
    p.set_defaults(func=_cmd_fit_r)

    p = sub.add_parser("denoise", help="shrinkage-denoise a noisy vertex signal")
    p.add_argument("--graph", required=True)
    p.add_argument("--obs", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--Q", type=float, default=1.0)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--estimator", choices=("pinsker", "projection"), default="pinsker")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_denoise)

    p = sub.add_parser("classify", help="estimate per-vertex label probabilities")
    p.add_argument("--graph", required=True)
    p.add_argument("--obs", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--Q", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--mode", choices=("direct", "link"), default="direct")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("simulate", help="run a Monte Carlo rate experiment")
    p.add_argument("--family", required=True)
    p.add_argument("--n-list", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--Q", type=float, default=1.0)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument(
        "--estimator",
        choices=("pinsker", "projection", "classification-direct", "classification-link"),
        default="pinsker",
    )
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fill", type=float, default=1.0)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fano", help="build a lower-bound certificate")
    p.add_argument("--graph", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--Q", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("reg", "clf"), default="clf")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fano)

    p = sub.add_parser("prior-demo", help="Bayes risk under the worst-case prior")
    p.add_argument("--graph", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--Q", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--draws", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_prior_demo)

    return parser


def main(argv=None) -> int:
    """Parse arguments, dispatch, and map failures to the exit-code contract."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())
