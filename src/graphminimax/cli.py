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
import dataclasses
import math
import sys

import numpy as np

from ._text import csv_text, format_rows
from .errors import NumericError, ValidationError, _check_integer, _check_seed
from .fano import certificate_csv_text, fano_certificate, worst_case_prior_sample
from .graphs import DEFAULT_DENSE_CAP, parse_graph_spec
from .harness import (
    CLASSIFICATION_ESTIMATORS,
    ExperimentSpec,
    aggregate_csv_text,
    results_csv_text,
    run_experiment,
)
from .pinsker import (
    REGRESSION_ESTIMATORS, _noise_scale, _shrink_head, estimate_classification, linear_risk,
    pinsker_plan, regression_weights, sigmoid_link,
)
from .sobolev import SobolevSpec, ellipsoid_weights
from .spectral import eigendecompose, eigenvalues, fit_geometry, geometry_r, spectrum_csv_text


class _Parser(argparse.ArgumentParser):
    # argparse normally exits with code 2 on bad flags; route through the
    # package's validation-error path (exit 1) instead.
    def error(self, message):
        raise ValidationError(message)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _print_values(**values) -> None:
    """One ``key = value`` line per keyword, values in the CSV text format."""
    for item in values.items():
        print(*format_rows([item], sep=" = "))


def _read_observation_csv(path: str, n: int) -> np.ndarray:
    """Read an ``i,y`` CSV covering all vertices 0..n-1 exactly once."""
    values = [None] * n
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
            if not math.isfinite(y):
                raise ValidationError(f"{path}:{lineno}: observation {tokens[1]!r} is not finite")
            if values[i] is not None:
                raise ValidationError(f"{path}:{lineno}: duplicate vertex {i}")
            values[i] = y
    if None in values:
        raise ValidationError(f"{path}: missing observation for vertex {values.index(None)}")
    return np.array(values)


def _signal_csv_text(values: np.ndarray, column: str) -> str:
    """A vertex signal as CSV with header ``i,<column>``."""
    return csv_text(f"i,{column}", zip(range(len(values)), values.tolist()))


def _model(args, solve):
    """solve(--graph) and the ball of --beta, --Q and --r (geometry_r without --r)."""
    g = parse_graph_spec(args.graph)
    s = solve(g)
    r = args.r if args.r is not None else geometry_r(g, s)
    return s, SobolevSpec(beta=args.beta, Q=args.Q, r=r)


# ---------------------------------------------------------------- commands


def _cmd_spectrum(args) -> int:
    g = parse_graph_spec(args.graph)
    s = eigenvalues(g)
    _write_text(args.out, spectrum_csv_text(s))
    _print_values(n=s.n, lambda_1=s.lambdas[1])
    return 0


def _cmd_fit_r(args) -> int:
    g = parse_graph_spec(args.graph)
    s = eigenvalues(g)
    _print_values(**dataclasses.asdict(fit_geometry(s, i0=args.i0, kappa=args.kappa)))
    return 0


def _cmd_denoise(args) -> int:
    s, ball = _model(args, eigendecompose)
    y = _read_observation_csv(args.obs, s.n)
    _noise_scale(args.sigma, s.n)  # checked here: projection reads no sigma
    l, printed = regression_weights(args.estimator, s, ball, args.sigma)
    fhat = _shrink_head(s, y, np.trim_zeros(l, "b"))  # the eigenvectors up to the last weight
    _print_values(**printed)
    _write_text(args.out, _signal_csv_text(fhat, "f_hat"))
    return 0


def _cmd_classify(args) -> int:
    s, ball = _model(args, eigendecompose)
    y = _read_observation_csv(args.obs, s.n)
    plan = pinsker_plan(ellipsoid_weights(s, ball), args.sigma, s.n)
    rho_hat = estimate_classification(s, plan, y, mode=args.mode)
    _print_values(N=plan.N, x=plan.x, S=plan.S)
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
    _print_values(slope=report.slope, stderr=report.slope_stderr, theory_slope=report.theory_slope)
    return 0


def _cmd_fano(args) -> int:
    s, ball = _model(args, eigenvalues)
    sigma_or_link = sigmoid_link() if args.mode == "clf" else args.sigma
    cert = fano_certificate(s, ball, sigma_or_link, args.seed)
    _write_text(args.out, certificate_csv_text(cert))
    _print_values(valid=cert.valid, M=cert.M, alpha=cert.alpha, fano_bound=cert.fano_bound)
    return 0


def _cmd_prior_demo(args) -> int:
    _check_integer(args.draws, "--draws", 1, DEFAULT_DENSE_CAP**2, "DEFAULT_DENSE_CAP**2")
    s, ball = _model(args, eigenvalues)
    w = ellipsoid_weights(s, ball)
    plan = pinsker_plan(w, args.sigma, s.n)
    seeds = np.random.SeedSequence(_check_seed(args.seed)).generate_state(args.draws, np.uint64)
    risks = np.empty(args.draws)
    for i, seed in enumerate(seeds):
        coeffs = worst_case_prior_sample(plan, w, args.delta, int(seed))
        risks[i] = linear_risk(plan.l, coeffs, plan.epsilon)
    bayes = float(risks.mean())
    _print_values(S=plan.S, lower_band=(1.0 - args.delta) * plan.S, bayes_risk=bayes)
    return 0


def _add_model_flags(p: argparse.ArgumentParser, sigma: float | None, obs: bool = False) -> None:
    """--graph, --obs if asked, --beta, --Q, --sigma (required if sigma is None) and --r."""
    p.add_argument("--graph", required=True)
    if obs:
        p.add_argument("--obs", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--Q", type=float, default=1.0)
    p.add_argument("--sigma", type=float, required=sigma is None, default=sigma)
    p.add_argument("--r", type=float, default=None)


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
    _add_model_flags(p, sigma=None, obs=True)
    p.add_argument("--estimator", choices=REGRESSION_ESTIMATORS, default="pinsker")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_denoise)

    p = sub.add_parser("classify", help="estimate per-vertex label probabilities")
    _add_model_flags(p, sigma=0.5, obs=True)
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
        "--estimator", choices=REGRESSION_ESTIMATORS + CLASSIFICATION_ESTIMATORS, default="pinsker"
    )
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fill", type=float, default=1.0)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fano", help="build a lower-bound certificate")
    _add_model_flags(p, sigma=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("reg", "clf"), default="clf")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fano)

    p = sub.add_parser("prior-demo", help="Bayes risk under the worst-case prior")
    _add_model_flags(p, sigma=1.0)
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
