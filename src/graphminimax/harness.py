"""Config-driven Monte Carlo experiments that recover minimax rates.

An ExperimentSpec names a graph family, a grid of sizes, model parameters
and an estimator; the runners simulate seeded replicates, record the
per-replicate risks ||estimate - truth||_n^2, and fit the log-log slope of
the mean risk against n.  For smooth targets the slope should track the
minimax exponent -2 beta / (2 beta + r).

Families are size-free ("grid:2"); at each n the family becomes a graph
spec ("grid:8x8" at n = 64) and is built by ``graphs.parse_graph_spec``,
the parser behind the CLI's --graph, so both share one graph language and
the known r of paths, grids and tori (``spectral.geometry_r``).

Regression replicates are simulated in coefficient space and need only the
Laplacian eigenvalues (``spectral.eigenvalues``): closed forms for paths,
grids and tori, an eigenvalues-only solve for small-world and file graphs.
Because the eigenbasis is orthonormal under <.,.>_n, the observations of a
target with coefficients c are exactly Z_j = c_j + eps * zeta_j with
eps = sigma / sqrt(n), and the risk of a linear estimator with weights l is
exactly sum_j (l_j Z_j - c_j)^2.  The zeta_j are iid N(0, 1), drawn per
(seed, n, rep), so they are equal in law to iid N(0, sigma^2) noise at the
vertices.
(Per-replicate CSV values changed once when this replaced the vertex-space
simulation.)  Classification replicates need per-vertex labels and stay in
vertex space.  On paths, grids and tori the truth's inverse GFT applies one
full factor per axis (d_a x d_a; on a path the n x n basis) and the
estimators the factors of their first N eigenvectors; other graphs use a
full eigendecomposition.

Reproducibility contract: every replicate derives its RNG streams from
(master seed, n, rep) only, so identical specs produce bit-identical CSVs.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._text import csv_text
from .errors import NumericError, ValidationError, _check_integer, _check_seed
from .graphs import Graph, parse_graph_spec
from .pinsker import estimate_classification, pinsker_plan, projection_cutoff, sigmoid_link
from .sobolev import SobolevSpec, ellipsoid_weights, sample_ball_coefficients
from .spectral import _line_fit, eigendecompose, eigenvalues, geometry_r, gft_inverse

REGRESSION_ESTIMATORS = ("pinsker", "projection")
CLASSIFICATION_ESTIMATORS = ("classification-direct", "classification-link")

RESULTS_HEADER = "family,n,beta,Q,sigma,r_used,estimator,rep,seed,risk"
AGGREGATE_HEADER = "family,estimator,beta,r_used,slope,stderr,theory_slope"

_ZERO_RISK = 1e-12


@dataclass(frozen=True)
class ExperimentSpec:
    """One rate experiment: graph family, size grid, model, estimator.

    family is "path", "grid:<d>", "torus:<d>", "ws:<k>,<p>" or
    "file:<path>" (the path may contain "{n}", substituted per size).  For
    grid/torus families every n must be a perfect d-th power.  sigma is the
    regression noise level; for classification estimators it sets the
    shrinkage plan's noise scale (0.5 matches the worst-case Bernoulli
    standard deviation).  Every field is checked here, before any graph is built.
    """

    family: str
    n_values: tuple[int, ...]
    beta: float
    Q: float
    sigma: float
    estimator: str
    reps: int
    seed: int
    fill: float = 1.0

    def __post_init__(self):
        n_values = tuple(_check_integer(n, "each n in n_values") for n in self.n_values)
        object.__setattr__(self, "n_values", n_values)
        if len(self.n_values) < 2:
            raise ValidationError("rate fitting needs at least two sizes in n_values")
        if any(b >= c for b, c in zip(self.n_values, self.n_values[1:])):
            raise ValidationError("n_values must be strictly increasing")
        if _check_integer(self.reps, "reps") < 1:
            raise ValidationError(f"reps must be >= 1, got {self.reps}")
        if self.estimator not in REGRESSION_ESTIMATORS + CLASSIFICATION_ESTIMATORS:
            raise ValidationError(f"unknown estimator {self.estimator!r}")
        if not 0.0 < self.fill <= 1.0:
            raise ValidationError(f"fill must be in (0, 1], got {self.fill}")
        if not 0 <= self.sigma < math.inf:
            raise ValidationError(f"sigma must be non-negative and finite, got {self.sigma}")
        SobolevSpec(beta=self.beta, Q=self.Q, r=1.0)  # r is fixed per n; this checks beta and Q
        _check_seed(self.seed)
        for n in self.n_values:
            _graph_spec(self.family, n, self.seed)


@dataclass(frozen=True)
class RateReport:
    """The spec that was run (no field of it is restated), per-replicate risks and rate fit."""

    spec: ExperimentSpec
    rows: tuple[tuple[int, float, int, int, float], ...]  # (n, r_used, rep, seed, risk)
    per_n: tuple[tuple[int, float, float], ...]  # (n, mean risk, std error)
    r_used_final: float
    slope: float
    slope_stderr: float
    theory_slope: float
    note: str = ""


def _graph_spec(family: str, n: int, seed: int) -> str:
    """The graph spec (see ``parse_graph_spec``) of a size-free family at size n."""
    kind, _, rest = family.partition(":")
    if family == "path":
        return f"path:{n}"
    if kind in ("grid", "torus") and rest.isdecimal() and int(rest) >= 1:
        d = int(rest)
        side = round(n ** (1.0 / d))
        if side**d != n:
            raise ValidationError(f"n={n} is not a perfect {d}-th power for this family")
        return f"{kind}:" + "x".join([str(side)] * d)
    if kind == "ws" and rest.count(",") == 1:
        return f"ws:{n},{rest},{seed}"
    if kind == "file" and rest:
        return "file:" + rest.replace("{n}", str(n))
    raise ValidationError(
        f"bad graph family {family!r}: expected path, grid:<d>, torus:<d>, ws:<k>,<p> "
        "or file:<path>"
    )


def _build_graph(spec: ExperimentSpec, n: int) -> Graph:
    g = parse_graph_spec(_graph_spec(spec.family, n, spec.seed))
    if g.n != n:
        raise ValidationError(f"graph has n={g.n}, expected {n}")
    return g


def _rep_seeds(master: int, n: int, rep: int) -> tuple[int, int]:
    state = np.random.SeedSequence((master, n, rep)).generate_state(2, np.uint64)
    return int(state[0]), int(state[1])


def fit_rate(n_values, mean_risks) -> tuple[float, float]:
    """OLS slope of log(mean risk) on log(n), with its standard error.

    The line is ``spectral._line_fit``'s, as in fit_geometry.  The standard
    error comes from the residual variance; with only two points the fit is
    exact and the error is reported as nan.
    """
    ns = np.asarray(n_values, dtype=float)
    means = np.asarray(mean_risks, dtype=float)
    if len(ns) < 2 or np.all(ns == ns[0]):
        raise ValidationError("rate fit needs at least two distinct sizes")
    if not np.all((means > 0.0) & (means < math.inf)):
        raise NumericError("degenerate rate fit: a mean risk is not positive and finite")
    slope, rss, sxx = _line_fit(np.log(ns), np.log(means))
    dof = len(ns) - 2
    if dof == 0:
        return slope, math.nan
    return slope, math.sqrt(rss / dof / sxx)


def _aggregate(spec: ExperimentSpec, rows, r_used_final) -> RateReport:
    per_n = []
    for n in spec.n_values:
        risks = np.array([row[4] for row in rows if row[0] == n])
        sem = float(risks.std(ddof=1) / math.sqrt(len(risks))) if len(risks) > 1 else 0.0
        per_n.append((n, float(risks.mean()), sem))
    note = ""
    if all(mean < _ZERO_RISK for _, mean, _ in per_n):
        note = "degenerate: zero risk"
        slope, stderr = math.nan, math.nan
    else:
        slope, stderr = fit_rate([p[0] for p in per_n], [p[1] for p in per_n])
    theory = -2.0 * spec.beta / (2.0 * spec.beta + r_used_final)
    return RateReport(
        spec=spec,
        rows=tuple(rows),
        per_n=tuple(per_n),
        r_used_final=r_used_final,
        slope=slope,
        slope_stderr=stderr,
        theory_slope=theory,
        note=note,
    )


def run_regression_experiment(spec: ExperimentSpec) -> RateReport:
    """Simulate Z = c + eps * zeta in coefficient space and fit the rate."""
    if spec.estimator not in REGRESSION_ESTIMATORS:
        raise ValidationError(f"regression runner got estimator {spec.estimator!r}")
    rows = []
    r_used_final = 1.0
    for n in spec.n_values:
        try:
            g = _build_graph(spec, n)
            s = eigenvalues(g)
            r_used = r_used_final = geometry_r(g, s)
            w = ellipsoid_weights(s, SobolevSpec(beta=spec.beta, Q=spec.Q, r=r_used))
            if spec.estimator == "projection":
                l = (np.arange(n) < projection_cutoff(n, spec.beta, r_used)).astype(float)
            elif spec.sigma > 0:
                l = pinsker_plan(w, spec.sigma, n).l
            else:  # pinsker in the noiseless limit is the identity
                l = np.ones(n)
            epsilon = spec.sigma / np.sqrt(n)
            for rep in range(spec.reps):
                ball_seed, noise_seed = _rep_seeds(spec.seed, n, rep)
                c = sample_ball_coefficients(w, spec.fill, ball_seed)
                z = c + epsilon * np.random.default_rng(noise_seed).standard_normal(n)
                risk = float(np.sum((l * z - c) ** 2))
                rows.append((n, r_used, rep, ball_seed, risk))
        except (ValidationError, NumericError) as exc:
            raise type(exc)(f"{exc} (family={spec.family}, n={n})") from exc
    return _aggregate(spec, rows, r_used_final)


def run_classification_experiment(spec: ExperimentSpec) -> RateReport:
    """Simulate Bernoulli labels with sigmoid soft labels and fit the rate."""
    if spec.estimator not in CLASSIFICATION_ESTIMATORS:
        raise ValidationError(f"classification runner got estimator {spec.estimator!r}")
    if not spec.sigma > 0:
        raise ValidationError("classification needs a positive plan noise scale sigma")
    mode = "direct" if spec.estimator == "classification-direct" else "link"
    psi = sigmoid_link().psi
    rows = []
    r_used_final = 1.0
    warned = False
    for n in spec.n_values:
        try:
            g = _build_graph(spec, n)
            s = eigendecompose(g)
            r_used = r_used_final = geometry_r(g, s)
            if spec.beta < r_used / 2.0 and not warned:
                warnings.warn(
                    f"beta={spec.beta} is below r/2={r_used / 2.0}: outside the regime "
                    "where the classification rate is established",
                    RuntimeWarning,
                    stacklevel=2,
                )
                warned = True
            w = ellipsoid_weights(s, SobolevSpec(beta=spec.beta, Q=spec.Q, r=r_used))
            plan = pinsker_plan(w, spec.sigma, n)
            for rep in range(spec.reps):
                ball_seed, noise_seed = _rep_seeds(spec.seed, n, rep)
                rho = psi(gft_inverse(s, sample_ball_coefficients(w, spec.fill, ball_seed)))
                labels = (
                    np.random.default_rng(noise_seed).random(n) < rho
                ).astype(float)
                rho_hat = estimate_classification(s, plan, labels, mode=mode)
                risk = float(np.mean((rho_hat - rho) ** 2))
                rows.append((n, r_used, rep, ball_seed, risk))
        except (ValidationError, NumericError) as exc:
            raise type(exc)(f"{exc} (family={spec.family}, n={n})") from exc
    return _aggregate(spec, rows, r_used_final)


def run_experiment(spec: ExperimentSpec) -> RateReport:
    """Dispatch to the regression or classification runner by estimator."""
    if spec.estimator in REGRESSION_ESTIMATORS:
        return run_regression_experiment(spec)
    return run_classification_experiment(spec)


def results_csv_text(report: RateReport) -> str:
    """Per-replicate rows, ascending n then rep, under RESULTS_HEADER."""
    spec = report.spec
    rows = [
        (spec.family, n, spec.beta, spec.Q, spec.sigma, r_used, spec.estimator, rep, seed, risk)
        for n, r_used, rep, seed, risk in report.rows
    ]
    return csv_text(RESULTS_HEADER, rows)


def aggregate_csv_text(report: RateReport) -> str:
    """Single aggregate row with the fitted and theoretical slopes, under AGGREGATE_HEADER."""
    spec = report.spec
    fit = (report.r_used_final, report.slope, report.slope_stderr, report.theory_slope)
    return csv_text(AGGREGATE_HEADER, [(spec.family, spec.estimator, spec.beta, *fit)])
