"""Config-driven Monte Carlo experiments that recover minimax rates.

An ExperimentSpec names a graph family, a grid of sizes, model parameters
and an estimator; run_experiment, the one runner for regression and
classification alike, simulates seeded replicates, records the
per-replicate risks ||estimate - truth||_n^2, and fits the log-log slope of
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
exactly sum_j (l_j Z_j - c_j)^2.  It is scored as the equal sum_j ((l_j - 1)
c_j + l_j eps zeta_j)^2, in which no eps zeta_j is rounded away against c_j,
however small sigma is.  The zeta_j are iid N(0, 1), drawn per (seed, n,
rep), so they are equal in law to iid N(0, sigma^2) noise at the vertices.
Classification replicates need per-vertex labels and stay in vertex space.
On paths, grids and tori the truth's inverse GFT applies one full factor
per axis (d_a x d_a; on a path the n x n basis) and the estimators the
factors of their first N eigenvectors; other graphs use a full
eigendecomposition.

Reproducibility contract: every replicate derives its RNG streams from
(master seed, n, rep) only, so identical specs produce bit-identical CSVs.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._text import csv_text
from .errors import NumericError, ValidationError, _check_integer, _check_real, _check_seed
from .graphs import DEFAULT_DENSE_CAP, parse_graph_spec
from .pinsker import (
    REGRESSION_ESTIMATORS, _noise_scale, estimate_classification, pinsker_plan,
    regression_weights, sigmoid_link,
)
from .sobolev import SobolevSpec, ellipsoid_weights, sample_ball_coefficients
from .spectral import _line_fit, eigendecompose, eigenvalues, geometry_r, gft_inverse

CLASSIFICATION_ESTIMATORS = ("classification-direct", "classification-link")

RESULTS_HEADER = "family,n,beta,Q,sigma,r_used,estimator,rep,seed,risk"
AGGREGATE_HEADER = "family,estimator,beta,r_used,slope,stderr,theory_slope"

# replicates of one run, over all its sizes: each keeps a row in RateReport.rows and one in
# the CSV text, about 0.5 kB at the peak, so a run at the cap stays under 1 GiB
_REPLICATE_CAP = 2**20


@dataclass(frozen=True)
class ExperimentSpec:
    """One rate experiment: graph family, size grid, model, estimator.

    family is "path", "grid:<d>", "torus:<d>", "ws:<k>,<p>" or
    "file:<path>" (the path may contain "{n}", substituted per size).  Every
    n must lie in [2, DEFAULT_DENSE_CAP**2], and for grid/torus families be
    a perfect d-th power; reps must be at least 1 and reps * len(n_values) at
    most _REPLICATE_CAP = 2**20.  sigma is the regression noise level; for
    classification estimators it sets the shrinkage plan's noise scale (0.5
    matches the worst-case Bernoulli standard deviation).  sigma must keep
    sigma and sigma^2/n positive finite floats at every n.  Every field is
    checked here, before any graph is built.
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
        cap, limit = DEFAULT_DENSE_CAP**2, "DEFAULT_DENSE_CAP**2"
        n_values = tuple(
            _check_integer(n, "each n in n_values", 2, cap, limit)
            for n in self.n_values
        )
        object.__setattr__(self, "n_values", n_values)
        if len(self.n_values) < 2:
            raise ValidationError("rate fitting needs at least two sizes in n_values")
        if any(b >= c for b, c in zip(self.n_values, self.n_values[1:])):
            raise ValidationError("n_values must be strictly increasing")
        total = _check_integer(self.reps, "reps", lo=1) * len(n_values)
        _check_integer(total, "reps * len(n_values)", 1, _REPLICATE_CAP, "_REPLICATE_CAP")
        if self.estimator not in REGRESSION_ESTIMATORS + CLASSIFICATION_ESTIMATORS:
            raise ValidationError(f"unknown estimator {self.estimator!r}")
        _check_real(self.fill, "fill", hi=1, ends="(]")
        for n in n_values:  # whatever the estimator: it is the risk's noise scale too
            _noise_scale(self.sigma, n)
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
    if ns.shape != means.shape:
        raise ValidationError(f"rate fit got {ns.size} sizes and {means.size} mean risks")
    if len(ns) < 2 or np.all(ns == ns[0]):
        raise ValidationError("rate fit needs at least two distinct sizes")
    if not np.all((means > 0.0) & (means < math.inf)):
        raise NumericError("degenerate rate fit: a mean risk is not positive and finite")
    slope, rss, sxx = _line_fit(np.log(ns), np.log(means))
    dof = len(ns) - 2
    if dof == 0:
        return slope, math.nan
    return slope, math.sqrt(rss / dof / sxx)


def run_experiment(spec: ExperimentSpec) -> RateReport:
    """Simulate every (n, rep) replicate of spec and fit the rate of the mean risks.

    Regression replicates are scored in coefficient space on eigenvalues
    only, classification replicates on vertex-space labels (see the module
    docstring); both draw truth and noise from the same per-replicate seeds.
    """
    classify = spec.estimator in CLASSIFICATION_ESTIMATORS
    psi = sigmoid_link().psi
    rows, per_n = [], []
    warned = False
    for n in spec.n_values:
        try:
            g = parse_graph_spec(_graph_spec(spec.family, n, spec.seed))
            if g.n != n:
                raise ValidationError(f"graph has n={g.n}, expected {n}")
            s = eigendecompose(g) if classify else eigenvalues(g)
            r_used = geometry_r(g, s)
            if classify and spec.beta < r_used / 2.0 and not warned:
                warnings.warn(
                    f"beta={spec.beta} is below r/2={r_used / 2.0}: outside the regime "
                    "where the classification rate is established",
                    RuntimeWarning,
                    stacklevel=2,
                )
                warned = True
            ball = SobolevSpec(beta=spec.beta, Q=spec.Q, r=r_used)
            w = ellipsoid_weights(s, ball)
            if classify:
                plan = pinsker_plan(w, spec.sigma, n)
            else:
                l = regression_weights(spec.estimator, s, ball, spec.sigma)[0]
                shrink = l - 1.0
            epsilon = _noise_scale(spec.sigma, n)
            risks = np.empty(spec.reps)
            for rep in range(spec.reps):
                ball_seed, noise_seed = _rep_seeds(spec.seed, n, rep)
                c = sample_ball_coefficients(w, spec.fill, ball_seed)
                noise = np.random.default_rng(noise_seed)
                if classify:
                    rho = psi(gft_inverse(s, c))
                    labels = (noise.random(n) < rho).astype(float)
                    rho_hat = estimate_classification(
                        s, plan, labels, mode=spec.estimator.removeprefix("classification-")
                    )
                    risks[rep] = np.mean((rho_hat - rho) ** 2)
                else:
                    # l (c + eps zeta) - c, with no c + eps zeta that rounds eps zeta away
                    error = shrink * c + l * (epsilon * noise.standard_normal(n))
                    risks[rep] = np.sum(error**2)
                rows.append((n, r_used, rep, ball_seed, float(risks[rep])))
        except (ValidationError, NumericError) as exc:
            raise type(exc)(f"{exc} (family={spec.family}, n={n})") from exc
        sem = float(risks.std(ddof=1) / math.sqrt(spec.reps)) if spec.reps > 1 else 0.0
        per_n.append((n, float(risks.mean()), sem))
    slope, stderr = fit_rate([p[0] for p in per_n], [p[1] for p in per_n])
    return RateReport(
        spec=spec,
        rows=tuple(rows),
        per_n=tuple(per_n),
        r_used_final=r_used,
        slope=slope,
        slope_stderr=stderr,
        theory_slope=-2.0 * spec.beta / (2.0 * spec.beta + r_used),
    )


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
