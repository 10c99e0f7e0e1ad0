"""In-memory span tracer for the graphminimax benchmark.

The tracer wraps the package's public functions at every module attribute
that binds them (for example ``graphminimax.harness.eigendecompose`` and
``graphminimax.spectral.eigendecompose`` both get the same wrapper), so calls
made through any caller are recorded.  Each call becomes a span
``[layer, start, end, parent]`` kept in a list; the per-layer report gives
each layer its self time, i.e. the span durations minus the time covered by
their child spans.

Nothing under ``src/`` knows about the tracer.  A target that no longer
exists is listed in ``untraced`` instead of raising, so a refactor of the
package cannot break a benchmark run.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

_MIB = float(1 << 20)


def _nbytes(x) -> float:
    """Bytes held by a dense array or a scipy.sparse matrix, in MiB."""
    if hasattr(x, "nbytes"):
        return x.nbytes / _MIB
    parts = (getattr(x, name, None) for name in ("data", "indices", "indptr", "row", "col"))
    return sum(p.nbytes for p in parts if hasattr(p, "nbytes")) / _MIB


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# Observers turn one call's arguments and result into counters.  Each returns
# a list of (kind, key, value): kind "sum" adds, "max" keeps the largest, and
# "computed"/"used" record basis columns per graph size for used_frac.
def _obs_laplacian(args, kwargs, result):
    return [("max", "graphs.laplacian_mb", _nbytes(result))]


def _obs_spectrum(args, kwargs, result):
    cols = result.basis.shape[1]
    return [
        ("sum", "spectral.eigenpairs", cols),
        ("sum", "spectral.basis_mb", _nbytes(result.basis)),
        ("computed", result.n, cols),
    ]


def _obs_gft(args, kwargs, result):
    return [("sum", "spectral.gft_mb", _nbytes(_arg(args, kwargs, 0, "s").basis))]


def _obs_plan(args, kwargs, result):
    return [("used", int(_arg(args, kwargs, 2, "n")), result.N)]


def _obs_projection(args, kwargs, result):
    return [("used", _arg(args, kwargs, 0, "s").n, int(_arg(args, kwargs, 2, "m")))]


def _obs_certificate(args, kwargs, result):
    return [("used", result.n, result.N)]


def _obs_packing(args, kwargs, result):
    return [("max", "fano.M", result.M)]


def _obs_alternatives(args, kwargs, result):
    return [("max", "fano.alternatives_mb", _nbytes(result))]


def _obs_runner(args, kwargs, result):
    return [("sum", "harness.reps", len(result.rows))]


#: (module under graphminimax, public function, layer, observer)
TARGETS = (
    ("graphs", "build_path", "graphs.build", None),
    ("graphs", "build_grid", "graphs.build", None),
    ("graphs", "build_torus", "graphs.build", None),
    ("graphs", "build_small_world", "graphs.build", None),
    ("graphs", "load_edge_list", "graphs.build", None),
    ("graphs", "laplacian", "graphs.laplacian", _obs_laplacian),
    ("spectral", "eigendecompose", "spectral.eigendecompose", _obs_spectrum),
    ("spectral", "gft_forward", "spectral.gft", _obs_gft),
    ("spectral", "gft_inverse", "spectral.gft", _obs_gft),
    ("spectral", "fit_geometry", "spectral.fit_geometry", None),
    ("sobolev", "sample_ball", "sobolev.sample_ball", None),
    ("sobolev", "sobolev_form", "sobolev.form", None),
    ("sobolev", "ellipsoid_weights", "sobolev.weights", None),
    ("pinsker", "pinsker_plan", "pinsker.plan", _obs_plan),
    ("pinsker", "estimate_regression", "pinsker.estimate", None),
    ("pinsker", "projection_estimate", "pinsker.estimate", _obs_projection),
    ("pinsker", "estimate_classification", "pinsker.estimate", None),
    ("fano", "vg_packing", "fano.packing", _obs_packing),
    ("fano", "calibrate_delta", "fano.calibrate", None),
    ("fano", "hard_alternatives", "fano.alternatives", _obs_alternatives),
    ("fano", "bernoulli_kl", "fano.kl", None),
    ("fano", "fano_certificate", "fano.certificate", _obs_certificate),
    ("harness", "run_experiment", "harness.self", None),
    ("harness", "run_regression_experiment", "harness.self", _obs_runner),
    ("harness", "run_classification_experiment", "harness.self", _obs_runner),
    ("cli", "main", "cli.self", None),
    ("cli", "parse_graph_spec", "cli.parse_graph", None),
)

#: Per-layer metrics in report order, with their units.
PER_LAYER = (
    ("graphs.build_s", "s"),
    ("graphs.laplacian_s", "s"),
    ("graphs.laplacian_mb", "MiB"),
    ("spectral.eigendecompose_s", "s"),
    ("spectral.eigendecompose_calls", "count"),
    ("spectral.setup_eigendecompose_s", "s"),
    ("spectral.setup_eigendecompose_calls", "count"),
    ("spectral.eigenpairs", "count"),
    ("spectral.basis_mb", "MiB"),
    ("spectral.used_frac", "ratio"),
    ("spectral.gft_s", "s"),
    ("spectral.gft_calls", "count"),
    ("spectral.gft_mb", "MiB"),
    ("spectral.fit_geometry_s", "s"),
    ("sobolev.sample_ball_s", "s"),
    ("sobolev.form_s", "s"),
    ("sobolev.weights_s", "s"),
    ("pinsker.plan_s", "s"),
    ("pinsker.plan_calls", "count"),
    ("pinsker.estimate_s", "s"),
    ("pinsker.estimate_calls", "count"),
    ("fano.packing_s", "s"),
    ("fano.M", "count"),
    ("fano.calibrate_s", "s"),
    ("fano.alternatives_s", "s"),
    ("fano.alternatives_mb", "MiB"),
    ("fano.kl_s", "s"),
    ("fano.certificate_s", "s"),
    ("harness.self_s", "s"),
    ("harness.reps", "count"),
    ("cli.self_s", "s"),
    ("cli.parse_graph_s", "s"),
    ("trace_overhead_frac", "ratio"),
)

_CALL_METRICS = {
    "spectral.eigendecompose_calls": "spectral.eigendecompose",
    "spectral.gft_calls": "spectral.gft",
    "pinsker.plan_calls": "pinsker.plan",
    "pinsker.estimate_calls": "pinsker.estimate",
}


class Tracer:
    """Records spans for calls to the TARGETS functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.untraced: list[str] = []
        self.sums: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self.computed: dict[int, int] = defaultdict(int)
        self.used: dict[int, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, fn, layer, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [layer, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                self._observe(observe, args, kwargs, result)
            return result

        return wrapper

    def _observe(self, observe, args, kwargs, result):
        try:
            events = observe(args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError) as exc:
            # The function's signature or result changed; keep the run going.
            note = f"{observe.__name__}: {type(exc).__name__}"
            if note not in self.untraced:
                self.untraced.append(note)
            return
        for kind, key, value in events:
            if kind == "sum":
                self.sums[key] += value
            elif kind == "max":
                self.peaks[key] = max(self.peaks[key], value)
            elif kind == "computed":
                self.computed[key] += value
            else:
                self.used[key] = max(self.used[key], value)

    def install(self, targets=TARGETS, package: str = "graphminimax") -> None:
        """Replace every binding of each target under ``package`` by a wrapper."""
        homes = {}
        for home in {t[0] for t in targets}:
            try:
                homes[home] = importlib.import_module(f"{package}.{home}")
            except ImportError:
                homes[home] = None
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        for home, name, layer, observe in targets:
            fn = getattr(homes[home], name, None)
            if not callable(fn):
                self.untraced.append(f"{package}.{home}.{name}")
                continue
            wrapper = self._wrap(fn, layer, observe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def record(self) -> dict:
        """JSON-serialisable snapshot of everything recorded so far."""
        return {
            "spans": self.spans,
            "untraced": self.untraced,
            "sums": dict(self.sums),
            "peaks": dict(self.peaks),
            "computed": {str(n): c for n, c in self.computed.items()},
            "used": {str(n): c for n, c in self.used.items()},
        }


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[i]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(iteration: dict, setup: dict | None = None) -> dict[str, float]:
    """Per-layer metrics of one traced iteration.

    ``iteration`` and ``setup`` are ``Tracer.record()`` snapshots.  Times and
    call counts come from the iteration's spans alone; basis counters and
    ``used_frac`` also count spectra computed in set-up, because the
    iteration reads them.  ``trace_overhead_frac`` is filled in by the caller.
    """
    values = {name: 0.0 for name, _ in PER_LAYER}
    calls: dict[str, int] = defaultdict(int)
    for (layer, *_), own in zip(iteration["spans"], self_times(iteration["spans"])):
        if layer + "_s" in values:
            values[layer + "_s"] += own
        calls[layer] += 1
    for metric, layer in _CALL_METRICS.items():
        values[metric] = float(calls[layer])
    computed: dict[str, int] = defaultdict(int)
    used: dict[str, int] = defaultdict(int)
    for rec in (setup, iteration):
        if rec is None:
            continue
        for key, value in rec["sums"].items():
            values[key] += value
        for key, value in rec["peaks"].items():
            values[key] = max(values[key], value)
        for n, cols in rec["computed"].items():
            computed[n] += cols
        for n, cols in rec["used"].items():
            used[n] = max(used[n], cols)
    if setup is not None:
        spans = setup["spans"]
        for (layer, *_), own in zip(spans, self_times(spans)):
            if layer == "spectral.eigendecompose":
                values["spectral.setup_eigendecompose_s"] += own
                values["spectral.setup_eigendecompose_calls"] += 1
    total = sum(computed.values())
    read = sum(min(used[n], cols) for n, cols in computed.items())
    values["spectral.used_frac"] = read / total if total else 0.0
    return values


def merge_records(records: list[dict]) -> dict:
    """One record from several, e.g. the traces of an iteration's processes."""
    merged = {"spans": [], "untraced": [], "sums": defaultdict(float),
              "peaks": defaultdict(float), "computed": defaultdict(int), "used": defaultdict(int)}
    for rec in records:
        offset = len(merged["spans"])
        merged["spans"] += [[name, s, e, p + offset if p >= 0 else -1]
                            for name, s, e, p in rec["spans"]]
        merged["untraced"] += [u for u in rec["untraced"] if u not in merged["untraced"]]
        for key, value in rec["sums"].items():
            merged["sums"][key] += value
        for key, value in rec["peaks"].items():
            merged["peaks"][key] = max(merged["peaks"][key], value)
        for n, cols in rec["computed"].items():
            merged["computed"][n] += cols
        for n, cols in rec["used"].items():
            merged["used"][n] = max(merged["used"][n], cols)
    return merged
