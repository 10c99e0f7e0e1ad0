"""Processes the benchmark starts: set-up probe, CLI launcher, warm worker.

    python3 perfbench/child.py setup
        Import graphminimax and exit; the parent times process start + import.
    python3 perfbench/child.py cli [--trace-out FILE] -- <graphminimax args>
        Run the command-line entry point once in this fresh process, as the
        installed console script would.  With --trace-out the package's public
        functions are traced and the spans written to FILE as JSON.
    python3 perfbench/child.py warm --grid AxB --queries K --seed S [--trace-setup]
        Build the grid and its spectrum, print "ready", then serve one
        "iter <0|1>" request per stdin line.  Each iteration runs in a forked
        copy of this process, so its peak resident memory (from wait4) is the
        iteration's own, with the spectrum already resident.  One JSON line is
        printed per iteration.

Every mode first checks that graphminimax is imported from the checkout's
``src`` directory, and exits non-zero otherwise.
"""
from __future__ import annotations

import os
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _import_package():
    import graphminimax

    where = os.path.dirname(os.path.abspath(graphminimax.__file__))
    if where != os.path.join(_SRC, "graphminimax"):
        sys.exit(f"graphminimax imported from {where}, expected {_SRC}")
    return graphminimax


def _cli(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    _import_package()
    import graphminimax.cli

    tracer = None
    if trace_out is not None:
        import json

        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    code = graphminimax.cli.main(argv)
    if tracer is not None:
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.record(), fh)
    return code


# ------------------------------------------------------------ warm worker

_BETA, _Q, _R, _FILL, _SIGMA, _CLF_SIGMA = 1.0, 1.0, 2.0, 0.9, 1.0, 0.5
_CLIP = 1e-3


def _warm_iteration(gm, s, data, traced):
    """One timed pass of certificates and queries, then its output checks.

    All program calls go through ``gm.<name>`` so traced wrappers apply.
    """
    import numpy as np

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ball = gm.SobolevSpec(beta=_BETA, Q=_Q, r=_R)
    targets, noisy, labels = data["targets"], data["noisy"], data["labels"]
    m = max(1, min(s.n, round(s.n ** (_R / (2.0 * _BETA + _R)))))
    errors: list[str] = []

    def attempt(fn):
        try:
            return fn()
        except Exception as exc:  # an operation's failure is counted, not fatal
            errors.append(f"{type(exc).__name__}: {exc}")
            return None

    t0 = time.perf_counter()
    certs = [
        attempt(lambda: gm.fano_certificate(s, ball, how, seed))
        for seed in data["cert_seeds"]
        for how in (gm.sigmoid_link(), _SIGMA)
    ]
    plans = attempt(
        lambda: tuple(
            gm.pinsker_plan(gm.ellipsoid_weights(s, ball), sigma, s.n)
            for sigma in (_SIGMA, _CLF_SIGMA)
        )
    )
    outputs = []
    for y, b in zip(noisy, labels):
        outputs.append(
            None
            if plans is None
            else attempt(
                lambda: (
                    gm.estimate_regression(s, plans[0], y),
                    gm.projection_estimate(s, y, m),
                    gm.estimate_classification(s, plans[1], b, mode="link"),
                )
            )
        )
    run_s = time.perf_counter() - t0

    failed = sum(1 for c in certs if c is None or not (c.valid and c.alpha <= 0.5))
    good = [
        out is not None
        and all(v.shape == (s.n,) and np.all(np.isfinite(v)) for v in out)
        and np.all((out[2] >= _CLIP) & (out[2] <= 1.0 - _CLIP))
        for out in outputs
    ]
    risks = [np.mean((out[0] - f) ** 2) for out, ok, f in zip(outputs, good, targets) if ok]
    if plans is None or not risks or np.mean(risks) > plans[0].S:
        if plans is not None and risks:
            errors.append(f"mean Pinsker risk {np.mean(risks):.6g} > plan.S {plans[0].S:.6g}")
        good = [False] * len(outputs)
    failed += good.count(False)
    return {
        "run_s": run_s,
        "attempted": len(certs) + len(outputs),
        "failed": failed,
        "errors": errors[:5],
        "trace": tracer.record() if tracer is not None else None,
    }


def _forked_iteration(gm, s, data, traced) -> dict:
    import json
    import traceback

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
                json.dump(_warm_iteration(gm, s, data, traced), fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "r", encoding="utf-8") as fh:
        text = fh.read()  # drain before waiting, so a full pipe cannot block
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError("warm iteration process failed")
    result = json.loads(text)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return result


def _warm(argv: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="child.py warm")
    parser.add_argument("--grid", required=True)
    parser.add_argument("--queries", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-setup", action="store_true")
    args = parser.parse_args(argv)
    dims = [int(tok) for tok in args.grid.split("x")]

    gm = _import_package()
    setup_tracer = None
    if args.trace_setup:
        from tracer import Tracer

        setup_tracer = Tracer()
        setup_tracer.install()
    s = gm.eigendecompose(gm.build_grid(dims))
    if setup_tracer is not None:
        setup_tracer.uninstall()
    print("ready", flush=True)

    import json

    from inputs import grid_observations, workload_seeds

    seeds = workload_seeds(args.seed)
    targets, noisy, labels = grid_observations(
        dims, _BETA, _Q, _FILL, _SIGMA, args.queries, seeds["observations"]
    )
    data = {
        "targets": targets,
        "noisy": noisy,
        "labels": labels,
        "cert_seeds": (seeds["certificate_0"], seeds["certificate_1"]),
    }
    for line in sys.stdin:
        result = _forked_iteration(gm, s, data, traced=line.split()[1] == "1")
        if setup_tracer is not None:
            result["setup_trace"] = setup_tracer.record()
        print(json.dumps(result), flush=True)
    return 0


def main(argv: list[str]) -> int:
    mode, rest = (argv[0], argv[1:]) if argv else ("", [])
    if mode == "setup":
        _import_package()
        return 0
    if mode == "cli":
        return _cli(rest)
    if mode == "warm":
        return _warm(rest)
    sys.exit(f"usage: child.py setup | cli [--trace-out FILE] -- ARGS | warm ...; got {argv!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
