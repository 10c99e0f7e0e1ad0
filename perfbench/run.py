"""graphminimax benchmark: three seeded workloads, checked outputs, optional trace.

    python3 perfbench/run.py --workload mc-rate --seed 1 --seconds 15 --trace 0

Workloads (see README.md in this directory for why each exists):

  mc-rate       cold CLI ``simulate`` over path sizes; one fresh process per
                iteration, so the harness's spectrum cache starts empty.
  spectrum-fit  cold CLI ``fit-r`` on a generated small-world edge list plus
                ``spectrum`` on a torus; eigenvalues only.
  warm-queries  library use of one grid spectrum built in set-up:
                certificates and 100 observation vectors per iteration.

With ``--trace 0`` the last stdout line reports run_s, setup_s and
peak_rss_mb; with ``--trace 1`` it reports the per-layer metrics of tracer.py,
from traced iterations alternated with untraced ones.  Every operation's
output is checked off the clock; failures are counted in ``failed``.  The
program is imported from the checkout's ``src`` directory, never from an
installed copy; without it the benchmark exits non-zero.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import inputs
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SCALES = {
    "full": {
        "n_list": (256, 512, 1024, 2048),
        "reps": 50,
        "small_world": (2048, 6, 0.1),
        "torus": (32, 64),
        "grid": (48, 48),
        "queries": 100,
    },
    # Tiny sizes for the self-tests; the driver always uses "full".
    "smoke": {
        "n_list": (64, 128, 256),
        "reps": 5,
        "small_world": (256, 6, 0.1),
        "torus": (8, 16),
        "grid": (16, 16),
        "queries": 10,
    },
}
MIN_ITERATIONS = 3  # per mode: untraced, and traced when --trace 1
RISK_FACTOR = 1.5  # mc-rate: per-n mean risk must stay below 1.5 * S(n)
END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    for var in BLAS_THREAD_VARS:
        env[var] = str(NPROC)
    return env


def run_child(args: list[str], out: Path) -> tuple[float, int, float]:
    """Run child.py in a fresh process; return (wall s, exit code, peak RSS MiB)."""
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    with open(out, "wb") as fh_out, open(out.with_suffix(".err"), "wb") as fh_err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh_out, stderr=fh_err, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


@dataclass
class Iteration:
    run_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    errors: list[str]
    trace: dict | None = None  # Tracer.record() of the iteration, when traced
    setup: dict | None = None  # Tracer.record() of the warm worker's set-up


class ColdCli:
    """A workload of CLI commands, each run once per iteration in a fresh process."""

    setup_repeats = 7

    def __init__(self, scale: dict, seed: int, work: Path, traced: bool):
        self.scale, self.seed, self.work = scale, seed, work
        self.seeds = inputs.workload_seeds(seed)

    def setup_sample(self) -> float:
        wall, code, _ = run_child(["setup"], self.work / "setup.out")
        if code != 0:
            sys.exit(f"set-up failed: {(self.work / 'setup.err').read_text()}")
        return wall

    def iteration(self, traced: bool) -> Iteration:
        run_s, peak, failed, errors, records = 0.0, 0.0, 0, [], []
        commands = self.commands()
        for k, (argv, check) in enumerate(commands):
            out = self.work / f"cmd{k}.out"
            trace_file = self.work / f"cmd{k}.trace.json"
            trace_file.unlink(missing_ok=True)
            extra = ["--trace-out", str(trace_file)] if traced else []
            wall, code, rss = run_child(["cli", *extra, "--", *argv], out)
            run_s, peak = run_s + wall, max(peak, rss)
            try:
                problem = f"exit code {code}" if code != 0 else check(out.read_text())
            except (OSError, ValueError, IndexError) as exc:
                problem = f"unreadable output: {exc!r}"
            if problem:
                failed += 1
                errors.append(f"{argv[0]}: {problem}; {out.with_suffix('.err').read_text()[-300:]}")
            if traced and trace_file.exists():
                records.append(json.loads(trace_file.read_text()))
        trace = tracer.merge_records(records) if traced else None
        return Iteration(run_s, peak, len(commands), failed, errors, trace)

    def close(self) -> None:
        pass


class McRate(ColdCli):
    def prepare(self) -> None:
        import graphminimax as gm

        ball = gm.SobolevSpec(beta=1.0, Q=1.0, r=1.0)
        self.plan_risk = {}
        for n in self.scale["n_list"]:
            w = gm.ellipsoid_weights(gm.path_spectrum_closed_form(n), ball)
            self.plan_risk[n] = gm.pinsker_plan(w, 1.0, n).S

    def commands(self):
        argv = [
            "simulate", "--family", "path",
            "--n-list", ",".join(str(n) for n in self.scale["n_list"]),
            "--beta", "1", "--sigma", "1", "--estimator", "pinsker",
            "--reps", str(self.scale["reps"]), "--seed", str(self.seeds["simulate"]),
            "--out-prefix", str(self.work / "mc"),
        ]
        (self.work / "mc_results.csv").unlink(missing_ok=True)
        return [(argv, self.check)]

    def check(self, stdout: str) -> str | None:
        lines = (self.work / "mc_results.csv").read_text().strip().split("\n")
        header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
        expected = self.scale["reps"] * len(self.scale["n_list"])
        if len(rows) != expected:
            return f"{len(rows)} result rows, expected {expected}"
        n_col, risk_col = header.index("n"), header.index("risk")
        for n, bound in self.plan_risk.items():
            risks = [float(r[risk_col]) for r in rows if int(r[n_col]) == n]
            mean = sum(risks) / len(risks) if risks else float("nan")
            if not mean <= RISK_FACTOR * bound:
                return f"mean risk {mean:.6g} at n={n} exceeds {RISK_FACTOR} * S(n) = {bound:.6g}"
        return None


class SpectrumFit(ColdCli):
    def prepare(self) -> None:
        n, k, p = self.scale["small_world"]
        self.edges = self.work / "small_world.txt"
        self.edges.write_text(inputs.small_world_edge_list(n, k, p, self.seeds["edge_list"]))
        self.torus_lambdas = inputs.torus_eigenvalues(*self.scale["torus"])

    def commands(self):
        a, b = self.scale["torus"]
        (self.work / "torus.csv").unlink(missing_ok=True)
        return [
            (["fit-r", "--graph", f"file:{self.edges}"], self.check_fit),
            (["spectrum", "--graph", f"torus:{a}x{b}", "--out", str(self.work / "torus.csv")],
             self.check_torus),
        ]

    @staticmethod
    def check_fit(stdout: str) -> str | None:
        for line in stdout.splitlines():
            if line.startswith("slope = "):
                slope = float(line.split("=", 1)[1])
                return None if 0.0 < slope < float("inf") else f"slope {slope}"
        return "no slope printed"

    def check_torus(self, stdout: str) -> str | None:
        lines = (self.work / "torus.csv").read_text().strip().split("\n")
        got = [float(line.split(",")[1]) for line in lines[1:]]
        if len(got) != len(self.torus_lambdas):
            return f"{len(got)} eigenvalues, expected {len(self.torus_lambdas)}"
        worst = max(abs(g - e) for g, e in zip(got, self.torus_lambdas))
        return None if worst <= 1e-8 else f"torus eigenvalue error {worst:.3e}"


class WarmQueries:
    """Library queries against one spectrum held by a long-lived worker."""

    setup_repeats = 3  # each set-up builds the spectrum; the last worker stays

    def __init__(self, scale: dict, seed: int, work: Path, traced: bool):
        self.scale, self.seed, self.traced = scale, seed, traced
        self.seeds = inputs.workload_seeds(seed)
        self.worker = None

    def prepare(self) -> None:
        pass

    def setup_sample(self) -> float:
        self.close()
        args = [
            sys.executable, str(HERE / "child.py"), "warm",
            "--grid", "x".join(str(d) for d in self.scale["grid"]),
            "--queries", str(self.scale["queries"]), "--seed", str(self.seed),
        ] + (["--trace-setup"] if self.traced else [])
        t0 = time.perf_counter()
        self.worker = subprocess.Popen(
            args, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
            text=True,
        )
        line = self.worker.stdout.readline()
        wall = time.perf_counter() - t0
        if line.strip() != "ready":
            self.close()
            sys.exit("warm worker failed during set-up")
        return wall

    def iteration(self, traced: bool) -> Iteration:
        self.worker.stdin.write(f"iter {int(traced)}\n")
        self.worker.stdin.flush()
        line = self.worker.stdout.readline()
        if not line:
            sys.exit("warm worker stopped")
        r = json.loads(line)
        return Iteration(
            r["run_s"], r["peak_rss_mb"], r["attempted"], r["failed"], r["errors"],
            r["trace"], r.get("setup_trace"),
        )

    def close(self) -> None:
        if self.worker is not None:
            self.worker.stdin.close()
            self.worker.wait()
            self.worker.stdout.close()
            self.worker = None


WORKLOADS = {"mc-rate": McRate, "spectrum-fit": SpectrumFit, "warm-queries": WarmQueries}


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def manifest(args, seeds: dict) -> dict:
    import graphminimax
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "graphminimax": graphminimax.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
            "threads": {var: str(NPROC) for var in BLAS_THREAD_VARS},
        },
        "nproc": NPROC,
        "git_commit": git_commit(),
        "argv": sys.argv,
        "workload": args.workload,
        "scale": args.scale,
        "sizes": SCALES[args.scale],
        "seed": args.seed,
        "workload_seeds": seeds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SCALES), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "graphminimax" / "__init__.py").is_file():
        print(f"error: no graphminimax sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import graphminimax

    if Path(graphminimax.__file__).resolve().parent != SRC / "graphminimax":
        print(f"error: graphminimax imported from {graphminimax.__file__}", file=sys.stderr)
        return 2

    scale = SCALES[args.scale]
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    traced_modes = (False, True) if args.trace else (False,)
    runs: dict[bool, list[Iteration]] = {mode: [] for mode in traced_modes}
    try:
        workload = WORKLOADS[args.workload](scale, args.seed, work, bool(args.trace))
        try:
            workload.prepare()
            setups = [workload.setup_sample() for _ in range(workload.setup_repeats)]
            deadline = time.perf_counter() + args.seconds
            i = 0
            while min(map(len, runs.values())) < MIN_ITERATIONS or time.perf_counter() < deadline:
                mode = traced_modes[i % len(traced_modes)]
                runs[mode].append(workload.iteration(mode))
                i += 1
        finally:
            workload.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    everything = [it for its in runs.values() for it in its]
    attempted = sum(it.attempted for it in everything)
    failed = sum(it.failed for it in everything)
    for it in everything:
        for err in it.errors:
            print(f"check failed: {err}", file=sys.stderr)

    plain = runs[False]
    series = {
        "run_s": [it.run_s for it in plain],
        "setup_s": setups,
        "peak_rss_mb": [it.peak_rss_mb for it in plain],
    }
    if args.trace:
        per_iter = [tracer.layer_metrics(it.trace, it.setup) for it in runs[True]]
        metrics = {
            name: {"value": statistics.median(m[name] for m in per_iter), "unit": unit}
            for name, unit in tracer.PER_LAYER
        }
        traced_run_s = statistics.median(it.run_s for it in runs[True])
        plain_run_s = statistics.median(series["run_s"])
        metrics["trace_overhead_frac"]["value"] = traced_run_s / plain_run_s - 1.0
        untraced = sorted({name for it in runs[True] for name in it.trace["untraced"]})
        if untraced:
            print(f"untraced: {', '.join(untraced)}")
    else:
        metrics = {
            name: {"value": statistics.median(series[name]), "unit": unit}
            for name, unit in END_TO_END
        }

    print(f"workload {args.workload}, seed {args.seed}, scale {args.scale}")
    for name, unit in END_TO_END:
        values = series[name]
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"  {name:<12} {statistics.median(values):.6g} {unit}"
              f"  (median of {len(values)}; quartiles {q1:.6g} .. {q3:.6g})")
    print(f"  {'fail_frac':<12} {failed / attempted:.6g}"
          f"  ({failed} of {attempted} operations failed)")
    if args.trace:
        for name, unit in tracer.PER_LAYER:
            print(f"  {name:<36} {metrics[name]['value']:.6g} {unit}")
    print(json.dumps({"manifest": manifest(args, workload.seeds)}))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
