#!/usr/bin/env python3
"""marketgraph benchmark: three CLI pipelines timed end to end, traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tv_rolling --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one child process each

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones (set-up time, wall time of one pass over
the fixture panels, windows per second, peak RSS); with ``--trace 1`` they are the per-layer
counts and times of a traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys

# Fixed before numpy loads: iteration counts repeat exactly only at a fixed
# BLAS thread count, and one thread keeps the run to one core.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# Every set-up compiles the package from source, as in a fresh checkout.
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, artifact_digest, check_panel, objective_matches, panel_seeds  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
# Set-up repeats at least SETUP_MIN times and until SETUP_SECONDS have passed.
SETUP_MIN = 3
SETUP_SECONDS = 1.5
# Timed runs per fixture panel: at least two, so every panel's artifacts
# are compared with a second run of the same panel.
MIN_PANEL_RUNS = 2
LAYERS = ("cli", "solvers", "laplacian", "analytics", "synthetic", "preprocessing")


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def fresh_import() -> dict:
    """Import marketgraph from this checkout's src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "marketgraph" or n.startswith("marketgraph.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {name: importlib.import_module(f"marketgraph.{name}") for name in LAYERS}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"marketgraph imported from {mods['cli'].__file__}, not {SRC}")
    return mods


def blas_threads_in_use() -> int | None:
    """Thread count OpenBLAS reports at run time, when its library is found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

class Run:
    """Set-up, iterations and checks of one workload in one process."""

    def __init__(self, wl, seed: int):
        self.wl = wl
        self.panels = panel_seeds(wl, seed)
        self.fixtures = [d for d in self.panels if d != "w"]
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.digests: dict[str, str] = {}
        self.objectives: dict[str, float] = {}
        reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        self.reference = reference.get(wl.name, {})
        self.mods: dict = {}

    def setup(self, tracer=None) -> float:
        """Import the package and write every input panel; returns seconds."""
        for d in self.panels:
            shutil.rmtree(d, ignore_errors=True)
        t0 = time.perf_counter()
        self.mods = fresh_import()
        if tracer is not None:
            tracer.install(self.mods)
        try:
            for d, seed in self.panels.items():
                self.wl.generate(self.mods["cli"].main, Path(d), seed)
        finally:
            if tracer is not None:
                tracer.restore()
        return time.perf_counter() - t0

    def iteration(self, panels: list[str]) -> dict:
        """Run every step on ``panels``; only the CLI calls are timed."""
        for d in panels:
            for step in self.wl.steps(d):
                shutil.rmtree(step.out, ignore_errors=True)
        codes: dict[str, list[int]] = {}
        windows = 0
        estimate_s = 0.0
        t0 = time.perf_counter()
        for d in panels:
            codes[d] = []
            for step in self.wl.steps(d):
                ts = time.perf_counter()
                try:
                    code = self.mods["cli"].main(step.argv)
                except Exception:  # a crash is a failed operation, not the end of the run
                    self.messages.append(traceback.format_exc())
                    code = -1
                if step.windows:
                    estimate_s += time.perf_counter() - ts
                    windows += step.windows
                codes[d].append(code)
        wall = time.perf_counter() - t0
        return {"run_s": wall, "estimate_s": estimate_s, "windows": windows, "codes": codes}

    def check(self, it: dict) -> None:
        """Check an iteration's artifacts against the checks and earlier runs.

        A panel's final objective is compared with the recorded reference of
        its seed when there is one, and otherwise with the panel's first run
        in this process; its artifacts must repeat byte for byte.
        """
        for d, codes in it["codes"].items():
            failures, ops, total = check_panel(self.wl, d, codes)
            for step in self.wl.steps(d):
                if Path(step.out).is_dir():
                    digest = artifact_digest(step.out)
                    if self.digests.setdefault(step.out, digest) != digest:
                        failures.append((step.out, "artifacts differ from the panel's first run"))
            if all(code == 0 for code in codes):
                first = self.objectives.setdefault(d, total)
                ref = self.reference.get(str(self.panels[d]), first)
                if not objective_matches(self.wl, total, ref):
                    failures.append((self.wl.steps(d)[0].out, f"final objective {total!r} != reference {ref!r}"))
            self.attempted += ops
            self.failed += len({op for op, _ in failures})
            self.messages += [f"{op}: {msg}" for op, msg in failures]

    def warm_up(self) -> None:
        """One untimed run of the seeded panel.

        It pays for lazy set-up: the first MLE solve at p=200 in a fresh
        process takes about twice as long as later ones.
        """
        self.check(self.iteration(["w"]))

    def timed(self, seconds: float) -> dict[str, list[dict]]:
        """Timed runs of single panels, cycling over the fixtures, for ``seconds``.

        Every panel runs at least MIN_PANEL_RUNS times.  After that, a panel
        run starts only if the panel's previous run and check, started now,
        would end before the deadline, so a run keeps to ``seconds``.
        """
        samples: dict[str, list[dict]] = {d: [] for d in self.fixtures}
        cost: dict[str, float] = {}
        t_end = time.perf_counter() + seconds
        for d in itertools.cycle(self.fixtures):
            enough = all(len(runs) >= MIN_PANEL_RUNS for runs in samples.values())
            if enough and time.perf_counter() + cost[d] > t_end:
                break
            ts = time.perf_counter()
            it = self.iteration([d])
            self.check(it)
            samples[d].append(it)
            cost[d] = time.perf_counter() - ts
        return samples


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    setups = []
    t_end = time.perf_counter() + SETUP_SECONDS
    while len(setups) < SETUP_MIN or time.perf_counter() < t_end:
        setups.append(run.setup())
    run.warm_up()
    samples = run.timed(seconds)
    # One pass over the fixture panels, each at its median time.
    run_s = sum(median(it["run_s"] for it in runs) for runs in samples.values())
    estimate_s = sum(median(it["estimate_s"] for it in runs) for runs in samples.values())
    windows = sum(runs[0]["windows"] for runs in samples.values())
    metrics = {
        "setup_s": (median(setups), "s"),
        "run_s": (run_s, "s"),
        "windows_per_s": (windows / estimate_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    record = {"setup_s": setups,
              "run_s": {d: [it["run_s"] for it in runs] for d, runs in samples.items()},
              "estimate_s": {d: [it["estimate_s"] for it in runs] for d, runs in samples.items()}}
    return metrics, record


def unit(metric: str) -> str:
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith("_mb"):
        return "MB"
    return "ratio" if metric.endswith(("ratio", "overhead", "error_rate")) else "count"


def combine(values: list):
    """One value from the traced iterations: counts repeat, times take the median."""
    return values[0] if len(set(values)) == 1 else median(values)


def per_layer(run: Run, seconds: float, work: Path) -> tuple[dict, dict]:
    """Traced iterations; each panel runs untraced and traced, back to back.

    The untraced twin of every traced panel run gives ``trace_overhead``
    from runs seconds apart, so slow drift in machine speed cancels.
    """
    tracer = tracing.Tracer()
    mark = tracer.mark()
    run.setup(tracer)
    setup_spans, setup_counts = tracer.window(mark)
    synthetic_s = tracing.layer_metrics(setup_spans, setup_counts, tracer.names)["synthetic.s"]
    run.warm_up()

    originals = {(m, a): getattr(run.mods[m], a) for m, a, _ in tracing.SPANS}
    originals.update({(m, a): getattr(run.mods[m], a) for m, a in tracing.COUNTED})
    originals[("solvers", "np")] = run.mods["solvers"].np
    plain, traced, layers = [], [], []
    t_end = time.perf_counter() + seconds
    cost = 0.0  # of the previous traced iteration; the next starts only if it fits
    while not traced or time.perf_counter() + cost < t_end:
        ts = time.perf_counter()
        mark = tracer.mark()
        plain.append(0.0)
        traced.append(0.0)
        for j, d in enumerate(run.fixtures):
            for with_trace in (j % 2 == 1, j % 2 == 0):  # alternate which twin goes first
                if with_trace:
                    tracer.install(run.mods)
                try:
                    it = run.iteration([d])
                finally:
                    tracer.restore()
                run.check(it)
                (traced if with_trace else plain)[-1] += it["run_s"]
        spans, counts = tracer.window(mark)
        layers.append(tracing.layer_metrics(spans, counts, tracer.names))
        layers[-1]["trace.spans"] = len(spans["name"])
        cost = time.perf_counter() - ts
    run.attempted += 1
    if any(getattr(run.mods[m], a) is not fn for (m, a), fn in originals.items()):
        run.failed += 1
        run.messages.append("tracer left a wrapped attribute behind")
    tracer.save(work / "spans.npz")

    values = {key: combine([lm[key] for lm in layers]) for key in layers[0]}
    plain_s = median(plain)
    traced_s = median(traced)
    values.update({
        "synthetic.s": synthetic_s,
        "trace.untraced_run_s": plain_s,
        "trace.run_s": traced_s,
        "trace_overhead": traced_s / plain_s - 1.0,
        "trace.peak_rss_mb": peak_rss_mb(),
        "error_rate": run.failed / run.attempted,
    })
    metrics = {key: (value, unit(key)) for key, value in values.items()}
    return metrics, {"untraced_run_s": plain, "traced_run_s": traced, "layers": layers}


def run_workload(args) -> int:
    wl = WORKLOADS[args.workload]
    if not (SRC / "marketgraph" / "__init__.py").is_file():
        print(f"error: no marketgraph package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = HERE / "out" / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)

    run = Run(wl, args.seed)
    info = machine()
    if args.trace:
        metrics, record = per_layer(run, args.seconds, work)
    else:
        metrics, record = end_to_end(run, args.seconds)
    if args.record and run.failed == 0:
        ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        ref.setdefault(wl.name, {}).update(
            {str(run.panels[d]): value for d, value in run.objectives.items()})
        REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")

    for msg in run.messages:
        print(msg, file=sys.stderr)
    print(f"# {wl.name} seed={args.seed} trace={args.trace} machine={json.dumps(info)}")
    for name, (value, unit) in metrics.items():
        print(f"# {wl.name:14s} {name:32s} {value:>14.6g} {unit}")
    if not args.trace:
        runs = sum(len(v) for v in record["run_s"].values())
        print(f"# {wl.name:14s} {'samples':32s} {runs:>14d} timed panel runs")
        print(f"# {wl.name:14s} {'error_rate':32s} {run.failed / run.attempted:>14.6g} "
              f"ratio ({run.failed} failed of {run.attempted} checked)")
    (work / "result.json").write_text(json.dumps(
        {"workload": wl.name, "seed": args.seed, "machine": info, "record": record,
         "objectives": run.objectives,
         "metrics": {k: v for k, (v, _) in metrics.items()}}, indent=1) + "\n")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(argv, check=False).returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true",
                    help="store every panel's final objective in reference.json (if no check failed)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
