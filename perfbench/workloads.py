"""The benchmark's workloads: how each makes its inputs, what it times, what it checks.

Every workload is a list of ``marketgraph`` command lines run in-process
through ``marketgraph.cli.main``.  Inputs are written by the set-up from the
run's seed; the program only ever sees the generated CSV files.  Paths are
relative to the run's work directory, so the artifacts (``meta.json``
included) are the same bytes in every run of one seed.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

DEGREE_TOL = 1e-6


@dataclass(frozen=True)
class Step:
    """One CLI call of a pipeline; ``windows`` graphs come out of it."""

    argv: list[str]
    out: str
    windows: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    # Fixture panels timed in every run; one iteration runs them all.
    fixtures: int
    generate: Callable  # (cli_main, panel_dir, panel_seed) -> None
    steps: Callable  # (panel_dir) -> list[Step]
    graphs: Callable  # (panel_dir) -> list[(laplacian_csv, window_slice or None)]
    # Relative tolerance of the final objective against the recorded
    # reference.  Relabelling the assets of one panel (same problem, other
    # summation order) moved it by 7e-14 (MLE), 1.3e-9 (sum over the 200
    # time-varying windows) and 3e-8 (k-component, whose outer loop stops
    # at a 1e-5 relative change); each tolerance leaves a margin above that.
    rtol: float
    k: int = 1
    eta: float = 0.0


def panel_seeds(wl: Workload, seed: int) -> dict[str, int]:
    """Panel directory -> generator seed for one run.

    The timed fixture panels ``f0, f1, ...`` have the fixed seeds 0, 1, ...
    in every run.  The solvers' cost swings with the data (at p=20 one
    learn-tv panel needs 25k to 46k objective evaluations, and relabelling
    its assets alone moves that), so panels drawn from the run's seed made
    run-to-run spread wider than any bound.  The warm-up panel ``w`` is
    drawn from the run's seed, so every run also checks a panel no other
    seed sees, without its cost entering a timed iteration.
    """
    panels = {"w": wl.fixtures + seed}
    panels.update({f"f{j}": j for j in range(wl.fixtures)})
    return panels


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def _synth(cli_main, d: Path, seed: int, assets: int, days: int, regimes: str) -> None:
    argv = ["synth", "--mode", "factor", "--assets", str(assets), "--days", str(days),
            "--regimes", regimes, "--seed", str(seed), "--output-dir", str(d)]
    code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"set-up failed: marketgraph {' '.join(argv)} exited {code}")


def sector_prices(seed: int) -> bytes:
    """Price CSV of 4 sectors x 15 assets over 750 days.

    Each asset loads on a market factor and on its own sector's factor
    (the shape of demos/02), so the true structure is 4 clusters with
    positive within-sector correlation.
    The GMRF sampler of the acceptance suite gives negative within-cluster
    correlation instead, which is why the benchmark does not use it here.
    """
    sectors, per_sector, days = 4, 15, 750
    rng = np.random.default_rng(seed)
    p = sectors * per_sector
    market = 0.010 * rng.standard_normal(days)
    returns = np.empty((days, p))
    tickers = []
    for s in range(sectors):
        factor = 0.008 * rng.standard_normal(days)
        for i in range(per_sector):
            beta = rng.uniform(0.9, 1.1)
            gamma = rng.uniform(0.8, 1.2)
            returns[:, s * per_sector + i] = (
                beta * market + gamma * factor + 0.004 * rng.standard_normal(days)
            )
            tickers.append(f"S{s}N{i:02d}")
    prices = 100.0 * np.exp(np.vstack([np.zeros(p), np.cumsum(returns, axis=0)]))
    first = datetime.date(2020, 1, 1)
    lines = [",".join(["date"] + tickers)]
    for t, row in enumerate(prices):
        day = (first + datetime.timedelta(days=t)).isoformat()
        lines.append(",".join([day] + [f"{v:.17g}" for v in row]))
    return ("\n".join(lines) + "\n").encode()


def _sectors(cli_main, d: Path, seed: int) -> None:
    d.mkdir(parents=True, exist_ok=True)
    (d / "prices.csv").write_bytes(sector_prices(seed))


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

TV_WINDOWS = 200

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="tv_rolling",
            fixtures=2,
            generate=lambda m, d, s: _synth(m, d, s, 20, 230, "115:0.1,114:0.8"),
            steps=lambda d: [
                Step(["learn-tv", "--input", f"{d}/prices.csv", "--window", "30", "--stride", "1",
                      "--delta", "100", "--scale", "correlation", "--output-dir", f"{d}/tv"],
                     f"{d}/tv", windows=TV_WINDOWS),
                Step(["indicators", "--input", f"{d}/tv", "--output-dir", f"{d}/ind"], f"{d}/ind"),
                Step(["backtest", "--input", f"{d}/prices.csv", "--indicators",
                      f"{d}/tv/indicators.csv", "--output-dir", f"{d}/bt"], f"{d}/bt"),
            ],
            graphs=lambda d: [(f"{d}/tv/laplacian_{t:04d}.csv", slice(t, t + 30))
                              for t in range(TV_WINDOWS)],
            rtol=1e-7,
        ),
        Workload(
            name="kcomp_sectors",
            fixtures=3,
            generate=_sectors,
            steps=lambda d: [
                Step(["learn", "--input", f"{d}/prices.csv", "--k", "4", "--eta", "10",
                      "--output-dir", f"{d}/learn"], f"{d}/learn", windows=1),
            ],
            graphs=lambda d: [(f"{d}/learn/laplacian.csv", None)],
            rtol=1e-6,
            k=4,
            eta=10.0,
        ),
        Workload(
            name="mle_wide",
            fixtures=8,
            generate=lambda m, d, s: _synth(m, d, s, 200, 501, "500:0.2"),
            steps=lambda d: [
                Step(["learn", "--input", f"{d}/prices.csv", "--output-dir", f"{d}/learn"],
                     f"{d}/learn", windows=1),
            ],
            graphs=lambda d: [(f"{d}/learn/laplacian.csv", None)],
            rtol=1e-10,
        ),
    ]
}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def artifact_digest(out_dir) -> str:
    """SHA-256 over every file a CLI call wrote, minus meta.json's wall time."""
    h = hashlib.sha256()
    for f in sorted(Path(out_dir).rglob("*")):
        if not f.is_file():
            continue
        data = f.read_bytes()
        if f.name == "meta.json":
            meta = json.loads(data)
            meta.pop("wall_time_s", None)
            data = json.dumps(meta, sort_keys=True).encode()
        h.update(f.relative_to(out_dir).as_posix().encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def _log_returns(prices_csv) -> np.ndarray:
    with open(prices_csv, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    prices = np.array([[float(c) for c in r[1:]] for r in rows])
    return np.diff(np.log(prices), axis=0)


def _read_matrix(path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(c) for c in r] for r in rows])


def objective(L: np.ndarray, S: np.ndarray, k: int, eta: float) -> float:
    """tr(LS) - log det(L + V V^T) + eta * (sum of the k smallest eigenvalues).

    V spans the k smallest eigenvectors of L; for k = 1 that is the constant
    vector, which gives the static MLE objective.  Evaluated here with plain
    numpy, independently of the package, from the files the CLI wrote.
    """
    lam, U = np.linalg.eigh(L)
    V = U[:, :k] if k > 1 else np.full((L.shape[0], 1), L.shape[0] ** -0.5)
    sign, logdet = np.linalg.slogdet(L + V @ V.T)
    if sign <= 0:
        return float("nan")
    return float(np.sum(L * S) - logdet + eta * np.sum(lam[:k]))


def check_panel(wl: Workload, d: str, codes: list[int]) -> tuple[list[tuple[str, str]], int, float]:
    """Check the artifacts one panel's CLI calls wrote, given their exit codes.

    Returns the failures as (operation, message) pairs, the number of
    operations checked (each CLI call and each output graph is one) and the
    summed objective of the output graphs.
    """
    from marketgraph.laplacian import validate_laplacian

    failures = []
    steps = wl.steps(d)
    for step, code in zip(steps, codes):
        if code != 0:
            failures.append((step.out, f"{step.argv[0]} exited {code}"))
            continue
        meta = json.loads((Path(step.out) / "meta.json").read_text())
        if not meta.get("converged"):
            failures.append((step.out, "meta.json does not report converged"))
    if any(code != 0 for code in codes):
        return failures, len(steps), float("nan")

    graphs = wl.graphs(d)
    R = _log_returns(f"{d}/prices.csv")
    total = 0.0
    for path, rows in graphs:
        L = _read_matrix(path)
        try:
            validate_laplacian(L)
        except ValueError as exc:
            failures.append((path, str(exc)))
            continue
        if wl.k > 1:
            lam = np.linalg.eigvalsh(L)
            nullity = int(np.count_nonzero(lam <= 1e-8 * max(1.0, lam[-1])))
            if nullity != wl.k:
                failures.append((path, f"nullity {nullity}, expected {wl.k}"))
            degree = float(np.abs(np.diag(L) - 1.0).max())
            if degree > DEGREE_TOL:
                failures.append((path, f"degree residual {degree:.2e} > {DEGREE_TOL:g}"))
        S = np.corrcoef(R[rows] if rows is not None else R, rowvar=False)
        total += objective(L, S, wl.k, wl.eta)
    if wl.k == 1 and len(graphs) == 1:
        reported = json.loads((Path(steps[0].out) / "meta.json").read_text())["objective"]
        if not objective_matches(wl, reported, total):
            failures.append((steps[0].out, f"meta.json objective {reported!r} != recomputed {total!r}"))
    return failures, len(steps) + len(graphs), total


def objective_matches(wl: Workload, value: float, reference: float) -> bool:
    return abs(value - reference) <= wl.rtol * max(1.0, abs(reference))
