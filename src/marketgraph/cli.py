"""Command-line pipelines: price CSVs in, plot-ready CSV/JSON out.

Subcommands: ``learn`` (static graph), ``learn-tv`` (rolling time-varying
graphs + indicators), ``backtest`` (connectivity-gated S1/S2 comparison),
``synth`` (synthetic fixtures with planted truth), ``indicators``
(recompute indicators from stored Laplacians).

:func:`main` creates the output directory, and the subcommand writes its
artifacts there and returns its ``meta.json`` fields; ``main`` writes
``meta.json`` and maps ``converged`` to the exit code: 0 success, 2
validation error, 3 solver non-convergence (artifacts are still written).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import IndicatorSeries, compute_indicators, strategy_s1, strategy_s2
from .laplacian import edge_indices, num_components, pair_indices, weights_from_laplacian
from .laplacian import laplacian_from_weights  # noqa: F401 (perfbench traces it)
from .preprocessing import (
    PricePanel,
    ReturnsPanel,
    correlation_from_covariance,
    distance_matrix,
    log_returns,
    normalize_columns,
    remove_market_factor,
    rolling_windows,
    sample_covariance,
)
from .solvers import SolverConfig, learn_connected_mle, learn_k_component, learn_smooth_graph, learn_time_varying
from .synthetic import random_k_component_graph, sample_gmrf, simulate_factor_market

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGED = 3

# config key -> (default, subcommands taking it as the flag --<key with dashes>, argparse keywords);
# a boolean option is a bare flag, and config-file values go through the same type and choices
OPTIONS = {
    "scale": ("correlation", ("learn", "learn-tv", "backtest"), {"choices": ["covariance", "correlation"]}),
    "market": ("keep", ("learn", "learn-tv", "backtest"), {"choices": ["keep", "remove"]}),
    "market_column": (None, ("learn", "learn-tv", "backtest"), {"help": "ticker used as the market index"}),
    "ffill": (False, ("learn", "learn-tv", "backtest"),
              {"help": "forward-fill missing prices instead of dropping rows"}),
    "k": (SolverConfig.k, ("learn",),
          {"type": int, "help": "component count (k > 1 selects the k-component solver)"}),
    "eta": (SolverConfig.eta, ("learn",), {"type": float, "help": "spectral rank-penalty weight"}),
    "alpha": (SolverConfig.alpha, ("learn", "learn-tv", "backtest"),
              {"type": float, "help": "sparsity / log-degree weight"}),
    "gamma": (SolverConfig.gamma, ("learn",),
              {"type": float, "help": "Frobenius weight of the smooth baseline"}),
    "method": ("mle", ("learn",), {"choices": ["mle", "smooth"], "help": "estimator for k=1"}),
    "window": (30, ("learn-tv", "backtest"), {"type": int, "help": "rolling window length in return days"}),
    "stride": (1, ("learn-tv", "backtest"), {"type": int, "help": "rolling window stride in days"}),
    "delta": (SolverConfig.delta, ("learn-tv", "backtest"), {"type": float, "help": "temporal coupling weight"}),
    "memory": (SolverConfig.memory, ("learn-tv", "backtest"),
               {"type": int, "help": "joint-history length of the time-varying solver"}),
    "indicators": (None, ("backtest",), {"help": "indicators.csv from a previous learn-tv run"}),
    "tau": (1.0, ("backtest",), {"type": float, "help": "connectivity threshold of the S2 gate"}),
    "invert_gate": (False, ("backtest",), {"help": "invest when connectivity is at or above tau"}),
    "mode": ("gmrf", ("synth",), {"choices": ["gmrf", "factor"]}),
    "assets": (10, ("synth",), {"type": int, "help": "number of assets p"}),
    "days": (230, ("synth",), {"type": int, "help": "number of price rows"}),
    "k_true": (2, ("synth",), {"type": int, "help": "planted component count"}),
    "regimes": ("115:0.1,114:0.7", ("synth",), {"help": "factor mode segments 'len:corr,len:corr,...'"}),
    "weight_min": (1.0, ("synth",), {"type": float}),
    "weight_max": (3.0, ("synth",), {"type": float}),
    "beta_min": (0.8, ("synth",), {"type": float}),
    "beta_max": (1.2, ("synth",), {"type": float}),
    "seed": (0, ("synth",), {"type": int}),
    "density": (1.0, ("synth",), {"type": float, "help": "in-group extra edge probability"}),
}
DEFAULTS = {key: default for key, (default, _, _) in OPTIONS.items()}


class ValidationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# ingestion and file formats
# ---------------------------------------------------------------------------

# A stored run (learn-tv writes it, indicators reads it): windows.csv, and for
# each of its rows the matrix file named by the row's window number
WINDOWS_HEADER = ["window", "start_date", "end_date"]
MATRIX_FILE = "laplacian_{}.csv"  # .format(f"{window:04d}"); .format("*") matches them all
INDICATORS_HEADER = ["date", "algebraic_connectivity", "spectral_radius", "time_consistency"]


def _matrix_path(run: Path, window: int) -> Path:
    return run / MATRIX_FILE.format(f"{window:04d}")


def _write_rows(path, header, rows) -> None:
    """One CSV file: the header row, then ``rows`` (lists of cells)."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(header)
        out.writerows(rows)


def _read_rows(path) -> list[list[str]]:
    try:
        with Path(path).open(newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: unreadable CSV: {exc}") from None


def _check_cells(path, rn: int, row: list[str], width: int) -> None:
    if len(row) != width:
        raise ValidationError(f"{path}: row {rn}: expected {width} cells, got {len(row)}")


# parser and complaint of each kind of CSV cell
_CELL_KINDS = {
    "date": (datetime.date.fromisoformat, "invalid ISO date"),
    "number": (float, "non-numeric cell"),
    "integer": (int, "non-integer cell"),
}


def _parse_cell(path, rn: int, cell: str, kind: str, column: str | None = None):
    """``cell`` of row ``rn`` as a ``kind`` value; a bad cell exits naming file, row and column."""
    parse, complaint = _CELL_KINDS[kind]
    try:
        return parse(cell.strip())
    except ValueError:
        where = f"row {rn}" if column is None else f"row {rn}, column {column}"
        raise ValidationError(f"{path}: {where}: {complaint} {cell!r}") from None


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _dated_rows(dates, values):
    """Rows ``date, v_1, ..., v_m`` of a dated series (``values`` is n x m)."""
    return ([d.isoformat(), *map(_fmt, row)] for d, row in zip(dates, values))


def _price(path, rn: int, cell: str, ticker: str) -> float:
    """One price cell, NaN when blank; a bad or non-positive price exits naming its row and column."""
    v = _parse_cell(path, rn, cell, "number", ticker) if cell.strip() else math.nan
    if -math.inf < v <= 0:
        raise ValidationError(f"{path}: row {rn}, column {ticker}: non-positive price {v}")
    return v


def ingest_prices(path, ffill: bool = False) -> PricePanel:
    """Read and validate a price CSV (header ``date,<ticker>,...``).

    Rows with missing (blank or non-finite) cells are dropped, or
    forward-filled when ``ffill`` is set.  A repeated ticker is an error
    naming it; duplicate dates, non-monotone dates and non-numeric or
    non-positive cells are errors reported with their row number.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"input file not found: {path}")
    rows = _read_rows(path)
    if not rows:
        raise ValidationError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    if not header or header[0].lower() != "date":
        raise ValidationError(f"{path}: first header column must be 'date'")
    tickers = tuple(header[1:])
    if not tickers:
        raise ValidationError(f"{path}: no ticker columns")
    if len(set(tickers)) < len(tickers):
        repeated = next(t for i, t in enumerate(tickers) if t in tickers[:i])
        raise ValidationError(f"{path}: repeated ticker {repeated!r} in the header")

    dates: list[datetime.date] = []
    kept: list[np.ndarray] = []
    previous = None
    last = np.full(len(tickers), np.nan)
    dropped = 0
    for rn, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        _check_cells(path, rn, row, len(tickers) + 1)
        d = _parse_cell(path, rn, row[0], "date")
        if previous is not None:
            if d == previous:
                raise ValidationError(f"{path}: row {rn}: duplicate date {d.isoformat()}")
            if d < previous:
                raise ValidationError(
                    f"{path}: row {rn}: dates not increasing ({d.isoformat()} after "
                    f"{previous.isoformat()})"
                )
        previous = d
        try:
            values = np.array([float(c) if c.strip() else math.nan for c in row[1:]])
        except ValueError:
            values = None
        if values is None or ((values <= 0) & (values > -math.inf)).any():
            # a bad cell: the per-cell parse words the error of the row's first one
            values = np.array([_price(path, rn, c, t) for c, t in zip(row[1:], tickers)])
        if ffill:
            values = np.where(np.isfinite(values), values, last)
        if not np.isfinite(values).all():
            dropped += 1
            continue
        last = values
        dates.append(d)
        kept.append(values)
    if dropped:
        print(f"note: dropped {dropped} row(s) with missing values", file=sys.stderr)
    if len(kept) < 2:
        raise ValidationError(f"{path}: fewer than 2 usable price rows")
    return PricePanel(dates=tuple(dates), tickers=tickers, prices=np.array(kept, dtype=float))


def write_matrix_csv(path, M: np.ndarray, labels) -> None:
    _write_rows(path, labels, ([_fmt(v) for v in row] for row in np.asarray(M)))


def read_matrix_csv(path) -> tuple[np.ndarray, tuple[str, ...]]:
    rows = _read_rows(path)
    if len(rows) < 2:
        raise ValidationError(f"{path}: not a matrix CSV")
    labels = tuple(c.strip() for c in rows[0])
    try:
        M = np.array([[float(c) for c in row] for row in rows[1:]], dtype=float)
    except ValueError:
        raise ValidationError(f"{path}: corrupt matrix CSV") from None
    if M.shape != (len(labels), len(labels)):
        raise ValidationError(f"{path}: matrix shape {M.shape} does not match header")
    if not np.isfinite(M).all():
        raise ValidationError(f"{path}: non-finite matrix entry")
    return M, labels


def _read_laplacian(path) -> tuple[np.ndarray, tuple[str, ...]]:
    """A stored matrix and its labels, checked by the Laplacian rule of weights_from_laplacian."""
    L, labels = read_matrix_csv(path)
    try:
        weights_from_laplacian(L)
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return L, labels


def write_edges_csv(path, L: np.ndarray, labels) -> int:
    iu, ju = pair_indices(L.shape[0])
    w = weights_from_laplacian(L)
    edges = edge_indices(w)
    rows = ([labels[iu[e]], labels[ju[e]], _fmt(w[e])] for e in edges)
    _write_rows(path, ["i", "j", "weight"], rows)
    return len(edges)


def write_indicators_csv(path, indicators) -> None:
    cons = [""] + [_fmt(v) for v in indicators.time_consistency]
    rows = (
        [d.isoformat(), _fmt(lam2), _fmt(lmax), c]
        for d, lam2, lmax, c in zip(
            indicators.dates, indicators.algebraic_connectivity, indicators.spectral_radius, cons
        )
    )
    _write_rows(path, INDICATORS_HEADER, rows)


def read_indicators_csv(path):
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"indicator file not found: {path}")
    rows = _read_rows(path)
    if not rows or rows[0] != INDICATORS_HEADER:
        raise ValidationError(f"{path}: not an indicators CSV")
    dates, lam2, lmax, cons = [], [], [], []
    for rn, row in enumerate(rows[1:], start=2):
        _check_cells(path, rn, row, len(INDICATORS_HEADER))
        dates.append(_parse_cell(path, rn, row[0], "date"))
        lam2.append(_parse_cell(path, rn, row[1], "number", INDICATORS_HEADER[1]))
        lmax.append(_parse_cell(path, rn, row[2], "number", INDICATORS_HEADER[2]))
        if row[3]:
            cons.append(_parse_cell(path, rn, row[3], "number", INDICATORS_HEADER[3]))
    return IndicatorSeries(
        dates=tuple(dates),
        algebraic_connectivity=np.array(lam2),
        spectral_radius=np.array(lmax),
        time_consistency=np.array(cons),
    )


def write_meta(outdir: Path, command: str, resolved: dict, extra: dict) -> None:
    meta = {
        "command": command,
        "version": __version__,
        "config": {k: v for k, v in sorted(resolved.items())},
    }
    meta.update(extra)
    with (outdir / "meta.json").open("w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, default=str)
        fh.write("\n")


# ---------------------------------------------------------------------------
# configuration resolution
# ---------------------------------------------------------------------------

def _parse_config_file(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: unreadable config file: {exc}") from None
    out = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}: line {ln}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key.replace("-", "_")] = value
    return out


def _coerce(key: str, value: str):
    """A config-file value, converted and checked as its flag would be."""
    default, _, kw = OPTIONS[key]
    if isinstance(default, bool):
        low = value.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValidationError(f"config key {key}: expected a boolean, got {value!r}")
    kind = kw.get("type", str)
    try:
        value = kind(value)
    except ValueError:
        raise ValidationError(f"config key {key}: expected {kind.__name__}, got {value!r}") from None
    if "choices" in kw and value not in kw["choices"]:
        raise ValidationError(f"config key {key}: {value!r} is not one of {', '.join(kw['choices'])}")
    return value


def resolve_config(args: argparse.Namespace) -> dict:
    """The subcommand's own options: defaults < config file < explicit command-line flags."""
    resolved = {key: default for key, (default, commands, _) in OPTIONS.items() if args.command in commands}
    if getattr(args, "config", None):
        for key, value in _parse_config_file(args.config).items():
            if key not in OPTIONS:
                raise ValidationError(f"unknown config key: {key}")
            if key not in resolved:
                raise ValidationError(f"config key {key}: not an option of {args.command}")
            resolved[key] = _coerce(key, value)
    for key in resolved:
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            resolved[key] = cli_value
    resolved["input"] = getattr(args, "input", None)
    resolved["output_dir"] = getattr(args, "output_dir", None)
    return resolved


def _solver_config(r: dict) -> SolverConfig:
    return SolverConfig(**{f.name: r[f.name] for f in dataclasses.fields(SolverConfig) if f.name in r})


def _raw_returns(r: dict) -> ReturnsPanel:
    """The log returns of the price file ``r["input"]``."""
    return log_returns(ingest_prices(r["input"], ffill=r["ffill"]))


def _prepared_returns(r: dict, returns: ReturnsPanel) -> ReturnsPanel:
    """``returns`` as the solvers see them: market removed if asked."""
    if r["market"] == "remove":
        market = None
        if r["market_column"]:
            col = r["market_column"]
            if col not in returns.tickers:
                raise ValidationError(f"market column {col!r} not in tickers")
            idx = returns.tickers.index(col)
            market = returns.returns[:, idx]
            keep = [i for i in range(returns.p) if i != idx]
            returns = ReturnsPanel(
                dates=returns.dates,
                tickers=tuple(t for i, t in enumerate(returns.tickers) if i != idx),
                returns=returns.returns[:, keep],
            )
        returns = remove_market_factor(returns, market).residuals
    return returns


def _similarity(returns: ReturnsPanel, scale: str):
    S = sample_covariance(returns)
    if scale == "correlation":
        S = correlation_from_covariance(S)
    return S


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_learn(r: dict, outdir: Path) -> dict:
    returns = _prepared_returns(r, _raw_returns(r))
    cfg = _solver_config(r)
    t0 = time.perf_counter()

    if r["k"] > 1:
        L, report = learn_k_component(_similarity(returns, r["scale"]), cfg)
    elif r["method"] == "smooth":
        X = normalize_columns(returns) if r["scale"] == "correlation" else returns
        L, report = learn_smooth_graph(distance_matrix(X), cfg)
    else:
        L, report = learn_connected_mle(_similarity(returns, r["scale"]), cfg)
    wall = time.perf_counter() - t0

    write_matrix_csv(outdir / "laplacian.csv", L, returns.tickers)
    n_edges = write_edges_csv(outdir / "edges.csv", L, returns.tickers)
    return {
        "converged": bool(report.converged),
        "iterations": report.iterations,
        "objective": float(report.objective_trace[-1]),
        "constraint_residuals": dict(report.constraint_residuals),
        "nullity": num_components(L),
        "n_edges": n_edges,
        "wall_time_s": wall,
    }


def _rolling_graphs(returns: ReturnsPanel, r: dict):
    """Time-varying graphs over the rolling windows of ``returns``.

    Returns ``(L_seq, convergence, spans)``: ``convergence`` holds the
    ``meta.json`` fields ``converged`` and ``unconverged_windows`` (window
    indices), and ``spans`` each window's first and last date.
    """
    windows = rolling_windows(returns, r["window"], r["stride"])
    cfg = _solver_config(r)
    S_seq = [_similarity(chunk, r["scale"]) for chunk in windows]
    L_seq, reports = learn_time_varying(S_seq, [chunk.n for chunk in windows], cfg)
    unconverged = [t for t, report in enumerate(reports) if not report.converged]
    spans = [(chunk.dates[0], chunk.dates[-1]) for chunk in windows]
    return L_seq, {"converged": not unconverged, "unconverged_windows": unconverged}, spans


def cmd_learn_tv(r: dict, outdir: Path) -> dict:
    returns = _prepared_returns(r, _raw_returns(r))
    t0 = time.perf_counter()
    L_seq, convergence, spans = _rolling_graphs(returns, r)
    wall = time.perf_counter() - t0

    for t, L in enumerate(L_seq):
        write_matrix_csv(_matrix_path(outdir, t), L, returns.tickers)
    _write_rows(
        outdir / "windows.csv",
        WINDOWS_HEADER,
        ([t, d0.isoformat(), d1.isoformat()] for t, (d0, d1) in enumerate(spans)),
    )
    indicators = compute_indicators(L_seq, [d1 for _, d1 in spans])
    write_indicators_csv(outdir / "indicators.csv", indicators)
    return {"n_windows": len(L_seq), "wall_time_s": wall, **convergence}


def cmd_backtest(r: dict, outdir: Path) -> dict:
    returns = _raw_returns(r)  # PnL always uses raw returns

    if r["indicators"]:
        indicators = read_indicators_csv(r["indicators"])
        convergence = {"converged": True}  # no solver ran
    else:
        L_seq, convergence, spans = _rolling_graphs(_prepared_returns(r, returns), r)
        indicators = compute_indicators(L_seq, [d1 for _, d1 in spans])
        write_indicators_csv(outdir / "indicators.csv", indicators)

    s1 = strategy_s1(returns)
    s2 = strategy_s2(returns, indicators, tau=r["tau"], invert=r["invert_gate"])
    pnl = np.column_stack([s1.cumulative_pnl, s2.cumulative_pnl, s2.positions])
    header = ["date", "s1_cum", "s2_cum", "position"]
    _write_rows(outdir / "pnl.csv", header, _dated_rows(returns.dates, pnl))
    return {
        **convergence,
        "final_s1": float(s1.cumulative_pnl[-1]),
        "final_s2": float(s2.cumulative_pnl[-1]),
        "days_invested": int(s2.positions.sum()),
    }


def _parse_regimes(text: str):
    regimes = []
    for part in text.split(","):
        length, _, level = part.partition(":")
        try:
            regimes.append((int(length), float(level)))
        except ValueError:
            raise ValidationError(
                f"invalid --regimes {text!r}; expected 'len:corr,len:corr,...'"
            ) from None
    return tuple(regimes)


def cmd_synth(r: dict, outdir: Path) -> dict:
    p, n, seed = r["assets"], r["days"], r["seed"]

    if r["mode"] == "gmrf":
        planted = random_k_component_graph(
            p,
            r["k_true"],
            weight_range=(r["weight_min"], r["weight_max"]),
            seed=seed,
            extra_edge_prob=r["density"],
        )
        returns = sample_gmrf(planted.L_true, n - 1, seed=seed + 1)
        write_matrix_csv(outdir / "laplacian_true.csv", planted.L_true, returns.tickers)
        extra = {"planted_nullity": int(num_components(planted.L_true)), "k_true": r["k_true"]}
    else:  # the parser and the config check admit only gmrf and factor
        sim = simulate_factor_market(
            p,
            n - 1,
            beta_range=(r["beta_min"], r["beta_max"]),
            regimes=_parse_regimes(r["regimes"]),
            seed=seed,
        )
        returns = sim.returns
        boundaries = (0,) + sim.regime_boundaries
        _write_rows(
            outdir / "regimes.csv",
            ["first_row", "residual_correlation"],
            ([b, _fmt(level)] for b, level in zip(boundaries, sim.regime_levels)),
        )
        market = _dated_rows(returns.dates, sim.market[:, None])
        _write_rows(outdir / "market.csv", ["date", "market_return"], market)
        extra = {"regimes": r["regimes"]}

    # returns.csv plus a price panel reproducing those returns under log_returns
    header = ["date", *returns.tickers]
    _write_rows(outdir / "returns.csv", header, _dated_rows(returns.dates, returns.returns))
    prices = 100.0 * np.exp(np.vstack([np.zeros(p), np.cumsum(returns.returns, axis=0)]))
    price_dates = (returns.dates[0] - datetime.timedelta(days=1),) + returns.dates
    _write_rows(outdir / "prices.csv", header, _dated_rows(price_dates, prices))

    return {**extra, "converged": True, "n_price_rows": len(price_dates)}


def cmd_indicators(r: dict, outdir: Path) -> dict:
    indir = Path(r["input"])
    if not indir.is_dir():
        raise ValidationError(f"--input must be a directory of stored Laplacians: {indir}")
    stored = {f.name for f in indir.glob(MATRIX_FILE.format("*"))}
    if not stored:
        raise ValidationError(f"no {MATRIX_FILE.format('*')} files in {indir}")
    windows_file = indir / "windows.csv"
    if not windows_file.exists():
        raise ValidationError(f"missing windows.csv in {indir}")
    rows = _read_rows(windows_file)
    if not rows or rows[0] != WINDOWS_HEADER:
        raise ValidationError(f"{windows_file}: header must be {','.join(WINDOWS_HEADER)}")
    matrix_files, end_dates = [], []
    for rn, row in enumerate(rows[1:], start=2):
        _check_cells(windows_file, rn, row, len(WINDOWS_HEADER))
        window, _, end = (_parse_cell(windows_file, rn, cell, kind, column)
                          for cell, kind, column in zip(row, ("integer", "date", "date"), WINDOWS_HEADER))
        matrix_files.append(_matrix_path(indir, window))
        end_dates.append(end)
    names = [f.name for f in matrix_files]
    if len(set(names)) != len(names) or set(names) != stored:
        raise ValidationError("windows.csv does not match the stored matrices")
    L_seq, headers = zip(*map(_read_laplacian, matrix_files))
    for f, labels in zip(matrix_files, headers):
        if labels != headers[0]:
            raise ValidationError(f"{f}: header {','.join(labels)} differs from the first window's "
                                  f"{','.join(headers[0])}")
    write_indicators_csv(outdir / "indicators.csv", compute_indicators(L_seq, end_dates))
    return {"converged": True, "n_windows": len(L_seq)}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

_COMMANDS = {
    "learn": (cmd_learn, "estimate one static graph"),
    "learn-tv": (cmd_learn_tv, "rolling time-varying graphs + indicators"),
    "backtest": (cmd_backtest, "S1 vs connectivity-gated S2 cumulative PnL"),
    "synth": (cmd_synth, "generate synthetic fixtures with planted truth"),
    "indicators": (cmd_indicators, "recompute indicators from stored Laplacians"),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="marketgraph",
        description="Learn Laplacian graphs from financial return data.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        if command != "synth":
            sp.add_argument("--input", help="input CSV file (or directory for 'indicators')")
        sp.add_argument("--output-dir", help="directory for output artifacts")
        if any(command in commands for _, commands, _ in OPTIONS.values()):
            sp.add_argument("--config", help="key = value config file; flags override it")
        for key, (default, commands, kw) in OPTIONS.items():
            if command in commands:
                if isinstance(default, bool):
                    kw = {"action": "store_const", "const": True, "default": None, **kw}
                sp.add_argument("--" + key.replace("_", "-"), dest=key, **kw)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        resolved = resolve_config(args)
        if "input" in args and not args.input:
            raise ValidationError("--input is required")
        if not resolved["output_dir"]:
            raise ValidationError("--output-dir is required")
        outdir = Path(resolved["output_dir"])
        outdir.mkdir(parents=True, exist_ok=True)
        extra = _COMMANDS[args.command][0](resolved, outdir)
        write_meta(outdir, args.command, resolved, extra)
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK if extra["converged"] else EXIT_NONCONVERGED


if __name__ == "__main__":
    sys.exit(main())
