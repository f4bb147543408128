"""Spectral market indicators and the connectivity-gated backtest."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .laplacian import spectral_summary, time_consistency
from .preprocessing import ReturnsPanel

__all__ = [
    "BacktestResult",
    "IndicatorSeries",
    "compute_indicators",
    "cumulative_pnl",
    "strategy_s1",
    "strategy_s2",
]


@dataclass(frozen=True)
class IndicatorSeries:
    """Per-window spectral indicators of an estimated graph sequence."""

    dates: tuple
    algebraic_connectivity: np.ndarray
    spectral_radius: np.ndarray
    time_consistency: np.ndarray  # length T-1


@dataclass(frozen=True)
class BacktestResult:
    """Daily positions and additive profit-and-loss of a strategy."""

    dates: tuple
    positions: np.ndarray
    daily_pnl: np.ndarray
    cumulative_pnl: np.ndarray


def compute_indicators(L_seq, dates) -> IndicatorSeries:
    """Algebraic connectivity, spectral radius and time consistency per graph.

    An indicator that is not finite (a spectrum or a distance that
    overflows) is an error naming its window, counted from 0.
    """
    L_seq = [np.asarray(L, dtype=float) for L in L_seq]
    if not L_seq:
        raise ValueError("empty Laplacian sequence")
    if len(dates) != len(L_seq):
        raise ValueError("dates must align with the Laplacian sequence")
    p = L_seq[0].shape[0]
    if any(L.shape != (p, p) for L in L_seq):
        raise ValueError("all Laplacians must share one dimension")
    summaries = [spectral_summary(L) for L in L_seq]
    with np.errstate(over="ignore"):  # an overflow is the error below, not a warning
        consistency = [time_consistency(L_seq[t + 1], L_seq[t]) for t in range(len(L_seq) - 1)]
    series = IndicatorSeries(
        dates=tuple(dates),
        algebraic_connectivity=np.array([s.algebraic_connectivity for s in summaries]),
        spectral_radius=np.array([s.spectral_radius for s in summaries]),
        time_consistency=np.array(consistency),
    )
    for name, values, first in (
        ("algebraic connectivity", series.algebraic_connectivity, 0),
        ("spectral radius", series.spectral_radius, 0),
        ("time consistency", series.time_consistency, 1),  # entry t compares windows t + 1 and t
    ):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValueError(f"window {bad[0] + first}: {name} is not finite")
    return series


def cumulative_pnl(daily: np.ndarray) -> np.ndarray:
    """Running sum of daily profit and loss."""
    return np.cumsum(np.asarray(daily, dtype=float))


def strategy_s1(returns: ReturnsPanel) -> BacktestResult:
    """Invest one unit of budget, equally weighted, every day.  No costs."""
    daily = returns.returns.mean(axis=1)
    return BacktestResult(
        dates=returns.dates,
        positions=np.ones(returns.n),
        daily_pnl=daily,
        cumulative_pnl=cumulative_pnl(daily),
    )


def strategy_s2(
    returns: ReturnsPanel,
    indicators: IndicatorSeries,
    tau: float = 1.0,
    invert: bool = False,
) -> BacktestResult:
    """Connectivity-gated uniform investment.

    The position for day t is decided by the algebraic connectivity of the
    graph estimated from data through day t-1 (one-step availability lag):
    invest when it is below ``tau``, stay flat otherwise.  High connectivity
    flags crisis-level co-movement, so the default gate stays out of the
    market then; ``invert=True`` flips the direction.

    Day t reads only the indicator dated exactly on day t-1 (the first day
    the latest one before it), and a day without one stays flat: the
    warm-up, and with a rolling stride above 1 every day that does not
    follow a window end.  On ``synth --mode factor --assets 8 --days 230
    --regimes 115:0.1,114:0.8 --seed 1``, ``backtest --tau 100`` on the
    indicators of ``learn-tv`` invests on 199 days at stride 1 and on 40 of
    those 199 at ``--stride 5``; carrying a stale indicator forward would
    need a policy for its age.  Raises when ``tau`` is NaN or the indicator
    dates cannot be aligned to the return dates at all.
    """
    if math.isnan(tau):
        raise ValueError("gate threshold tau must not be NaN")
    by_date = dict(zip(indicators.dates, indicators.algebraic_connectivity))
    if len(by_date) != len(indicators.dates):
        raise ValueError("indicator dates contain duplicates")
    sorted_dates = sorted(by_date)

    positions = np.zeros(returns.n)
    matched = 0
    for t, date in enumerate(returns.dates):
        if t == 0:
            # latest indicator strictly before the first trading day
            i = bisect.bisect_left(sorted_dates, date)
            value = by_date[sorted_dates[i - 1]] if i > 0 else None
        else:
            value = by_date.get(returns.dates[t - 1])
        if value is None:
            continue
        matched += 1
        open_gate = (value >= tau) if invert else (value < tau)
        positions[t] = 1.0 if open_gate else 0.0
    if matched == 0 and returns.n > 0:
        raise ValueError("indicator dates do not align with return dates")

    # where(...) instead of multiplying keeps flat days at +0.0
    daily = np.where(positions > 0.0, positions * returns.returns.mean(axis=1), 0.0)
    return BacktestResult(
        dates=returns.dates,
        positions=positions,
        daily_pnl=daily,
        cumulative_pnl=cumulative_pnl(daily),
    )
