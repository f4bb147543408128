"""Turn raw price panels into solver inputs.

Log-returns, rolling windows, sample covariance/correlation,
market-factor removal and squared-distance matrices.  All functions are
pure; panels are immutable after construction.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MarketRemoval",
    "PricePanel",
    "ReturnsPanel",
    "correlation_from_covariance",
    "distance_matrix",
    "log_returns",
    "normalize_columns",
    "remove_market_factor",
    "rolling_windows",
    "sample_covariance",
]


@dataclass(frozen=True)
class PricePanel:
    """Strictly positive price history: one row per date, one column per ticker."""

    dates: tuple[datetime.date, ...]
    tickers: tuple[str, ...]
    prices: np.ndarray

    def __post_init__(self):
        if self.prices.shape != (len(self.dates), len(self.tickers)):
            raise ValueError("price matrix shape does not match dates/tickers")
        if any(a >= b for a, b in zip(self.dates, self.dates[1:])):
            raise ValueError("dates must be strictly increasing")


@dataclass(frozen=True)
class ReturnsPanel:
    """Log-return history: n rows (dates) by p columns (tickers)."""

    dates: tuple[datetime.date, ...]
    tickers: tuple[str, ...]
    returns: np.ndarray

    def __post_init__(self):
        if self.returns.shape != (len(self.dates), len(self.tickers)):
            raise ValueError("return matrix shape does not match dates/tickers")

    @property
    def n(self) -> int:
        return self.returns.shape[0]

    @property
    def p(self) -> int:
        return self.returns.shape[1]


@dataclass(frozen=True)
class MarketRemoval:
    """Residual panel from a single-factor regression plus the fitted loadings."""

    residuals: ReturnsPanel
    beta: np.ndarray
    intercept: np.ndarray


def log_returns(panel: PricePanel) -> ReturnsPanel:
    """Log-returns r_{t,i} = log p_{t+1,i} - log p_{t,i}; drops the first date."""
    if np.any(panel.prices <= 0):
        t, i = np.argwhere(panel.prices <= 0)[0]
        raise ValueError(
            f"non-positive price for {panel.tickers[i]} on {panel.dates[t]}"
        )
    logs = np.log(panel.prices)
    return ReturnsPanel(
        dates=panel.dates[1:],
        tickers=panel.tickers,
        returns=np.diff(logs, axis=0),
    )


def rolling_windows(panel: ReturnsPanel, window: int, stride: int = 1) -> list[ReturnsPanel]:
    """The sub-panels of rows [s, s + window), s = 0, stride, ...; a shorter tail is left out."""
    if window < 2:
        raise ValueError("window length must be at least 2")
    if stride < 1:
        raise ValueError("stride must be at least 1")
    if panel.n < window:
        raise ValueError(f"{panel.n} return rows are fewer than one window of {window}")
    return [
        ReturnsPanel(panel.dates[s : s + window], panel.tickers, panel.returns[s : s + window])
        for s in range(0, panel.n - window + 1, stride)
    ]


def _check_similarity(S) -> np.ndarray:
    """``S`` as a float array, checked to be square, finite and symmetric on at least 2 nodes.

    Symmetric means |S - S^T| <= 1e-8 max(1, max|S|) entrywise.  The
    solvers and :func:`correlation_from_covariance` check their input by
    this one rule.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("similarity matrix must be square")
    if S.shape[0] < 2:
        raise ValueError("need at least 2 nodes")
    if not np.all(np.isfinite(S)):
        raise ValueError("similarity matrix contains non-finite entries")
    scale = max(1.0, np.abs(S).max())
    if np.abs(S - S.T).max() > 1e-8 * scale:
        raise ValueError("similarity matrix is not symmetric")
    return S


def sample_covariance(panel: ReturnsPanel) -> np.ndarray:
    """Unbiased sample covariance (n-1 denominator) of the return columns."""
    if panel.n < 2:
        raise ValueError(f"need at least 2 observations, got {panel.n}")
    X = panel.returns - panel.returns.mean(axis=0)
    S = X.T @ X / (panel.n - 1)
    return (S + S.T) / 2.0


def correlation_from_covariance(S, tickers=None) -> np.ndarray:
    """Rescale a covariance matrix to a correlation matrix.

    The output is invariant to per-asset variance rescaling of the input
    panel, and a correlation matrix maps to itself.  A zero-variance asset
    is an error, named by ``tickers`` when given.
    """
    S = _check_similarity(S)
    var = np.diag(S)
    if np.any(var <= 0):
        i = int(np.argmax(var <= 0))
        name = tickers[i] if tickers is not None else f"column {i}"
        raise ValueError(f"zero-variance asset: {name}")
    d = 1.0 / np.sqrt(var)
    C = S * np.outer(d, d)
    C = (C + C.T) / 2.0
    np.fill_diagonal(C, 1.0)
    return C


def remove_market_factor(
    panel: ReturnsPanel, market: np.ndarray | None = None
) -> MarketRemoval:
    """Regress each asset on the market series and return the residual panel.

    ``market`` defaults to the cross-sectional mean return.  The regression
    includes an intercept.
    """
    X = panel.returns
    if market is None:
        market = X.mean(axis=1)
    market = np.asarray(market, dtype=float)
    if market.shape != (panel.n,):
        raise ValueError("market series must align with the panel dates")
    mvar = market.var()
    if mvar <= 0:
        raise ValueError("market series has zero variance")

    m0 = market - market.mean()
    beta = (m0 @ (X - X.mean(axis=0))) / (m0 @ m0)
    alpha = X.mean(axis=0) - beta * market.mean()
    resid = X - np.outer(market, beta) - alpha
    return MarketRemoval(
        residuals=ReturnsPanel(panel.dates, panel.tickers, resid),
        beta=beta,
        intercept=alpha,
    )


def distance_matrix(panel: ReturnsPanel) -> np.ndarray:
    """Pairwise squared Euclidean distances between asset return columns."""
    X = panel.returns
    sq = np.sum(X * X, axis=0)
    Z = sq[:, None] + sq[None, :] - 2.0 * (X.T @ X)
    Z = np.maximum((Z + Z.T) / 2.0, 0.0)
    np.fill_diagonal(Z, 0.0)
    return Z


def normalize_columns(panel: ReturnsPanel) -> ReturnsPanel:
    """Demean each column and scale it to unit standard deviation."""
    X = panel.returns
    mu = X.mean(axis=0)
    sd = np.sqrt(np.mean((X - mu) ** 2, axis=0))
    if np.any(sd <= 0):
        i = int(np.argmax(sd <= 0))
        raise ValueError(f"constant column: {panel.tickers[i]}")
    return ReturnsPanel(panel.dates, panel.tickers, (X - mu) / sd)
