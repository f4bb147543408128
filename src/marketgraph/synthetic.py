"""Planted-truth generators and recovery scoring.

Everything here is seed-deterministic: the same parameters and seed give
bit-identical output, so tests can freeze expected values.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

import numpy as np

from .laplacian import (
    edge_indices,
    laplacian_from_weights,
    pair_count,
    pair_indices,
    weights_from_laplacian,
    zero_eigenvalue_tolerance,
)
from .preprocessing import ReturnsPanel

__all__ = [
    "FactorMarketSim",
    "PlantedGraph",
    "RecoveryScore",
    "random_k_component_graph",
    "sample_gmrf",
    "score_recovery",
    "simulate_factor_market",
]

_BASE_DATE = datetime.date(2020, 1, 1)


def _calendar(n: int) -> tuple[datetime.date, ...]:
    return tuple(_BASE_DATE + datetime.timedelta(days=i) for i in range(n))


def _tickers(p: int) -> tuple[str, ...]:
    width = max(2, len(str(p - 1)))
    return tuple(f"A{i:0{width}d}" for i in range(p))


def _check_sizes(p: int, n: int) -> None:
    if p < 1:
        raise ValueError(f"need at least 1 asset, got p={p}")
    if n < 1:
        raise ValueError(f"need at least 1 sample, got n={n}")


@dataclass(frozen=True)
class PlantedGraph:
    """Ground-truth graph: Laplacian, component count and edge support."""

    L_true: np.ndarray
    k_true: int
    edge_support: frozenset[tuple[int, int]]
    weights: np.ndarray
    node_groups: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class RecoveryScore:
    """Support-recovery metrics of an estimate against a planted graph."""

    f_score: float
    precision: float
    recall: float
    relative_error: float


def random_k_component_graph(
    p: int,
    k: int,
    weight_range: tuple[float, float] = (1.0, 3.0),
    seed: int = 0,
    sizes: tuple[int, ...] | None = None,
    extra_edge_prob: float = 0.3,
) -> PlantedGraph:
    """Random graph with exactly k connected components.

    Nodes are split into k balanced groups (or the k explicit ``sizes``).
    Each group gets a uniform random spanning tree plus extra in-group
    edges with probability ``extra_edge_prob``; weights are uniform in
    ``weight_range``.
    """
    if k < 1:
        raise ValueError(f"component count k must be at least 1, got k={k}")
    if k > p // 2:
        raise ValueError(f"k={k} components need at least 2 nodes each (p={p})")
    lo, hi = weight_range
    if not (0 < lo <= hi):
        raise ValueError("weight_range must be a positive interval")
    if not 0.0 <= extra_edge_prob <= 1.0:
        raise ValueError(f"extra_edge_prob must be a probability in [0, 1], got {extra_edge_prob}")
    if sizes is None:
        base = p // k
        sizes = tuple(base + (1 if i < p % k else 0) for i in range(k))
    if len(sizes) != k:
        raise ValueError(f"{len(sizes)} group sizes given for k={k} components")
    if sum(sizes) != p or any(s < 2 for s in sizes):
        raise ValueError("group sizes must cover all p nodes with >= 2 nodes each")

    rng = np.random.default_rng(seed)
    m = pair_count(p)
    iu, ju = pair_indices(p)
    index_of = {(int(i), int(j)): idx for idx, (i, j) in enumerate(zip(iu, ju))}

    w = np.zeros(m)
    groups = []
    start = 0
    for size in sizes:
        nodes = list(range(start, start + size))
        start += size
        groups.append(tuple(nodes))
        order = rng.permutation(nodes)
        in_tree = set()
        for pos in range(1, size):
            a = int(order[pos])
            b = int(order[rng.integers(0, pos)])
            in_tree.add((min(a, b), max(a, b)))
        for edge in in_tree:
            w[index_of[edge]] = rng.uniform(lo, hi)
        for ai in range(size):
            for bi in range(ai + 1, size):
                edge = (nodes[ai], nodes[bi])
                if edge in in_tree:
                    continue
                if rng.random() < extra_edge_prob:
                    w[index_of[edge]] = rng.uniform(lo, hi)

    L = laplacian_from_weights(w, p)
    support = frozenset(
        (int(i), int(j)) for i, j, wv in zip(iu, ju, w) if wv > 0
    )
    return PlantedGraph(
        L_true=L,
        k_true=k,
        edge_support=support,
        weights=w,
        node_groups=tuple(groups),
    )


def sample_gmrf(L: np.ndarray, n: int, seed: int = 0) -> ReturnsPanel:
    """Draw n i.i.d. samples x ~ N(0, pseudoinverse(L)).

    The null space of L carries zero variance, so every sample sums to
    zero over each graph component.
    """
    L = np.asarray(L, dtype=float)
    p = L.shape[0]
    _check_sizes(p, n)
    lam, U = np.linalg.eigh(L)
    tol = zero_eigenvalue_tolerance(lam)
    g = np.where(lam > tol, 1.0 / np.sqrt(np.where(lam > tol, lam, 1.0)), 0.0)
    A = (U * g) @ U.T
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p)) @ A
    return ReturnsPanel(dates=_calendar(n), tickers=_tickers(p), returns=X)


@dataclass(frozen=True)
class FactorMarketSim:
    """Single-factor market simulation with regime-switching residual correlation."""

    returns: ReturnsPanel
    market: np.ndarray
    residuals: ReturnsPanel
    beta: np.ndarray
    regime_boundaries: tuple[int, ...]  # first row index of each regime after the first
    regime_levels: tuple[float, ...]


def simulate_factor_market(
    p: int,
    n: int,
    beta_range: tuple[float, float] = (0.8, 1.2),
    regimes: tuple[tuple[int, float], ...] | None = None,
    seed: int = 0,
    market_vol: float = 0.01,
    residual_vol: float = 0.01,
) -> FactorMarketSim:
    """Simulate returns x_t = beta * market_t + eps_t.

    ``regimes`` is a sequence of (length, residual_correlation) segments;
    within each segment the idiosyncratic residuals are equicorrelated at
    the given level.  Defaults to a single segment of length n at 0.2.
    """
    _check_sizes(p, n)
    if regimes is None:
        regimes = ((n, 0.2),)
    lengths = [int(length) for length, _ in regimes]
    levels = [float(c) for _, c in regimes]
    for i, length in enumerate(lengths):
        if length < 1:
            raise ValueError(f"regime {i} has length {length}; every regime needs at least one row")
    if sum(lengths) != n:
        raise ValueError(f"regime lengths sum to {sum(lengths)}, expected n={n}")
    if any(not 0.0 <= c < 1.0 for c in levels):
        raise ValueError("residual correlation levels must lie in [0, 1)")
    if not beta_range[0] <= beta_range[1]:
        raise ValueError(f"beta_range must run from low to high, got {tuple(beta_range)}")

    rng = np.random.default_rng(seed)
    beta = rng.uniform(beta_range[0], beta_range[1], size=p)
    market = market_vol * rng.standard_normal(n)

    eps = np.empty((n, p))
    row = 0
    for length, c in zip(lengths, levels):
        common = rng.standard_normal(length)
        idio = rng.standard_normal((length, p))
        eps[row : row + length] = residual_vol * (
            np.sqrt(c) * common[:, None] + np.sqrt(1.0 - c) * idio
        )
        row += length

    X = np.outer(market, beta) + eps
    dates = _calendar(n)
    tickers = _tickers(p)
    boundaries = tuple(np.cumsum(lengths)[:-1].tolist())
    return FactorMarketSim(
        returns=ReturnsPanel(dates, tickers, X),
        market=market,
        residuals=ReturnsPanel(dates, tickers, eps),
        beta=beta,
        regime_boundaries=boundaries,
        regime_levels=tuple(levels),
    )


def score_recovery(L_hat: np.ndarray, planted: PlantedGraph) -> RecoveryScore:
    """Edge-support precision/recall/F-score plus relative Frobenius error.

    ``L_hat`` must be a Laplacian (see
    :func:`~marketgraph.laplacian.weights_from_laplacian`).  An estimated
    edge counts as :func:`~marketgraph.laplacian.edge_indices` says: its
    weight exceeds a fixed 1e-4 times the largest estimated weight, the
    rule that also picks the rows of the CLI's ``edges.csv``.
    """
    L_hat = np.asarray(L_hat, dtype=float)
    if L_hat.shape != planted.L_true.shape:
        raise ValueError("estimate and planted graph have different sizes")
    iu, ju = pair_indices(L_hat.shape[0])
    predicted = {(int(iu[m]), int(ju[m])) for m in edge_indices(weights_from_laplacian(L_hat))}
    truth = planted.edge_support
    tp = len(predicted & truth)
    precision = tp / len(predicted) if predicted else 0.0
    recall = tp / len(truth) if truth else 0.0
    f_score = (
        2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    )
    rel = float(
        np.linalg.norm(L_hat - planted.L_true) / max(np.linalg.norm(planted.L_true), 1e-300)
    )
    return RecoveryScore(
        f_score=f_score, precision=precision, recall=recall, relative_error=rel
    )
