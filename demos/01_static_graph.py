#!/usr/bin/env python3
"""Estimate one static market graph two ways and compare their spectra.

Simulates a single-factor market, builds the sample correlation matrix,
then fits (a) the penalized maximum-likelihood Laplacian and (b) the
smooth-signal baseline with a log-degree barrier, and prints the strongest
edges and the spectral summary of each.
"""

import numpy as np

from marketgraph import (
    SolverConfig,
    correlation_from_covariance,
    distance_matrix,
    learn_connected_mle,
    learn_smooth_graph,
    normalize_columns,
    sample_covariance,
    simulate_factor_market,
    spectral_summary,
)
from marketgraph.laplacian import pair_indices, weights_from_laplacian


def strongest_edges(L, tickers, top=6):
    iu, ju = pair_indices(L.shape[0])
    w = weights_from_laplacian(L)
    order = np.argsort(w)[::-1][:top]
    return [(tickers[iu[m]], tickers[ju[m]], w[m]) for m in order]


def describe(name, L, tickers):
    s = spectral_summary(L)
    print(f"\n{name}")
    print(f"  components: {s.nullity}   lambda_2: {s.algebraic_connectivity:.4f}"
          f"   lambda_max: {s.spectral_radius:.4f}")
    for a, b, w in strongest_edges(L, tickers):
        print(f"  {a} -- {b}   weight {w:.4f}")


def main():
    sim = simulate_factor_market(8, 250, beta_range=(0.8, 1.2),
                                 regimes=((250, 0.35),), seed=42)
    returns = sim.returns
    print(f"simulated {returns.n} days of returns for {returns.p} assets")

    S = correlation_from_covariance(sample_covariance(returns))
    L_mle, report = learn_connected_mle(S, SolverConfig())
    describe(f"penalized MLE ({report.iterations} iterations)", L_mle, returns.tickers)

    Z = distance_matrix(normalize_columns(returns))
    L_smooth, report = learn_smooth_graph(Z, SolverConfig(alpha=1.0, gamma=1.0))
    describe(f"smooth-signal baseline ({report.iterations} iterations)", L_smooth, returns.tickers)


if __name__ == "__main__":
    main()
