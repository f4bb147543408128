#!/usr/bin/env python3
"""Cluster assets into k groups by learning a k-component graph.

Builds stock-like returns with three sector factors (positive
within-sector correlation, as in real equity data), then learns a
3-component graph with unit node degrees and reads the clusters off the
estimated components.  Degree control is what keeps every node attached
to a cluster; a pure rank constraint would happily isolate nodes.
"""

import numpy as np

from marketgraph import SolverConfig, SimilarityMatrix, learn_k_component
from marketgraph.laplacian import num_components, pair_indices


def sector_returns(p_per_sector=5, sectors=3, n=750, seed=7):
    rng = np.random.default_rng(seed)
    p = p_per_sector * sectors
    market = 0.010 * rng.standard_normal(n)
    out = np.empty((n, p))
    labels = []
    for s in range(sectors):
        factor = 0.008 * rng.standard_normal(n)
        for i in range(p_per_sector):
            beta = rng.uniform(0.9, 1.1)
            gamma = rng.uniform(0.8, 1.2)
            noise = 0.004 * rng.standard_normal(n)
            out[:, s * p_per_sector + i] = beta * market + gamma * factor + noise
            labels.append(f"S{s}{chr(ord('A') + i)}")
    return out, labels


def main():
    X, labels = sector_returns()
    C = np.corrcoef(X, rowvar=False)
    S = SimilarityMatrix(entries=(C + C.T) / 2.0, kind="correlation")

    L, report = learn_k_component(S, SolverConfig(k=3, eta=10.0))
    print(f"converged: {report.converged}   components: {num_components(L)}"
          f"   max |degree-1|: {report.constraint_residuals['degree']:.1e}")

    # connected components of the estimated graph = recovered clusters
    p = L.shape[0]
    iu, ju = pair_indices(p)
    adjacency = [[] for _ in range(p)]
    for i, j in zip(iu, ju):
        if -L[i, j] > 1e-6:
            adjacency[i].append(j)
            adjacency[j].append(i)
    seen, clusters = set(), []
    for start in range(p):
        if start in seen:
            continue
        stack, comp = [start], []
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            comp.append(v)
            stack.extend(adjacency[v])
        clusters.append(sorted(comp))

    for ci, comp in enumerate(clusters):
        print(f"cluster {ci}: {' '.join(labels[v] for v in comp)}")


if __name__ == "__main__":
    main()
