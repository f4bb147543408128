"""Weight-space operators written straight from their definitions.

These are the plain ``np.triu_indices`` / ``np.add.at`` formulas that the
cached operators in ``marketgraph.laplacian`` must reproduce bit for bit.
"""

import numpy as np

from marketgraph.laplacian import node_count


def pair_indices(p):
    return np.triu_indices(p, k=1)


def laplacian_from_weights(w, p=None):
    w = np.asarray(w, dtype=float)
    if p is None:
        p = node_count(w.shape[0])
    L = np.zeros((p, p))
    L[np.triu_indices(p, k=1)] = -w
    L += L.T
    np.fill_diagonal(L, -L.sum(axis=1))
    return L


def laplacian_adjoint(M):
    M = np.asarray(M, dtype=float)
    d = np.diag(M)
    iu, ju = np.triu_indices(M.shape[0], k=1)
    return d[iu] + d[ju] - M[iu, ju] - M[ju, iu]


def degrees_from_weights(w, p=None):
    w = np.asarray(w, dtype=float)
    if p is None:
        p = node_count(w.shape[0])
    iu, ju = np.triu_indices(p, k=1)
    d = np.zeros(p)
    np.add.at(d, iu, w)
    np.add.at(d, ju, w)
    return d


def dual_to_pairs(v):
    v = np.asarray(v, dtype=float)
    iu, ju = np.triu_indices(v.shape[0], k=1)
    return v[iu] + v[ju]


OPERATORS = {
    "pair_indices": pair_indices,
    "laplacian_from_weights": laplacian_from_weights,
    "laplacian_adjoint": laplacian_adjoint,
    "degrees_from_weights": degrees_from_weights,
    "dual_to_pairs": dual_to_pairs,
}


def bitwise_equal(a, b) -> bool:
    """Equal values, shapes and signs of zero."""
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.shape == b.shape
        and np.array_equal(a, b)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )
