"""Weight-vector and Laplacian algebra shared by every estimator.

A graph on p nodes is represented by a vector ``w`` of length p(p-1)/2
holding nonnegative edge weights in row-major pair order over (i, j),
i < j: (0,1), (0,2), ..., (0,p-1), (1,2), ...  This ordering is fixed
package-wide; ``pair_indices`` is the single source of truth for it.  The
index data of each p (pair rows and columns, their flat offsets into a
p-by-p matrix, and the node of each pair end) is built once, cached and
read-only, so the weight-space maps below are plain gathers and scatters.

The combinatorial Laplacian of a weight vector is L = D - W with
D = Diag(W 1).  L is symmetric positive semidefinite, has zero row sums,
non-positive off-diagonal entries, and the constant vector in its null
space; the multiplicity of its zero eigenvalue equals the number of graph
components.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "DisconnectedGraphWarning",
    "SpectralSummary",
    "degrees_from_weights",
    "dual_to_pairs",
    "edge_indices",
    "laplacian_adjoint",
    "laplacian_from_weights",
    "log_gdet",
    "node_count",
    "num_components",
    "pair_count",
    "pair_indices",
    "spectral_summary",
    "time_consistency",
    "validate_laplacian",
    "weights_from_laplacian",
    "zero_eigenvalue_tolerance",
]


class DisconnectedGraphWarning(UserWarning):
    """Raised as a warning when an operation that assumes a connected graph
    encounters spectral nullity greater than one."""


def pair_count(p: int) -> int:
    """Number of unordered node pairs of a p-node graph."""
    if p < 2:
        raise ValueError(f"need at least 2 nodes, got p={p}")
    return p * (p - 1) // 2


def node_count(m: int) -> int:
    """Node count p such that a weight vector of length m fits p(p-1)/2."""
    p = int(round((1.0 + math.sqrt(1.0 + 8.0 * m)) / 2.0))
    if p < 2 or p * (p - 1) // 2 != m:
        raise ValueError(f"weight vector length {m} is not p(p-1)/2 for any integer p >= 2")
    return p


@dataclass(frozen=True)
class _Pairs:
    """Read-only index data of the p-node pair order."""

    iu: np.ndarray  # row i of pair m
    ju: np.ndarray  # column j of pair m
    upper: np.ndarray  # flat offset i*p + j of pair m in a p-by-p matrix
    lower: np.ndarray  # flat offset j*p + i
    nodes: np.ndarray  # [iu, ju]: the node of each pair end


@lru_cache(maxsize=64)
def _pairs(p: int) -> _Pairs:
    iu, ju = np.triu_indices(p, k=1)
    pairs = _Pairs(iu, ju, iu * p + ju, ju * p + iu, np.concatenate([iu, ju]))
    for a in vars(pairs).values():
        a.flags.writeable = False
    return pairs


def pair_indices(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/column indices of the upper triangle in package pair order.

    The arrays are built once per p, cached and read-only; copy them
    before writing.
    """
    pairs = _pairs(p)
    return pairs.iu, pairs.ju


def laplacian_from_weights(w: np.ndarray, p: int | None = None) -> np.ndarray:
    """Map a weight vector to the combinatorial Laplacian L = D - W.

    Off-diagonal entries are -w for the corresponding pair; the diagonal
    carries the node degrees so that row sums vanish.  Symmetry is exact by
    construction; row sums vanish to machine precision.
    """
    w = np.asarray(w, dtype=float)
    if p is None:
        p = node_count(w.shape[0])
    elif w.shape[0] != pair_count(p):
        raise ValueError(f"weight vector length {w.shape[0]} does not match p={p}")
    L = np.zeros(p * p)
    L[_pairs(p).upper] = -w
    L = L.reshape(p, p)
    L += L.T
    np.fill_diagonal(L, -L.sum(axis=1))
    return L


def weights_from_laplacian(L: np.ndarray) -> np.ndarray:
    """The weights max(-L_ij, 0) of a Laplacian: the one reading of weights off a matrix.

    The one Laplacian rule: rejects a matrix that is not symmetric, or has a
    nonzero row sum or a positive off-diagonal entry, each beyond 1e-6.
    Smaller positive off-diagonal entries (round-off) get zero weight.
    """
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError("Laplacian must be a square matrix")
    off = L[pair_indices(L.shape[0])]
    for flaw, size in (("not symmetric: max |L - L^T|", np.abs(L - L.T).max()),
                       ("nonzero row sums: max |L 1|", np.abs(L.sum(axis=1)).max()),
                       ("positive off-diagonal entry: max L_ij", off.max(initial=0.0))):
        if size > 1e-6:
            raise ValueError(f"not a Laplacian: {flaw} = {size:.3e} > 1.0e-06")
    return np.maximum(-off, 0.0)


def edge_indices(w: np.ndarray) -> np.ndarray:
    """The pairs that count as edges: weight > 1e-4 times the largest weight."""
    return np.flatnonzero(w > 1e-4 * (w.max() if w.size else 0.0))


def degrees_from_weights(w: np.ndarray, p: int | None = None) -> np.ndarray:
    """Node degrees d_i = sum of weights incident to node i."""
    w = np.asarray(w, dtype=float)
    if p is None:
        p = node_count(w.shape[0])
    # bincount adds in input order: every pair through its row end, then
    # through its column end
    return np.bincount(_pairs(p).nodes, weights=np.concatenate([w, w]), minlength=p)


def dual_to_pairs(v: np.ndarray) -> np.ndarray:
    """Adjoint of the degree operator: (B^T v)_m = v_i + v_j for pair m=(i,j)."""
    v = np.asarray(v, dtype=float)
    pairs = _pairs(v.shape[0])
    return v[pairs.iu] + v[pairs.ju]


def laplacian_adjoint(M: np.ndarray) -> np.ndarray:
    """Adjoint of ``laplacian_from_weights``.

    For each pair m = (i, j) returns M_ii + M_jj - M_ij - M_ji, so that
    <laplacian_from_weights(w), M> = <w, laplacian_adjoint(M)>.
    """
    M = np.asarray(M, dtype=float)
    pairs = _pairs(M.shape[0])
    d = M.diagonal()
    flat = M.reshape(-1)  # row-major: a copy unless M is C-contiguous
    return d[pairs.iu] + d[pairs.ju] - flat[pairs.upper] - flat[pairs.lower]


def zero_eigenvalue_tolerance(eigenvalues: np.ndarray) -> float:
    """Scale-invariant threshold below which an eigenvalue counts as zero."""
    lam_max = float(eigenvalues[-1]) if len(eigenvalues) else 0.0
    return 1e-8 * max(1.0, lam_max)


@dataclass(frozen=True)
class SpectralSummary:
    """Sorted spectrum of a Laplacian with the derived connectivity facts."""

    eigenvalues: np.ndarray
    nullity: int
    algebraic_connectivity: float
    spectral_radius: float


def spectral_summary(L: np.ndarray) -> SpectralSummary:
    """Eigenvalues (ascending) plus nullity, Fiedler value and spectral radius.

    Eigenvalues up to the fixed 1e-8 * max(1, lambda_max) count as zero.
    The algebraic connectivity is the second smallest eigenvalue regardless
    of nullity: it is zero exactly when the graph is disconnected.
    """
    L = np.asarray(L, dtype=float)
    lam = np.linalg.eigvalsh(L)
    if lam.size < 2:
        raise ValueError(f"need at least 2 nodes, got p={lam.size}")
    nullity = int(np.count_nonzero(lam <= zero_eigenvalue_tolerance(lam)))
    return SpectralSummary(
        eigenvalues=lam,
        nullity=nullity,
        algebraic_connectivity=float(lam[1]),
        spectral_radius=float(lam[-1]),
    )


def num_components(L: np.ndarray) -> int:
    """Number of graph components: the count of eigenvalues <= 1e-8 * max(1, lambda_max)."""
    return spectral_summary(L).nullity


def log_gdet(L: np.ndarray) -> float:
    """Log pseudo-determinant: sum of logs of the eigenvalues above 1e-8 * max(1, lambda_max).

    For a connected graph this equals log det(L + (1/p) 11^T) because the
    rank-one correction fills exactly the constant-vector null direction
    and leaves all other eigenvalues untouched.  A disconnected input
    (nullity > 1) is signalled with :class:`DisconnectedGraphWarning`; the
    caller decides whether that is fatal.
    """
    spec = spectral_summary(L)
    if spec.nullity > 1:
        warnings.warn(
            f"graph has {spec.nullity} components; pseudo-determinant taken over "
            "positive eigenvalues only",
            DisconnectedGraphWarning,
            stacklevel=2,
        )
    # ascending spectrum: the entries past the nullity are those above the tolerance
    return float(np.sum(np.log(spec.eigenvalues[spec.nullity:])))


def time_consistency(L_a: np.ndarray, L_b: np.ndarray) -> float:
    """Squared Frobenius distance between two Laplacians of equal size."""
    L_a = np.asarray(L_a, dtype=float)
    L_b = np.asarray(L_b, dtype=float)
    if L_a.shape != L_b.shape:
        raise ValueError(f"shape mismatch: {L_a.shape} vs {L_b.shape}")
    diff = L_a - L_b
    return float(np.sum(diff * diff))


def validate_laplacian(L: np.ndarray) -> None:
    """Assert the Laplacian invariants; raise ValueError on violation.

    Checks symmetry (exact), row sums within a fixed 1e-9, off-diagonal
    entries <= 1e-12, and smallest eigenvalue >= -1e-9.
    """
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError("Laplacian must be a square matrix")
    if not np.array_equal(L, L.T):
        raise ValueError("Laplacian is not exactly symmetric")
    row = np.abs(L.sum(axis=1)).max()
    if row > 1e-9:
        raise ValueError(f"row sums violate L1=0: max residual {row:.3e}")
    off = L[pair_indices(L.shape[0])]
    if off.size and off.max() > 1e-12:
        raise ValueError(f"positive off-diagonal entry {off.max():.3e}")
    lam_min = float(np.linalg.eigvalsh(L)[0])
    if lam_min < -1e-9:
        raise ValueError(f"matrix is not PSD: smallest eigenvalue {lam_min:.3e}")
