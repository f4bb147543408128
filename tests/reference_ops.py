"""Reference implementations the fast paths must reproduce bit for bit.

The weight-space operators are the plain ``np.triu_indices`` /
``np.add.at`` formulas behind the cached operators in
``marketgraph.laplacian``; ``eager_spg`` is the projected-gradient kernel
with the gradient computed at every objective evaluation, stepping along
the kernel's own ``_model_direction`` (a dense solve checks that one).  ``log_gdet`` is
the eigenvalue oracle of the ``log det(L + 11^T/p)`` the solvers evaluate.
"""

import warnings

import numpy as np

from marketgraph import solvers
from marketgraph.laplacian import DisconnectedGraphWarning, node_count, spectral_summary


def pair_indices(p):
    return np.triu_indices(p, k=1)


def laplacian_from_weights(w, p=None):
    w = np.asarray(w, dtype=float)
    if p is None:
        p = node_count(w.shape[0])
    L = np.zeros((p, p))
    L[np.triu_indices(p, k=1)] = -w
    L += L.T
    np.fill_diagonal(L, 0.0 - L.sum(axis=1))  # an edgeless node's 0.0, not -0.0
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


def log_gdet(L):
    """Log pseudo-determinant: sum of logs of the eigenvalues above 1e-8 * max(1, lambda_max).

    For a connected graph this equals log det(L + (1/p) 11^T) because the
    rank-one correction fills exactly the constant-vector null direction
    and leaves all other eigenvalues untouched.  A disconnected input
    (nullity > 1) is signalled with :class:`DisconnectedGraphWarning`.
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


def eager_spg(fun, w0, tol):
    """``marketgraph.solvers._spg`` with the gradient computed on every call.

    ``fun(w)`` returns ``(value, grad)`` as for the solvers' kernel, but
    here ``grad()`` runs right after every evaluation with a finite value,
    and a None from it turns the value into +inf.  That is the cost profile
    of an objective that returns its gradient eagerly; the iterates, values
    and return tuple must be the kernel's bit for bit.  ``grad()`` returns
    ``(g, h, beta)``: block b of the model metric, which sets the direction
    and the BB step, is ``diag(h_b) + beta[b] B^T B``.
    """

    def evaluate(w):
        f, grad = fun(w)
        if not np.isfinite(f):
            return np.inf, None
        out = grad()
        if out is None:
            return np.inf, None
        return f, out

    w = np.asarray(w0, dtype=float).copy()
    f, model = evaluate(w)
    if not np.isfinite(f):
        raise ValueError("infeasible starting point for projected gradient")
    g, h, beta = model
    eff_tol = tol * max(1.0, float(np.abs(g).max()))
    trace, step = [f], None
    for it in range(1, solvers._INNER_MAX_ITERS + 1):
        resid = np.where(w > 0.0, g, np.minimum(g, 0.0))
        if np.abs(resid).max() <= eff_tol:
            return w, f, g, it - 1, True, trace
        d = solvers._model_direction(w, g, h, beta)  # the kernel's own direction
        if step is None:
            step = 1.0 / max(1.0, float(np.abs(d).max()))
        t = step
        accepted = False
        for _ in range(60):
            w_new = np.maximum(w - t * d, 0.0)
            dw = w_new - w
            gd = float(g @ dw)
            if gd > 0.0 or not dw.any():
                t *= 0.5
                continue
            f_new, model = evaluate(w_new)
            if np.isfinite(f_new) and f_new <= f + 1e-4 * gd + solvers._ROUNDING_BAND * abs(f):
                accepted = True
                break
            t *= 0.5
        if not accepted:
            return w, f, g, it, False, trace
        g_new, h, beta = model
        s = w_new - w
        y = g_new - g
        sy = float(s @ y)
        Ps = h * s
        for b, blk in enumerate(np.split(np.arange(len(s)), len(beta))):
            if beta[b]:
                Ps[blk] += beta[b] * dual_to_pairs(degrees_from_weights(s[blk]))
        step = float(s @ Ps) / sy if sy > 1e-16 else step * 2.0
        step = min(max(step, 1e-13), 1e13)
        w, f, g = w_new, f_new, g_new
        trace.append(f)
    return w, f, g, solvers._INNER_MAX_ITERS, False, trace
