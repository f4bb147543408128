"""Graph estimators under the attractive improper GMRF model.

Four entry points:

* :func:`learn_connected_mle` -- penalized maximum-likelihood Laplacian
  estimation over the full Laplacian constraint set.
* :func:`learn_smooth_graph` -- the convex smooth-signal baseline with a
  log-degree barrier and Frobenius regularizer.
* :func:`learn_k_component` -- alternating minimization that drives the k
  smallest eigenvalues to zero while fixing every node degree to one.
* :func:`learn_time_varying` -- causal sequence estimation with a squared
  Frobenius coupling between consecutive graphs.

All solvers optimize over the nonnegative edge-weight vector, so symmetry,
zero row sums and the off-diagonal sign constraint hold by construction;
the only inequality left is w >= 0, handled by a spectral projected
gradient (SPG) kernel with an Armijo line search, monotone up to a
rounding band, which steps in the metric of the model Hessian every
objective supplies.  Degree equality constraints are enforced by an
augmented Lagrangian around that kernel, whose dual rounds run SPG only
as tightly as the current degree residual warrants and end on a round at
the full tolerance.

The MLE, the degree-constrained step of the k-component solver and each
window of the time-varying solver minimize one penalized Gaussian
likelihood over weight blocks w_0, ..., w_{B-1} (one per graph of the
window, else one), built by :func:`_likelihood`:

    sum_b s_b [c_b @ w_b - log det(L(w_b) + N)]       every solver
      + y @ r + (rho/2) ||r||^2,  r = deg(w) - 1       degree AL (k-component)
      + coupling * sum_b ||L(w_b) - L(w_{b-1})||_F^2   time-varying window

where c_b = L^*(K_b) + 2 alpha, so c_b @ w_b = tr(L(w_b) K_b) + alpha
||L(w_b)||_off,1.  The smooth baseline has no log-determinant and keeps
its own objective.

Every objective returns its value and a zero-argument closure for the
gradient and the model Hessian (see :func:`_spg`).  The Armijo test needs
the value alone, and it rejects most trial points, so the value costs one
Laplacian build and one Cholesky log-determinant while the closure holds
the rest: the inverse, the adjoints and the penalty gradients.  SPG calls
it only where it needs the gradient, at the start point and at an
accepted step.

The log pseudo-determinant of a connected-graph Laplacian is evaluated as
log det(L + (1/p) 11^T): the rank-one correction N spans the constant null
direction and leaves the positive spectrum untouched.  The k-component
solver generalizes the correction to the current spectral subspace so the
bottom eigenvalues can reach exactly zero with a finite objective.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .laplacian import (
    DisconnectedGraphWarning,
    degrees_from_weights,
    dual_to_pairs,
    laplacian_adjoint,
    laplacian_from_weights,
    num_components,
    pair_count,
    pair_indices,
    weights_from_laplacian,
)
from .preprocessing import _check_similarity

__all__ = [
    "SolveReport",
    "SolverConfig",
    "fan_subspace",
    "learn_connected_mle",
    "learn_k_component",
    "learn_smooth_graph",
    "learn_time_varying",
    "solve_l_subproblem",
]


_INNER_MAX_ITERS = 20_000  # SPG iterations per call
# dual rounds of solve_l_subproblem, alternations of learn_k_component
_MAX_OUTER_ITERS = 300
_OUTER_TOL = 1e-5  # learn_k_component stops once L moves less (relative)
# solve_l_subproblem's SPG tolerance per dual round: _AL_TOL_RATIO times the
# previous round's degree residual, clipped to [inner_tol, _AL_TOL_CAP]
_AL_TOL_CAP = 1e-3
_AL_TOL_RATIO = 1e-2
_SEED_TOL = 1e-1  # inner_tol of learn_k_component's seed, a loose connected MLE
_DEGREE_TOL = 1e-7  # max |deg - 1| of a converged L-step, tighter than the 1e-6 exit contract
# an SPG trial may pass the Armijo test this far (relative to |f|) above the current value
_ROUNDING_BAND = 1e-10


def _is_count(value) -> bool:
    """An integer of at least 1, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters shared by all solvers.

    ``inner_tol`` is the KKT tolerance of every SPG call, in the model
    metric (see :func:`_spg`), save the early dual rounds of
    :func:`solve_l_subproblem`, which run looser, and the seed of
    :func:`learn_k_component`, a connected MLE solved to ``_SEED_TOL``.
    ``alpha`` is the sparsity weight of the MLE penalty, in the MLE and in
    every time-varying window, and for the smooth baseline
    the log-degree barrier weight; the k-component solver leaves it out, as
    unit degrees fix sum(w) = p/2 and make it a constant.  ``gamma`` is the
    Frobenius weight of the smooth baseline, ``eta`` the spectral (rank)
    penalty and ``k`` the component count of the k-component solver,
    ``delta`` the temporal coupling weight and ``memory`` the joint-history
    length of the time-varying solver.  ``alpha``, ``eta``, ``gamma`` and
    ``delta`` must be nonnegative and finite (NaN is rejected too),
    ``inner_tol`` positive and finite, ``k`` and ``memory`` integers >= 1.
    """

    inner_tol: float = 1e-7
    eta: float = 10.0
    alpha: float = 0.0
    gamma: float = 1.0
    delta: float = 100.0
    k: int = 1
    memory: int = 1

    def __post_init__(self):
        if not 0.0 < self.inner_tol < math.inf:
            raise ValueError(f"tolerance inner_tol must be positive and finite, got {self.inner_tol}")
        for name, value in (("component count k", self.k), ("memory", self.memory)):
            if not _is_count(value):
                raise ValueError(f"{name} must be an integer of at least 1, got {value}")
        for name, value in (("sparsity weight alpha", self.alpha), ("rank-penalty weight eta", self.eta),
                            ("Frobenius weight gamma", self.gamma), ("temporal weight delta", self.delta)):
            if not value >= 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
            if value == math.inf:
                raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class SolveReport:
    """What a solve measured; graph facts such as the component count are read off L.

    ``constraint_residuals`` holds max |L 1| (``row_sum``) and, for the
    degree-constrained solvers, max |deg - 1| (``degree``).
    ``objective_trace`` is the SPG trace for the MLE, the smooth baseline
    and each time-varying window; ``tr(LK) - log det(L + N)`` after each
    dual round for :func:`solve_l_subproblem`; for :func:`learn_k_component`
    the relaxed objective after its first full L-step, then before and after
    every later one (never at its seed, a degree-infeasible loose MLE).
    """

    iterations: int
    objective_trace: np.ndarray
    constraint_residuals: dict[str, float]
    converged: bool
    eigengap_degenerate: bool


def _chol_logdet(A: np.ndarray) -> float | None:
    """log det of a symmetric matrix via Cholesky; None when not PD."""
    try:
        C = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return None
    return 2.0 * float(np.log(C.diagonal()).sum())


def _likelihood(cs, N, scales=(1.0,), anchor=None, coupling=0.0, dual=None, rho=0.0):
    """The objective ``fun(w) -> (value, grad)`` of the module docstring.

    ``w`` stacks one block per cost vector in ``cs``, scaled by ``scales``;
    the value is +inf where an ``L(w_b) + N`` is not PD.  The degree AL term
    (one block only) joins when ``dual`` (the multiplier ``y``) is given,
    and the coupling over the chain ``anchor, L(w_0), L(w_1), ...`` when
    ``coupling`` is nonzero.  ``grad()`` inverts each ``L(w_b) + N`` once,
    applies the adjoints and adds the penalty gradients; it returns None
    when ``inv`` fails.

    ``grad()`` returns ``(g, h, beta)``: the gradient and the model Hessian
    P that :func:`_spg` steps in, block b ``diag(h_b) + beta[b] B^T B`` (B
    the p-by-m degree operator).  As ``||L(w)||_F^2 = w^T (2 I + B^T B) w``,
    the coupling's Hessian is ``T kron 2 kappa (2 I + B^T B)`` (kappa =
    ``coupling``), T the path Laplacian of the chain with the anchor fixed.
    P keeps its diagonal blocks (block Jacobi, ``T_bb = n_b``), the AL
    term's ``rho B^T B`` and the diagonal ``R_e^2 = (a_e^T inv(L + N)
    a_e)^2`` of ``-log det(L + N)``: ``h_b = s_b R_b*R_b + 4 kappa n_b`` and
    ``beta[b] = 2 kappa n_b + rho``, exact on both penalties for one block.
    Where some R_e cancels to 0 (``L + N`` numerically singular) the model
    would divide by zero, and ``grad()`` returns the unit metric, ``h =
    1.0`` and every ``beta[b] = 0``.
    """
    m, blocks = len(cs[0]), len(cs)
    # n_b, the coupling terms block b is in: L_b - L_{b-1} (at b = 0 only with an anchor), L_{b+1} - L_b
    links = [((b > 0 or anchor is not None) + (b < blocks - 1)) if coupling else 0 for b in range(blocks)]
    beta = [2.0 * coupling * n + (rho if dual is not None else 0.0) for n in links]

    def fun(w):
        As, diffs, f, prev = [], [], 0.0, anchor
        for b, (c, scale) in enumerate(zip(cs, scales)):
            wb = w[b * m : (b + 1) * m]
            L = laplacian_from_weights(wb)
            A = L + N
            logdet = _chol_logdet(A)
            if logdet is None or not math.isfinite(logdet):  # np.isfinite: ~1 us per call
                return np.inf, None
            f += scale * (float(c @ wb) - logdet)
            if coupling and prev is not None:
                diffs.append(L - prev)
            As.append(A)
            prev = L
        if dual is not None:
            r = degrees_from_weights(w) - 1.0
            # not f += ...: the order of this sum is part of the results
            f = f + float(dual @ r) + 0.5 * rho * float(r @ r)
        for D in diffs:
            f += coupling * float((D * D).sum())

        def grad():
            try:
                R = [laplacian_adjoint(np.linalg.inv(A)) for A in As]  # R_e = a_e^T inv(A) a_e
            except np.linalg.LinAlgError:
                return None
            G = [scale * (c - Rb) for c, scale, Rb in zip(cs, scales, R)]
            if dual is not None:
                G[0] += dual_to_pairs(dual + rho * r)
            for j, D in enumerate(diffs, start=len(As) - len(diffs)):  # D = L_j - L_{j-1}
                gD = 2.0 * coupling * laplacian_adjoint(D)
                G[j] += gD
                if j > 0:
                    G[j - 1] -= gD
            g = G[0] if blocks == 1 else np.concatenate(G)
            hs = [scale * Rb * Rb + 4.0 * coupling * n for scale, Rb, n in zip(scales, R, links)]
            h = hs[0] if blocks == 1 else np.concatenate(hs)
            if not h.min() > 0.0:  # R_e cancelled to 0: no model here, so the unit metric
                return g, 1.0, [0.0] * blocks
            return g, h, beta

        return f, grad

    return fun


def _spg(fun, w0: np.ndarray, tol: float):
    """Projected gradient over the nonnegative orthant with BB steps in a model metric.

    ``fun(w)`` returns ``(value, grad)``, where ``grad()`` computes the
    gradient at ``w`` or returns None where it cannot; a value of +inf marks
    an infeasible point.  The Armijo test reads the value alone, so
    ``grad()`` runs only at the start point and at a trial point that
    passes the test.  A None there rejects the trial just as an infeasible
    value does (the line search backs off), so the iterates are the same
    floats as with a gradient computed on every call.

    ``grad()`` returns ``(g, h, beta)``, the gradient and a model Hessian
    P with block ``diag(h_b) + beta[b] B^T B`` on the b-th of ``len(beta)``
    equal slices of w (see :func:`_likelihood`).  The step is then the
    two-metric scaled gradient projection (Bertsekas 1982; Bonettini,
    Zanella & Zanni 2009): on the active set (``w = 0`` and ``g > 0``) the
    direction is ``d = g / h``, on the free set F it is ``P_FF^{-1} g_F``
    (:func:`_model_direction`), and a trial is ``max(w - t d, 0)``.  A
    trial that is no descent step (``g @ (w_new - w) > 0``) is halved
    without an evaluation.  The BB step is measured in the model metric at
    the new point, ``s^T P s / s^T y``.  Where the coupling dominates the
    log-det curvature, as in the rolling ``learn-tv`` windows, the unit
    metric is badly conditioned: the model cut the SPG iterations 12,651
    -> 1,821 on the benchmark's 400 such windows, and 28,781 -> 5,380 on
    200 windows of two graphs (``memory=2``).  The unit metric, ``h =
    1.0`` and every ``beta[b] = 0``, steps along ``g`` bit for bit.

    A trial passes the Armijo test ``f_new <= f + 1e-4 g @ (w_new - w) +
    _ROUNDING_BAND |f|`` against the current value f.  Near the minimum
    the predicted decrease falls below the rounding of f, and a plain
    monotone test (band 0) halves its way to the trial cap there (Hager &
    Zhang 2005): on the 41 rolling windows of ``tests/test_solvers.py``'s
    evaluation budget it took 2,038 evaluations at ``memory=2``, against
    1,783 with the band.  So the trace can rise between entries, though by
    at most ``_ROUNDING_BAND`` times |f| per step; solvers that promise
    monotone descent do so on their own outer trace, as the k-component
    alternation does (acceptance criterion C6).

    Terminates when the KKT residual r -- the gradient on free coordinates,
    clipped to its negative part on active ones -- measured in the model
    metric falls to ``tol``: ``max_e |r_e| / sqrt(h_e) <= tol``.  For the
    likelihood ``h_e = s_b R_e^2 (+ 4 kappa n_b)``, so ``|g_e| / R_e`` is the
    relative residual of the optimality condition ``c_e = R_e``; under
    ``S -> c S`` g scales by c and h by c^2, so the stop does not depend on
    the scale of the input (a daily-return covariance is about 1e-4).  In
    the unit metric it is the plain KKT residual.

    The first trial is the model step, ``t = 1``; the stop and the step
    read only the current point.  The kernel raises nothing: it returns
    unconverged after ``_INNER_MAX_ITERS`` iterations, after 60 halvings
    without a step, and at once (0 iterations, ``g = None``) from a start
    with no finite value or no gradient.

    Returns ``(w, f, g, iterations, converged, trace)``.
    """
    w = np.asarray(w0, dtype=float).copy()
    f, grad = fun(w)
    out = grad() if math.isfinite(f) else None
    trace, step = [f], 1.0
    if out is None:  # no value or no gradient at the start: nowhere to step from
        return w, f, None, 0, False, trace
    g, h, beta = out
    for it in range(1, _INNER_MAX_ITERS + 1):
        resid = np.where(w > 0.0, g, np.minimum(g, 0.0))
        if (np.abs(resid) / np.sqrt(h)).max() <= tol:
            return w, f, g, it - 1, True, trace
        d = _model_direction(w, g, h, beta)
        t = step
        accepted = False
        for _ in range(60):
            w_new = np.maximum(w - t * d, 0.0)
            dw = w_new - w
            gd = float(g @ dw)
            if gd > 0.0 or (gd == 0.0 and not dw.any()):  # a nonzero gd already means dw != 0
                # not a descent step, or the projection is a fixed point (the KKT
                # residual is above tol, so only if t underflowed): shrink and retry
                t *= 0.5
                continue
            f_new, grad = fun(w_new)
            if math.isfinite(f_new) and f_new <= f + 1e-4 * gd + _ROUNDING_BAND * abs(f):
                out = grad()
                if out is not None:
                    accepted = True
                    break
            t *= 0.5
        if not accepted:
            return w, f, g, it, False, trace
        g_new, h, beta = out
        # the BB pair (s, y) with s = dw, measured in the model metric at w_new
        sy = float(dw @ (g_new - g))
        ps, m = h * dw, len(dw) // len(beta)  # P s, block by block
        for b, beta_b in enumerate(beta):
            if beta_b:
                ps[b * m : (b + 1) * m] += beta_b * dual_to_pairs(degrees_from_weights(dw[b * m : (b + 1) * m]))
        step = float(dw @ ps) / sy if sy > 1e-16 else step * 2.0
        step = min(max(step, 1e-13), 1e13)
        w, f, g = w_new, f_new, g_new
        trace.append(f)
    return w, f, g, _INNER_MAX_ITERS, False, trace


def _model_direction(w, g, h, beta):
    """The SPG direction: ``P_FF^{-1} g_F`` on the free set F, ``g / h`` on the active set.

    P is a ``grad()``'s model Hessian, block ``diag(h_b) + beta[b] B^T B``
    on the b-th of ``len(beta)`` equal slices of w, B the p-by-m degree
    operator.  The active set holds the pairs with ``w = 0`` and ``g > 0``.
    On F, per block with ``beta[b] != 0``, Woodbury turns the m-by-m solve
    into a p-by-p one: with ``u = g / h`` and ``q = 1 / h`` on F (zero off
    it), ``d = u - q (B^T z)`` where ``(I / beta[b] + B diag(q) B^T) z = B u``.
    Where that system is exactly singular (at ``beta[b]`` near the AL's
    ``rho`` cap of 1e10, ``I / beta[b]`` is lost against entries of ``B
    diag(q) B^T``), the block keeps ``d = g / h``, as ``grad()`` falls back
    to the unit metric where its model fails.
    """
    d, m = g / h, len(g) // len(beta)
    for b, beta_b in enumerate(beta):
        if beta_b:
            blk = slice(b * m, (b + 1) * m)
            u = d[blk]  # a view: the Woodbury correction lands in d
            active = (w[blk] == 0.0) & (g[blk] > 0.0)
            q = np.where(active, 0.0, 1.0 / h[blk])
            Q = np.abs(laplacian_from_weights(q))  # B diag(q) B^T: degrees of q on the diagonal, q off it
            Q.flat[:: len(Q) + 1] += 1.0 / beta_b
            try:
                z = np.linalg.solve(Q, degrees_from_weights(np.where(active, 0.0, u)))
            except np.linalg.LinAlgError:  # singular: this block keeps g / h
                continue
            u -= q * dual_to_pairs(z)
    return d


def _report(L, iterations, trace, converged, degree=None, degenerate=False) -> SolveReport:
    """The report of a solve returning ``L``; ``degree`` is its max |deg - 1|."""
    residuals = {"row_sum": float(np.abs(L.sum(axis=1)).max())}
    if degree is not None:
        residuals["degree"] = degree
    return SolveReport(iterations, np.asarray(trace), residuals, converged, degenerate)


def learn_connected_mle(S, cfg: SolverConfig | None = None):
    """Penalized maximum-likelihood Laplacian estimation.

    Minimizes ``tr(LS) - log gdet(L) + alpha * ||L||_off,1`` over the set
    of combinatorial Laplacians: a lone :func:`learn_time_varying` window.
    The pseudo-determinant surrogate keeps iterates connected; at the
    boundary of disconnection the result comes with a
    :class:`DisconnectedGraphWarning`, not an error.

    Returns ``(L, report)``.
    """
    (L,), (report,) = learn_time_varying([S], [1], cfg)
    if (components := num_components(L)) > 1:
        warnings.warn(f"MLE solution has {components} components", DisconnectedGraphWarning, stacklevel=2)
    return L, report


def learn_smooth_graph(Z: np.ndarray, cfg: SolverConfig | None = None):
    """Smooth-signal graph learning with a log-degree barrier.

    Minimizes ``(1/2) tr(WZ) - alpha 1^T log(W1) + (gamma/2) ||W||_F^2``
    over symmetric nonnegative adjacency matrices with zero diagonal,
    expressed in the edge-weight vector.  The barrier forces every node
    degree strictly positive, but not connectivity.

    Returns ``(L, report)``.
    """
    cfg = cfg or SolverConfig()
    Z = _check_similarity(Z)
    p = len(Z)
    if np.any(Z < 0):
        raise ValueError("distance matrix has negative entries")
    if cfg.alpha <= 0:
        raise ValueError("log-degree barrier weight alpha must be positive")
    if cfg.gamma <= 0:
        raise ValueError("Frobenius weight gamma must be positive")
    z = Z[pair_indices(p)]
    alpha, gamma = cfg.alpha, cfg.gamma

    def fun(w):
        d = degrees_from_weights(w)
        if np.any(d <= 0.0):
            return np.inf, None
        f = float(z @ w) - alpha * float(np.sum(np.log(d))) + gamma * float(w @ w)
        return f, lambda: (z - alpha * dual_to_pairs(1.0 / d) + 2.0 * gamma * w, 1.0, [0.0])  # unit metric

    w0 = np.full(pair_count(p), 1.0 / (p - 1))
    w, _, _, iters, conv, trace = _spg(fun, w0, cfg.inner_tol)
    L = laplacian_from_weights(w)
    return L, _report(L, iters, trace, conv)


def fan_subspace(L: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal basis of the spectral subspace of the k smallest eigenvalues.

    By Fan's theorem this minimizes tr(V^T L V) over orthonormal p-by-k
    matrices; the attained trace equals the sum of the k smallest
    eigenvalues.
    """
    L = np.asarray(L, dtype=float)
    p = L.shape[0]
    if not 1 <= k < p:
        raise ValueError(f"k must satisfy 1 <= k < p, got k={k}, p={p}")
    _, U = np.linalg.eigh(L)
    return U[:, :k]


def solve_l_subproblem(
    K,
    cfg: SolverConfig | None = None,
    w0: np.ndarray | None = None,
    null_basis: np.ndarray | None = None,
):
    """Degree-constrained Laplacian MLE step.

    Minimizes ``tr(LK) - log gdet(L)`` subject to the Laplacian constraints
    plus ``diag(L) = 1`` (all node degrees equal to one, which rules out
    isolated nodes).  The equality constraint is handled by an augmented
    Lagrangian with dual updates; the inner solves run in weight space.

    The inner solves are inexact, as in Conn, Gould & Toint (SIAM J.
    Numer. Anal. 1991) and the SPG-based ALGENCAN of Birgin & Martinez
    (*Practical Augmented Lagrangian Methods*, SIAM 2014): dual round k
    runs SPG to ``max(inner_tol, min(_AL_TOL_CAP, _AL_TOL_RATIO *
    res_{k-1}))``, where ``res_{k-1}`` is the previous round's max |deg - 1|
    (the first round runs at the cap).  Early rounds, whose multiplier is
    still far off, stop early.  A round ends the solve only if its degree
    residual is at most ``_DEGREE_TOL``, its SPG call converged and it ran
    at exactly ``inner_tol``, so the answer always comes from a
    full-tolerance round.

    ``null_basis`` is the orthonormal basis used for the rank correction of
    the pseudo-determinant.  The default is the constant vector (the null
    space of any connected Laplacian); the k-component solver passes its
    current spectral subspace instead so that a k-component minimizer has
    finite objective.

    Feasibility is never an issue: uniform weights 1/(p-1) give unit
    degrees.  The last iterate is returned flagged unconverged if no round
    ends the solve within ``_MAX_OUTER_ITERS`` dual rounds, or after the
    first if SPG cannot start at ``w0`` (``L(w0) + N`` is not PD).

    Returns ``(L, report)``.
    """
    cfg = cfg or SolverConfig()
    K = _check_similarity(K)
    p = len(K)
    m = pair_count(p)
    if null_basis is None:
        N = np.full((p, p), 1.0 / p)
    else:
        V = np.asarray(null_basis, dtype=float)
        N = V @ V.T
    c = laplacian_adjoint(K)
    objective = _likelihood([c], N)
    w = w0.copy() if w0 is not None else np.full(m, 1.0 / (p - 1))
    y = np.zeros(p)
    rho = 1.0
    total_iters = 0
    trace = []
    prev_res = np.inf

    for _ in range(_MAX_OUTER_ITERS):
        fun = _likelihood([c], N, dual=y, rho=rho)
        tol = max(cfg.inner_tol, min(_AL_TOL_CAP, _AL_TOL_RATIO * prev_res))
        w, _, _, iters, conv_inner, _ = _spg(fun, w, tol)
        total_iters += iters
        r = degrees_from_weights(w) - 1.0
        res = float(np.abs(r).max())
        trace.append(objective(w)[0])
        converged = res <= _DEGREE_TOL and conv_inner and tol == cfg.inner_tol
        if converged or not (iters or conv_inner):  # or SPG could not start at w: no y or rho helps
            break
        y = y + rho * r
        if res > 0.25 * prev_res:
            rho = min(rho * 10.0, 1e10)
        prev_res = res

    L = laplacian_from_weights(w)
    return L, _report(L, total_iters, trace, converged, res)  # the last round's res is at this w


def learn_k_component(S, cfg: SolverConfig | None = None):
    """Alternating k-component graph learning with degree control.

    Alternates between the spectral subspace of the k smallest eigenvalues
    (:func:`fan_subspace`) and the degree-constrained MLE step
    (:func:`solve_l_subproblem` with the subspace as rank correction and
    the effective similarity ``S + eta V V^T``).  The relaxed objective

        tr(LS) - log det(L + V V^T) + eta tr(V^T L V)

    is nonincreasing across both half-updates (both the eigenvector step and
    the convex step minimize it exactly in their own block).

    The alternation opens with a seed: the connected MLE of S (``alpha =
    0``), solved to ``_SEED_TOL`` and scaled to ``tr L = p``, the trace of
    every unit-degree Laplacian; a positive scale leaves its subspace as it
    is.  It serves only to place the first subspace and the first warm
    start, so it is usually degree-infeasible, and the report does not
    require it to converge; it converges only if every later, full L-step
    did.  The report's ``iterations`` still counts the seed's SPG
    iterations.  A full step whose result is above its warm start ends the
    alternation at the warm start, but only if the warm start meets the
    degree tolerance; otherwise the step's result is kept.  A step that
    cannot start (its warm start has more than k zero eigenvalues) hands
    the warm start back, and the alternation ends there, unconverged, off
    unit degrees if that step was, and with +inf closing its trace.

    The objective trace holds the relaxed objective, each value the step's
    likelihood ``tr(LK) - log det(L + V V^T)`` with ``K = S + eta V V^T``:
    after the first full L-step, then before and after every later one.
    Every L-step ends at a degree-feasible point when it converges, so a
    converged solve's trace reads descent between feasible points only.

    Returns ``(L, report)``.
    """
    cfg = cfg or SolverConfig()
    S = _check_similarity(S)
    p = len(S)
    k = cfg.k
    if k >= p:
        raise ValueError(f"component count k={k} must be smaller than p={p}")

    (L,), (rep,) = learn_time_varying([S], [1], SolverConfig(inner_tol=_SEED_TOL))
    L = L * (p / np.trace(L))
    w = weights_from_laplacian(L)
    w_degree = float(np.abs(np.diag(L) - 1.0).max())

    trace: list[float] = []
    total_iters = rep.iterations  # the seed's SPG iterations count too
    degenerate = False
    converged = False
    steps_converged = True  # the report converges only if every full L-step did

    for _ in range(_MAX_OUTER_ITERS):
        lam, U = np.linalg.eigh(L)
        V = U[:, :k]
        if lam[k] - lam[k - 1] <= 1e-12 * lam[-1]:
            degenerate = True  # tie at the cut; any basis attains the Fan minimum
        N = V @ V.T
        K = S + cfg.eta * N
        before = _likelihood([laplacian_adjoint(K)], N)(w)[0]
        if trace:  # the trace starts after the first full L-step, not at the seed
            trace.append(before)

        L_new, rep = solve_l_subproblem(K, cfg, w0=w, null_basis=V)
        steps_converged = steps_converged and rep.converged
        total_iters += rep.iterations
        obj_new = float(rep.objective_trace[-1])
        if obj_new > before and w_degree <= _DEGREE_TOL:
            # inner-tolerance wobble: the feasible warm start is already (at
            # least) as good as the returned iterate, so keep it; the
            # alternation has reached its fixed point
            trace.append(before)
            converged = True
            break
        trace.append(obj_new)
        w = weights_from_laplacian(L_new)
        w_degree = rep.constraint_residuals["degree"]

        rel = np.linalg.norm(L_new - L) / np.linalg.norm(L)
        L = L_new
        if rel <= _OUTER_TOL:
            converged = True
            break

    degree = float(np.abs(np.diag(L) - 1.0).max())
    return L, _report(L, total_iters, trace, converged and steps_converged, degree, degenerate)


def learn_time_varying(S_seq, n_seq, cfg: SolverConfig | None = None):
    """Causal time-varying graph estimation.

    For each time t the estimate minimizes the joint penalized likelihood
    over the last ``min(memory, t + 1)`` graphs,

        sum_s n_s [tr(S_s L_s) + alpha ||L_s||_off,1 - log gdet(L_s)]
            + delta sum_s ||L_s - L_{s-1}||_F^2,

    with graphs before the window frozen at their stored estimates.  It is
    jointly convex, and one SPG call over the window's stacked weights
    solves it, warm-started from the stored estimates.  The newest graph
    starts where the sequence is heading: for ``delta > 0`` and ``t >= 2``
    at ``max(2 w_{t-1} - w_{t-2}, w_{t-1} / 2)``, the linear extrapolation
    of the last two estimates, floored at half of ``w_{t-1}`` so that every
    edge of ``w_{t-1}`` stays and ``L + 11^T/p`` is PD; otherwise (the first
    two windows, or ``delta = 0``, where the windows are independent MLEs)
    at ``w_{t-1}``.  Every window steps in its block model (see
    :func:`_likelihood`), of one graph or several.  The start reads only
    past estimates, so only data up to and including t is touched and the
    output is a causal sequence: running on a prefix reproduces the prefix
    bit for bit.

    ``memory=1`` (the default) keeps only the coupling to the previous
    estimate; ``memory=T`` recovers the full joint program at O(T^2) cost.
    At ``delta=0`` the graphs decouple, so only the newest one is solved.

    Returns ``(L_seq, reports)``: the estimated Laplacians and one
    :class:`SolveReport` per window, whose iterations, objective trace and
    convergence flag are those of the window's SPG call (for ``memory > 1``
    the trace is of the joint window objective).
    """
    cfg = cfg or SolverConfig()
    mats = [_check_similarity(S) for S in S_seq]
    if not mats:
        return [], []
    p = len(mats[0])
    if any(len(St) != p for St in mats):
        raise ValueError("similarity matrices must share one dimension")
    n_seq = list(n_seq)
    if len(n_seq) != len(mats):
        raise ValueError("sample counts must align with the similarity sequence")
    for t, n in enumerate(n_seq):
        if not _is_count(n):
            raise ValueError(f"sample count of window {t} must be an integer of at least 1, got {n}")

    m = pair_count(p)
    J = np.full((p, p), 1.0 / p)
    # the MLE's cost vectors: ||L||_off,1 = 2 sum(w)
    cs = [laplacian_adjoint(St) + 2.0 * cfg.alpha for St in mats]

    estimates, reports = [], []
    weight_hist = [np.full(m, 1.0 / (p - 1))]  # [s + 1] holds graph s; [0] the uniform start

    for t in range(len(mats)):
        # delta = 0 decouples the blocks, and the older ones are solved already
        a = max(0, t - cfg.memory + 1) if cfg.delta > 0 else t
        start = weight_hist[t]
        if cfg.delta > 0 and t >= 2:
            start = np.maximum(2.0 * weight_hist[t] - weight_hist[t - 1], 0.5 * weight_hist[t])
        w0 = np.concatenate(weight_hist[a + 1 : t + 1] + [start])
        # the window objective divided by n_t: for one block the static-solver scale
        scales = [n / n_seq[t] for n in n_seq[a : t + 1]]
        anchor = estimates[a - 1] if a > 0 else None
        fun = _likelihood(cs[a : t + 1], J, scales, anchor, cfg.delta / n_seq[t])
        w, _, _, iters, conv, trace = _spg(fun, w0, cfg.inner_tol)
        L = laplacian_from_weights(w[-m:])
        weight_hist.append(w[-m:])
        estimates.append(L)
        reports.append(_report(L, iters, trace, conv))

    return estimates, reports
