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
gradient (SPG) kernel with a nonmonotone Armijo line search.  Degree
equality constraints are enforced by an augmented Lagrangian around that
kernel, whose dual rounds run SPG only as tightly as the current degree
residual warrants and end on a round at the full tolerance.

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

Every objective returns its value and a zero-argument gradient closure.
The Armijo test needs the value alone, and it rejects most trial points,
so the value costs one Laplacian build and one Cholesky log-determinant
while the closure holds the rest: the inverse, the adjoints and the
penalty gradients.  SPG calls it only where it needs the gradient, at the
start point and at an accepted step.

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
from .preprocessing import SimilarityMatrix

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
# learn_k_component's seed L-step ends at the first dual round whose k-subspace
# projector V V^T moved at most this far (spectral norm) since the round before
_SEED_SUBSPACE_TOL = 1e-2
_DEGREE_TOL = 1e-7  # max |deg - 1| of a converged L-step, tighter than the 1e-6 exit contract


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters shared by all solvers.

    ``inner_tol`` is the KKT tolerance of every SPG call, relative to the
    start gradient, save the early dual rounds of
    :func:`solve_l_subproblem`, which run looser; its final round runs at
    ``inner_tol``, except in the rough seed step of
    :func:`learn_k_component`.  ``alpha`` is the sparsity weight of the MLE penalty, in
    the MLE and in every time-varying window, and for the smooth baseline
    the log-degree barrier weight; the k-component solver leaves it out, as
    unit degrees fix sum(w) = p/2 and make it a constant.  ``gamma`` is the
    Frobenius weight of the smooth baseline, ``eta`` the spectral (rank)
    penalty and ``k`` the component count of the k-component solver,
    ``delta`` the temporal coupling weight and ``memory`` the joint-history
    length of the time-varying solver.  ``alpha``, ``eta`` and ``delta``
    must be nonnegative (NaN is rejected too).
    """

    inner_tol: float = 1e-7
    eta: float = 10.0
    alpha: float = 0.0
    gamma: float = 1.0
    delta: float = 100.0
    k: int = 1
    memory: int = 1

    def __post_init__(self):
        if self.inner_tol <= 0:
            raise ValueError("tolerance inner_tol must be positive")
        if self.k < 1:
            raise ValueError("component count k must be at least 1")
        if self.memory < 1:
            raise ValueError("memory must be at least 1")
        if not self.alpha >= 0:
            raise ValueError(f"sparsity weight alpha must be nonnegative, got {self.alpha}")
        if not self.eta >= 0:
            raise ValueError(f"rank-penalty weight eta must be nonnegative, got {self.eta}")
        if not self.delta >= 0:
            raise ValueError(f"temporal weight delta must be nonnegative, got {self.delta}")


@dataclass(frozen=True)
class SolveReport:
    """What a solve measured; graph facts such as the component count are read off L.

    ``constraint_residuals`` holds max |L 1| (``row_sum``) and, for the
    degree-constrained solvers, max |deg - 1| (``degree``).
    ``objective_trace`` is the SPG trace for the MLE, the smooth baseline
    and each time-varying window; ``tr(LK) - log det(L + N)`` after each
    dual round for :func:`solve_l_subproblem`; for :func:`learn_k_component`
    the relaxed objective after its first full L-step, then before and after
    every later one (never at its rough seed step's degree-infeasible
    result).
    """

    iterations: int
    objective_trace: np.ndarray
    constraint_residuals: dict[str, float]
    converged: bool
    eigengap_degenerate: bool


def _entries(S) -> np.ndarray:
    if isinstance(S, SimilarityMatrix):
        return np.asarray(S.entries, dtype=float)
    return np.asarray(S, dtype=float)


def _check_similarity(S: np.ndarray) -> int:
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("similarity matrix must be square")
    if S.shape[0] < 2:
        raise ValueError("need at least 2 nodes")
    if not np.all(np.isfinite(S)):
        raise ValueError("similarity matrix contains non-finite entries")
    scale = max(1.0, np.abs(S).max())
    if np.abs(S - S.T).max() > 1e-8 * scale:
        raise ValueError("similarity matrix is not symmetric")
    return S.shape[0]


def _chol_logdet(A: np.ndarray) -> float | None:
    """log det of a symmetric matrix via Cholesky; None when not PD."""
    try:
        C = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return None
    diag = np.diag(C)
    if np.any(diag <= 0.0):
        return None
    return 2.0 * float(np.sum(np.log(diag)))


def _likelihood(p, cs, N, scales=(1.0,), anchor=None, coupling=0.0, dual=None, rho=0.0):
    """The objective ``fun(w) -> (value, grad)`` of the module docstring.

    ``w`` stacks one block per cost vector in ``cs``, scaled by ``scales``;
    the value is +inf where an ``L(w_b) + N`` is not PD.  The degree AL term
    (one block only) joins when ``dual`` (the multiplier ``y``) is given,
    and the coupling over the chain ``anchor, L(w_0), L(w_1), ...`` when
    ``coupling`` is nonzero.  ``grad()`` inverts each ``L(w_b) + N`` once,
    applies the adjoints and adds the penalty gradients; it returns None
    when ``inv`` fails.
    """
    m = len(cs[0])

    def fun(w):
        As, diffs, f, prev = [], [], 0.0, anchor
        for b, (c, scale) in enumerate(zip(cs, scales)):
            wb = w[b * m : (b + 1) * m]
            L = laplacian_from_weights(wb, p)
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
            r = degrees_from_weights(w, p) - 1.0
            # not f += ...: the order of this sum is part of the results
            f = f + float(dual @ r) + 0.5 * rho * float(r @ r)
        for D in diffs:
            f += coupling * float(np.sum(D * D))

        def grad():
            try:
                G = [scale * (c - laplacian_adjoint(np.linalg.inv(A)))
                     for c, scale, A in zip(cs, scales, As)]
            except np.linalg.LinAlgError:
                return None
            if dual is not None:
                G[0] += dual_to_pairs(dual + rho * r)
            for j, D in enumerate(diffs, start=len(As) - len(diffs)):  # D = L_j - L_{j-1}
                gD = 2.0 * coupling * laplacian_adjoint(D)
                G[j] += gD
                if j > 0:
                    G[j - 1] -= gD
            return np.concatenate(G)

        return f, grad

    return fun


# values the nonmonotone Armijo reference spans (Birgin, Martinez & Raydan 2000)
_GLL_MEMORY = 10


def _spg(fun, w0: np.ndarray, tol: float, max_iter: int):
    """Projected gradient over the nonnegative orthant with BB steps.

    ``fun(w)`` returns ``(value, grad)``, where ``grad()`` computes the
    gradient at ``w`` or returns None where it cannot; a value of +inf marks
    an infeasible point.  The Armijo test reads the value alone, so
    ``grad()`` runs only at the start point and at a trial point that
    passes the test.  A None there rejects the trial just as an infeasible
    value does (the line search backs off), so the iterates are the same
    floats as with a gradient computed on every call.

    The line search is nonmonotone (Grippo, Lampariello & Lucidi 1986), as
    in the SPG of Birgin, Martinez & Raydan (2000): a trial passes the
    Armijo test against the largest of the last ``_GLL_MEMORY`` accepted
    values, not against the current one.  The BB step then survives the
    small rises it causes, and near the minimum, where rounding noise in
    the objective swamps the predicted decrease, the search no longer
    halves its way to the trial cap.  The objective trace can rise between
    entries, though never above the largest of the M before it, and every
    entry after the first lies below the first; solvers that promise
    monotone descent do so on their own outer trace, as the k-component
    alternation does (acceptance criterion C6).

    M = 1 is the monotone search.  M = 10 is Birgin et al.'s value, and on
    a 200-window p=20 rolling panel it is where the gain levels off: M = 1,
    2, 5, 10, 20 took 27,040, 10,274, 9,228, 9,008 and 8,995 objective
    evaluations, and only M = 1 left windows unconverged (12 of 200).

    Terminates when the KKT residual -- the gradient on free coordinates,
    clipped to its negative part on active ones -- falls below ``tol`` in
    the max norm, measured relative to the initial gradient scale (so badly
    scaled objectives, e.g. huge temporal weights, stop at a sensible point).

    Returns ``(w, f, g, iterations, converged, trace)``.
    """
    w = np.asarray(w0, dtype=float).copy()
    f, grad = fun(w)
    g = grad() if math.isfinite(f) else None
    if g is None:
        raise ValueError("infeasible starting point for projected gradient")
    step = 1.0 / max(1.0, float(np.abs(g).max()))
    eff_tol = tol * max(1.0, float(np.abs(g).max()))
    trace = [f]
    for it in range(1, max_iter + 1):
        resid = np.where(w > 0.0, g, np.minimum(g, 0.0))
        if np.abs(resid).max() <= eff_tol:
            return w, f, g, it - 1, True, trace
        t = step
        f_ref = max(trace[-_GLL_MEMORY:])
        accepted = False
        for _ in range(60):
            w_new = np.maximum(w - t * g, 0.0)
            dw = w_new - w
            if not dw.any():
                # projection is a fixed point; KKT residual already above tol
                # cannot occur unless t underflowed, so shrink and retry
                t *= 0.5
                continue
            gd = float(g @ dw)
            f_new, grad = fun(w_new)
            if math.isfinite(f_new) and f_new <= f_ref + 1e-4 * gd:
                g_new = grad()
                if g_new is not None:
                    accepted = True
                    break
            t *= 0.5
        if not accepted:
            return w, f, g, it, False, trace
        s = w_new - w
        y = g_new - g
        sy = float(s @ y)
        step = float(s @ s) / sy if sy > 1e-16 else step * 2.0
        step = min(max(step, 1e-13), 1e13)
        w, f, g = w_new, f_new, g_new
        trace.append(f)
    return w, f, g, max_iter, False, trace


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
    Z = np.asarray(Z, dtype=float)
    p = _check_similarity(Z)
    if np.any(Z < 0):
        raise ValueError("distance matrix has negative entries")
    if cfg.alpha <= 0:
        raise ValueError("log-degree barrier weight alpha must be positive")
    if cfg.gamma <= 0:
        raise ValueError("Frobenius weight gamma must be positive")
    z = Z[pair_indices(p)]
    alpha, gamma = cfg.alpha, cfg.gamma

    def fun(w):
        d = degrees_from_weights(w, p)
        if np.any(d <= 0.0):
            return np.inf, None
        f = float(z @ w) - alpha * float(np.sum(np.log(d))) + gamma * float(w @ w)
        return f, lambda: z - alpha * dual_to_pairs(1.0 / d) + 2.0 * gamma * w

    w0 = np.full(pair_count(p), 1.0 / (p - 1))
    w, _, _, iters, conv, trace = _spg(fun, w0, cfg.inner_tol, _INNER_MAX_ITERS)
    L = laplacian_from_weights(w, p)
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
    *,
    _seed_k: int = 0,
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
    degrees.  If no round ends the solve within ``_MAX_OUTER_ITERS`` dual
    rounds the last iterate is returned flagged unconverged.

    ``_seed_k`` (private, for :func:`learn_k_component`'s seed step) also
    ends the solve, unconverged, at the first round after which the
    projector onto the ``_seed_k`` smallest eigenvectors of L(w) moved at
    most ``_SEED_SUBSPACE_TOL`` in spectral norm since the round before.

    Returns ``(L, report)``.
    """
    cfg = cfg or SolverConfig()
    Ke = _entries(K)
    p = _check_similarity(Ke)
    m = pair_count(p)
    if null_basis is None:
        N = np.full((p, p), 1.0 / p)
    else:
        V = np.asarray(null_basis, dtype=float)
        N = V @ V.T
    c = laplacian_adjoint(Ke)
    objective = _likelihood(p, [c], N)
    w = w0.copy() if w0 is not None else np.full(m, 1.0 / (p - 1))
    y = np.zeros(p)
    rho = 1.0
    total_iters = 0
    trace = []
    prev_res = np.inf
    converged = False
    projector = None

    for _ in range(_MAX_OUTER_ITERS):
        fun = _likelihood(p, [c], N, dual=y, rho=rho)
        tol = max(cfg.inner_tol, min(_AL_TOL_CAP, _AL_TOL_RATIO * prev_res))
        w, _, _, iters, conv_inner, _ = _spg(fun, w, tol, _INNER_MAX_ITERS)
        total_iters += iters
        r = degrees_from_weights(w, p) - 1.0
        res = float(np.abs(r).max())
        trace.append(objective(w)[0])
        if res <= _DEGREE_TOL and conv_inner and tol == cfg.inner_tol:
            converged = True
            break
        if _seed_k:
            V = fan_subspace(laplacian_from_weights(w, p), _seed_k)
            previous, projector = projector, V @ V.T
            if previous is not None and np.linalg.norm(projector - previous, 2) <= _SEED_SUBSPACE_TOL:
                break
        y = y + rho * r
        if res > 0.25 * prev_res:
            rho = min(rho * 10.0, 1e10)
        prev_res = res

    L = laplacian_from_weights(w, p)
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

    The alternation opens with a rough seed: the degree-constrained step
    from uniform weights, ended at the first dual round where its k-subspace
    settles (see ``_seed_k`` of :func:`solve_l_subproblem`).  It serves only
    to place the first subspace and the first warm start, so it is usually
    unconverged and degree-infeasible, and the report does not require it
    to converge; it converges only if every later, full L-step did.  The
    report's ``iterations`` still counts the seed's SPG iterations.  A full
    step whose result is above its warm start ends the alternation at the
    warm start, but only if the warm start meets the degree tolerance;
    otherwise the step's result is kept.

    The objective trace holds the relaxed objective, each value the step's
    likelihood ``tr(LK) - log det(L + V V^T)`` with ``K = S + eta V V^T``:
    after the first full L-step, then before and after every later one.
    Every L-step ends at a degree-feasible point when it converges, so a
    converged solve's trace reads descent between feasible points only.

    Returns ``(L, report)``.
    """
    cfg = cfg or SolverConfig()
    Se = _entries(S)
    p = _check_similarity(Se)
    k = cfg.k
    if k >= p:
        raise ValueError(f"component count k={k} must be smaller than p={p}")

    L, rep = solve_l_subproblem(Se, cfg, _seed_k=k)
    w = weights_from_laplacian(L)
    w_degree = rep.constraint_residuals["degree"]

    trace: list[float] = []
    total_iters = rep.iterations  # the seed's SPG iterations count too
    degenerate = False
    converged = False
    steps_converged = True  # the report converges only if every full L-step did

    for _ in range(_MAX_OUTER_ITERS):
        lam, U = np.linalg.eigh(L)
        V = U[:, :k]
        if k < p and lam[k] - lam[k - 1] <= 1e-12 * max(1.0, lam[-1]):
            degenerate = True  # tie at the cut; any basis attains the Fan minimum
        N = V @ V.T
        K = Se + cfg.eta * N
        before = _likelihood(p, [laplacian_adjoint(K)], N)(w)[0]
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

        rel = np.linalg.norm(L_new - L) / max(np.linalg.norm(L), 1e-30)
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
    solves it, warm-started from the stored estimates (the newest graph
    from the previous one).  Only data up to and including t is touched,
    so the output is a causal sequence: running on a prefix reproduces the
    prefix bit for bit.

    ``memory=1`` (the default) keeps only the coupling to the previous
    estimate; ``memory=T`` recovers the full joint program at O(T^2) cost.
    At ``delta=0`` the graphs decouple, so only the newest one is solved.

    Returns ``(L_seq, reports)``: the estimated Laplacians and one
    :class:`SolveReport` per window, whose iterations, objective trace and
    convergence flag are those of the window's SPG call (for ``memory > 1``
    the trace is of the joint window objective).
    """
    cfg = cfg or SolverConfig()
    mats = [_entries(S) for S in S_seq]
    if not mats:
        return [], []
    p = _check_similarity(mats[0])
    for St in mats[1:]:
        if _check_similarity(St) != p:
            raise ValueError("similarity matrices must share one dimension")
    n_seq = [int(n) for n in n_seq]
    if len(n_seq) != len(mats):
        raise ValueError("sample counts must align with the similarity sequence")
    if any(n < 1 for n in n_seq):
        raise ValueError("window sample counts must be at least 1")

    m = pair_count(p)
    J = np.full((p, p), 1.0 / p)
    # the MLE's cost vectors: ||L||_off,1 = 2 sum(w)
    cs = [laplacian_adjoint(St) + 2.0 * cfg.alpha for St in mats]

    estimates, reports = [], []
    weight_hist = [np.full(m, 1.0 / (p - 1))]  # [s + 1] holds graph s; [0] the uniform start

    for t in range(len(mats)):
        # delta = 0 decouples the blocks, and the older ones are solved already
        a = max(0, t - cfg.memory + 1) if cfg.delta > 0 else t
        w0 = np.concatenate(weight_hist[a + 1 : t + 1] + weight_hist[t : t + 1])
        # the window objective divided by n_t: for one block the static-solver scale
        scales = [n / n_seq[t] for n in n_seq[a : t + 1]]
        anchor = estimates[a - 1] if a > 0 else None
        fun = _likelihood(p, cs[a : t + 1], J, scales, anchor, cfg.delta / n_seq[t])
        w, _, _, iters, conv, trace = _spg(fun, w0, cfg.inner_tol, _INNER_MAX_ITERS)
        L = laplacian_from_weights(w[-m:], p)
        weight_hist.append(w[-m:])
        estimates.append(L)
        reports.append(_report(L, iters, trace, conv))

    return estimates, reports
