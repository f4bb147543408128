import dataclasses
import types

import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.optimize import minimize

from marketgraph import solvers
from marketgraph.laplacian import (
    degrees_from_weights,
    laplacian_adjoint,
    laplacian_from_weights,
    num_components,
    pair_indices,
    spectral_summary,
    validate_laplacian,
    weights_from_laplacian,
)
from marketgraph.preprocessing import correlation_from_covariance, sample_covariance
from marketgraph.solvers import (
    SolverConfig,
    fan_subspace,
    learn_connected_mle,
    learn_k_component,
    learn_smooth_graph,
    learn_time_varying,
    solve_l_subproblem,
)
from marketgraph.synthetic import random_k_component_graph, sample_gmrf, simulate_factor_market
import reference_ops
from reference_ops import bitwise_equal


def weight_of(L, i, j):
    return -L[i, j]


def random_spd(rng, p, n=None):
    A = rng.standard_normal((n or 2 * p, p))
    return A.T @ A / (n or 2 * p) + 0.5 * np.eye(p)


# --- learn_connected_mle ----------------------------------------------------

def test_mle_p2_closed_form():
    # single weight: objective 2w(1-rho) - log(2w), minimizer 1/(2(1-rho))
    S = np.array([[1.0, 0.5], [0.5, 1.0]])
    L, report = learn_connected_mle(S)
    assert report.converged
    assert weight_of(L, 0, 1) == pytest.approx(1.0, abs=1e-6)

    L, _ = learn_connected_mle(np.eye(2))
    assert weight_of(L, 0, 1) == pytest.approx(0.5, abs=1e-6)


def test_mle_p2_l1_penalty_shifts_optimum():
    # objective 2w(1-rho) + 2*alpha*w - log(2w): minimizer 1/(2(1-rho)+2 alpha)
    S = np.array([[1.0, 0.5], [0.5, 1.0]])
    cfg = SolverConfig(alpha=0.25)
    L, _ = learn_connected_mle(S, cfg)
    assert weight_of(L, 0, 1) == pytest.approx(1.0 / 1.5, abs=1e-6)


def test_mle_scale_property():
    # replacing S by c*S with alpha=0 rescales the optimum by 1/c
    S = np.array([[1.0, 0.5], [0.5, 1.0]])
    L1, _ = learn_connected_mle(S)
    L3, _ = learn_connected_mle(3.0 * S)
    assert weight_of(L3, 0, 1) == pytest.approx(weight_of(L1, 0, 1) / 3.0, abs=1e-6)

    rng = np.random.default_rng(0)
    S4 = random_spd(rng, 4)
    La, _ = learn_connected_mle(S4)
    Lb, _ = learn_connected_mle(2.5 * S4)
    assert np.abs(2.5 * Lb - La).max() <= 1e-5


@pytest.mark.parametrize("c", [1e2, 1.0, 1e-2, 1e-4, 1e-6])
@pytest.mark.parametrize("p", [10, 20])
def test_mle_of_a_rescaled_correlation_is_the_rescaled_mle(p, c):
    # c * MLE(c * S) = MLE(S) in exact arithmetic; c = 1e-4 is the scale of a daily-return covariance
    S = correlation_from_covariance(sample_covariance(simulate_factor_market(p, 3 * p, seed=p).returns))
    exact, _ = learn_connected_mle(S, SolverConfig(inner_tol=1e-12))
    L, report = learn_connected_mle(c * S)
    assert report.converged
    assert np.abs(c * L - exact).max() <= 1e-5 * np.abs(exact).max()  # at most 1.6e-7 over these c


def test_mle_validates_input():
    with pytest.raises(ValueError, match="symmetric"):
        learn_connected_mle(np.array([[1.0, 0.2], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="finite"):
        learn_connected_mle(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        learn_connected_mle(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="at least 2 nodes"):
        learn_connected_mle(np.ones((1, 1)))


def test_mle_flags_disconnected_solution():
    import warnings as _warnings

    from marketgraph.laplacian import DisconnectedGraphWarning

    # extreme repulsive cross-similarity drives the bridge weights to zero;
    # the result comes back flagged, not as an error
    S = np.array(
        [
            [1.0, 0.8, -5e7],
            [0.8, 1.0, -5e7],
            [-5e7, -5e7, 1.0],
        ]
    )
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        L, report = learn_connected_mle(S)
    assert num_components(L) == 2  # not connected
    assert any(isinstance(c.message, DisconnectedGraphWarning) for c in caught)
    validate_laplacian(L)


def test_mle_of_a_disconnecting_problem_reaches_the_optimum():
    import warnings as _warnings

    from marketgraph.laplacian import DisconnectedGraphWarning

    # the problem of test_mle_flags_disconnected_solution; a 1-D profile
    # search puts its optimum at in-cluster weight 2.5 (0.4 a - log a) with
    # bridge weights 5.0e-9.  The start gradient is about 1e8, so the stop
    # inner_tol * max|g0| is 10: SPG along the raw gradient stopped after
    # one iteration at 0.5, and it takes the model metric to get here
    S = np.array(
        [
            [1.0, 0.8, -5e7],
            [0.8, 1.0, -5e7],
            [-5e7, -5e7, 1.0],
        ]
    )
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore", DisconnectedGraphWarning)
        L, _ = learn_connected_mle(S)
    assert weight_of(L, 0, 1) == pytest.approx(2.5, rel=1e-3)


def test_mle_returns_valid_laplacian():
    rng = np.random.default_rng(1)
    for _ in range(5):
        L, report = learn_connected_mle(random_spd(rng, 6))
        validate_laplacian(L)
        assert report.converged
        # the Armijo search accepts a value at most 1e-10 |f| above the current one
        tr = report.objective_trace
        for i in range(1, len(tr)):
            assert tr[i] <= tr[i - 1] + 1e-10 * abs(tr[i - 1])
        assert tr[-1] < tr[0]


# --- learn_smooth_graph -----------------------------------------------------

def test_smooth_p2_closed_form_grid():
    # stationarity z - 2 alpha / w + 2 gamma w = 0
    for z in (0.0, 0.5, 1.0, 2.0):
        for alpha, gamma in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.7)):
            Z = np.array([[0.0, z], [z, 0.0]])
            L, report = learn_smooth_graph(Z, SolverConfig(alpha=alpha, gamma=gamma))
            expected = (-z + np.sqrt(z * z + 16.0 * alpha * gamma)) / (4.0 * gamma)
            assert report.converged
            assert weight_of(L, 0, 1) == pytest.approx(expected, abs=1e-6)


def test_smooth_weights_decrease_with_distance():
    cfg = SolverConfig(alpha=1.0, gamma=1.0)
    weights = [
        weight_of(learn_smooth_graph(np.array([[0.0, z], [z, 0.0]]), cfg)[0], 0, 1)
        for z in (0.0, 0.5, 1.0, 2.0, 4.0)
    ]
    assert all(a > b for a, b in zip(weights, weights[1:]))


def test_smooth_p3_symmetry():
    Z = np.full((3, 3), 2.0)
    np.fill_diagonal(Z, 0.0)
    L, _ = learn_smooth_graph(Z, SolverConfig(alpha=1.0, gamma=1.0))
    w = -L[pair_indices(3)]
    assert np.abs(w - w[0]).max() <= 1e-7


def test_smooth_rejects_bad_input():
    with pytest.raises(ValueError, match="negative"):
        learn_smooth_graph(np.array([[0.0, -1.0], [-1.0, 0.0]]), SolverConfig(alpha=1.0))
    with pytest.raises(ValueError, match="alpha"):
        learn_smooth_graph(np.zeros((2, 2)), SolverConfig(alpha=0.0))
    with pytest.raises(ValueError, match="gamma"):
        learn_smooth_graph(np.zeros((2, 2)), SolverConfig(alpha=1.0, gamma=0.0))


# --- fan_subspace -----------------------------------------------------------

def test_fan_two_component_nullspace():
    pg = random_k_component_graph(6, 2, seed=0)
    V = fan_subspace(pg.L_true, 2)
    assert np.abs(V.T @ V - np.eye(2)).max() <= 1e-10
    assert abs(np.trace(V.T @ pg.L_true @ V)) <= 1e-10


def test_fan_k3_constant_vector():
    K3 = laplacian_from_weights(np.ones(3))
    V = fan_subspace(K3, 1)
    assert np.abs(np.abs(V[:, 0]) - 1.0 / np.sqrt(3.0)).max() <= 1e-10


def test_fan_matches_smallest_eigenvalues():
    rng = np.random.default_rng(2)
    w = rng.uniform(0.1, 2.0, 10 * 9 // 2)
    L = laplacian_from_weights(w)
    V = fan_subspace(L, 2)
    lam = spectral_summary(L).eigenvalues
    assert np.trace(V.T @ L @ V) == pytest.approx(lam[0] + lam[1], abs=1e-8)


def test_fan_optimality_against_random_orthonormal():
    rng = np.random.default_rng(3)
    w = rng.uniform(0.1, 2.0, 8 * 7 // 2)
    L = laplacian_from_weights(w)
    for k in (1, 2, 3):
        V = fan_subspace(L, k)
        best = np.trace(V.T @ L @ V)
        for _ in range(100):
            Q, _ = np.linalg.qr(rng.standard_normal((8, k)))
            assert best <= np.trace(Q.T @ L @ Q) + 1e-9


def test_fan_rejects_bad_k():
    L = laplacian_from_weights(np.ones(3))
    with pytest.raises(ValueError):
        fan_subspace(L, 0)
    with pytest.raises(ValueError):
        fan_subspace(L, 3)


def test_fan_subspace_also_maximizes_rank_corrected_det():
    # the bottom-k eigenbasis maximizes det(L + V V^T) over orthonormal V,
    # which is what makes the alternation's objective monotone
    rng = np.random.default_rng(9)
    for _ in range(20):
        p = int(rng.integers(3, 10))
        w = rng.uniform(0.05, 2.0, p * (p - 1) // 2)
        L = laplacian_from_weights(w)
        for k in (1, 2):
            V = fan_subspace(L, k)
            best = np.linalg.slogdet(L + V @ V.T)[1]
            for _ in range(50):
                Q, _ = np.linalg.qr(rng.standard_normal((p, k)))
                sign, ld = np.linalg.slogdet(L + Q @ Q.T)
                assert sign <= 0 or ld <= best + 1e-9


# --- solve_l_subproblem -----------------------------------------------------

def test_subproblem_p2_singleton():
    # degree constraint pins the single weight at 1 regardless of K
    for K in (np.eye(2), np.array([[3.0, -1.0], [-1.0, 0.5]])):
        L, report = solve_l_subproblem(K)
        assert np.abs(L - np.array([[1.0, -1.0], [-1.0, 1.0]])).max() <= 1e-6
        assert report.constraint_residuals["degree"] <= 1e-6


def test_subproblem_p3_identity_symmetry():
    L, report = solve_l_subproblem(np.eye(3))
    assert report.converged
    iu = pair_indices(3)
    assert np.abs(-L[iu] - 0.5).max() <= 1e-6


def test_subproblem_exit_contract():
    rng = np.random.default_rng(4)
    for _ in range(5):
        L, report = solve_l_subproblem(random_spd(rng, 5))
        validate_laplacian(L)
        assert np.abs(np.diag(L) - 1.0).max() <= 1e-6
        assert L[pair_indices(5)].max() <= 0.0  # sign constraints exact


# --- learn_k_component ------------------------------------------------------

def test_k_component_rejects_k_too_large():
    with pytest.raises(ValueError, match="k"):
        learn_k_component(np.eye(3), SolverConfig(k=3))


def test_k1_reduces_to_connected_subproblem():
    rng = np.random.default_rng(5)
    S = random_spd(rng, 5)
    cfg = SolverConfig(k=1, eta=10.0)
    L, report = learn_k_component(S, cfg)
    assert num_components(L) == 1
    # the constant vector spans the null space, so the eta term is flat and
    # the alternation settles immediately
    assert len(report.objective_trace) <= 4
    J = np.full((5, 5), 0.2)
    L_direct, _ = solve_l_subproblem(S + cfg.eta * J)
    assert np.abs(L - L_direct).max() <= 1e-5


def test_k_component_structure_on_planted_data():
    pg = random_k_component_graph(10, 2, seed=1, extra_edge_prob=1.0)
    panel = sample_gmrf(pg.L_true, 5000, seed=2)
    S = correlation_from_covariance(sample_covariance(panel))
    L, report = learn_k_component(S, SolverConfig(k=2))
    validate_laplacian(L)
    assert num_components(L) == 2
    assert np.abs(np.diag(L) - 1.0).max() <= 1e-6  # no isolated nodes
    # note: support F-score against the planted graph is exercised (and
    # documented as unattainable for this sampler) in the acceptance suite
    tr = report.objective_trace
    assert np.all(np.diff(tr) <= 1e-9 * np.abs(tr[:-1]) + 1e-12)


def test_k_component_permutation_equivariance():
    pg = random_k_component_graph(8, 2, seed=3, extra_edge_prob=1.0)
    panel = sample_gmrf(pg.L_true, 4000, seed=4)
    S = correlation_from_covariance(sample_covariance(panel))
    rng = np.random.default_rng(5)
    perm = rng.permutation(8)
    P = np.eye(8)[perm]
    L1, _ = learn_k_component(S, SolverConfig(k=2))
    L2, _ = learn_k_component(P @ S @ P.T, SolverConfig(k=2))
    assert np.abs(P @ L1 @ P.T - L2).max() <= 1e-4


def _assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_outer_traces_hold_the_documented_objectives(monkeypatch):
    # solve_l_subproblem: tr(LK) - log det(L + 11^T/p) at the end of each
    # dual round, i.e. of each SPG call
    K = random_spd(np.random.default_rng(8), 10)
    rounds = []
    spg = solvers._spg

    def recording(*args, **kwargs):
        out = spg(*args, **kwargs)
        rounds.append(reference_ops.laplacian_from_weights(out[0]))
        return out

    with monkeypatch.context() as mp:
        mp.setattr(solvers, "_spg", recording)
        _, report = solve_l_subproblem(K)
    J = np.full((10, 10), 0.1)
    assert len(rounds) > 1
    _assert_close(report.objective_trace,
                  [np.sum(L * K) - np.linalg.slogdet(L + J)[1] for L in rounds])


def _planted_k2_similarity(sample_seed=2):
    pg = random_k_component_graph(10, 2, seed=1, extra_edge_prob=1.0)
    return correlation_from_covariance(
        sample_covariance(sample_gmrf(pg.L_true, 2000, seed=sample_seed)))


@pytest.mark.parametrize("sample_seed, rejects", [(2, 0), (4, 1)])
def test_k_component_trace_holds_the_documented_objectives(monkeypatch, sample_seed, rejects):
    # tr(LS) - log det(L + VV^T) + eta tr(V^T L V) with each full L-step's
    # subspace V: after the first step, then before and after every later
    # one, never at the seed
    S = _planted_k2_similarity(sample_seed)
    seeds, outer = [], []
    tv, l_step = solvers.learn_time_varying, solvers.solve_l_subproblem

    def seed_capturing(*args):
        out = tv(*args)
        seeds.append(out[0][0])
        return out

    def capturing(K, cfg=None, w0=None, null_basis=None):
        L, rep = l_step(K, cfg, w0=w0, null_basis=null_basis)
        outer.append((null_basis, L))
        return L, rep

    monkeypatch.setattr(solvers, "learn_time_varying", seed_capturing)
    monkeypatch.setattr(solvers, "solve_l_subproblem", capturing)
    cfg = SolverConfig(k=2)
    L_out, report = learn_k_component(S, cfg)
    (L_mle,) = seeds
    L = L_mle * (10 / np.trace(L_mle))  # the seed: the MLE scaled to trace p
    assert len(outer) > 1

    def relaxed(L, V):
        return (np.sum(L * S) - np.linalg.slogdet(L + V @ V.T)[1]
                + cfg.eta * np.trace(V.T @ L @ V))

    def feasible(L):
        return np.abs(np.diag(L) - 1.0).max() <= solvers._DEGREE_TOL

    # the seed is the first warm start and degree-infeasible, so its value is
    # left out and the first step is never rejected; a later step whose
    # result is above its (feasible) warm start is rejected: the trace
    # repeats the warm start's value, the alternation stops and returns the
    # warm start
    assert not feasible(L)
    want, rejected = [], 0
    for i, (V, L_new) in enumerate(outer):
        assert not rejected  # the alternation stops at a rejected step
        before, after = relaxed(L, V), relaxed(L_new, V)
        if i:
            want.append(before)
        if after > before and feasible(L):
            rejected += 1
            want.append(before)
        else:
            want.append(after)
            L = L_new
    assert rejected == rejects
    _assert_close(report.objective_trace, want)
    assert bitwise_equal(L_out, L)


@pytest.mark.parametrize("solve", [
    lambda: solve_l_subproblem(random_spd(np.random.default_rng(8), 10)),
    lambda: learn_k_component(_planted_k2_similarity(), SolverConfig(k=2)),
], ids=["l_subproblem", "k_component"])
def test_report_iterations_sum_every_spg_call(monkeypatch, solve):
    # the k-component solver's seed counts too
    iterations = []
    spg = solvers._spg

    def counting(*args, **kwargs):
        out = spg(*args, **kwargs)
        iterations.append(out[3])
        return out

    monkeypatch.setattr(solvers, "_spg", counting)
    _, report = solve()
    assert report.iterations == sum(iterations)


def _factor_covariance():
    # daily-return covariances: entries about 1e-4
    return sample_covariance(simulate_factor_market(p=10, n=500, seed=0).returns)


@pytest.mark.parametrize("similarity", [_planted_k2_similarity, _factor_covariance],
                         ids=["correlation", "covariance"])
def test_k_component_seed_is_the_loose_mle_scaled_to_trace_p(monkeypatch, similarity):
    # the seed is the connected MLE of S to inner_tol _SEED_TOL, with alpha
    # 0 whatever the config's, times p / tr L; the first full L-step starts
    # from its weights, in its k-subspace
    S = similarity()
    seed_calls, l_steps = [], []
    tv, l_step = solvers.learn_time_varying, solvers.solve_l_subproblem

    def seed_capturing(S_seq, n_seq, cfg):
        out = tv(S_seq, n_seq, cfg)
        seed_calls.append((S_seq, n_seq, cfg, out[0][0]))
        return out

    def capturing(K, cfg=None, w0=None, null_basis=None):
        l_steps.append((w0, null_basis))
        return l_step(K, cfg, w0=w0, null_basis=null_basis)

    monkeypatch.setattr(solvers, "learn_time_varying", seed_capturing)
    monkeypatch.setattr(solvers, "solve_l_subproblem", capturing)
    learn_k_component(S, SolverConfig(k=2, alpha=0.3))
    ((S_seq, n_seq, seed_cfg, L_mle),) = seed_calls
    assert seed_cfg == SolverConfig(inner_tol=solvers._SEED_TOL)
    assert len(S_seq) == 1 and np.array_equal(S_seq[0], S) and n_seq == [1]
    monkeypatch.undo()
    assert bitwise_equal(L_mle, learn_connected_mle(S, seed_cfg)[0])

    p = len(S)
    seed = L_mle * (p / np.trace(L_mle))
    assert np.trace(seed) == pytest.approx(p, rel=1e-14)
    assert np.abs(np.diag(seed) - 1.0).max() > solvers._DEGREE_TOL  # the seed is rough
    w0, V = l_steps[0]
    assert bitwise_equal(w0, weights_from_laplacian(seed))
    U = fan_subspace(L_mle, 2)
    assert np.linalg.norm(V @ V.T - U @ U.T, 2) <= 1e-10


def test_k_component_converges_on_covariance_scale_input():
    # the MLE of a 1e-4-scale S is a Laplacian of about 1e4, which the seed
    # scales to trace p before the first L-step
    L, report = learn_k_component(_factor_covariance(), SolverConfig(k=2))
    assert report.converged and num_components(L) == 2
    assert report.constraint_residuals["degree"] <= 1e-6


def test_k_component_leaves_alpha_out():
    # unit degrees fix sum(w) = p/2, so alpha is a constant there, seed included
    S = _planted_k2_similarity()
    L0, report0 = learn_k_component(S, SolverConfig(k=2))
    L1, report1 = learn_k_component(S, SolverConfig(k=2, alpha=0.3))
    assert bitwise_equal(L0, L1) and report0.iterations == report1.iterations
    assert bitwise_equal(report0.objective_trace, report1.objective_trace)


def test_k_component_never_returns_an_infeasible_warm_start(monkeypatch):
    # a trace-p seed off unit degrees: w* (the k-component solution) moved
    # against the mean-removed gradient of the relaxed objective on its
    # positive pairs, which keeps sum(w), the support and so the subspace,
    # and lowers the objective below L*'s, so below the first full step's
    # result; a guard that kept any warm start better than the step's result
    # would return it, with degree residual ~0.05
    S = _planted_k2_similarity()
    cfg = SolverConfig(k=2)
    L_star, _ = learn_k_component(S, cfg)
    V = fan_subspace(L_star, 2)
    N = V @ V.T
    w_star = weights_from_laplacian(L_star)
    g = laplacian_adjoint(S + cfg.eta * N) - laplacian_adjoint(np.linalg.inv(L_star + N))
    positive = w_star > 0.0
    seed = laplacian_from_weights(w_star - 0.05 * np.where(positive, g - g[positive].mean(), 0.0))
    full_steps = []
    tv, l_step = solvers.learn_time_varying, solvers.solve_l_subproblem

    def infeasible_seed(*args):
        _, reports = tv(*args)
        return [seed], reports

    def capturing(K, cfg=None, w0=None, null_basis=None):
        L, rep = l_step(K, cfg, w0=w0, null_basis=null_basis)
        full_steps.append((null_basis, rep))
        return L, rep

    monkeypatch.setattr(solvers, "learn_time_varying", infeasible_seed)
    monkeypatch.setattr(solvers, "solve_l_subproblem", capturing)
    L, report = learn_k_component(S, cfg)
    V, first = full_steps[0]
    seed_objective = (np.sum(seed * S) - np.linalg.slogdet(seed + V @ V.T)[1]
                      + cfg.eta * np.trace(V.T @ seed @ V))
    assert seed_objective < first.objective_trace[-1]
    assert np.trace(seed) == pytest.approx(10, rel=1e-8)
    assert np.abs(np.diag(seed) - 1.0).max() > 0.04
    degree = float(np.abs(np.diag(L) - 1.0).max())
    assert degree <= 1e-6
    assert report.constraint_residuals["degree"] == degree
    assert report.converged and num_components(L) == 2


def test_dual_rounds_follow_the_tolerance_schedule(monkeypatch):
    # each dual round's SPG tolerance: the cap first, then 1e-2 times the
    # previous degree residual, never outside [inner_tol, cap]; a converged
    # L-step ends on a round at exactly inner_tol
    tols, residuals = [], []
    spg = solvers._spg

    def recording(fun, w0, tol):
        tols.append(tol)
        out = spg(fun, w0, tol)
        residuals.append(np.abs(degrees_from_weights(out[0], 10) - 1.0).max())
        return out

    monkeypatch.setattr(solvers, "_spg", recording)
    cfg = SolverConfig()
    cap = solvers._AL_TOL_CAP
    K = random_spd(np.random.default_rng(8), 10)
    _, report = solve_l_subproblem(K, cfg)
    assert report.converged and len(tols) > 2
    assert tols[0] == cap
    assert tols[1:] == [max(cfg.inner_tol, min(cap, 1e-2 * res)) for res in residuals[:-1]]
    assert all(cfg.inner_tol <= tol <= cap for tol in tols)
    assert tols[-1] == cfg.inner_tol

    # K = (p-1)/p I makes the uniform start the minimizer: the first, loose
    # round is already feasible and stationary, yet only a round at
    # inner_tol may end the solve
    tols.clear()
    _, report = solve_l_subproblem(0.9 * np.eye(10), cfg)
    assert report.converged and tols == [cap, cfg.inner_tol]
    assert report.constraint_residuals["degree"] <= 1e-12

    # out of rounds before one ran at inner_tol: flagged unconverged, even
    # where the last loose round met the degree tolerance
    for K, rounds in ((K, 3), (0.9 * np.eye(10), 1)):
        monkeypatch.setattr(solvers, "_MAX_OUTER_ITERS", rounds)
        tols.clear()
        _, report = solve_l_subproblem(K, cfg)
        assert len(tols) == rounds and all(tol > cfg.inner_tol for tol in tols)
        assert not report.converged


# --- learn_time_varying -----------------------------------------------------

def _similarity_sequence(T, p=6, seed=0, level=lambda t: 0.3):
    seqs, ns = [], []
    for t in range(T):
        sim = simulate_factor_market(p, 30, regimes=((30, level(t)),), seed=seed * 977 + t)
        seqs.append(correlation_from_covariance(sample_covariance(sim.returns)))
        ns.append(30)
    return seqs, ns


def test_tv_delta_zero_matches_static():
    seqs, ns = _similarity_sequence(5, seed=1)
    cfg = SolverConfig(delta=0.0, inner_tol=1e-9)
    Ls, _ = learn_time_varying(seqs, ns, cfg)
    for S, L in zip(seqs, Ls):
        L_static, _ = learn_connected_mle(S, cfg)
        assert np.abs(L - L_static).max() <= 1e-6


@pytest.mark.parametrize("delta", [0.0, 100.0])
def test_one_window_tv_is_the_mle_bitwise(delta):
    # one window has no neighbour to couple to: the time-varying solver
    # minimizes the MLE objective from the same start, float for float, and
    # reports the same solve
    seqs, _ = _similarity_sequence(5, p=10, seed=7, level=lambda t: 0.1 + 0.15 * t)
    for alpha in (0.0, 0.05):
        cfg = SolverConfig(alpha=alpha, delta=delta)
        for S in seqs:
            (L_tv,), (rep_tv,) = learn_time_varying([S], [30], cfg)
            L_mle, rep_mle = learn_connected_mle(S, cfg)
            assert bitwise_equal(L_tv, L_mle)
            assert _same_report(rep_tv, rep_mle)


def test_tv_windows_run_no_spectral_decomposition(monkeypatch):
    # a report holds what the solve measured; the component count is read off L
    # by whoever needs it, so no window pays for an eigendecomposition
    calls = []

    def counted(real):
        def wrapper(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return wrapper

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    seqs, ns = _similarity_sequence(4, p=6, seed=2)
    for cfg in (SolverConfig(), SolverConfig(memory=2, alpha=0.05)):
        L_seq, reports = learn_time_varying(seqs, ns, cfg)
        assert len(reports) == 4 and all(r.converged for r in reports)
    assert calls == []
    assert num_components(L_seq[0]) == 1 and calls == ["eigvalsh"]  # the counter counts


def test_tv_constant_input_is_fixed_point():
    seqs, _ = _similarity_sequence(1, seed=2)
    Ls, _ = learn_time_varying([seqs[0]] * 6, [30] * 6, SolverConfig(delta=100.0))
    for L in Ls[1:]:
        assert np.abs(L - Ls[0]).max() <= 1e-6


def test_tv_large_delta_smooths_strictly():
    seqs, ns = _similarity_sequence(8, seed=3, level=lambda t: 0.1 if t < 4 else 0.7)
    L_mid, _ = learn_time_varying(seqs, ns, SolverConfig(delta=100.0))
    L_big, _ = learn_time_varying(seqs, ns, SolverConfig(delta=1e8))
    for t in range(7):
        d_mid = float(np.sum((L_mid[t + 1] - L_mid[t]) ** 2))
        d_big = float(np.sum((L_big[t + 1] - L_big[t]) ** 2))
        assert d_big < d_mid


def test_tv_prefix_invariance_bitwise():
    seqs, ns = _similarity_sequence(9, seed=4, level=lambda t: 0.2 + 0.05 * t)
    full, _ = learn_time_varying(seqs, ns, SolverConfig(delta=100.0))
    prefix, _ = learn_time_varying(seqs[:5], ns[:5], SolverConfig(delta=100.0))
    for a, b in zip(prefix, full[:5]):
        assert np.array_equal(a, b)


def test_tv_memory_window_runs_and_stays_causal():
    seqs, ns = _similarity_sequence(5, p=5, seed=5, level=lambda t: 0.2 + 0.1 * t)
    cfg = SolverConfig(delta=50.0, memory=2)
    full, _ = learn_time_varying(seqs, ns, cfg)
    prefix, _ = learn_time_varying(seqs[:3], ns[:3], cfg)
    for L in full:
        validate_laplacian(L)
    for a, b in zip(prefix, full[:3]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("memory", [2, 3])
def test_tv_memory_is_inert_at_delta_zero(memory):
    # delta = 0 decouples the windows: the older graphs of a joint window are
    # already solved, so only the newest one is, from the same warm start
    seqs, ns = _similarity_sequence(5, p=8, seed=6, level=lambda t: 0.1 + 0.07 * t)
    ref, _ = learn_time_varying(seqs, ns, SolverConfig(delta=0.0))
    for a, b in zip(learn_time_varying(seqs, ns, SolverConfig(delta=0.0, memory=memory))[0], ref):
        assert bitwise_equal(a, b)


@pytest.mark.parametrize("memory, delta", [(1, 100.0), (2, 0.0), (3, 100.0)])
def test_tv_solves_each_window_with_one_spg_call(monkeypatch, memory, delta):
    seqs, ns = _similarity_sequence(5, p=6, seed=6, level=lambda t: 0.1 + 0.07 * t)
    traces = _traced_spg(monkeypatch)
    learn_time_varying(seqs, ns, SolverConfig(delta=delta, memory=memory))
    assert len(traces) == 5


@pytest.mark.parametrize("memory, delta", [(1, 100.0), (2, 20.0), (1, 0.0), (3, 0.0)])
def test_tv_windows_start_from_the_extrapolated_estimate(monkeypatch, memory, delta):
    # coupled windows start the newest graph at max(2 w_{t-1} - w_{t-2}, w_{t-1}/2)
    # from t = 2 on, uncoupled ones at w_{t-1}; older blocks keep their stored
    # estimates
    seqs, ns = _similarity_sequence(6, p=6, seed=6, level=lambda t: 0.1 + 0.07 * t)
    m = 15
    calls = []
    spg = solvers._spg

    def recording(fun, w0, tol):
        out = spg(fun, w0, tol)
        calls.append((w0.copy(), out[0][-m:]))
        return out

    monkeypatch.setattr(solvers, "_spg", recording)
    learn_time_varying(seqs, ns, SolverConfig(delta=delta, memory=memory))
    assert len(calls) == 6
    w_hist = [np.full(m, 1.0 / 5)] + [w for _, w in calls]  # [s + 1] holds graph s
    for t, (w0, _) in enumerate(calls):
        *older, newest = np.split(w0, len(w0) // m)
        if delta > 0 and t >= 2:
            assert bitwise_equal(newest, np.maximum(2 * w_hist[t] - w_hist[t - 1], 0.5 * w_hist[t]))
        else:
            assert bitwise_equal(newest, w_hist[t])
        assert len(older) == (min(memory, t + 1) - 1 if delta > 0 else 0)
        for s, block in enumerate(older, start=t - len(older)):
            assert bitwise_equal(block, w_hist[s + 1])


@pytest.mark.parametrize("memory, budget", [(1, 400), (2, 2_000), (3, 4_000)])
def test_rolling_windows_converge_within_an_evaluation_budget(monkeypatch, memory, budget):
    # 41 stride-1 windows of 30 rows at p=20 across a correlation regime
    # change.  Stepping in the model metric with the Armijo test's 1e-10 |f|
    # rounding band takes 304 objective evaluations at memory 1, and 1,783
    # and 3,739 for joint windows of 2 and 3 graphs in the block model (each
    # block's diagonal block of the coupling Hessian plus its log-det
    # diagonal).  A plain monotone search (band 0) stalls at the rounding
    # floor and takes 314, 2,038 and 3,862, over the bound at memory 2.
    returns = simulate_factor_market(20, 70, regimes=((35, 0.1), (35, 0.8)), seed=3).returns.returns
    S_seq = [np.corrcoef(returns[s : s + 30], rowvar=False) for s in range(41)]
    evaluations = []
    likelihood = solvers._likelihood

    def counted_likelihood(*args, **kwargs):
        fun = likelihood(*args, **kwargs)

        def counted(w):
            evaluations.append(1)
            return fun(w)

        return counted

    monkeypatch.setattr(solvers, "_likelihood", counted_likelihood)
    _, reports = learn_time_varying(S_seq, [30] * 41, SolverConfig(memory=memory))
    assert len(reports) == 41 and all(r.converged for r in reports)
    assert len(evaluations) <= budget


def _joint_program(seqs, ns, delta):
    """The docstring program of ``learn_time_varying`` over all of ``seqs``,
    on the reference operators, as ``x -> (value, gradient)``."""
    p, T = seqs[0].shape[0], len(seqs)
    J = np.full((p, p), 1.0 / p)
    cs = [reference_ops.laplacian_adjoint(S) for S in seqs]

    def fg(x):
        W = x.reshape(T, -1)
        Ls = [reference_ops.laplacian_from_weights(w, p) for w in W]
        f, G = 0.0, np.zeros_like(W)
        for s in range(T):
            sign, logdet = np.linalg.slogdet(Ls[s] + J)
            if sign <= 0:
                return 1e10, np.zeros_like(x)
            f += ns[s] * (cs[s] @ W[s] - logdet)
            G[s] += ns[s] * (cs[s] - reference_ops.laplacian_adjoint(np.linalg.inv(Ls[s] + J)))
        for s in range(1, T):
            D = Ls[s] - Ls[s - 1]
            f += delta * np.sum(D * D)
            G[s] += 2.0 * delta * reference_ops.laplacian_adjoint(D)
            G[s - 1] -= 2.0 * delta * reference_ops.laplacian_adjoint(D)
        return f, G.ravel()

    return fg


@pytest.mark.parametrize("delta", [20.0, 100.0])
def test_tv_full_memory_matches_the_joint_program(delta):
    # at memory = T the last window is the whole joint program, so the last
    # graph must be the joint minimizer's newest one.  Gaps to this oracle:
    # 1.7e-7 (delta 20) and 2.0e-6 (delta 100) for one joint SPG per window;
    # 3.0e-4 and 1.8e-3 for the cyclic block sweeps it replaced
    seqs, ns = _similarity_sequence(3, p=8, seed=6, level=lambda t: 0.2 + 0.05 * t)
    L_last = learn_time_varying(seqs, ns, SolverConfig(delta=delta, memory=3))[0][-1]
    m = 8 * 7 // 2
    res = minimize(_joint_program(seqs, ns, delta), np.full(3 * m, 1.0 / 7), jac=True,
                   method="L-BFGS-B", bounds=[(0.0, None)] * (3 * m),
                   options=dict(maxiter=50000, maxfun=100000, ftol=0.0, gtol=1e-12, maxcor=30))
    L_oracle = reference_ops.laplacian_from_weights(res.x[-m:], 8)
    assert np.abs(L_last - L_oracle).max() <= 1e-4


def test_tv_validates_inputs():
    seqs, ns = _similarity_sequence(2, seed=6)
    with pytest.raises(ValueError, match="dimension"):
        learn_time_varying([seqs[0], np.eye(3)], [30, 30], SolverConfig())
    with pytest.raises(ValueError, match="sample counts"):
        learn_time_varying(seqs, [30], SolverConfig())
    # a count is checked as given, never cut to an integer
    for count in (0, 1.5, float("nan"), True):
        with pytest.raises(ValueError, match=f"sample count of window 1 must be an integer of at least 1, got {count}"):
            learn_time_varying(seqs, [30, count], SolverConfig())


def test_solver_config_validation():
    # an infinite tolerance would return the start as converged after 0
    # iterations, a NaN one would never stop; a fractional k or memory would
    # fail deep inside a solve on a slice index
    for value in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match=f"inner_tol must be positive and finite, got {value}"):
            SolverConfig(inner_tol=value)
    for name in ("k", "memory"):
        for value in (0, 1.5, 2.5, True):
            with pytest.raises(ValueError, match=f"{name} must be an integer of at least 1, got {value}"):
                SolverConfig(**{name: value})
    assert SolverConfig(k=np.int64(2), memory=np.int64(3)).memory == 3
    for name in ("alpha", "eta", "gamma", "delta"):
        for value in (-1.0, float("nan")):
            with pytest.raises(ValueError, match=f"{name} must be nonnegative, got {value}"):
                SolverConfig(**{name: value})
        with pytest.raises(ValueError, match=f"{name} must be finite, got inf"):
            SolverConfig(**{name: float("inf")})


# --- operator rewrites keep every float ---------------------------------------

def _traced_spg(monkeypatch):
    """Record the objective trace of every SPG call made by the solvers."""
    traces = []
    spg = solvers._spg

    def recording(*args, **kwargs):
        out = spg(*args, **kwargs)
        traces.append(np.asarray(out[5]))
        return out

    monkeypatch.setattr(solvers, "_spg", recording)
    return traces


def _with_reference_operators(monkeypatch, run):
    """``run()`` once as it is and once on the reference operators."""
    results = []
    for patched in (False, True):
        with monkeypatch.context() as mp:
            traces = _traced_spg(mp)
            calls = []
            if patched:
                for name, fn in reference_ops.OPERATORS.items():
                    def counted(*args, _fn=fn, **kwargs):
                        calls.append(_fn)
                        return _fn(*args, **kwargs)

                    mp.setattr(solvers, name, counted)
            results.append((run(), traces))
            if patched:
                assert calls  # the reference operators really ran
    return results


TV_CONFIGS = [SolverConfig(delta=100.0), SolverConfig(delta=100.0, memory=2)]


def test_tv_bitwise_equal_to_reference_operators(monkeypatch):
    seqs, ns = _similarity_sequence(10, p=8, seed=6, level=lambda t: 0.2 + 0.05 * t)
    for cfg in TV_CONFIGS:
        (fast, fast_traces), (slow, slow_traces) = _with_reference_operators(
            monkeypatch, lambda: learn_time_varying(seqs, ns, cfg)[0]
        )
        assert len(fast) == len(slow) == 10
        for a, b in zip(fast, slow):
            assert bitwise_equal(a, b)
        assert len(fast_traces) == len(slow_traces) >= 10
        for a, b in zip(fast_traces, slow_traces):
            assert bitwise_equal(a, b)


def test_subproblem_bitwise_equal_to_reference_operators(monkeypatch):
    K = random_spd(np.random.default_rng(8), 10)
    (fast, fast_traces), (slow, slow_traces) = _with_reference_operators(
        monkeypatch, lambda: solve_l_subproblem(K)
    )
    (L_fast, rep_fast), (L_slow, rep_slow) = fast, slow
    assert bitwise_equal(L_fast, L_slow)
    assert bitwise_equal(rep_fast.objective_trace, rep_slow.objective_trace)
    assert rep_fast.iterations == rep_slow.iterations
    assert rep_fast.converged == rep_slow.converged
    assert rep_fast.constraint_residuals == rep_slow.constraint_residuals
    assert len(fast_traces) == len(slow_traces) > 1
    for a, b in zip(fast_traces, slow_traces):
        assert bitwise_equal(a, b)


# --- the gradient runs only on accepted line-search trials ---------------------

def _same_report(a, b) -> bool:
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if not (bitwise_equal(x, y) if isinstance(x, np.ndarray) else x == y):
            return False
    return True


def _counting_inverse(monkeypatch):
    """Count ``np.linalg.inv`` as ``marketgraph.solvers`` sees it."""
    calls = []

    def inv(A):
        calls.append(1)
        return np.linalg.inv(A)

    linalg = types.ModuleType("numpy.linalg")
    linalg.__dict__.update(np.linalg.__dict__)
    linalg.inv = inv
    proxy = types.ModuleType("numpy")
    proxy.__dict__.update(np.__dict__)
    proxy.linalg = linalg
    monkeypatch.setattr(solvers, "np", proxy)
    return calls


def _counted_run(monkeypatch, run, spg=None):
    """``(run(), spg_traces, inv_calls)``, optionally with ``_spg`` swapped."""
    with monkeypatch.context() as mp:
        if spg is not None:
            mp.setattr(solvers, "_spg", spg)
        traces = _traced_spg(mp)
        inv_calls = _counting_inverse(mp)
        return run(), traces, len(inv_calls)


def _mle_run():
    return learn_connected_mle(random_spd(np.random.default_rng(10), 12))


def _subproblem_run():
    return solve_l_subproblem(random_spd(np.random.default_rng(8), 10))


def _tv_run(cfg=TV_CONFIGS[0]):
    seqs, ns = _similarity_sequence(10, p=8, seed=6, level=lambda t: 0.2 + 0.05 * t)
    return learn_time_varying(seqs, ns, cfg)


def _tv_memory2_run():
    return _tv_run(TV_CONFIGS[1])


@pytest.mark.parametrize("run", [_mle_run, _subproblem_run, _tv_run, _tv_memory2_run])
def test_lazy_gradient_bitwise_equal_to_eager_spg(monkeypatch, run):
    eager_calls = []

    def eager_spg(*args, **kwargs):
        eager_calls.append(1)
        return reference_ops.eager_spg(*args, **kwargs)

    lazy, lazy_traces, lazy_inv = _counted_run(monkeypatch, run)
    eager, eager_traces, eager_inv = _counted_run(monkeypatch, run, eager_spg)
    (L_lazy, rep_lazy), (L_eager, rep_eager) = lazy, eager
    if not isinstance(L_lazy, list):  # a static solver: one graph, one report
        L_lazy, rep_lazy, L_eager, rep_eager = [L_lazy], [rep_lazy], [L_eager], [rep_eager]
    assert len(L_lazy) == len(L_eager) == len(rep_lazy) == len(rep_eager)
    for a, b, ra, rb in zip(L_lazy, L_eager, rep_lazy, rep_eager):
        assert bitwise_equal(a, b)
        assert _same_report(ra, rb)
    assert len(lazy_traces) == len(eager_traces) >= 1
    for a, b in zip(lazy_traces, eager_traces):
        assert bitwise_equal(a, b)
    # the eager reference really ran, for every SPG call
    assert len(eager_calls) == len(eager_traces)
    # and it inverts on rejected trials too; stepped in the model metric, the
    # coupled windows of _tv_run reject none, so there the counts may be equal
    assert eager_inv > lazy_inv if run is not _tv_run else eager_inv >= lazy_inv


@pytest.mark.parametrize("run", [_mle_run, _subproblem_run, _tv_run])
def test_one_inverse_per_trace_entry(monkeypatch, run):
    # a trace holds the start value plus one entry per accepted step, and
    # those are exactly the points whose gradient SPG asks for
    _, traces, inv_calls = _counted_run(monkeypatch, run)
    assert inv_calls == sum(len(tr) for tr in traces) > 0


def _toy_quadratic(bad_point=None):
    """0.25 (w - 4)^2 in one weight, in the unit metric; ``grad()`` fails at ``bad_point``."""
    calls = {"fun": [], "grad": []}

    def fun(w):
        calls["fun"].append(float(w[0]))

        def grad():
            calls["grad"].append(float(w[0]))
            return None if w[0] == bad_point else (0.5 * (w - 4.0), 1.0, [0.0])

        return 0.25 * float((w[0] - 4.0) ** 2), grad

    return fun, calls


def test_spg_backtracks_when_an_accepted_trial_has_no_gradient():
    # from w=0 the first trial is w=2 (step 1 along -g=2), which passes
    # Armijo; without its gradient the line search must halve to w=1
    fun, calls = _toy_quadratic()
    w, _, _, _, conv, trace = solvers._spg(fun, np.zeros(1), 1e-10)
    assert calls["fun"][:2] == [0.0, 2.0] and trace[1] == 1.0
    assert conv and w[0] == pytest.approx(4.0)

    fun, calls = _toy_quadratic(bad_point=2.0)
    w, _, _, _, conv, trace = solvers._spg(fun, np.zeros(1), 1e-10)
    assert calls["fun"][:3] == [0.0, 2.0, 1.0]
    assert calls["grad"][:3] == [0.0, 2.0, 1.0]
    assert trace[1] == 0.25 * 3.0**2
    assert 2.0 not in calls["grad"][3:]
    assert conv and w[0] == pytest.approx(4.0)
    # the gradient ran once per trace entry, plus the one refused trial
    assert len(calls["grad"]) == len(trace) + 1


def test_spg_rejects_an_infeasible_start():
    def never(*_):
        raise AssertionError("gradient requested at an infeasible value")

    for fun in (
        lambda w: (np.inf, None),
        lambda w: (np.inf, never),
        lambda w: (1.0, lambda: None),
    ):
        with pytest.raises(ValueError, match="infeasible starting point"):
            solvers._spg(fun, np.ones(3), 1e-7)


# --- exits of the SPG kernel and the solvers -------------------------------------

def test_spg_stops_when_the_line_search_runs_out_of_halvings():
    # every point off the start is infeasible, so no trial step is ever accepted
    w0 = np.ones(3)

    def fun(w):
        if np.array_equal(w, w0):
            return 1.0, lambda: (np.ones(3), 1.0, [0.0])
        return np.inf, None

    w, f, _, iters, conv, trace = solvers._spg(fun, w0, 1e-7)
    assert conv is False and iters == 1 and trace == [1.0]
    assert np.array_equal(w, w0) and f == 1.0


def test_spg_stops_at_max_iter(monkeypatch):
    a, b = np.array([1.0, 10.0, 100.0]), np.array([1.0, 2.0, 3.0])

    def fun(w):
        return 0.5 * float(a @ (w - b) ** 2), lambda: (a * (w - b), 1.0, [0.0])

    monkeypatch.setattr(solvers, "_INNER_MAX_ITERS", 3)
    _, f, _, iters, conv, trace = solvers._spg(fun, np.full(3, 5.0), 1e-12)
    assert conv is False and iters == 3
    assert len(trace) == 4 and trace[-1] == f  # the start and one entry per accepted step


# --- the model metric of SPG ------------------------------------------------------

def _incidence(p):
    """The degree operator B as a dense p-by-m matrix: column e has ones at both ends of pair e."""
    iu, ju = np.triu_indices(p, k=1)
    B = np.zeros((p, len(iu)))
    B[iu, np.arange(len(iu))] = 1.0
    B[ju, np.arange(len(iu))] = 1.0
    return B


@pytest.mark.parametrize("p", [3, 6, 20])
def test_model_direction_is_the_dense_solve_on_the_free_set(p):
    rng = np.random.default_rng(p)
    B = _incidence(p)
    m = B.shape[1]
    for blocks in (1, 2, 3):
        h, g = rng.uniform(0.1, 10.0, blocks * m), rng.standard_normal(blocks * m)
        beta = list(rng.uniform(0.1, 10.0, blocks))
        if blocks == 3:
            beta[1] = 0.0  # a block off the coupling keeps its diagonal
        w = np.where(rng.random(blocks * m) < 0.4, 0.0, rng.uniform(0.1, 1.0, blocks * m))
        # an active pair (w = 0, g > 0), a free pair at zero (g < 0) and a free positive pair
        w[:3], g[:2] = [0.0, 0.0, 0.5], [abs(g[0]), -abs(g[1])]
        free = ~((w == 0.0) & (g > 0.0))
        P = np.diag(h) + block_diag(*[beta_b * B.T @ B for beta_b in beta])
        want = g / h
        want[free] = np.linalg.solve(P[np.ix_(free, free)], g[free])
        d = solvers._model_direction(w, g, h, beta)
        assert np.abs(d - want).max() <= 1e-10 * np.abs(want).max()
        assert bitwise_equal(solvers._model_direction(w, g, h, [0.0] * blocks), g / h)
        # the unit metric is its own gradient, bit for bit
        assert bitwise_equal(solvers._model_direction(w, g, 1.0, [0.0] * blocks), g)


def test_a_singular_woodbury_system_keeps_the_diagonal_direction():
    # p = 2 at beta = 1e300: I / beta vanishes next to B diag(q) B^T =
    # [[1, 1], [1, 1]], so the Woodbury system is exactly singular
    g, h = np.array([0.5]), np.array([1.0])
    assert bitwise_equal(solvers._model_direction(np.array([1.0]), g, h, [1e300]), g / h)
    # through the public API: the AL's rho climbs to its cap of 1e10 on a
    # covariance-scale K, where Q's entries reach about 1e10; the L-step
    # ends flagged unconverged instead of raising LinAlgError
    S = _factor_covariance()
    L0, _ = learn_connected_mle(S, SolverConfig(inner_tol=1e-1))
    V = fan_subspace(L0, 2)
    _, report = solve_l_subproblem(S + 10.0 * V @ V.T, w0=weights_from_laplacian(L0), null_basis=V)
    assert not report.converged and report.constraint_residuals["degree"] > 1.0


@pytest.mark.parametrize("coupled, dual", [(True, False), (False, True), (True, True), (False, False)])
def test_likelihood_model_is_the_penalty_hessian_plus_the_log_det_diagonal(coupled, dual):
    p, scales, kappa, rho = 6, (1.7, 0.6, 2.3), 0.8, 3.0
    rng = np.random.default_rng(11)
    m = p * (p - 1) // 2
    N = np.full((p, p), 1.0 / p)
    cs = [reference_ops.laplacian_adjoint(random_spd(rng, p)) for _ in scales]
    ws = [rng.uniform(0.1, 1.0, m) for _ in scales]
    anchor = reference_ops.laplacian_from_weights(rng.uniform(0.1, 1.0, m), p) if coupled else None
    y = rng.standard_normal(p) if dual else None
    B = _incidence(p)
    # the Laplacian map as a p^2-by-m matrix, and a_e = e_i - e_j as the columns of A
    Lmap = np.stack([reference_ops.laplacian_from_weights(e, p).ravel() for e in np.eye(m)], axis=1)
    A = B.copy()
    A[np.triu_indices(p, k=1)[1], np.arange(m)] = -1.0

    def log_det_diagonal(scale, w):  # from an explicit inverse
        Sigma = np.linalg.inv(reference_ops.laplacian_from_weights(w, p) + N)
        return np.diag(scale * np.einsum("ie,ij,je->e", A, Sigma, A) ** 2)

    # one block: the model is the exact penalty Hessian plus the log-det diagonal
    fun = solvers._likelihood(p, cs[:1], N, scales[:1], anchor, kappa, dual=y, rho=rho)
    _, h, beta = fun(ws[0])[1]()
    want = log_det_diagonal(scales[0], ws[0])
    if coupled:
        want += 2.0 * kappa * Lmap.T @ Lmap  # the Hessian of kappa ||L(w) - anchor||_F^2
    if dual:
        want += rho * B.T @ B
    P = np.diag(h) + beta[0] * B.T @ B
    assert len(beta) == 1 and np.abs(P - want).max() <= 1e-12 * np.abs(want).max()
    if dual:
        return  # the degree term belongs to one-block solves
    # a window of 2 or 3 blocks: the diagonal blocks of the chain's exact
    # coupling Hessian kappa (T kron 2 Lmap^T Lmap), T = E^T E for the chain's
    # difference operator E, plus each block's log-det diagonal
    for blocks in (2, 3):
        E = np.eye(blocks) - np.eye(blocks, k=-1)  # row j: L_j - L_{j-1}
        if not coupled:
            E = E[1:]  # no anchor: the chain starts at L_0
        T = E.T @ E
        fun = solvers._likelihood(p, cs[:blocks], N, scales[:blocks], anchor, kappa)
        _, h, beta = fun(np.concatenate(ws[:blocks]))[1]()
        assert len(h) == blocks * m and len(beta) == blocks
        for b in range(blocks):
            want = log_det_diagonal(scales[b], ws[b]) + 2.0 * kappa * T[b, b] * Lmap.T @ Lmap
            P = np.diag(h[b * m : (b + 1) * m]) + beta[b] * B.T @ B
            assert np.abs(P - want).max() <= 1e-12 * np.abs(want).max()


def test_a_point_without_a_model_is_stepped_in_the_unit_metric(monkeypatch):
    # near a disconnected optimum L + N is numerically singular, and some
    # a_e^T inv(L + N) a_e can cancel to exactly 0, as on the way to the
    # optimum of test_mle_of_a_disconnecting_problem_reaches_the_optimum.  Here
    # R_0 is zeroed by hand at the start point.  h then has a zero, so grad()
    # returns the unit metric (h = 1, beta = 0) and SPG starts with a unit-metric step
    p = 5
    rng = np.random.default_rng(4)
    c = reference_ops.laplacian_adjoint(random_spd(rng, p))
    N = np.full((p, p), 1.0 / p)
    w0 = rng.uniform(0.1, 1.0, p * (p - 1) // 2)
    want = solvers._spg(solvers._likelihood(p, [c], N), w0, 1e-10)
    adjoint, calls = solvers.laplacian_adjoint, []

    def cancelled_at_start(M):
        R = adjoint(M)
        if not calls:
            R[0] = 0.0
        calls.append(1)
        return R

    monkeypatch.setattr(solvers, "laplacian_adjoint", cancelled_at_start)
    fun = solvers._likelihood(p, [c], N)
    g0, h0, beta0 = fun(w0)[1]()
    assert h0 == 1.0 and beta0 == [0.0]
    assert g0[0] == c[0]  # R_0 = 0 left c_0 alone
    calls.clear()
    w, f, _, iters, conv, _ = solvers._spg(fun, w0, 1e-10)
    assert conv and iters > 0 and len(calls) > 1
    assert np.abs(w - want[0]).max() <= 1e-6 * np.abs(want[0]).max()
    assert f == pytest.approx(want[1], rel=1e-12)


def test_k_component_flags_a_tie_at_the_eigengap():
    # S = I: the first L-step is the uniform graph on 4 nodes, whose nonzero
    # eigenvalue is 3-fold, so the cut after the 2nd eigenvalue is a tie
    _, report = learn_k_component(np.eye(4), SolverConfig(k=2))
    assert report.eigengap_degenerate is True


def test_tv_empty_sequence():
    assert learn_time_varying([], [], SolverConfig()) == ([], [])
