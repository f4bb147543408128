import numpy as np
import pytest

from marketgraph import solvers
from marketgraph.laplacian import (
    laplacian_from_weights,
    num_components,
    pair_indices,
    spectral_summary,
    validate_laplacian,
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


def test_mle_validates_input():
    with pytest.raises(ValueError, match="symmetric"):
        learn_connected_mle(np.array([[1.0, 0.2], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="finite"):
        learn_connected_mle(np.array([[1.0, np.nan], [np.nan, 1.0]]))


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
    assert report.connected is False
    assert report.nullity == 2
    assert any(isinstance(c.message, DisconnectedGraphWarning) for c in caught)
    validate_laplacian(L)


def test_mle_returns_valid_laplacian():
    rng = np.random.default_rng(1)
    for _ in range(5):
        L, report = learn_connected_mle(random_spd(rng, 6))
        validate_laplacian(L)
        assert report.converged
        # objective trace is monotone under the Armijo line search
        tr = report.objective_trace
        assert np.all(np.diff(tr) <= 1e-12 * np.maximum(1.0, np.abs(tr[:-1])))


# --- learn_smooth_graph -----------------------------------------------------

def test_smooth_p2_closed_form_grid():
    # stationarity z - 2 alpha / w + 2 gamma w = 0
    for z in (0.0, 0.5, 1.0, 2.0):
        for alpha, gamma in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.7)):
            Z = np.array([[0.0, z], [z, 0.0]])
            w = learn_smooth_graph(Z, SolverConfig(alpha=alpha, gamma=gamma))
            expected = (-z + np.sqrt(z * z + 16.0 * alpha * gamma)) / (4.0 * gamma)
            assert w[0] == pytest.approx(expected, abs=1e-6)


def test_smooth_weights_decrease_with_distance():
    cfg = SolverConfig(alpha=1.0, gamma=1.0)
    weights = [
        learn_smooth_graph(np.array([[0.0, z], [z, 0.0]]), cfg)[0]
        for z in (0.0, 0.5, 1.0, 2.0, 4.0)
    ]
    assert all(a > b for a, b in zip(weights, weights[1:]))


def test_smooth_p3_symmetry():
    Z = np.full((3, 3), 2.0)
    np.fill_diagonal(Z, 0.0)
    w = learn_smooth_graph(Z, SolverConfig(alpha=1.0, gamma=1.0))
    assert np.abs(w - w[0]).max() <= 1e-7


def test_smooth_rejects_bad_input():
    with pytest.raises(ValueError, match="negative"):
        learn_smooth_graph(np.array([[0.0, -1.0], [-1.0, 0.0]]), SolverConfig(alpha=1.0))
    with pytest.raises(ValueError, match="alpha"):
        learn_smooth_graph(np.zeros((2, 2)), SolverConfig(alpha=0.0))


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
        assert report.constraint_residuals["sign"] == 0.0


# --- learn_k_component ------------------------------------------------------

def test_k_component_rejects_k_too_large():
    with pytest.raises(ValueError, match="k"):
        learn_k_component(np.eye(3), SolverConfig(k=3))


def test_k1_reduces_to_connected_subproblem():
    rng = np.random.default_rng(5)
    S = random_spd(rng, 5)
    cfg = SolverConfig(k=1, eta=10.0)
    L, report = learn_k_component(S, cfg)
    assert report.connected and report.nullity == 1
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
    assert report.nullity == 2
    assert num_components(L) == 2
    assert np.abs(np.diag(L) - 1.0).max() <= 1e-6  # no isolated nodes
    # note: support F-score against the planted graph is exercised (and
    # documented as unattainable for this sampler) in the acceptance suite
    tr = report.objective_trace
    assert np.all(np.diff(tr) <= 1e-9 * np.abs(tr[:-1]) + 1e-12)


def test_k_component_permutation_equivariance():
    pg = random_k_component_graph(8, 2, seed=3, extra_edge_prob=1.0)
    panel = sample_gmrf(pg.L_true, 4000, seed=4)
    S = correlation_from_covariance(sample_covariance(panel)).entries
    rng = np.random.default_rng(5)
    perm = rng.permutation(8)
    P = np.eye(8)[perm]
    L1, _ = learn_k_component(S, SolverConfig(k=2))
    L2, _ = learn_k_component(P @ S @ P.T, SolverConfig(k=2))
    assert np.abs(P @ L1 @ P.T - L2).max() <= 1e-4


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
    Ls = learn_time_varying(seqs, ns, cfg)
    for S, L in zip(seqs, Ls):
        L_static, _ = learn_connected_mle(S, cfg)
        assert np.abs(L - L_static).max() <= 1e-6


def test_tv_constant_input_is_fixed_point():
    seqs, _ = _similarity_sequence(1, seed=2)
    Ls = learn_time_varying([seqs[0]] * 6, [30] * 6, SolverConfig(delta=100.0))
    for L in Ls[1:]:
        assert np.abs(L - Ls[0]).max() <= 1e-6


def test_tv_large_delta_smooths_strictly():
    seqs, ns = _similarity_sequence(8, seed=3, level=lambda t: 0.1 if t < 4 else 0.7)
    L_mid = learn_time_varying(seqs, ns, SolverConfig(delta=100.0))
    L_big = learn_time_varying(seqs, ns, SolverConfig(delta=1e8))
    for t in range(7):
        d_mid = float(np.sum((L_mid[t + 1] - L_mid[t]) ** 2))
        d_big = float(np.sum((L_big[t + 1] - L_big[t]) ** 2))
        assert d_big < d_mid


def test_tv_prefix_invariance_bitwise():
    seqs, ns = _similarity_sequence(9, seed=4, level=lambda t: 0.2 + 0.05 * t)
    full = learn_time_varying(seqs, ns, SolverConfig(delta=100.0))
    prefix = learn_time_varying(seqs[:5], ns[:5], SolverConfig(delta=100.0))
    for a, b in zip(prefix, full[:5]):
        assert np.array_equal(a, b)


def test_tv_memory_window_runs_and_stays_causal():
    seqs, ns = _similarity_sequence(5, p=5, seed=5, level=lambda t: 0.2 + 0.1 * t)
    cfg = SolverConfig(delta=50.0, memory=2, outer_tol=1e-4)
    full = learn_time_varying(seqs, ns, cfg)
    prefix = learn_time_varying(seqs[:3], ns[:3], cfg)
    for L in full:
        validate_laplacian(L)
    for a, b in zip(prefix, full[:3]):
        assert np.array_equal(a, b)


def test_tv_validates_inputs():
    seqs, ns = _similarity_sequence(2, seed=6)
    with pytest.raises(ValueError, match="dimension"):
        learn_time_varying([seqs[0].entries, np.eye(3)], [30, 30], SolverConfig())
    with pytest.raises(ValueError, match="sample counts"):
        learn_time_varying([s.entries for s in seqs], [30], SolverConfig())
    with pytest.raises(ValueError, match="at least 1"):
        learn_time_varying([s.entries for s in seqs], [30, 0], SolverConfig())


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(inner_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(k=0)
    with pytest.raises(ValueError):
        SolverConfig(memory=0)


# --- operator rewrites keep every float ---------------------------------------

def _traced_spg(monkeypatch):
    """Record the objective trace of every SPG call made by the solvers."""
    traces = []
    spg = solvers._spg

    def recording(*args, **kwargs):
        out = spg(*args, **kwargs)
        traces.append(np.asarray(out[-1]))
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


def test_tv_bitwise_equal_to_reference_operators(monkeypatch):
    seqs, ns = _similarity_sequence(10, p=8, seed=6, level=lambda t: 0.2 + 0.05 * t)
    cfg = SolverConfig(delta=100.0)
    (fast, fast_traces), (slow, slow_traces) = _with_reference_operators(
        monkeypatch, lambda: learn_time_varying(seqs, ns, cfg)
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
