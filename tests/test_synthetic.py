import numpy as np
import pytest

from marketgraph.laplacian import num_components, pair_indices, validate_laplacian
from marketgraph.synthetic import (
    random_k_component_graph,
    sample_gmrf,
    score_recovery,
    simulate_factor_market,
)


# --- random_k_component_graph ----------------------------------------------

def test_planted_p4_k2_forced_partition():
    pg = random_k_component_graph(4, 2, seed=0)
    assert pg.node_groups == ((0, 1), (2, 3))
    assert pg.edge_support == frozenset({(0, 1), (2, 3)})
    assert num_components(pg.L_true) == 2


def test_planted_nullity_is_exact():
    for seed in range(3):
        pg = random_k_component_graph(9, 3, seed=seed)
        assert num_components(pg.L_true) == 3
        validate_laplacian(pg.L_true)


def test_planted_determinism():
    a = random_k_component_graph(12, 2, seed=7)
    b = random_k_component_graph(12, 2, seed=7)
    assert np.array_equal(a.L_true, b.L_true)
    assert a.edge_support == b.edge_support


def test_planted_rejects_small_components():
    with pytest.raises(ValueError):
        random_k_component_graph(5, 3, seed=0)
    with pytest.raises(ValueError, match="group sizes"):
        random_k_component_graph(5, 2, sizes=(1, 4), seed=0)
    # three groups are three components, whatever k says
    with pytest.raises(ValueError, match="3 group sizes given for k=2 components"):
        random_k_component_graph(10, 2, sizes=(3, 3, 4), seed=0)


def test_planted_explicit_sizes_and_weight_range():
    pg = random_k_component_graph(7, 2, sizes=(3, 4), weight_range=(2.0, 2.5), seed=1)
    assert tuple(len(g) for g in pg.node_groups) == (3, 4)
    w = pg.weights[pg.weights > 0]
    assert w.min() >= 2.0 and w.max() <= 2.5
    with pytest.raises(ValueError, match="positive interval"):
        random_k_component_graph(7, 2, weight_range=(0.0, 2.5), seed=1)


# --- sample_gmrf -------------------------------------------------------------

def test_sampler_zero_laplacian_gives_zero_samples():
    panel = sample_gmrf(np.zeros((4, 4)), 10, seed=0)
    assert np.array_equal(panel.returns, np.zeros((10, 4)))


def test_sampler_nullspace_has_no_variance():
    pg = random_k_component_graph(8, 1, seed=2)
    panel = sample_gmrf(pg.L_true, 200, seed=3)
    assert np.abs(panel.returns.sum(axis=1)).max() <= 1e-9


def test_sampler_component_zero_sums():
    pg = random_k_component_graph(9, 3, seed=4)
    panel = sample_gmrf(pg.L_true, 100, seed=5)
    for group in pg.node_groups:
        assert np.abs(panel.returns[:, list(group)].sum(axis=1)).max() <= 1e-9


def test_sampler_covariance_converges_to_pseudoinverse():
    pg = random_k_component_graph(5, 1, seed=6)
    panel = sample_gmrf(pg.L_true, 100_000, seed=7)
    emp = np.cov(panel.returns, rowvar=False)
    target = np.linalg.pinv(pg.L_true)
    rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
    assert rel <= 0.05


def test_sampler_determinism():
    pg = random_k_component_graph(6, 2, seed=8)
    a = sample_gmrf(pg.L_true, 50, seed=9).returns
    b = sample_gmrf(pg.L_true, 50, seed=9).returns
    assert np.array_equal(a, b)


# --- simulate_factor_market ---------------------------------------------------

def test_factor_market_degenerate_beta_one():
    sim = simulate_factor_market(
        5, 40, beta_range=(1.0, 1.0), regimes=((40, 0.0),), seed=0, residual_vol=0.0
    )
    assert np.abs(sim.returns.returns - sim.market[:, None]).max() <= 1e-15


def test_factor_market_regime_correlation_ordering():
    sim = simulate_factor_market(
        10, 400, regimes=((200, 0.1), (200, 0.8)), seed=1
    )
    b = sim.regime_boundaries[0]

    def mean_offdiag_corr(X):
        C = np.corrcoef(X, rowvar=False)
        iu = pair_indices(C.shape[0])
        return float(C[iu].mean())

    low = mean_offdiag_corr(sim.residuals.returns[:b])
    high = mean_offdiag_corr(sim.residuals.returns[b:])
    assert high > low


def test_factor_market_determinism_and_shapes():
    a = simulate_factor_market(4, 30, regimes=((10, 0.1), (20, 0.5)), seed=2)
    b = simulate_factor_market(4, 30, regimes=((10, 0.1), (20, 0.5)), seed=2)
    assert np.array_equal(a.returns.returns, b.returns.returns)
    assert a.regime_boundaries == (10,)
    assert a.returns.returns.shape == (30, 4)
    with pytest.raises(ValueError, match="regime lengths"):
        simulate_factor_market(4, 30, regimes=((10, 0.1),), seed=0)
    with pytest.raises(ValueError, match="correlation levels"):
        simulate_factor_market(4, 30, regimes=((30, 1.0),), seed=0)
    # a regime below one row: negative, empty at the start, empty past the last row
    for regimes, bad in ((((-10, 0.1), (40, 0.2)), "regime 0 has length -10"),
                         (((0, 0.1), (30, 0.2)), "regime 0 has length 0"),
                         (((30, 0.2), (0, 0.5)), "regime 1 has length 0")):
        with pytest.raises(ValueError, match=bad):
            simulate_factor_market(4, 30, regimes=regimes, seed=0)


# --- score_recovery -----------------------------------------------------------

def test_score_perfect_recovery():
    pg = random_k_component_graph(8, 2, seed=3)
    score = score_recovery(pg.L_true, pg)
    assert score.f_score == 1.0 and score.precision == 1.0 and score.recall == 1.0
    assert score.relative_error == 0.0


def test_score_zero_estimate_has_zero_recall():
    pg = random_k_component_graph(8, 2, seed=4)
    score = score_recovery(np.zeros((8, 8)), pg)
    assert score.recall == 0.0 and score.f_score == 0.0
    assert score.relative_error == pytest.approx(1.0)


def test_score_rejects_a_mismatched_or_non_laplacian_estimate():
    pg = random_k_component_graph(8, 2, seed=4)
    with pytest.raises(ValueError, match="different sizes"):
        score_recovery(np.zeros((7, 7)), pg)
    with pytest.raises(ValueError, match="row sums"):
        score_recovery(np.eye(8), pg)


def test_score_matches_confusion_count_oracle():
    rng = np.random.default_rng(5)
    pg = random_k_component_graph(9, 3, seed=5)
    # random candidate Laplacian
    from marketgraph.laplacian import laplacian_from_weights

    w = rng.uniform(0, 1, 36) * (rng.random(36) < 0.4)
    L_hat = laplacian_from_weights(w)
    threshold = 1e-4 * w.max()
    score = score_recovery(L_hat, pg)

    iu, ju = pair_indices(9)
    tp = fp = fn = 0
    for i, j, wv in zip(iu, ju, w):
        pred = wv > threshold
        true = (int(i), int(j)) in pg.edge_support
        tp += pred and true
        fp += pred and not true
        fn += (not pred) and true
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    assert score.precision == pytest.approx(precision)
    assert score.recall == pytest.approx(recall)
    if precision + recall:
        expected_f = 2 * precision * recall / (precision + recall)
        assert score.f_score == pytest.approx(expected_f)
    # f-score is the harmonic mean of precision and recall by construction
