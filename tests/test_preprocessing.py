import datetime

import numpy as np
import pytest

from marketgraph.preprocessing import (
    PricePanel,
    ReturnsPanel,
    correlation_from_covariance,
    distance_matrix,
    log_returns,
    normalize_columns,
    remove_market_factor,
    rolling_windows,
    sample_covariance,
)
from marketgraph.synthetic import simulate_factor_market


def make_panel(X, tickers=None):
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    dates = tuple(datetime.date(2021, 1, 1) + datetime.timedelta(days=i) for i in range(n))
    tickers = tuple(tickers or (f"T{i}" for i in range(p)))
    return ReturnsPanel(dates=dates, tickers=tickers, returns=X)


def make_prices(P, tickers=None):
    P = np.asarray(P, dtype=float)
    n, p = P.shape
    dates = tuple(datetime.date(2021, 1, 1) + datetime.timedelta(days=i) for i in range(n))
    tickers = tuple(tickers or (f"T{i}" for i in range(p)))
    return PricePanel(dates=dates, tickers=tickers, prices=P)


# --- panels and windows -----------------------------------------------------

def test_inconsistent_inputs_are_rejected():
    with pytest.raises(ValueError, match="price matrix shape"):
        make_prices(np.ones((3, 2)), tickers=("A", "B", "C"))
    with pytest.raises(ValueError, match="strictly increasing"):
        PricePanel(dates=(datetime.date(2021, 1, 2), datetime.date(2021, 1, 1)),
                   tickers=("A",), prices=np.ones((2, 1)))
    with pytest.raises(ValueError, match="return matrix shape"):
        make_panel(np.ones((3, 2)), tickers=("A",))
    # the solvers' similarity rule, which correlation_from_covariance applies too
    for S, message in [(np.array([[1.0, 0.5], [0.5 + 2e-8, 1.0]]), "not symmetric"),
                       (np.ones((2, 3)), "square"),
                       (np.ones((1, 1)), "at least 2 nodes"),
                       (np.array([[1.0, np.nan], [np.nan, 1.0]]), "non-finite")]:
        with pytest.raises(ValueError, match=message):
            correlation_from_covariance(S)
    with pytest.raises(ValueError, match="align with the panel dates"):
        remove_market_factor(make_panel(np.ones((4, 2))), np.arange(3.0))


def test_rolling_windows_are_the_row_blocks_at_each_stride():
    panel = make_panel(np.arange(14.0).reshape(7, 2))
    windows = rolling_windows(panel, 3, stride=2)
    assert len(windows) == 3  # starts 0, 2, 4; the tail row 6 alone is left out
    for s, chunk in zip((0, 2, 4), windows):
        assert chunk.dates == panel.dates[s : s + 3] and chunk.tickers == panel.tickers
        assert np.array_equal(chunk.returns, panel.returns[s : s + 3])
    assert len(rolling_windows(panel, 2)) == 6 and len(rolling_windows(panel, 7)) == 1
    for args, message in [((1,), "window length must be at least 2"),
                          ((3, 0), "stride must be at least 1"),
                          ((8,), "7 return rows are fewer than one window of 8")]:
        with pytest.raises(ValueError, match=message):
            rolling_windows(panel, *args)


# --- log_returns ---------------------------------------------------------

def test_log_returns_examples():
    r = log_returns(make_prices([[1.0], [np.e], [np.e]]))
    assert np.allclose(r.returns[:, 0], [1.0, 0.0], atol=1e-15)
    assert r.n == 2 and r.dates == make_prices([[1], [1], [1]]).dates[1:]

    r = log_returns(make_prices([[5.0, 2.0]] * 4))
    assert np.array_equal(r.returns, np.zeros((3, 2)))

    r = log_returns(make_prices([[100.0], [101.0]]))
    assert r.returns[0, 0] == pytest.approx(np.log(1.01), rel=1e-12)


def test_log_returns_rejects_nonpositive():
    with pytest.raises(ValueError, match="non-positive"):
        log_returns(make_prices([[1.0], [-2.0], [3.0]]))


# --- sample_covariance ----------------------------------------------------

def test_sample_covariance_examples():
    S = sample_covariance(make_panel([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]]))
    assert np.array_equal(S, np.zeros((2, 2)))

    S = sample_covariance(make_panel([[1.0, 0.0], [-1.0, 0.0]]))
    assert np.allclose(S, [[2.0, 0.0], [0.0, 0.0]], atol=1e-15)

    with pytest.raises(ValueError, match="at least 2"):
        sample_covariance(make_panel([[1.0, 2.0]]))


def test_sample_covariance_matches_double_loop_oracle():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((5, 3))
    S = sample_covariance(make_panel(X))
    mu = X.mean(axis=0)
    for i in range(3):
        for j in range(3):
            direct = sum((X[t, i] - mu[i]) * (X[t, j] - mu[j]) for t in range(5)) / 4
            assert S[i, j] == pytest.approx(direct, rel=1e-12)


# --- correlation ----------------------------------------------------------

def test_correlation_examples():
    c = correlation_from_covariance(np.array([[4.0, 2.0], [2.0, 1.0]]))
    assert np.allclose(c, np.ones((2, 2)), atol=1e-15)
    assert np.array_equal(correlation_from_covariance(np.diag([3.0, 7.0])), np.eye(2))
    c = correlation_from_covariance(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    assert np.allclose(c, [[1.0, -0.5], [-0.5, 1.0]], atol=1e-15)


def test_correlation_scale_invariance():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((40, 5))
    scales = np.array([0.1, 3.0, 17.0, 0.02, 5.0])
    C1 = correlation_from_covariance(sample_covariance(make_panel(X)))
    C2 = correlation_from_covariance(sample_covariance(make_panel(X * scales)))
    assert np.abs(C1 - C2).max() <= 1e-12


def test_correlation_names_offending_ticker():
    S = sample_covariance(make_panel([[1.0, 1.0], [2.0, 1.0]]))
    with pytest.raises(ValueError, match="zero-variance asset: BBB"):
        correlation_from_covariance(S, ("AAA", "BBB"))
    with pytest.raises(ValueError, match="zero-variance asset: column 1"):
        correlation_from_covariance(S)


def test_correlation_of_a_correlation_is_itself():
    S = correlation_from_covariance(
        sample_covariance(make_panel(np.random.default_rng(3).standard_normal((9, 3))))
    )
    assert np.array_equal(correlation_from_covariance(S), S)


# --- market removal -------------------------------------------------------

def test_market_removal_exact_cases():
    rng = np.random.default_rng(4)
    market = rng.standard_normal(30)
    X = np.column_stack([market, rng.standard_normal(30)])
    out = remove_market_factor(make_panel(X), market)
    assert out.beta[0] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(out.residuals.returns[:, 0]).max() <= 1e-12

    # column orthogonal to the market: beta 0, residual = demeaned column
    y = rng.standard_normal(30)
    m0 = market - market.mean()
    y_orth = y - (m0 @ (y - y.mean())) / (m0 @ m0) * m0
    out = remove_market_factor(make_panel(y_orth[:, None]), market)
    assert out.beta[0] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(out.residuals.returns[:, 0], y_orth - y_orth.mean(), atol=1e-12)


def test_market_removal_recovers_beta_within_3_se():
    rng = np.random.default_rng(5)
    n = 400
    market = rng.standard_normal(n)
    noise = 0.3 * rng.standard_normal(n)
    x = 1.5 * market + noise
    out = remove_market_factor(make_panel(x[:, None]), market)
    m0 = market - market.mean()
    resid = out.residuals.returns[:, 0]
    se = np.sqrt((resid @ resid) / (n - 2) / (m0 @ m0))
    assert abs(out.beta[0] - 1.5) <= 3.0 * se


def test_market_removal_default_market_is_cross_sectional_mean():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((25, 4))
    auto = remove_market_factor(make_panel(X))
    explicit = remove_market_factor(make_panel(X), X.mean(axis=1))
    assert np.array_equal(auto.residuals.returns, explicit.residuals.returns)


def test_market_removal_rejects_flat_market():
    X = np.random.default_rng(7).standard_normal((10, 2))
    with pytest.raises(ValueError, match="zero variance"):
        remove_market_factor(make_panel(X), np.ones(10))


# --- distance matrix ------------------------------------------------------

def test_distance_matrix_examples():
    X = np.random.default_rng(8).standard_normal((6, 1))
    Z = distance_matrix(make_panel(np.column_stack([X, X])))
    assert np.array_equal(Z, np.zeros((2, 2)))

    Z = distance_matrix(make_panel(np.eye(2)))
    assert Z[0, 1] == pytest.approx(2.0)

    rng = np.random.default_rng(9)
    Xr = rng.standard_normal((7, 4))
    Z = distance_matrix(make_panel(Xr))
    for i in range(4):
        for j in range(4):
            direct = float(np.sum((Xr[:, i] - Xr[:, j]) ** 2))
            assert Z[i, j] == pytest.approx(direct, abs=1e-10)


def test_distance_matrix_triangle_inequality_on_roots():
    rng = np.random.default_rng(10)
    for _ in range(20):
        X = rng.standard_normal((rng.integers(3, 12), rng.integers(3, 8)))
        D = np.sqrt(distance_matrix(make_panel(X)))
        p = D.shape[0]
        for i in range(p):
            for j in range(p):
                for k in range(p):
                    assert D[i, j] <= D[i, k] + D[k, j] + 1e-9


# --- market-removal identity in Z (single-factor model) --------------------

def test_distance_market_cancellation_beta_one():
    sim = simulate_factor_market(12, 400, beta_range=(1.0, 1.0), seed=11)
    Z_raw = distance_matrix(sim.returns)
    Z_res = distance_matrix(sim.residuals)
    assert np.abs(Z_raw - Z_res).max() <= 1e-9


def test_distance_market_cancellation_after_normalization():
    # normalization makes the market loadings nearly equal, so the distance
    # matrix of the normalized panel stays close to that of its market
    # residuals even when the raw loadings are only near one
    sim = simulate_factor_market(
        12, 600, beta_range=(0.9, 1.1), seed=12, market_vol=0.02, residual_vol=0.005
    )
    norm = normalize_columns(sim.returns)
    resid = remove_market_factor(norm, sim.market).residuals
    Z_raw = distance_matrix(norm)
    Z_res = distance_matrix(resid)
    rel = np.linalg.norm(Z_raw - Z_res) / np.linalg.norm(Z_res)
    assert rel <= 0.10


# --- normalize_columns ----------------------------------------------------

def test_normalize_columns_examples():
    out = normalize_columns(make_panel([[1.0], [-1.0]]))
    assert np.allclose(out.returns[:, 0], [1.0, -1.0], atol=1e-15)
    out = normalize_columns(make_panel([[2.0], [0.0]]))
    assert np.allclose(out.returns[:, 0], [1.0, -1.0], atol=1e-15)


def test_normalize_columns_affine_invariance():
    rng = np.random.default_rng(13)
    x = rng.standard_normal(50)
    a = normalize_columns(make_panel(x[:, None])).returns
    b = normalize_columns(make_panel((3.5 * x + 7.0)[:, None])).returns
    assert np.abs(a - b).max() <= 1e-12


def test_normalize_columns_rejects_constant():
    with pytest.raises(ValueError, match="constant column"):
        normalize_columns(make_panel([[1.0], [1.0], [1.0]]))
