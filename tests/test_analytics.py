import datetime

import numpy as np
import pytest

from marketgraph.analytics import (
    IndicatorSeries,
    compute_indicators,
    cumulative_pnl,
    strategy_s1,
    strategy_s2,
)
from marketgraph.laplacian import laplacian_from_weights, spectral_summary, time_consistency
from marketgraph.preprocessing import (
    ReturnsPanel,
    correlation_from_covariance,
    rolling_windows,
    sample_covariance,
)
from marketgraph.solvers import SolverConfig, learn_time_varying
from marketgraph.synthetic import simulate_factor_market


def day(i):
    return datetime.date(2022, 1, 1) + datetime.timedelta(days=i)


def make_returns(X):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    n, p = X.shape
    return ReturnsPanel(
        dates=tuple(day(i) for i in range(n)),
        tickers=tuple(f"T{i}" for i in range(p)),
        returns=X,
    )


def make_indicators(values, start_day=0):
    values = np.asarray(values, dtype=float)
    return IndicatorSeries(
        dates=tuple(day(start_day + i) for i in range(len(values))),
        algebraic_connectivity=values,
        spectral_radius=values + 1.0,
        time_consistency=np.zeros(max(len(values) - 1, 0)),
    )


# --- compute_indicators -------------------------------------------------------

def test_indicators_constant_sequence():
    L = laplacian_from_weights(np.ones(3))
    ind = compute_indicators([L, L, L], [day(0), day(1), day(2)])
    assert np.array_equal(ind.time_consistency, np.zeros(2))
    assert np.allclose(ind.algebraic_connectivity, 3.0)


def test_indicators_connectivity_drop():
    K3 = laplacian_from_weights(np.ones(3))
    K3_padded = np.zeros((4, 4))
    K3_padded[:3, :3] = K3  # fourth node isolated: disconnected
    ind = compute_indicators([laplacian_from_weights(np.ones(6)), K3_padded], [day(0), day(1)])
    assert ind.algebraic_connectivity[0] > 1.0
    assert abs(ind.algebraic_connectivity[1]) <= 1e-9


def test_indicators_match_spectral_ops():
    rng = np.random.default_rng(0)
    Ls = [laplacian_from_weights(rng.uniform(0, 2, 10)) for _ in range(4)]
    ind = compute_indicators(Ls, [day(i) for i in range(4)])
    for t, L in enumerate(Ls):
        s = spectral_summary(L)
        assert ind.algebraic_connectivity[t] == s.algebraic_connectivity
        assert ind.spectral_radius[t] == s.spectral_radius
    for t in range(3):
        assert ind.time_consistency[t] == time_consistency(Ls[t + 1], Ls[t])


def test_indicators_validation():
    L = laplacian_from_weights(np.ones(3))
    with pytest.raises(ValueError, match="empty"):
        compute_indicators([], [])
    with pytest.raises(ValueError, match="dimension"):
        compute_indicators([L, np.zeros((4, 4))], [day(0), day(1)])
    with pytest.raises(ValueError, match="dates must align"):
        compute_indicators([L, L], [day(0)])


def test_indicators_that_overflow_name_their_window():
    P = laplacian_from_weights(np.ones(1))  # the 2-node path [[1, -1], [-1, 1]]
    with pytest.raises(ValueError, match="window 0: algebraic connectivity is not finite"):
        compute_indicators([1.7e308 * P], [day(0)])  # eigenvalues 0 and 3.4e308
    days = [day(0), day(1), day(2)]
    K3 = laplacian_from_weights(np.ones(3))
    heavy = laplacian_from_weights(np.array([1.0, 0.0, 1.7e308]))  # eigenvalues 0, 1, inf
    with pytest.raises(ValueError, match="window 1: spectral radius is not finite"):
        compute_indicators([K3, heavy, K3], days)
    # every spectrum finite (at most 2e200), but ||L_2 - L_1||_F^2 ~ 4e400 overflows
    with pytest.raises(ValueError, match="window 2: time consistency is not finite"):
        compute_indicators([P, P, 1e200 * P], days)


# --- strategies ----------------------------------------------------------------

def test_s1_examples():
    r = strategy_s1(make_returns([0.01, -0.02, 0.03]))
    assert np.allclose(r.cumulative_pnl, [0.01, -0.01, 0.02], atol=1e-15)

    r = strategy_s1(make_returns(np.zeros((5, 3))))
    assert np.array_equal(r.cumulative_pnl, np.zeros(5))

    r = strategy_s1(make_returns([[0.02, 0.0]]))
    assert r.daily_pnl[0] == pytest.approx(0.01)


def test_s2_gate_always_closed():
    returns = make_returns([0.01, 0.02, 0.03])
    ind = make_indicators([5.0, 5.0, 5.0])  # connectivity always >= tau
    r = strategy_s2(returns, ind, tau=1.0)
    assert np.array_equal(r.positions, np.zeros(3))
    assert np.array_equal(r.cumulative_pnl, np.zeros(3))


def test_s2_gate_always_open_matches_s1_bitwise():
    rng = np.random.default_rng(1)
    returns = make_returns(rng.standard_normal((10, 4)) * 0.01)
    # indicators lead the returns by one day, so every day is gated
    ind = make_indicators(np.full(10, 0.5), start_day=-1)
    s2 = strategy_s2(returns, ind, tau=1.0)
    s1 = strategy_s1(returns)
    assert np.array_equal(s2.positions, np.ones(10))
    assert np.array_equal(s2.daily_pnl, s1.daily_pnl)
    assert np.array_equal(s2.cumulative_pnl, s1.cumulative_pnl)


def test_s2_tau_infinity_reproduces_s1_and_minus_infinity_is_flat():
    rng = np.random.default_rng(2)
    returns = make_returns(rng.standard_normal((8, 3)) * 0.01)
    ind = make_indicators(rng.uniform(0.0, 3.0, 8), start_day=-1)
    s1 = strategy_s1(returns)
    s2_inf = strategy_s2(returns, ind, tau=np.inf)
    assert np.array_equal(s2_inf.cumulative_pnl, s1.cumulative_pnl)
    s2_ninf = strategy_s2(returns, ind, tau=-np.inf)
    assert np.array_equal(s2_ninf.cumulative_pnl, np.zeros(8))


def test_s2_four_day_hand_fixture():
    # connectivity (0.5, 2.0, 0.5) on days 1..3; trading days 1..4 with lag:
    # positions (-, 1, 0, 1), pnl (0, rbar2, 0, rbar4)
    X = np.array([[0.010, 0.030], [0.020, 0.000], [0.040, -0.020], [-0.010, 0.030]])
    returns = make_returns(X)
    ind = make_indicators([0.5, 2.0, 0.5], start_day=0)
    r = strategy_s2(returns, ind, tau=1.0)
    rbar = X.mean(axis=1)
    assert np.array_equal(r.positions, [0.0, 1.0, 0.0, 1.0])
    assert np.allclose(r.daily_pnl, [0.0, rbar[1], 0.0, rbar[3]], atol=1e-15)
    assert np.allclose(r.cumulative_pnl, np.cumsum([0.0, rbar[1], 0.0, rbar[3]]), atol=1e-15)


def test_s2_invert_gate():
    returns = make_returns([0.01, 0.02])
    ind = make_indicators([2.0, 2.0], start_day=-1)
    normal = strategy_s2(returns, ind, tau=1.0)
    inverted = strategy_s2(returns, ind, tau=1.0, invert=True)
    assert np.array_equal(normal.positions, np.zeros(2))
    assert np.array_equal(inverted.positions, np.ones(2))


def test_s2_default_tau_is_one():
    import inspect

    assert inspect.signature(strategy_s2).parameters["tau"].default == 1.0


def test_s2_misaligned_series_raises():
    returns = make_returns([0.01, 0.02, 0.03])
    ind = make_indicators([0.5, 0.5], start_day=100)  # dates far after the panel
    with pytest.raises(ValueError, match="align"):
        strategy_s2(returns, ind, tau=1.0)
    with pytest.raises(ValueError, match="align"):  # an empty series never invests either
        strategy_s2(returns, make_indicators([]), tau=1.0)
    twice = IndicatorSeries((day(0), day(0)), np.zeros(2), np.ones(2), np.zeros(1))
    with pytest.raises(ValueError, match="duplicates"):
        strategy_s2(returns, twice, tau=1.0)


def test_s2_positions_are_causal_through_the_pipeline():
    # perturbing future returns must not change earlier positions
    p, window = 5, 20
    sim = simulate_factor_market(p, 60, regimes=((60, 0.3),), seed=3)
    base = sim.returns.returns.copy()
    bumped = base.copy()
    bumped[45:] += 0.05  # tail-only perturbation

    def pipeline(X):
        panel = ReturnsPanel(sim.returns.dates, sim.returns.tickers, X)
        windows = rolling_windows(panel, window)
        S_seq = [correlation_from_covariance(sample_covariance(chunk)) for chunk in windows]
        Ls, _ = learn_time_varying(S_seq, [window] * len(windows), SolverConfig(delta=50.0))
        ind = compute_indicators(Ls, [chunk.dates[-1] for chunk in windows])
        return strategy_s2(panel, ind, tau=1.5).positions

    pos_a = pipeline(base)
    pos_b = pipeline(bumped)
    # positions for day t use data through day t-1 only; day 45 is the first
    # perturbed row, so positions through day 45 are identical
    assert np.array_equal(pos_a[:46], pos_b[:46])


# --- cumulative_pnl -------------------------------------------------------------

def test_cumulative_pnl():
    assert np.array_equal(cumulative_pnl(np.array([1.0, -1.0])), np.array([1.0, 0.0]))
    assert cumulative_pnl(np.array([])).size == 0
    rng = np.random.default_rng(4)
    x = rng.standard_normal(25)
    direct = np.array([x[: t + 1].sum() for t in range(25)])
    assert np.allclose(cumulative_pnl(x), direct, atol=1e-12)
