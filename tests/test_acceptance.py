"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Criterion 5's support-recovery clause is known to fail for
fundamental reasons (see the criterion's test body); the remaining twelve
criteria pass.
"""

import datetime
import warnings

import numpy as np
from scipy.optimize import minimize

from marketgraph.analytics import IndicatorSeries, compute_indicators, strategy_s1, strategy_s2
from marketgraph.cli import main as cli_main
from marketgraph.laplacian import (
    laplacian_adjoint,
    laplacian_from_weights,
    num_components,
    pair_indices,
)
from marketgraph.preprocessing import (
    ReturnsPanel,
    correlation_from_covariance,
    distance_matrix,
    rolling_windows,
    sample_covariance,
)
from marketgraph.solvers import (
    SolverConfig,
    fan_subspace,
    learn_connected_mle,
    learn_k_component,
    learn_smooth_graph,
    learn_time_varying,
    solve_l_subproblem,
)
from marketgraph.synthetic import (
    random_k_component_graph,
    sample_gmrf,
    score_recovery,
    simulate_factor_market,
)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[C{criterion}] {status} {detail}".rstrip())
    return ok


def random_spd(rng, p):
    A = rng.standard_normal((2 * p, p))
    return A.T @ A / (2 * p) + 0.5 * np.eye(p)


# ---------------------------------------------------------------------------
# independent high-precision oracle (criterion 3)
# ---------------------------------------------------------------------------

def _lap_explicit(w, p):
    L = np.zeros((p, p))
    m = 0
    for i in range(p):
        for j in range(i + 1, p):
            L[i, j] -= w[m]
            L[j, i] -= w[m]
            L[i, i] += w[m]
            L[j, j] += w[m]
            m += 1
    return L


def _true_objective(w, p, S):
    L = _lap_explicit(w, p)
    sign, ld = np.linalg.slogdet(L + np.ones((p, p)) / p)
    if sign <= 0:
        return np.inf
    return float(np.sum(L * S)) - ld


def _oracle_value_and_grad(S):
    p = S.shape[0]
    m = p * (p - 1) // 2
    cS = laplacian_adjoint(S)

    def fg(w):
        L = _lap_explicit(w, p)
        A = L + np.ones((p, p)) / p
        sign, ld = np.linalg.slogdet(A)
        if sign <= 0 or ld < -200:
            return 1e8 - float(np.sum(w)), -np.ones(m)
        g = cS - laplacian_adjoint(np.linalg.inv(A))
        return float(np.sum(L * S)) - ld, g

    return fg, m


def oracle_mle(S, restarts=10, seed=0):
    """Bound-constrained trust-region solve from random restarts (tol 1e-10)."""
    p = S.shape[0]
    fg, m = _oracle_value_and_grad(S)
    rng = np.random.default_rng(seed)
    best = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(restarts):
            res = minimize(fg, rng.uniform(0.05, 2.0, m), jac=True, method="trust-constr",
                           bounds=[(0, None)] * m,
                           options=dict(maxiter=5000, gtol=1e-12, xtol=1e-16))
            best = min(best, _true_objective(res.x, p, S))
    return best


def oracle_degree_constrained(K, restarts=10, seed=0):
    """Equality-constrained (unit degrees) solve from random restarts."""
    from scipy.optimize import LinearConstraint

    p = K.shape[0]
    fg, m = _oracle_value_and_grad(K)
    B = np.zeros((p, m))
    mm = 0
    for i in range(p):
        for j in range(i + 1, p):
            B[i, mm] = 1.0
            B[j, mm] = 1.0
            mm += 1
    con = LinearConstraint(B, np.ones(p), np.ones(p))
    rng = np.random.default_rng(seed)
    best = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(restarts):
            w0 = np.maximum(np.full(m, 1.0 / (p - 1)) + 0.01 * rng.standard_normal(m), 1e-3)
            res = minimize(fg, w0, jac=True, method="trust-constr",
                           bounds=[(0, None)] * m, constraints=[con],
                           options=dict(maxiter=3000, gtol=1e-12, xtol=1e-16))
            best = min(best, _true_objective(res.x, p, K))
    return best


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

_K_COMPONENT_RUNS: list[dict] = []


def k_component_runs():
    """Five seeded p=30, k=3 recovery runs, shared by criteria 5 and 6."""
    if not _K_COMPONENT_RUNS:
        for seed in range(5):
            planted = random_k_component_graph(30, 3, seed=seed)
            panel = sample_gmrf(planted.L_true, 3000, seed=seed + 100)
            S = correlation_from_covariance(sample_covariance(panel))
            L, rep = learn_k_component(S, SolverConfig(k=3))
            _K_COMPONENT_RUNS.append(
                {"planted": planted, "L": L, "report": rep,
                 "score": score_recovery(L, planted)}
            )
    return _K_COMPONENT_RUNS


def regime_similarity_sequence(seed, p=8, reg_len=60, low=0.1, high=0.8, window=30):
    sim = simulate_factor_market(
        p, 2 * reg_len, beta_range=(0.9, 1.1),
        regimes=((reg_len, low), (reg_len, high)), seed=seed,
    )
    windows = rolling_windows(sim.returns, window)
    S_seq = [correlation_from_covariance(sample_covariance(chunk)) for chunk in windows]
    return S_seq, [window] * len(windows), [chunk.dates[-1] for chunk in windows], sim.regime_boundaries[0]


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_c01_constraint_suite():
    """Every Laplacian from every solver passes the full invariant suite."""
    rng = np.random.default_rng(0)
    produced = []  # (L, from_degree_constrained_path)

    L, _ = learn_connected_mle(random_spd(rng, 4))
    produced.append((L, False))
    L, _ = solve_l_subproblem(random_spd(rng, 4))
    produced.append((L, True))

    planted = random_k_component_graph(10, 2, seed=1, extra_edge_prob=1.0)
    S = correlation_from_covariance(sample_covariance(sample_gmrf(planted.L_true, 2000, seed=2)))
    L, _ = learn_k_component(S, SolverConfig(k=2))
    produced.append((L, True))

    S_seq, ns, _, _ = regime_similarity_sequence(3, p=6, reg_len=33, window=30)
    for L in learn_time_varying(S_seq[:4], ns[:4], SolverConfig(delta=50.0))[0]:
        produced.append((L, False))

    Z = distance_matrix(sample_gmrf(planted.L_true, 100, seed=4))
    produced.append((learn_smooth_graph(Z, SolverConfig(alpha=1.0))[0], False))

    ok = True
    for L, degree_path in produced:
        p = L.shape[0]
        ok &= bool(np.array_equal(L, L.T))
        ok &= float(np.abs(L.sum(axis=1)).max()) <= 1e-9
        ok &= float(L[pair_indices(p)].max()) <= 0.0
        ok &= float(np.linalg.eigvalsh(L)[0]) >= -1e-9
        if degree_path:
            ok &= float(np.abs(np.diag(L) - 1.0).max()) <= 1e-6
    assert report(1, ok, f"constraint suite over {len(produced)} solver outputs")


def test_c02_closed_form_oracles():
    S = np.array([[1.0, 0.5], [0.5, 1.0]])
    L, _ = learn_connected_mle(S)
    err_mle = abs(-L[0, 1] - 1.0)

    L, _ = learn_smooth_graph(np.zeros((2, 2)), SolverConfig(alpha=1.0, gamma=1.0))
    err_smooth = abs(-L[0, 1] - 1.0)
    ok = err_mle <= 1e-6 and err_smooth <= 1e-6
    assert report(2, ok, f"|w-1| = {err_mle:.2e} (MLE), {err_smooth:.2e} (smooth)")


def test_c03_brute_force_equivalence():
    rng = np.random.default_rng(42)
    worst_mle = worst_sub = 0.0
    for inst in range(20):
        S = random_spd(rng, 4)
        L, _ = learn_connected_mle(S)
        w = np.maximum(-L[pair_indices(4)], 0.0)
        worst_mle = max(worst_mle, abs(_true_objective(w, 4, S) - oracle_mle(S, seed=inst)))

        L, _ = solve_l_subproblem(S)
        w = np.maximum(-L[pair_indices(4)], 0.0)
        worst_sub = max(
            worst_sub,
            abs(_true_objective(w, 4, S) - oracle_degree_constrained(S, seed=inst)),
        )
    ok = worst_mle <= 1e-5 and worst_sub <= 1e-5
    assert report(3, ok, f"worst objective gap: MLE {worst_mle:.2e}, degree-constrained {worst_sub:.2e}")


def test_c04_fan_subproblem():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        p = int(rng.integers(3, 31))
        w = rng.uniform(0.05, 2.0, p * (p - 1) // 2) * (rng.random(p * (p - 1) // 2) < 0.6)
        L = laplacian_from_weights(w)
        k = int(rng.integers(1, p))
        V = fan_subspace(L, k)
        lam = np.linalg.eigvalsh(L)
        worst = max(worst, abs(float(np.trace(V.T @ L @ V)) - float(lam[:k].sum())))
    assert report(4, worst <= 1e-8, f"worst Fan-trace gap {worst:.2e} over 50 instances")


def test_c05_k_component_recovery():
    """Planted 3-component recovery: nullity, degree control, edge F-score.

    The F-score clause cannot pass for this fixture: exact improper-GMRF
    samples have zero sums per component, which makes most within-cluster
    marginal correlations negative while cross-cluster pairs sit at zero,
    so the likelihood's trace term prefers cross-cluster edges at the
    population level (measurements in README.md, section "One known red").
    The structural clauses (nullity exactly k, no isolated nodes) hold; the
    clause is asserted as stated and fails honestly.
    """
    runs = k_component_runs()
    nullities = [num_components(r["L"]) for r in runs]
    degree_resid = [float(np.abs(np.diag(r["L"]) - 1.0).max()) for r in runs]
    fscores = [r["score"].f_score for r in runs]

    ok_nullity = all(nu == 3 for nu in nullities)
    ok_degrees = all(d <= 1e-6 for d in degree_resid)

    # smaller-scale variant from the solver contract (p=10, k=2, n=5000)
    planted = random_k_component_graph(10, 2, seed=11)
    S = correlation_from_covariance(
        sample_covariance(sample_gmrf(planted.L_true, 5000, seed=12))
    )
    L10, rep10 = learn_k_component(S, SolverConfig(k=2))
    f10 = score_recovery(L10, planted).f_score
    ok_nullity &= num_components(L10) == 2

    ok_f = all(f >= 0.9 for f in fscores) and f10 >= 0.9
    detail = (
        f"nullity {nullities} (want all 3), max degree residual {max(degree_resid):.1e}, "
        f"F-scores {[round(f, 3) for f in fscores]} + {f10:.3f} at p=10 (want >= 0.9; "
        "unattainable for the zero-sum GMRF sampler, see README.md \"One known red\")"
    )
    assert report(5, ok_nullity and ok_degrees and ok_f, detail)


def test_k_component_fixtures_end_at_their_recorded_objectives():
    # C5's five fixtures, each at the local optimum the solver reaches now: a
    # seed or step change that moves one to another optimum fails here
    # instead of passing unseen, and its new objectives are recorded on purpose
    objectives = [float(r["report"].objective_trace[-1]) for r in k_component_runs()]
    recorded = [25.975420792979175, 25.38793684096505, 24.965176825648648, 25.121916390909288,
                24.465705665932678]
    np.testing.assert_allclose(objectives, recorded, rtol=1e-6)


def test_c06_monotone_descent():
    runs = k_component_runs()
    ok = True
    worst = 0.0
    for r in runs:
        tr = r["report"].objective_trace
        slack = 1e-9 * np.abs(tr[:-1]) + 1e-12
        increase = np.diff(tr) - slack
        worst = max(worst, float(increase.max()))
        ok &= bool(np.all(increase <= 0.0))
    assert report(6, ok, f"worst objective increase beyond slack {worst:.2e}")


def test_c07_time_varying_limits():
    # delta = 0 equals independent static solves
    S_seq, ns, _, _ = regime_similarity_sequence(21, p=6, reg_len=33, window=30)
    tight = SolverConfig(delta=0.0, inner_tol=1e-9)
    Ls, _ = learn_time_varying(S_seq[:5], ns[:5], tight)
    gap_static = max(
        float(np.abs(L - learn_connected_mle(S, tight)[0]).max())
        for S, L in zip(S_seq[:5], Ls)
    )

    # constant input gives constant output
    Lc, _ = learn_time_varying([S_seq[0]] * 5, [30] * 5, SolverConfig(delta=100.0))
    gap_const = max(float(np.abs(L - Lc[0]).max()) for L in Lc[1:])

    # delta 1e8 strictly reduces every time-consistency entry vs delta 100
    S_seq, ns, _, _ = regime_similarity_sequence(22, p=6, reg_len=34, window=30)
    L_mid, _ = learn_time_varying(S_seq, ns, SolverConfig(delta=100.0))
    L_big, _ = learn_time_varying(S_seq, ns, SolverConfig(delta=1e8))
    tc_mid = [float(np.sum((L_mid[t + 1] - L_mid[t]) ** 2)) for t in range(len(L_mid) - 1)]
    tc_big = [float(np.sum((L_big[t + 1] - L_big[t]) ** 2)) for t in range(len(L_big) - 1)]
    strict = all(b < m for b, m in zip(tc_big, tc_mid))

    ok = gap_static <= 1e-6 and gap_const <= 1e-6 and strict
    assert report(
        7, ok,
        f"delta=0 gap {gap_static:.1e}, constant gap {gap_const:.1e}, "
        f"strict smoothing {strict}",
    )


def test_c08_causality_prefix_invariance():
    S_seq, ns, _, _ = regime_similarity_sequence(23, p=6, reg_len=25, window=26)
    S_seq, ns = S_seq[:20], ns[:20]
    cfg = SolverConfig(delta=100.0)
    full, _ = learn_time_varying(S_seq, ns, cfg)
    prefix, _ = learn_time_varying(S_seq[:12], ns[:12], cfg)
    ok = all(np.array_equal(a, b) for a, b in zip(prefix, full[:12]))
    assert report(8, ok, "T=20 vs T=12 prefixes bitwise identical")


def test_c09_window_arithmetic_anchor(tmp_path):
    data = tmp_path / "data"
    assert cli_main(["synth", "--mode", "factor", "--assets", "5", "--days", "230",
                     "--regimes", "115:0.1,114:0.7", "--seed", "9",
                     "--output-dir", str(data)]) == 0
    out = tmp_path / "tv"
    assert cli_main(["learn-tv", "--input", str(data / "prices.csv"),
                     "--window", "30", "--stride", "1", "--delta", "20",
                     "--output-dir", str(out)]) == 0
    n_mats = len(sorted(out.glob("laplacian_*.csv")))
    with (out / "indicators.csv").open(newline="") as fh:
        n_rows = sum(1 for _ in fh) - 1
    ok = n_mats == 200 and n_rows == 200
    assert report(9, ok, f"230 price days -> {n_mats} graphs, {n_rows} indicator rows (want 200)")


def test_c10_market_removal_identity():
    sim = simulate_factor_market(12, 400, beta_range=(1.0, 1.0), seed=10)
    gap = float(np.abs(distance_matrix(sim.returns) - distance_matrix(sim.residuals)).max())
    assert report(10, gap <= 1e-9, f"max |Z(X) - Z(eps)| = {gap:.2e}")


def test_c11_backtest_gates():
    rng = np.random.default_rng(11)
    n = 12
    X = rng.standard_normal((n, 4)) * 0.01
    returns = ReturnsPanel(
        dates=tuple(datetime.date(2022, 3, 1) + datetime.timedelta(days=i) for i in range(n)),
        tickers=("A", "B", "C", "D"),
        returns=X,
    )
    lead_dates = tuple(d - datetime.timedelta(days=1) for d in returns.dates)
    ind = IndicatorSeries(
        dates=lead_dates,
        algebraic_connectivity=rng.uniform(0.0, 2.0, n),
        spectral_radius=np.ones(n),
        time_consistency=np.zeros(n - 1),
    )
    s1 = strategy_s1(returns)
    bit_equal = np.array_equal(strategy_s2(returns, ind, tau=np.inf).cumulative_pnl,
                               s1.cumulative_pnl)
    flat_zero = np.array_equal(strategy_s2(returns, ind, tau=-np.inf).cumulative_pnl,
                               np.zeros(n))

    # hand-traced 4-day fixture
    X4 = np.array([[0.01, 0.03], [0.02, 0.0], [0.04, -0.02], [-0.01, 0.03]])
    r4 = ReturnsPanel(
        dates=tuple(datetime.date(2022, 4, 1) + datetime.timedelta(days=i) for i in range(4)),
        tickers=("A", "B"),
        returns=X4,
    )
    ind4 = IndicatorSeries(
        dates=r4.dates[:3],
        algebraic_connectivity=np.array([0.5, 2.0, 0.5]),
        spectral_radius=np.ones(3),
        time_consistency=np.zeros(2),
    )
    out4 = strategy_s2(r4, ind4, tau=1.0)
    rbar = X4.mean(axis=1)
    fixture_ok = np.array_equal(out4.positions, [0.0, 1.0, 0.0, 1.0]) and np.allclose(
        out4.daily_pnl, [0.0, rbar[1], 0.0, rbar[3]], atol=1e-15
    )

    import inspect

    default_ok = inspect.signature(strategy_s2).parameters["tau"].default == 1.0
    from marketgraph.cli import DEFAULTS

    default_ok &= DEFAULTS["tau"] == 1.0

    ok = bit_equal and flat_zero and fixture_ok and default_ok
    assert report(
        11, ok,
        f"tau=inf bitwise {bit_equal}, tau=-inf flat {flat_zero}, "
        f"4-day fixture {fixture_ok}, default tau=1.0 {default_ok}",
    )


def test_c12_gmrf_sampler_covariance():
    planted = random_k_component_graph(5, 1, seed=12)
    panel = sample_gmrf(planted.L_true, 100_000, seed=13)
    emp = np.cov(panel.returns, rowvar=False)
    target = np.linalg.pinv(planted.L_true)
    rel = float(np.linalg.norm(emp - target) / np.linalg.norm(target))
    assert report(12, rel <= 0.05, f"relative Frobenius error {rel:.3%} over 1e5 draws")


def test_c13_crisis_indicator():
    ok = True
    details = []
    for seed in range(5):
        S_seq, ns, dates, boundary = regime_similarity_sequence(seed)
        Ls, _ = learn_time_varying(S_seq, ns, SolverConfig(delta=30.0))
        lam2 = compute_indicators(Ls, dates).algebraic_connectivity
        window = 30
        low_mean = float(lam2[: boundary - window + 1].mean())
        high_mean = float(lam2[boundary:].mean())
        # two-sample split statistic; the planted boundary in window
        # coordinates is the first window fully inside the second regime
        T = len(lam2)
        stats = [
            abs(lam2[t:].mean() - lam2[:t].mean()) * np.sqrt(t * (T - t)) / T
            for t in range(2, T - 2)
        ]
        split = int(np.argmax(stats)) + 2
        dist = abs(split - boundary)
        ok &= high_mean > low_mean and dist <= 5
        details.append(f"seed{seed}: means {low_mean:.2f}<{high_mean:.2f}, |cp-b|={dist}")
    assert report(13, ok, "; ".join(details))
