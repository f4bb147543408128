#!/usr/bin/env python3
"""Compare always-invested S1 against the connectivity-gated S2 strategy.

Simulates a calm/crisis/calm market in which the crisis carries both high
correlation and a negative drift, estimates rolling graphs, and gates S2
on the algebraic connectivity: stay out when connectivity is at or above
the threshold (high co-movement flags crisis conditions).
"""

from marketgraph import (
    ReturnsPanel,
    SolverConfig,
    compute_indicators,
    correlation_from_covariance,
    learn_time_varying,
    rolling_windows,
    sample_covariance,
    simulate_factor_market,
    strategy_s1,
    strategy_s2,
)

WINDOW = 30
TAU = 1.6


def main():
    sim = simulate_factor_market(
        8, 240, beta_range=(0.9, 1.1),
        regimes=((90, 0.1), (60, 0.8), (90, 0.1)), seed=5,
    )
    X = sim.returns.returns.copy()
    b0, b1 = sim.regime_boundaries
    X[b0:b1] -= 0.004  # crisis drift: high correlation comes with losses
    R = ReturnsPanel(sim.returns.dates, sim.returns.tickers, X)

    windows = rolling_windows(R, WINDOW)
    S_seq = [correlation_from_covariance(sample_covariance(chunk)) for chunk in windows]
    L_seq, _ = learn_time_varying(S_seq, [WINDOW] * len(windows), SolverConfig(delta=30.0))
    ind = compute_indicators(L_seq, [chunk.dates[-1] for chunk in windows])

    s1 = strategy_s1(R)
    s2 = strategy_s2(R, ind, tau=TAU)

    print(f"{R.n} trading days, gate threshold tau = {TAU}")
    print(f"days invested: S1 {R.n}, S2 {int(s2.positions.sum())}")
    print(f"final cumulative PnL: S1 {s1.cumulative_pnl[-1]:+.4f}   "
          f"S2 {s2.cumulative_pnl[-1]:+.4f}")
    print("\ncumulative PnL (every 20 days):")
    for t in range(0, R.n, 20):
        print(f"  {R.dates[t]}  S1 {s1.cumulative_pnl[t]:+8.4f}   "
              f"S2 {s2.cumulative_pnl[t]:+8.4f}   position {int(s2.positions[t])}")


if __name__ == "__main__":
    main()
