"""Frozen solver fixtures and the golden file that pins their results.

Each case runs one entry point of ``marketgraph.solvers`` on a small frozen
input (p <= 12) and records every projected-gradient (SPG) call it makes:
the SHA-256 of the output Laplacian bytes, the iteration count of each SPG
call and their objective traces, concatenated.  It also records the
objective traces of the reports the case returns, concatenated, which for
``solve_l_subproblem`` and ``learn_k_component`` are their outer traces.
``tests/test_golden.py`` requires the stored digests and iteration counts
exactly and both traces to 1e-12.

Rewrite ``tests/data/golden.json`` from the current code with

    PYTHONPATH=src python tests/golden_cases.py [case ...]

Naming cases rewrites only those entries.  Rewrite an entry only for an
intended change of the algorithm, never to hide a regression.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from marketgraph import solvers
from marketgraph.preprocessing import correlation_from_covariance, distance_matrix, sample_covariance
from marketgraph.solvers import SolverConfig
from marketgraph.synthetic import random_k_component_graph, sample_gmrf, simulate_factor_market

GOLDEN = Path(__file__).parent / "data" / "golden.json"


def _spd(seed, p):
    A = np.random.default_rng(seed).standard_normal((2 * p, p))
    return A.T @ A / (2 * p) + 0.5 * np.eye(p)


def _tv_sequence(T=4, p=8):
    seqs = []
    for t in range(T):
        sim = simulate_factor_market(p, 30, regimes=((30, 0.1 + 0.07 * t),), seed=6 * 977 + t)
        seqs.append(correlation_from_covariance(sample_covariance(sim.returns)))
    return seqs, [30] * T


def _planted_gmrf(p, n):
    planted = random_k_component_graph(p, 2, seed=1, extra_edge_prob=1.0)
    return sample_gmrf(planted.L_true, n, seed=2)


def _smooth():
    return solvers.learn_smooth_graph(distance_matrix(_planted_gmrf(10, 200)), SolverConfig(alpha=1.0))


def _k_component():
    S = correlation_from_covariance(sample_covariance(_planted_gmrf(10, 2000)))
    return solvers.learn_k_component(S, SolverConfig(k=2))


def _time_varying(memory, delta):
    return lambda: solvers.learn_time_varying(*_tv_sequence(), SolverConfig(memory=memory, delta=delta))


CASES = {
    "mle_alpha0": lambda: solvers.learn_connected_mle(_spd(10, 12)),
    "mle_alpha0.05": lambda: solvers.learn_connected_mle(_spd(11, 12), SolverConfig(alpha=0.05)),
    "smooth": _smooth,
    "l_subproblem": lambda: solvers.solve_l_subproblem(_spd(8, 10)),
    "k_component_k2": _k_component,
}
for _memory in (1, 2, 3):
    for _delta in (0.0, 20.0, 100.0):
        CASES[f"tv_memory{_memory}_delta{_delta:g}"] = _time_varying(_memory, _delta)


def record(name):
    """Run one case with every SPG call recorded; returns its golden entry."""
    calls = []
    spg = solvers._spg

    def recording(*args, **kwargs):
        out = spg(*args, **kwargs)
        calls.append(out)
        return out

    solvers._spg = recording
    try:
        out = CASES[name]()
    finally:
        solvers._spg = spg
    laplacians, reports = out
    if not isinstance(laplacians, list):  # a static solver: one graph, one report
        laplacians, reports = [laplacians], [reports]
    digest = hashlib.sha256(b"".join(np.ascontiguousarray(L).tobytes() for L in laplacians))
    return {
        "sha256": digest.hexdigest(),
        "spg_iterations": [int(c[3]) for c in calls],
        "objective_trace": [float(f) for c in calls for f in c[5]],
        "report_trace": [float(f) for r in reports for f in r.objective_trace],
    }


def _summary(entry):
    """sha256 prefix, SPG call count and total SPG iterations of an entry."""
    if entry is None:
        return "(none)"
    iters = entry["spg_iterations"]
    return f"{entry['sha256'][:12]}, {len(iters)} SPG calls, {sum(iters):,} iterations"


def main(names):
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for name in names or CASES:
        old, golden[name] = golden.get(name), record(name)
        print(f"{name}: {_summary(old)} -> {_summary(golden[name])}")
    lines = [f"{json.dumps(name)}: {json.dumps(entry)}" for name, entry in sorted(golden.items())]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main(sys.argv[1:])
