"""Tests of the benchmark's own code: python3 -m pytest perfbench -q"""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import tracing  # noqa: E402
from workloads import WORKLOADS, sector_prices  # noqa: E402


def test_sector_generator_is_byte_identical_per_seed():
    assert sector_prices(7) == sector_prices(7)
    assert sector_prices(7) != sector_prices(8)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_inputs_are_byte_identical_per_seed(name, tmp_path):
    from marketgraph.cli import main

    wl = WORKLOADS[name]
    wl.generate(main, tmp_path / "a", 5)
    wl.generate(main, tmp_path / "b", 5)
    a = (tmp_path / "a" / "prices.csv").read_bytes()
    assert a == (tmp_path / "b" / "prices.csv").read_bytes()


def test_self_time_subtracts_direct_children_only():
    # root [0,100] -> a [10,40] -> a1 [15,25];  root -> b [50,60]
    start = np.array([0, 10, 15, 50])
    end = np.array([100, 40, 25, 60])
    parent = np.array([-1, 0, 1, 0])
    assert tracing.self_times(start, end, parent).tolist() == [60.0, 20.0, 10.0, 10.0]


def test_self_time_clips_a_child_to_its_parent():
    start = np.array([0, 5])
    end = np.array([10, 30])
    parent = np.array([-1, 0])
    assert tracing.self_times(start, end, parent).tolist() == [5.0, 25.0]


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    import marketgraph.analytics as analytics
    import marketgraph.cli as cli
    import marketgraph.laplacian as laplacian
    import marketgraph.preprocessing as preprocessing
    import marketgraph.solvers as solvers
    import marketgraph.synthetic as synthetic

    mods = {"cli": cli, "solvers": solvers, "laplacian": laplacian, "analytics": analytics,
            "synthetic": synthetic, "preprocessing": preprocessing}
    targets = [(m, a) for m, a, _ in tracing.SPANS] + list(tracing.COUNTED)
    before = {t: getattr(mods[t[0]], t[1]) for t in targets}
    numpy_module = solvers.np

    tracer = tracing.Tracer()
    tracer.install(mods)
    try:
        assert cli.main is not before[("cli", "main")]
        assert solvers.np is not numpy_module
        mark = tracer.mark()
        assert cli.main(["synth", "--mode", "factor", "--assets", "5", "--days", "60",
                         "--regimes", "59:0.3", "--output-dir", str(tmp_path / "d")]) == 0
        assert cli.main(["learn", "--input", str(tmp_path / "d" / "prices.csv"),
                         "--output-dir", str(tmp_path / "o")]) == 0
        spans, counts = tracer.window(mark)
    finally:
        tracer.restore()

    assert all(getattr(mods[m], a) is fn for (m, a), fn in before.items())
    assert solvers.np is numpy_module
    metrics = tracing.layer_metrics(spans, counts, tracer.names)
    assert metrics["solvers.obj_evals"] > metrics["solvers.spg_iters"] > 0
    assert metrics["solvers.factor.cholesky.calls"] >= metrics["solvers.obj_evals"]
    assert metrics["cli.ingest.calls"] == 1 and metrics["cli.ingest.bytes"] > 0
    assert metrics["synthetic.s"] > 0
    assert metrics["laplacian.pair_indices.calls"] > 0
