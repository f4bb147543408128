import csv
import dataclasses
import datetime
import json
from pathlib import Path

import numpy as np
import pytest

from marketgraph.cli import (
    DEFAULTS,
    EXIT_NONCONVERGED,
    EXIT_OK,
    EXIT_VALIDATION,
    OPTIONS,
    build_parser,
    ingest_prices,
    main,
    read_matrix_csv,
    resolve_config,
    write_matrix_csv,
)
from marketgraph.solvers import SolveReport, SolverConfig
from marketgraph.synthetic import random_k_component_graph, score_recovery


def write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# --- ingest_prices -----------------------------------------------------------

def test_ingest_well_formed(tmp_path):
    f = tmp_path / "p.csv"
    write_csv(f, [["date", "AAA", "BBB"],
                  ["2020-01-01", "10", "20"],
                  ["2020-01-02", "11", "21"],
                  [],  # a blank line is skipped
                  ["2020-01-03", "12", "22"]])
    panel = ingest_prices(f)
    assert panel.prices.shape == (3, 2)
    assert panel.tickers == ("AAA", "BBB")
    assert panel.dates[0] == datetime.date(2020, 1, 1)


def test_ingest_drops_rows_with_blanks(tmp_path, capsys):
    f = tmp_path / "p.csv"
    write_csv(f, [["date", "AAA", "BBB"],
                  ["2020-01-01", "10", "20"],
                  ["2020-01-02", "", "21"],
                  ["2020-01-03", "12", "22"]])
    panel = ingest_prices(f)
    assert panel.prices.shape == (2, 2)
    assert "dropped 1 row" in capsys.readouterr().err


def test_ingest_ffill_fills_from_previous_row(tmp_path):
    f = tmp_path / "p.csv"
    write_csv(f, [["date", "AAA", "BBB"],
                  ["2020-01-01", "10", "20"],
                  ["2020-01-02", "", "21"],
                  ["2020-01-03", "12", "22"]])
    panel = ingest_prices(f, ffill=True)
    assert panel.prices.shape == (3, 2)
    assert panel.prices[1, 0] == 10.0


def test_ingest_duplicate_date_names_the_date(tmp_path):
    f = tmp_path / "p.csv"
    write_csv(f, [["date", "AAA"],
                  ["2020-01-01", "10"],
                  ["2020-01-01", "11"]])
    with pytest.raises(ValueError, match="duplicate date 2020-01-01"):
        ingest_prices(f)


def test_ingest_non_monotone_dates_reports_row(tmp_path):
    f = tmp_path / "p.csv"
    write_csv(f, [["date", "AAA"],
                  ["2020-01-05", "10"],
                  ["2020-01-02", "11"]])
    with pytest.raises(ValueError, match="row 3"):
        ingest_prices(f)


def test_ingest_non_numeric_cell_reports_row_and_column(tmp_path):
    f = tmp_path / "p.csv"
    write_csv(f, [["date", "AAA", "BBB"],
                  ["2020-01-01", "10", "20"],
                  ["2020-01-02", "abc", "21"]])
    with pytest.raises(ValueError, match=r"row 3, column AAA"):
        ingest_prices(f)


def test_ingest_words_the_first_bad_cell_of_a_row(tmp_path):
    # the row's cells are checked left to right, whichever kind of fault comes first
    f = tmp_path / "p.csv"
    for cells, message in ((["0", "x"], "column AAA: non-positive price 0.0"),
                           (["x", "-1"], "column AAA: non-numeric cell 'x'"),
                           (["", "-1"], "column BBB: non-positive price -1.0"),
                           ([" nan", "-inf"], None)):
        write_csv(f, [["date", "AAA", "BBB"], ["2020-01-01", "10", "20"], ["2020-01-02", *cells],
                      ["2020-01-03", "11", "21"]])
        if message is None:  # non-finite cells are missing, not bad
            assert ingest_prices(f).prices.shape == (2, 2)
        else:
            with pytest.raises(ValueError, match=f"row 3, {message}"):
                ingest_prices(f)


def test_ingest_checks_dates_against_dropped_rows_too(tmp_path, capsys):
    f = tmp_path / "p.csv"
    write_csv(f, [["date", "AAA"],
                  ["2020-01-01", "10"],
                  ["2020-01-02", ""],
                  ["2020-01-02", "11"]])
    with pytest.raises(ValueError, match="row 4: duplicate date 2020-01-02"):
        ingest_prices(f)
    assert "dropped" not in capsys.readouterr().err


def test_ingest_bad_date_reports_row(tmp_path):
    f = tmp_path / "p.csv"
    write_csv(f, [["date", "AAA"], ["01/02/2020", "10"]])
    with pytest.raises(ValueError, match="row 2"):
        ingest_prices(f)


# --- matrix CSV round-trip -----------------------------------------------------

def test_matrix_csv_roundtrip_is_lossless(tmp_path):
    rng = np.random.default_rng(0)
    M = rng.standard_normal((6, 6)) * np.exp(rng.uniform(-20, 20, (6, 6)))
    f = tmp_path / "m.csv"
    write_matrix_csv(f, M, [f"T{i}" for i in range(6)])
    back, labels = read_matrix_csv(f)
    assert np.array_equal(back, M)
    assert labels == tuple(f"T{i}" for i in range(6))


# --- synth -----------------------------------------------------------------------

def test_synth_gmrf_writes_truth_and_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["synth", "--mode", "gmrf", "--assets", "8", "--k-true", "2",
            "--days", "60", "--seed", "5"]
    assert main(args + ["--output-dir", str(out1)]) == EXIT_OK
    assert main(args + ["--output-dir", str(out2)]) == EXIT_OK
    assert (out1 / "prices.csv").read_bytes() == (out2 / "prices.csv").read_bytes()
    meta = json.loads((out1 / "meta.json").read_text())
    assert meta["planted_nullity"] == 2

    # stored truth scores perfectly against the in-process planted graph
    L_true, _ = read_matrix_csv(out1 / "laplacian_true.csv")
    planted = random_k_component_graph(8, 2, weight_range=(1.0, 3.0), seed=5,
                                       extra_edge_prob=1.0)
    score = score_recovery(L_true, planted)
    assert score.f_score == 1.0 and score.relative_error == 0.0


def test_synth_factor_writes_regimes(tmp_path):
    out = tmp_path / "f"
    assert main(["synth", "--mode", "factor", "--assets", "5", "--days", "50",
                 "--regimes", "25:0.1,24:0.6", "--seed", "2",
                 "--output-dir", str(out)]) == EXIT_OK
    rows = read_csv(out / "regimes.csv")
    assert rows[0] == ["first_row", "residual_correlation"]
    assert [r[0] for r in rows[1:]] == ["0", "25"]
    assert (out / "market.csv").exists()


# --- learn ------------------------------------------------------------------------

@pytest.fixture(scope="module")
def gmrf_prices(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthdata")
    assert main(["synth", "--mode", "gmrf", "--assets", "8", "--k-true", "2",
                 "--days", "150", "--seed", "11", "--output-dir", str(out)]) == EXIT_OK
    return out / "prices.csv"


def test_learn_writes_artifacts(tmp_path, gmrf_prices):
    out = tmp_path / "learn"
    code = main(["learn", "--input", str(gmrf_prices), "--output-dir", str(out),
                 "--scale", "covariance"])
    assert code == EXIT_OK
    meta = json.loads((out / "meta.json").read_text())
    assert meta["converged"] is True
    assert meta["config"]["scale"] == "covariance"
    edges = read_csv(out / "edges.csv")
    assert edges[0] == ["i", "j", "weight"]
    assert len(edges) > 1
    L, labels = read_matrix_csv(out / "laplacian.csv")
    assert L.shape == (8, 8)


def test_learn_correlation_scale_invariance(tmp_path, gmrf_prices):
    # per-asset rescaling of RETURNS = raising prices to a per-asset power;
    # with --scale correlation the learned edges are identical
    panel = ingest_prices(gmrf_prices)
    powers = np.linspace(0.5, 2.0, panel.prices.shape[1])
    scaled = 100.0 * (panel.prices / panel.prices[0]) ** powers
    f2 = tmp_path / "scaled.csv"
    rows = [["date", *panel.tickers]]
    for d, row in zip(panel.dates, scaled):
        rows.append([d.isoformat(), *[f"{v:.17g}" for v in row]])
    write_csv(f2, rows)

    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["learn", "--input", str(gmrf_prices), "--output-dir", str(out1),
                 "--scale", "correlation"]) == EXIT_OK
    assert main(["learn", "--input", str(f2), "--output-dir", str(out2),
                 "--scale", "correlation"]) == EXIT_OK
    # the price-file round-trip (exp/log/pow) perturbs returns at the last
    # ulp, so compare the edge set exactly and the weights numerically
    e1 = read_csv(out1 / "edges.csv")[1:]
    e2 = read_csv(out2 / "edges.csv")[1:]
    assert [r[:2] for r in e1] == [r[:2] for r in e2]
    w1 = np.array([float(r[2]) for r in e1])
    w2 = np.array([float(r[2]) for r in e2])
    assert np.abs(w1 - w2).max() <= 1e-9


def test_learn_k3_reports_planted_nullity(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--mode", "gmrf", "--assets", "9", "--k-true", "3",
                 "--days", "400", "--seed", "3", "--output-dir", str(data)]) == EXIT_OK
    out = tmp_path / "learn"
    code = main(["learn", "--input", str(data / "prices.csv"), "--k", "3",
                 "--output-dir", str(out)])
    assert code == EXIT_OK
    meta = json.loads((out / "meta.json").read_text())
    assert meta["nullity"] == 3


def test_learn_smooth_method(tmp_path, gmrf_prices):
    out = tmp_path / "smooth"
    code = main(["learn", "--input", str(gmrf_prices), "--output-dir", str(out),
                 "--method", "smooth", "--alpha", "1.0", "--gamma", "1.0"])
    assert code == EXIT_OK
    L, _ = read_matrix_csv(out / "laplacian.csv")
    assert np.abs(L.sum(axis=1)).max() <= 1e-9
    # the smooth baseline reports like every other solver
    meta = json.loads((out / "meta.json").read_text())
    assert meta["converged"] is True and meta["iterations"] > 0
    assert np.isfinite(meta["objective"]) and L[~np.eye(len(L), dtype=bool)].max() <= 0.0


def test_learn_smooth_requires_positive_alpha(tmp_path, gmrf_prices, capsys):
    code = main(["learn", "--input", str(gmrf_prices), "--output-dir",
                 str(tmp_path / "x"), "--method", "smooth"])
    assert code == EXIT_VALIDATION
    assert "alpha" in capsys.readouterr().err


def test_learn_rerun_is_bitwise_reproducible(tmp_path):
    # the seed is synth's: learn itself draws nothing at random
    data = tmp_path / "data"
    assert main(["synth", "--mode", "gmrf", "--assets", "8", "--k-true", "2", "--days", "150",
                 "--seed", "9", "--output-dir", str(data)]) == EXIT_OK
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    args = ["learn", "--input", str(data / "prices.csv")]
    assert main(args + ["--output-dir", str(out1)]) == EXIT_OK
    assert main(args + ["--output-dir", str(out2)]) == EXIT_OK
    assert (out1 / "laplacian.csv").read_bytes() == (out2 / "laplacian.csv").read_bytes()


def test_learn_market_removal_flag(tmp_path):
    data = tmp_path / "fdata"
    assert main(["synth", "--mode", "factor", "--assets", "6", "--days", "120",
                 "--regimes", "119:0.3", "--seed", "4", "--output-dir", str(data)]) == EXIT_OK
    out = tmp_path / "mr"
    code = main(["learn", "--input", str(data / "prices.csv"), "--market", "remove",
                 "--output-dir", str(out)])
    assert code == EXIT_OK


def test_learn_market_column_is_excluded_from_graph(tmp_path):
    data = tmp_path / "fdata2"
    assert main(["synth", "--mode", "factor", "--assets", "6", "--days", "100",
                 "--regimes", "99:0.3", "--seed", "8", "--output-dir", str(data)]) == EXIT_OK
    out = tmp_path / "mc"
    code = main(["learn", "--input", str(data / "prices.csv"), "--market", "remove",
                 "--market-column", "A00", "--output-dir", str(out)])
    assert code == EXIT_OK
    L, labels = read_matrix_csv(out / "laplacian.csv")
    assert "A00" not in labels and L.shape == (5, 5)

    code = main(["learn", "--input", str(data / "prices.csv"), "--market", "remove",
                 "--market-column", "NOPE", "--output-dir", str(tmp_path / "x")])
    assert code == EXIT_VALIDATION


def test_config_file_bad_boolean(tmp_path, gmrf_prices, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("ffill = maybe\n")
    code = main(["learn", "--input", str(gmrf_prices), "--config", str(cfgfile),
                 "--output-dir", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    assert "boolean" in capsys.readouterr().err


def test_synth_factor_runs_with_every_default(tmp_path):
    # the default regimes span the 229 return days of the default 230 price rows
    assert main(["synth", "--mode", "factor", "--output-dir", str(tmp_path)]) == EXIT_OK
    assert read_csv(tmp_path / "regimes.csv")[1:] == [["0", "0.10000000000000001"], ["115", "0.69999999999999996"]]


def test_synth_bad_regimes_string(tmp_path, capsys):
    code = main(["synth", "--mode", "factor", "--regimes", "garbage",
                 "--output-dir", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    assert "regimes" in capsys.readouterr().err


def test_nonconvergence_exit_code(tmp_path, gmrf_prices, monkeypatch):
    import marketgraph.cli as climod

    def fake_solver(S, cfg):
        p = np.shape(getattr(S, "entries", S))[0]
        return np.zeros((p, p)), SolveReport(
            iterations=1,
            objective_trace=np.array([0.0]),
            constraint_residuals={},
            converged=False,
            eigengap_degenerate=False,
        )

    # the MLE and the smooth baseline report non-convergence the same way
    for solver, flags in (("learn_connected_mle", []),
                          ("learn_smooth_graph", ["--method", "smooth", "--alpha", "1.0"])):
        monkeypatch.setattr(climod, solver, fake_solver)
        out = tmp_path / solver
        code = main(["learn", "--input", str(gmrf_prices), "--output-dir", str(out)] + flags)
        assert code == EXIT_NONCONVERGED
        assert (out / "laplacian.csv").exists()  # artifacts still written
        assert json.loads((out / "meta.json").read_text())["converged"] is False

    # learn-tv and the estimating backtest name the windows that did not converge
    real = climod.learn_time_varying

    def one_window_unconverged(S_seq, n_seq, cfg):
        L_seq, reports = real(S_seq, n_seq, cfg)
        reports[1] = dataclasses.replace(reports[1], converged=False)
        return L_seq, reports

    monkeypatch.setattr(climod, "learn_time_varying", one_window_unconverged)
    for command, artifact in (("learn-tv", "laplacian_0001.csv"), ("backtest", "pnl.csv")):
        out = tmp_path / command
        code = main([command, "--input", str(gmrf_prices), "--window", "30", "--stride", "30",
                     "--output-dir", str(out)])
        assert code == EXIT_NONCONVERGED
        assert (out / artifact).exists()
        meta = json.loads((out / "meta.json").read_text())
        assert meta["converged"] is False and meta["unconverged_windows"] == [1]


def test_unconverged_l_steps_make_learn_k_unconverged(tmp_path, monkeypatch):
    import marketgraph.solvers as solvers

    # three sectors of five assets, positively correlated within a sector, 300 days
    rng = np.random.default_rng(0)
    market = 0.010 * rng.standard_normal(300)
    cols = []
    for _ in range(3):
        factor = 0.008 * rng.standard_normal(300)
        cols += [rng.uniform(0.9, 1.1) * market + rng.uniform(0.8, 1.2) * factor
                 + 0.004 * rng.standard_normal(300) for _ in range(5)]
    X = np.column_stack(cols)
    # three dual rounds leave every L-step's degree residual near 1e-2, far above its 1e-7
    monkeypatch.setattr(solvers, "_MAX_OUTER_ITERS", 3)
    _, report = solvers.learn_k_component(np.corrcoef(X, rowvar=False), SolverConfig(k=3))
    assert report.converged is False
    assert report.constraint_residuals["degree"] > 1e-3

    prices = 100.0 * np.exp(np.vstack([np.zeros(15), np.cumsum(X, axis=0)]))
    dates = [datetime.date(2020, 1, 1) + datetime.timedelta(days=i) for i in range(301)]
    write_csv(tmp_path / "p.csv", [["date", *(f"S{i:02d}" for i in range(15))]]
              + [[d.isoformat(), *(f"{v:.17g}" for v in row)] for d, row in zip(dates, prices)])
    out = tmp_path / "k3"
    assert main(["learn", "--input", str(tmp_path / "p.csv"), "--k", "3",
                 "--output-dir", str(out)]) == EXIT_NONCONVERGED
    assert json.loads((out / "meta.json").read_text())["converged"] is False


def test_learn_k4_meets_the_benchmark_reference_on_sector_panel_0(tmp_path, monkeypatch):
    # the kcomp_sectors benchmark's fixture panel f0 (p=60, k=4), through the
    # CLI and checked as the benchmark checks it: exit 0, converged, a valid
    # Laplacian of nullity 4, degree residual <= 1e-6, and the objective
    # within the workload's 1e-6 of the recorded reference
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    import workloads

    wl = workloads.WORKLOADS["kcomp_sectors"]
    (tmp_path / "prices.csv").write_bytes(workloads.sector_prices(0))
    codes = [main(step.argv) for step in wl.steps(str(tmp_path))]
    failures, checked, objective = workloads.check_panel(wl, str(tmp_path), codes)
    assert failures == [] and checked == 2
    reference = json.loads((bench / "reference.json").read_text())["kcomp_sectors"]["0"]
    assert workloads.objective_matches(wl, objective, reference)


# --- learn-tv and indicators -----------------------------------------------------

@pytest.fixture(scope="module")
def tv_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("tv")
    data = base / "data"
    assert main(["synth", "--mode", "factor", "--assets", "5", "--days", "70",
                 "--regimes", "35:0.1,34:0.7", "--seed", "6",
                 "--output-dir", str(data)]) == EXIT_OK
    out = base / "run"
    assert main(["learn-tv", "--input", str(data / "prices.csv"), "--window", "30",
                 "--stride", "1", "--delta", "20", "--output-dir", str(out)]) == EXIT_OK
    return data, out


def test_learn_tv_window_count(tv_run):
    data, out = tv_run
    # 70 price rows -> 69 returns -> 40 windows of 30
    assert len(sorted(out.glob("laplacian_*.csv"))) == 40
    meta = json.loads((out / "meta.json").read_text())
    assert meta["n_windows"] == 40
    assert meta["converged"] is True and meta["unconverged_windows"] == []
    rows = read_csv(out / "indicators.csv")
    assert len(rows) == 41  # header + one row per window
    assert rows[1][3] == "" and rows[2][3] != ""  # first row has no consistency


def test_learn_tv_stride(tmp_path, tv_run):
    data, _ = tv_run
    out = tmp_path / "s5"
    assert main(["learn-tv", "--input", str(data / "prices.csv"), "--window", "30",
                 "--stride", "5", "--delta", "20", "--output-dir", str(out)]) == EXIT_OK
    # starts 0,5,...,35 over 69 returns -> 8 windows
    assert json.loads((out / "meta.json").read_text())["n_windows"] == 8


def test_learn_tv_too_few_rows(tmp_path, capsys):
    data = tmp_path / "tiny"
    assert main(["synth", "--mode", "factor", "--assets", "4", "--days", "20",
                 "--regimes", "19:0.2", "--seed", "1", "--output-dir", str(data)]) == EXIT_OK
    code = main(["learn-tv", "--input", str(data / "prices.csv"), "--window", "30",
                 "--output-dir", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    assert "fewer than one window" in capsys.readouterr().err


def test_indicators_recompute_matches_bitwise(tmp_path, tv_run):
    _, run = tv_run
    out = tmp_path / "ind"
    assert main(["indicators", "--input", str(run), "--output-dir", str(out)]) == EXIT_OK
    assert (out / "indicators.csv").read_bytes() == (run / "indicators.csv").read_bytes()


def test_indicators_empty_directory_fails(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = main(["indicators", "--input", str(empty), "--output-dir", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    assert "no laplacian" in capsys.readouterr().err


def test_indicators_single_matrix(tmp_path, tv_run):
    _, run = tv_run
    single = tmp_path / "single"
    single.mkdir()
    (single / "laplacian_0000.csv").write_bytes((run / "laplacian_0000.csv").read_bytes())
    with (single / "windows.csv").open("w", newline="") as fh:
        csv.writer(fh).writerows(
            [["window", "start_date", "end_date"], ["0", "2020-01-01", "2020-01-30"]]
        )
    out = tmp_path / "oneind"
    assert main(["indicators", "--input", str(single), "--output-dir", str(out)]) == EXIT_OK
    rows = read_csv(out / "indicators.csv")
    assert len(rows) == 2 and rows[1][3] == ""


def test_indicators_read_each_window_by_its_number(tmp_path):
    # laplacian_10000.csv sorts between laplacian_1000.csv and laplacian_1001.csv,
    # so a sorted file listing would give row 1001 the matrix of window 10000.
    # Window t holds the 2-node Laplacian of weight t + 1, so its own algebraic
    # connectivity and spectral radius are 2(t + 1), and each step moves L by 4
    # in squared Frobenius norm.
    run, n = tmp_path / "run", 10_001
    run.mkdir()
    start = datetime.date(2000, 1, 1)
    ends = [(start + datetime.timedelta(days=t)).isoformat() for t in range(n)]
    for t in range(n):
        w = t + 1
        (run / f"laplacian_{t:04d}.csv").write_text(f"A,B\n{w},{-w}\n{-w},{w}\n")
    write_csv(run / "windows.csv", [["window", "start_date", "end_date"]]
              + [[t, end, end] for t, end in enumerate(ends)])
    out = tmp_path / "ind"
    assert main(["indicators", "--input", str(run), "--output-dir", str(out)]) == EXIT_OK
    rows = read_csv(out / "indicators.csv")[1:]
    assert [row[0] for row in rows] == ends
    lam2 = np.array([float(row[1]) for row in rows])
    lmax = np.array([float(row[2]) for row in rows])
    expected = 2.0 * np.arange(1, n + 1)
    assert np.allclose(lam2, expected, rtol=1e-12, atol=0)
    assert np.allclose(lmax, expected, rtol=1e-12, atol=0)
    assert np.allclose([float(row[3]) for row in rows[1:]], 4.0, rtol=1e-9, atol=0)


def test_an_extra_stored_matrix_is_an_error(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    for t in range(2):
        (run / f"laplacian_{t:04d}.csv").write_text("A,B\n1,-1\n-1,1\n")
    (run / "windows.csv").write_text("window,start_date,end_date\n0,2020-01-01,2020-01-30\n")
    assert main(["indicators", "--input", str(run), "--output-dir", str(tmp_path / "o")]) == EXIT_VALIDATION
    assert "windows.csv does not match the stored matrices" in capsys.readouterr().err


# --- backtest -----------------------------------------------------------------------

def test_backtest_with_stored_indicators(tmp_path, tv_run):
    data, run = tv_run
    out = tmp_path / "bt"
    code = main(["backtest", "--input", str(data / "prices.csv"),
                 "--indicators", str(run / "indicators.csv"),
                 "--output-dir", str(out)])
    assert code == EXIT_OK
    rows = read_csv(out / "pnl.csv")
    assert rows[0] == ["date", "s1_cum", "s2_cum", "position"]
    assert len(rows) == 70  # header + 69 return days
    meta = json.loads((out / "meta.json").read_text())
    assert meta["config"]["tau"] == 1.0  # paper default honored
    assert meta["converged"] is True and "unconverged_windows" not in meta  # no solver ran


def test_backtest_estimates_the_learn_tv_indicators(tmp_path, tv_run):
    data, run = tv_run
    out = tmp_path / "bt_est"
    assert main(["backtest", "--input", str(data / "prices.csv"), "--window", "30",
                 "--stride", "1", "--delta", "20", "--output-dir", str(out)]) == EXIT_OK
    assert (out / "indicators.csv").read_bytes() == (run / "indicators.csv").read_bytes()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["converged"] is True and meta["unconverged_windows"] == []
    stored = tmp_path / "bt_stored"
    assert main(["backtest", "--input", str(data / "prices.csv"),
                 "--indicators", str(run / "indicators.csv"),
                 "--output-dir", str(stored)]) == EXIT_OK
    assert (out / "pnl.csv").read_bytes() == (stored / "pnl.csv").read_bytes()


@pytest.mark.parametrize("market", ["keep", "remove"])
def test_estimating_backtest_parses_the_prices_once(tmp_path, tv_run, monkeypatch, market):
    import marketgraph.cli as climod

    data, _ = tv_run
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return ingest_prices(*args, **kwargs)

    monkeypatch.setattr(climod, "ingest_prices", counted)
    assert main(["backtest", "--input", str(data / "prices.csv"), "--market", market,
                 "--delta", "20", "--output-dir", str(tmp_path / "bt")]) == EXIT_OK
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["learn-tv", "backtest"])
@pytest.mark.parametrize("flag, value, message", [
    ("--window", "1", "window length must be at least 2"),
    ("--stride", "0", "stride must be at least 1"),
])
def test_rolling_window_flags_are_validated(tmp_path, tv_run, capsys, command, flag, value, message):
    data, _ = tv_run
    code = main([command, "--input", str(data / "prices.csv"), flag, value,
                 "--output-dir", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    assert message in capsys.readouterr().err


def test_backtest_at_stride_5_invests_only_after_a_window_end(tmp_path, tv_run):
    # the S2 gate reads the indicator dated on the previous trading day, and at
    # stride 5 only every fifth day ends a window: the other days stay flat
    data, _ = tv_run
    out = tmp_path / "bt5"
    assert main(["backtest", "--input", str(data / "prices.csv"), "--stride", "5", "--delta", "20",
                 "--tau", "inf", "--output-dir", str(out)]) == EXIT_OK
    ends = {row[0] for row in read_csv(out / "indicators.csv")[1:]}
    rows = read_csv(out / "pnl.csv")[1:]
    invested = [t for t, row in enumerate(rows) if float(row[3]) == 1.0]
    assert invested == [t for t in range(1, len(rows)) if rows[t - 1][0] in ends]
    assert len(invested) == len(ends) == 8
    assert json.loads((out / "meta.json").read_text())["days_invested"] == 8


def test_backtest_s1_column_matches_running_mean_return(tmp_path, tv_run):
    data, run = tv_run
    out = tmp_path / "bt_s1"
    assert main(["backtest", "--input", str(data / "prices.csv"),
                 "--indicators", str(run / "indicators.csv"),
                 "--output-dir", str(out)]) == EXIT_OK
    panel = ingest_prices(data / "prices.csv")
    daily_mean = np.diff(np.log(panel.prices), axis=0).mean(axis=1)
    expected = np.cumsum(daily_mean)
    rows = read_csv(out / "pnl.csv")[1:]
    got = np.array([float(r[1]) for r in rows])
    assert np.abs(got - expected).max() <= 1e-12


def test_learn_tv_rerun_is_bitwise_reproducible(tmp_path, tv_run):
    data, run = tv_run
    out = tmp_path / "tv2"
    assert main(["learn-tv", "--input", str(data / "prices.csv"), "--window", "30",
                 "--stride", "1", "--delta", "20", "--output-dir", str(out)]) == EXIT_OK
    for f in sorted(run.glob("laplacian_*.csv")):
        assert (out / f.name).read_bytes() == f.read_bytes()
    assert (out / "indicators.csv").read_bytes() == (run / "indicators.csv").read_bytes()


def test_backtest_tau_infinite_gate(tmp_path, tv_run):
    data, run = tv_run
    out = tmp_path / "btinf"
    code = main(["backtest", "--input", str(data / "prices.csv"),
                 "--indicators", str(run / "indicators.csv"),
                 "--tau", "inf", "--output-dir", str(out)])
    assert code == EXIT_OK
    rows = read_csv(out / "pnl.csv")[1:]
    # gate always open once indicators exist: s2 equals s1 on gated days
    gated = [r for r in rows if float(r[3]) == 1.0]
    assert len(gated) == 39  # one per indicator window except the first day lag


# --- config file ----------------------------------------------------------------------

def test_config_file_and_flag_precedence(tmp_path, tv_run):
    data, _ = tv_run
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("tau = 2.5\nstride = 5\nscale = covariance\nffill = off\n# comment\n")
    out1 = tmp_path / "c1"
    assert main(["backtest", "--input", str(data / "prices.csv"), "--config", str(cfgfile),
                 "--output-dir", str(out1)]) == EXIT_OK
    meta = json.loads((out1 / "meta.json").read_text())
    assert meta["config"]["tau"] == 2.5
    assert meta["config"]["stride"] == 5
    assert meta["config"]["scale"] == "covariance"
    assert meta["config"]["ffill"] is False

    out2 = tmp_path / "c2"
    assert main(["backtest", "--input", str(data / "prices.csv"), "--config", str(cfgfile),
                 "--tau", "3.5", "--output-dir", str(out2)]) == EXIT_OK
    assert json.loads((out2 / "meta.json").read_text())["config"]["tau"] == 3.5

    cfgfile.write_text("seed = 42\n")
    out3 = tmp_path / "c3"
    assert main(["synth", "--config", str(cfgfile), "--output-dir", str(out3)]) == EXIT_OK
    assert json.loads((out3 / "meta.json").read_text())["config"]["seed"] == 42


def test_unknown_config_key_fails(tmp_path, gmrf_prices, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("no_such_key = 1\n")
    code = main(["learn", "--input", str(gmrf_prices), "--config", str(cfgfile),
                 "--output-dir", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    assert "unknown config key" in capsys.readouterr().err


def test_missing_input_is_validation_error(tmp_path, capsys):
    code = main(["learn", "--output-dir", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    code = main(["learn", "--input", str(tmp_path / "nope.csv"),
                 "--output-dir", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("line", [
    "scale = corr",
    "market = removed",
    "method = smoth",
    "mode = lattice",
    "k = 2.5",
])
def test_config_values_are_checked_like_flags(tmp_path, gmrf_prices, capsys, line):
    key = line.split(" = ")[0]
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(line + "\n")
    command = OPTIONS[key][1][0]
    inputs = [] if command == "synth" else ["--input", str(gmrf_prices)]
    code = main([command, *inputs, "--config", str(cfgfile), "--output-dir", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    assert f"config key {key}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# one valid non-default value per config key as written after its flag (None: a bare flag)
NON_DEFAULTS = {
    "scale": "covariance", "market": "remove", "market_column": "A00", "method": "smooth",
    "k": "3", "eta": "2.5", "alpha": "0.5", "gamma": "2", "delta": "20", "tau": "inf",
    "window": "40", "stride": "2", "memory": "2", "seed": "7", "ffill": None,
    "invert_gate": None, "indicators": "ind.csv", "mode": "factor", "assets": "12",
    "days": "100", "k_true": "3", "regimes": "50:0.2", "weight_min": "0.5",
    "weight_max": "2.5", "beta_min": "0.5", "beta_max": "1.5", "density": "0.5",
}


@pytest.mark.parametrize("key", sorted(NON_DEFAULTS))
def test_flag_and_config_value_resolve_alike(tmp_path, key):
    assert set(NON_DEFAULTS) == set(DEFAULTS)
    command = OPTIONS[key][1][0]
    flag, value = "--" + key.replace("_", "-"), NON_DEFAULTS[key]
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"{key} = {'yes' if value is None else value}\n")
    parser = build_parser()
    from_flag = resolve_config(parser.parse_args([command, flag] + ([] if value is None else [value])))
    from_file = resolve_config(parser.parse_args([command, "--config", str(cfgfile)]))
    assert from_flag == from_file
    assert type(from_flag[key]) is type(from_file[key])
    assert from_flag[key] != DEFAULTS[key]


# option strings -> (dest, type, choices, const) of each subcommand's parser
_OUTPUT_FLAGS = {
    ("-h", "--help"): ("help", None, None, None),
    ("--output-dir",): ("output_dir", None, None, None),
}
_CONFIG_FLAG = {("--config",): ("config", None, None, None)}
_INPUT_FLAG = {("--input",): ("input", None, None, None)}
_PRICE_FLAGS = {
    **_OUTPUT_FLAGS,
    **_INPUT_FLAG,
    **_CONFIG_FLAG,
    ("--scale",): ("scale", None, ["covariance", "correlation"], None),
    ("--market",): ("market", None, ["keep", "remove"], None),
    ("--market-column",): ("market_column", None, None, None),
    ("--ffill",): ("ffill", None, None, True),
    ("--alpha",): ("alpha", float, None, None),
}
_ROLLING_FLAGS = {
    **_PRICE_FLAGS,
    ("--window",): ("window", int, None, None),
    ("--stride",): ("stride", int, None, None),
    ("--delta",): ("delta", float, None, None),
    ("--memory",): ("memory", int, None, None),
}
EXPECTED_FLAGS = {
    "learn": {
        **_PRICE_FLAGS,
        ("--k",): ("k", int, None, None),
        ("--eta",): ("eta", float, None, None),
        ("--gamma",): ("gamma", float, None, None),
        ("--method",): ("method", None, ["mle", "smooth"], None),
    },
    "learn-tv": _ROLLING_FLAGS,
    "backtest": {
        **_ROLLING_FLAGS,
        ("--indicators",): ("indicators", None, None, None),
        ("--tau",): ("tau", float, None, None),
        ("--invert-gate",): ("invert_gate", None, None, True),
    },
    "synth": {
        **_OUTPUT_FLAGS,
        **_CONFIG_FLAG,
        ("--mode",): ("mode", None, ["gmrf", "factor"], None),
        ("--assets",): ("assets", int, None, None),
        ("--days",): ("days", int, None, None),
        ("--k-true",): ("k_true", int, None, None),
        ("--regimes",): ("regimes", None, None, None),
        ("--weight-min",): ("weight_min", float, None, None),
        ("--weight-max",): ("weight_max", float, None, None),
        ("--beta-min",): ("beta_min", float, None, None),
        ("--beta-max",): ("beta_max", float, None, None),
        ("--seed",): ("seed", int, None, None),
        ("--density",): ("density", float, None, None),
    },
    "indicators": {**_OUTPUT_FLAGS, **_INPUT_FLAG},
}


def test_parser_flags_are_pinned():
    subparsers = build_parser()._subparsers._group_actions[0].choices
    assert list(subparsers) == list(EXPECTED_FLAGS)
    for command, parser in subparsers.items():
        got = {tuple(a.option_strings): (a.dest, a.type, a.choices, a.const) for a in parser._actions}
        assert got == EXPECTED_FLAGS[command], command
        # no flag has a default of its own, so a config file value is only overridden when given
        assert all(a.default is None for a in parser._actions if a.dest != "help"), command


# --- each subcommand takes exactly the options it reads --------------------------------

@pytest.mark.parametrize("argv", [
    ["learn-tv", "--k", "4"],
    ["learn-tv", "--tau", "9"],
    ["learn", "--seed", "9"],
    ["synth", "--tau", "5"],
    ["indicators", "--delta", "3"],
    ["synth", "--input", "nowhere.csv"],
    ["indicators", "--config", "run.cfg"],
])
def test_a_flag_the_subcommand_does_not_read_exits_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--input", "x.csv", "--output-dir", str(tmp_path / "o")])
    assert exc.value.code == EXIT_VALIDATION
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_a_config_key_the_subcommand_does_not_read_exits_2(tmp_path, gmrf_prices, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("tau = 2\n")
    code = main(["learn-tv", "--input", str(gmrf_prices), "--config", str(cfgfile),
                 "--output-dir", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    assert "config key tau: not an option of learn-tv" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# every way a subcommand's input can be malformed: files under a temporary directory {d},
# the command line, and the messages on stderr
_WINDOWS_1 = "window,start_date,end_date\n0,2020-01-01,2020-01-30\n"
_PRICES_3 = "date,A,B\n2020-01-01,1,2\n2020-01-02,2,3\n2020-01-03,3,1\n"
_INDICATORS_HEADER = "date,algebraic_connectivity,spectral_radius,time_consistency\n"
INPUT_ERRORS = {
    "empty price file": ({"p.csv": ""}, "learn --input {d}/p.csv", ["empty file"]),
    "first column not date": ({"p.csv": "day,A\n2020-01-01,1\n2020-01-02,2\n"},
                              "learn --input {d}/p.csv", ["first header column must be 'date'"]),
    "no ticker columns": ({"p.csv": "date\n2020-01-01\n2020-01-02\n"},
                          "learn --input {d}/p.csv", ["no ticker columns"]),
    "ragged row": ({"p.csv": "date,A,B\n2020-01-01,1,2\n2020-01-02,1\n"},
                   "learn-tv --input {d}/p.csv", ["row 3: expected 3 cells, got 2"]),
    "non-positive price": ({"p.csv": "date,A\n2020-01-01,1\n2020-01-02,0\n"},
                           "backtest --input {d}/p.csv", ["row 3, column A: non-positive price 0.0"]),
    "inf is missing": ({"p.csv": "date,A\n2020-01-01,1\n2020-01-02,inf\n"}, "learn --input {d}/p.csv",
                       ["dropped 1 row(s) with missing values", "fewer than 2 usable price rows"]),
    "one usable row": ({"p.csv": "date,A\n2020-01-01,1\n"},
                       "learn --input {d}/p.csv", ["fewer than 2 usable price rows"]),
    "header-only matrix": ({"run/laplacian_0000.csv": "A,B\n", "run/windows.csv": _WINDOWS_1},
                           "indicators --input {d}/run", ["not a matrix CSV"]),
    "corrupt matrix": ({"run/laplacian_0000.csv": "A,B\n1,x\n-1,1\n", "run/windows.csv": _WINDOWS_1},
                       "indicators --input {d}/run", ["corrupt matrix CSV"]),
    "mis-shaped matrix": ({"run/laplacian_0000.csv": "A,B\n1,-1\n", "run/windows.csv": _WINDOWS_1},
                          "indicators --input {d}/run", ["matrix shape (1, 2) does not match header"]),
    "indicators on a file": ({"p.csv": _PRICES_3}, "indicators --input {d}/p.csv",
                             ["--input must be a directory of stored Laplacians"]),
    "no windows.csv": ({"run/laplacian_0000.csv": "A,B\n1,-1\n-1,1\n"},
                       "indicators --input {d}/run", ["missing windows.csv"]),
    "window count mismatch": (
        {"run/laplacian_0000.csv": "A,B\n1,-1\n-1,1\n",
         "run/windows.csv": _WINDOWS_1 + "1,2020-01-02,2020-01-31\n"},
        "indicators --input {d}/run", ["windows.csv does not match the stored matrices"]),
    "missing indicators file": ({"p.csv": _PRICES_3},
                                "backtest --input {d}/p.csv --indicators {d}/ind.csv",
                                ["indicator file not found"]),
    "not an indicators file": ({"p.csv": _PRICES_3, "ind.csv": "date,lam\n"},
                               "backtest --input {d}/p.csv --indicators {d}/ind.csv",
                               ["not an indicators CSV"]),
    "short indicators row": ({"p.csv": _PRICES_3, "ind.csv": _INDICATORS_HEADER + "2020-01-02,1.0\n"},
                             "backtest --input {d}/p.csv --indicators {d}/ind.csv",
                             ["ind.csv: row 2: expected 4 cells, got 2"]),
    "blank indicators line": ({"p.csv": _PRICES_3,
                               "ind.csv": _INDICATORS_HEADER + "2020-01-02,1.0,2.0,\n\n2020-01-03,1.0,2.0,0.5\n"},
                              "backtest --input {d}/p.csv --indicators {d}/ind.csv",
                              ["ind.csv: row 3: expected 4 cells, got 0"]),
    "short windows row": ({"run/laplacian_0000.csv": "A,B\n1,-1\n-1,1\n",
                           "run/windows.csv": "window,start_date,end_date\n0,2020-01-01\n"},
                          "indicators --input {d}/run", ["windows.csv: row 2: expected 3 cells, got 2"]),
    "blank windows line": ({"run/laplacian_0000.csv": "A,B\n1,-1\n-1,1\n",
                            "run/windows.csv": "window,start_date,end_date\n\n0,2020-01-01,2020-01-30\n"},
                           "indicators --input {d}/run", ["windows.csv: row 2: expected 3 cells, got 0"]),
    "bad indicators date": ({"p.csv": _PRICES_3, "ind.csv": _INDICATORS_HEADER + "2020-13-02,1.0,2.0,\n"},
                            "backtest --input {d}/p.csv --indicators {d}/ind.csv",
                            ["ind.csv: row 2: invalid ISO date '2020-13-02'"]),
    "bad indicators number": ({"p.csv": _PRICES_3,
                               "ind.csv": _INDICATORS_HEADER + "2020-01-02,1.0,2.0,\n2020-01-03,1.0,x,0.5\n"},
                              "backtest --input {d}/p.csv --indicators {d}/ind.csv",
                              ["ind.csv: row 3, column spectral_radius: non-numeric cell 'x'"]),
    "bad windows date": ({"run/laplacian_0000.csv": "A,B\n1,-1\n-1,1\n",
                          "run/windows.csv": "window,start_date,end_date\n0,2020-01-01,2020-13-30\n"},
                         "indicators --input {d}/run",
                         ["windows.csv: row 2, column end_date: invalid ISO date '2020-13-30'"]),
    "bad windows number": ({"run/laplacian_0000.csv": "A,B\n1,-1\n-1,1\n",
                            "run/windows.csv": "window,start_date,end_date\nx,2020-01-01,2020-01-30\n"},
                           "indicators --input {d}/run",
                           ["windows.csv: row 2, column window: non-integer cell 'x'"]),
    "missing config file": ({}, "learn --input {d}/p.csv --config {d}/run.cfg",
                            ["config file not found"]),
    "config line without =": ({"run.cfg": "# comment\nscale correlation\n"},
                              "learn --input {d}/p.csv --config {d}/run.cfg",
                              ["run.cfg: line 2: expected 'key = value'"]),
    "missing --output-dir": ({}, "synth", ["--output-dir is required"]),
    "negative alpha": ({"p.csv": _PRICES_3}, "learn --input {d}/p.csv --alpha -1",
                       ["sparsity weight alpha must be nonnegative, got -1.0"]),
    "nan alpha": ({"p.csv": _PRICES_3}, "learn --input {d}/p.csv --alpha nan",
                  ["sparsity weight alpha must be nonnegative, got nan"]),
    "negative tv alpha": ({"p.csv": _PRICES_3}, "learn-tv --input {d}/p.csv --window 2 --alpha -5",
                          ["sparsity weight alpha must be nonnegative, got -5.0"]),
    "negative eta": ({"p.csv": _PRICES_3}, "learn --input {d}/p.csv --k 2 --eta -1",
                     ["rank-penalty weight eta must be nonnegative, got -1.0"]),
    "nan tau": ({"p.csv": _PRICES_3, "ind.csv": _INDICATORS_HEADER + "2020-01-02,1.0,2.0,\n"},
                "backtest --input {d}/p.csv --indicators {d}/ind.csv --tau nan",
                ["gate threshold tau must not be NaN"]),
    "one price row": ({}, "synth --days 1", ["need at least 1 sample, got n=0"]),
    "no planted component": ({}, "synth --k-true 0", ["component count k must be at least 1, got k=0"]),
    "no factor assets": ({}, "synth --mode factor --assets 0", ["need at least 1 asset, got p=0"]),
    "asymmetric stored matrix": (
        {"run/laplacian_0000.csv": "A,B,C\n2,-1,-1\n-5,1,0\n-1,0,1\n", "run/windows.csv": _WINDOWS_1},
        "indicators --input {d}/run", ["laplacian_0000.csv: not a Laplacian: not symmetric"]),
    "stored matrix with a nonzero row sum": (
        {"run/laplacian_0000.csv": "A,B,C\n2,-1,-1\n-1,5,0\n-1,0,1\n", "run/windows.csv": _WINDOWS_1},
        "indicators --input {d}/run", ["laplacian_0000.csv: not a Laplacian: nonzero row sum"]),
    "stored matrix with a positive off-diagonal entry": (
        {"run/laplacian_0000.csv": "A,B,C\n0,1,-1\n1,0,-1\n-1,-1,2\n", "run/windows.csv": _WINDOWS_1},
        "indicators --input {d}/run", ["laplacian_0000.csv: not a Laplacian: positive off-diagonal entry"]),
    "non-finite stored matrix": ({"run/laplacian_0000.csv": "A,B\nnan,nan\nnan,nan\n",
                                  "run/windows.csv": _WINDOWS_1},
                                 "indicators --input {d}/run", ["laplacian_0000.csv: non-finite matrix entry"]),
    "windows.csv header": ({"run/laplacian_0000.csv": "A,B\n1,-1\n-1,1\n",
                            "run/windows.csv": "t,start_date,end_date\n0,2020-01-01,2020-01-30\n"},
                           "indicators --input {d}/run",
                           ["windows.csv: header must be window,start_date,end_date"]),
    "window without its matrix": ({"run/laplacian_0000.csv": "A,B\n1,-1\n-1,1\n",
                                   "run/windows.csv": "window,start_date,end_date\n5,2020-01-01,2020-01-30\n"},
                                  "indicators --input {d}/run", ["windows.csv does not match the stored matrices"]),
    "window listed twice": ({"run/laplacian_0000.csv": "A,B\n1,-1\n-1,1\n",
                             "run/laplacian_0001.csv": "A,B\n1,-1\n-1,1\n",
                             "run/windows.csv": _WINDOWS_1 + "0,2020-01-02,2020-01-31\n"},
                            "indicators --input {d}/run", ["windows.csv does not match the stored matrices"]),
    "indicators header": ({"p.csv": _PRICES_3, "ind.csv": "date,algebraic_connectivity,spectral_radius,tc\n"
                                                          "2020-01-02,1.0,2.0,\n"},
                          "backtest --input {d}/p.csv --indicators {d}/ind.csv", ["not an indicators CSV"]),
    "over-long CSV cell": ({"p.csv": "date,A\n2020-01-01," + "1" * 131_073 + "\n2020-01-02,2\n"},
                           "learn --input {d}/p.csv",
                           ["p.csv: unreadable CSV: field larger than field limit (131072)"]),
    "price file not UTF-8": ({"p.csv": b"date,A\n2020-01-01,1\n2020-01-02,\xff\n"}, "learn --input {d}/p.csv",
                             ["p.csv: unreadable CSV: 'utf-8' codec can't decode byte 0xff in position 31"]),
    "windows.csv not UTF-8": ({"run/laplacian_0000.csv": "A,B\n1,-1\n-1,1\n",
                               "run/windows.csv": b"window,start_date,end_date\n0,2020-01-01,\xff\n"},
                              "indicators --input {d}/run", ["windows.csv: unreadable CSV: 'utf-8' codec"]),
    "config file not UTF-8": ({"run.cfg": b"# \xff\nscale = correlation\n"},
                              "learn --input {d}/p.csv --config {d}/run.cfg",
                              ["run.cfg: unreadable config file: 'utf-8' codec can't decode byte 0xff"]),
    "density above 1": ({}, "synth --density 5",
                        ["extra_edge_prob must be a probability in [0, 1], got 5.0"]),
    "negative density": ({}, "synth --density -1",
                         ["extra_edge_prob must be a probability in [0, 1], got -1.0"]),
    "reversed beta range": ({}, "synth --mode factor --beta-min 2 --beta-max 1",
                            ["beta_range must run from low to high, got (2.0, 1.0)"]),
    "repeated ticker": ({"p.csv": "date,A,B,A\n2020-01-01,1,2,3\n2020-01-02,2,3,4\n2020-01-03,3,1,2\n"},
                        "learn --input {d}/p.csv", ["p.csv: repeated ticker 'A' in the header"]),
    "stored matrices with different headers": (
        {"run/laplacian_0000.csv": "A,B\n1,-1\n-1,1\n", "run/laplacian_0001.csv": "A,C\n1,-1\n-1,1\n",
         "run/windows.csv": _WINDOWS_1 + "1,2020-01-02,2020-01-31\n"},
        "indicators --input {d}/run", ["laplacian_0001.csv: header A,C differs from the first window's A,B"]),
}


@pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
def test_input_errors_exit_2_with_their_message(tmp_path, capsys, case):
    files, command, messages = INPUT_ERRORS[case]
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        if isinstance(text, bytes):  # a file that is not UTF-8
            (tmp_path / name).write_bytes(text)
        else:
            (tmp_path / name).write_text(text)
    argv = command.format(d=tmp_path).split()
    if case != "missing --output-dir":
        argv += ["--output-dir", str(tmp_path / "out")]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    for message in messages:
        assert message in err


# --- the option table tells the truth ------------------------------------------------

@pytest.fixture(scope="module")
def table_inputs(tmp_path_factory, gmrf_prices, tv_run):
    """Price files for the modes below: gmrf_prices and tv_run's, each also with one blank cell."""
    base = tmp_path_factory.mktemp("table")
    tv_prices = tv_run[0] / "prices.csv"
    paths = {"gmrf": gmrf_prices, "tv": tv_prices, "run": tv_run[1],
             "indicators": tv_run[1] / "indicators.csv"}
    for name in ("gmrf", "tv"):
        rows = read_csv(paths[name])
        rows[5][1] = ""
        paths[name + "_gap"] = base / f"{name}_gap.csv"
        write_csv(paths[name + "_gap"], rows)
    return paths


# per subcommand, the modes to try an option in (never one that sets the option itself)
TABLE_MODES = {
    "learn": ["learn --input {gmrf}", "learn --input {gmrf_gap}", "learn --input {gmrf} --market remove",
              "learn --input {gmrf} --k 3", "learn --input {gmrf} --method smooth --alpha 1"],
    "learn-tv": ["learn-tv --input {tv}", "learn-tv --input {tv_gap}",
                 "learn-tv --input {tv} --market remove"],
    "backtest": ["backtest --input {tv}", "backtest --input {tv} --indicators {indicators}",
                 "backtest --input {tv_gap}", "backtest --input {tv} --market remove"],
    "synth": ["synth", "synth --mode factor"],
    "indicators": ["indicators --input {run}"],
}
# the value each option is changed to: NON_DEFAULTS, with a real indicators file and
# regimes that fit the default 229 return days
TABLE_VALUES = {**NON_DEFAULTS, "indicators": "{indicators}", "regimes": "115:0.3,114:0.6"}


def _outputs(argv, out):
    code = main(argv + ["--output-dir", str(out)])
    files = {f.name: f.read_bytes() for f in sorted(out.glob("*")) if f.name != "meta.json"}
    return code, files


@pytest.mark.parametrize("command, key", sorted(
    (command, key) for key, (_, commands, _) in OPTIONS.items() for command in commands))
def test_every_option_of_a_subcommand_changes_its_output(tmp_path, capsys, table_inputs, command, key):
    """Changing the option from its default changes the exit code or a file other than meta.json."""
    flag, value = "--" + key.replace("_", "-"), TABLE_VALUES[key]
    change = [flag] if value is None else [flag, value.format(**table_inputs)]
    tried = []
    for i, mode in enumerate(TABLE_MODES[command]):
        if flag in mode.split():
            continue
        argv = mode.format(**table_inputs).split()
        base = _outputs(argv, tmp_path / f"base{i}")
        if _outputs(argv + change, tmp_path / f"changed{i}") != base:
            return
        tried.append(mode)
    pytest.fail(f"{command} {' '.join(change)} changed nothing in the modes {tried}")


@pytest.mark.parametrize("command", list(EXPECTED_FLAGS))
def test_meta_config_holds_the_subcommands_own_options(tmp_path, table_inputs, command):
    argv = TABLE_MODES[command][0].format(**table_inputs).split()
    assert main(argv + ["--output-dir", str(tmp_path)]) == EXIT_OK
    config = json.loads((tmp_path / "meta.json").read_text())["config"]
    options = {key for key, (_, commands, _) in OPTIONS.items() if command in commands}
    assert set(config) == options | {"input", "output_dir"}


@pytest.mark.parametrize("command", ["learn", "learn-tv", "backtest", "indicators"])
def test_the_output_directory_is_made_before_the_input_is_read(tmp_path, capsys, command):
    argv = [command, "--input", str(tmp_path / "missing"), "--output-dir", str(tmp_path / "o")]
    assert main(argv) == EXIT_VALIDATION
    assert (tmp_path / "o").is_dir()


# the top-level meta.json keys of each subcommand and mode, in the order they are written
_META_HEAD = ["command", "version", "config"]
META_KEYS = {
    "learn --input {gmrf}": ["converged", "iterations", "objective", "constraint_residuals",
                             "nullity", "n_edges", "wall_time_s"],
    "learn-tv --input {tv}": ["n_windows", "wall_time_s", "converged", "unconverged_windows"],
    "backtest --input {tv}": ["converged", "unconverged_windows", "final_s1", "final_s2",
                              "days_invested"],
    "backtest --input {tv} --indicators {indicators}": ["converged", "final_s1", "final_s2",
                                                        "days_invested"],
    "synth": ["planted_nullity", "k_true", "converged", "n_price_rows"],
    "synth --mode factor": ["regimes", "converged", "n_price_rows"],
    "indicators --input {run}": ["converged", "n_windows"],
}


@pytest.mark.parametrize("mode", list(META_KEYS))
def test_meta_keys_keep_their_order(tmp_path, table_inputs, mode):
    assert {m.split()[0] for m in META_KEYS} == set(EXPECTED_FLAGS)
    assert main(mode.format(**table_inputs).split() + ["--output-dir", str(tmp_path)]) == EXIT_OK
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert list(meta) == _META_HEAD + META_KEYS[mode]
