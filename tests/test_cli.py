import csv
import dataclasses
import datetime
import json

import numpy as np
import pytest

from marketgraph.cli import (
    DEFAULTS,
    EXIT_NONCONVERGED,
    EXIT_OK,
    EXIT_VALIDATION,
    build_parser,
    ingest_prices,
    main,
    read_matrix_csv,
    resolve_config,
    write_matrix_csv,
)
from marketgraph.solvers import SolveReport
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
    assert np.isfinite(meta["objective"]) and meta["constraint_residuals"]["sign"] == 0.0


def test_learn_smooth_requires_positive_alpha(tmp_path, gmrf_prices, capsys):
    code = main(["learn", "--input", str(gmrf_prices), "--output-dir",
                 str(tmp_path / "x"), "--method", "smooth"])
    assert code == EXIT_VALIDATION
    assert "alpha" in capsys.readouterr().err


def test_learn_rerun_is_bitwise_reproducible(tmp_path, gmrf_prices):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    args = ["learn", "--input", str(gmrf_prices), "--seed", "9"]
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
            connected=False,
            nullity=p,
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

def test_config_file_and_flag_precedence(tmp_path, gmrf_prices):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("tau = 2.5\nseed = 42\nscale = covariance\n# comment\n")
    out1 = tmp_path / "c1"
    assert main(["learn", "--input", str(gmrf_prices), "--config", str(cfgfile),
                 "--output-dir", str(out1)]) == EXIT_OK
    meta = json.loads((out1 / "meta.json").read_text())
    assert meta["config"]["tau"] == 2.5
    assert meta["config"]["seed"] == 42
    assert meta["config"]["scale"] == "covariance"

    out2 = tmp_path / "c2"
    assert main(["learn", "--input", str(gmrf_prices), "--config", str(cfgfile),
                 "--tau", "3.5", "--output-dir", str(out2)]) == EXIT_OK
    assert json.loads((out2 / "meta.json").read_text())["config"]["tau"] == 3.5


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
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(line + "\n")
    code = main(["learn", "--input", str(gmrf_prices), "--config", str(cfgfile),
                 "--output-dir", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    key = line.split(" = ")[0]
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
    command = {"method": "learn", "indicators": "backtest"}.get(key, "synth")
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
_SHARED_FLAGS = {
    ("-h", "--help"): ("help", None, None, None),
    ("--input",): ("input", None, None, None),
    ("--output-dir",): ("output_dir", None, None, None),
    ("--config",): ("config", None, None, None),
    ("--scale",): ("scale", None, ["covariance", "correlation"], None),
    ("--market",): ("market", None, ["keep", "remove"], None),
    ("--market-column",): ("market_column", None, None, None),
    ("--k",): ("k", int, None, None),
    ("--eta",): ("eta", float, None, None),
    ("--alpha",): ("alpha", float, None, None),
    ("--gamma",): ("gamma", float, None, None),
    ("--delta",): ("delta", float, None, None),
    ("--tau",): ("tau", float, None, None),
    ("--window",): ("window", int, None, None),
    ("--stride",): ("stride", int, None, None),
    ("--memory",): ("memory", int, None, None),
    ("--seed",): ("seed", int, None, None),
    ("--ffill",): ("ffill", None, None, True),
    ("--invert-gate",): ("invert_gate", None, None, True),
}
EXPECTED_FLAGS = {
    "learn": {**_SHARED_FLAGS, ("--method",): ("method", None, ["mle", "smooth"], None)},
    "learn-tv": _SHARED_FLAGS,
    "backtest": {**_SHARED_FLAGS, ("--indicators",): ("indicators", None, None, None)},
    "synth": {
        **_SHARED_FLAGS,
        ("--mode",): ("mode", None, ["gmrf", "factor"], None),
        ("--assets",): ("assets", int, None, None),
        ("--days",): ("days", int, None, None),
        ("--k-true",): ("k_true", int, None, None),
        ("--regimes",): ("regimes", None, None, None),
        ("--weight-min",): ("weight_min", float, None, None),
        ("--weight-max",): ("weight_max", float, None, None),
        ("--beta-min",): ("beta_min", float, None, None),
        ("--beta-max",): ("beta_max", float, None, None),
        ("--density",): ("density", float, None, None),
    },
    "indicators": _SHARED_FLAGS,
}


def test_parser_flags_are_pinned():
    subparsers = build_parser()._subparsers._group_actions[0].choices
    assert list(subparsers) == list(EXPECTED_FLAGS)
    for command, parser in subparsers.items():
        got = {tuple(a.option_strings): (a.dest, a.type, a.choices, a.const) for a in parser._actions}
        assert got == EXPECTED_FLAGS[command], command
        # no flag has a default of its own, so a config file value is only overridden when given
        assert all(a.default is None for a in parser._actions if a.dest != "help"), command
