import csv
import datetime
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from quantes import __version__, cli, dynamics, estimation, mal, pipeline
from quantes.dynamics import initial_quantile, risk_path
from quantes.estimation import EMConfig, ParameterSet
from quantes.exceptions import (
    InfeasibleAllocationError, NumericError, PathError, ValidationError,
)
from quantes.mal import (
    MALConstraints, MALParams, al_es, al_quantile, assemble_sigma, linear_combine,
)
from quantes.pipeline import RunConfig, load_returns, rolling_forecast, summary_stats
from quantes.simulate import SimScenario, StudyResult, generate, reference_params, run_study

TAU = 0.1


def _write_forecasts(path, p=2, T=120, fmt="%.10g"):
    """A wide forecasts file from the true-model paths of a simulated panel."""
    params = reference_params(p=p)
    y = generate(SimScenario(params=params, tau=np.full(p, TAU), T=T, seed=11))
    header = ["date"]
    columns = []
    for j in range(p):
        path_j = risk_path(
            params.specs[j], params.links[j], y[:, j], initial_quantile(y[:, j], TAU), TAU
        )
        header += [f"y_a{j + 1}", f"var_a{j + 1}", f"es_a{j + 1}"]
        columns += [y[:, j], path_j.quantile, path_j.es]
    day = datetime.date(2001, 1, 2)
    with open(path, "w") as handle:
        handle.write(",".join(header) + "\n")
        for t, row in enumerate(np.column_stack(columns).tolist()):
            date = (day + datetime.timedelta(days=t)).isoformat()
            handle.write(date + "," + ",".join(fmt % v for v in row) + "\n")


def test_backtest_round_trips_emitted_reports(tmp_path, capsys):
    source = tmp_path / "forecasts.csv"
    _write_forecasts(source)
    out = tmp_path / "reports"
    code = cli.main(
        ["backtest", "--forecasts", str(source), "--tau", str(TAU), "--out", str(out)]
    )
    assert code == 0, capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["tables"]) == {
        "forecasts.csv", "paths_long.csv", "scores.csv", "score_paths.csv", "backtests.csv"
    }
    for name, rows in manifest["tables"].items():
        with open(out / name) as handle:
            assert sum(1 for _ in handle) - 1 == rows, name
    assert manifest["tables"]["forecasts.csv"] == 120
    before, after = load_returns(source), load_returns(out / "forecasts.csv")
    assert before.columns == after.columns
    assert before.dates == after.dates
    assert np.array_equal(before.values, after.values)
    assert (out / "forecasts.csv").read_text() == source.read_text()


def test_forecast_rejects_tau_of_wrong_length(tmp_path, capsys):
    data = tmp_path / "panel.csv"
    assert cli.main(["simulate", "--dimension", "3", "--length", "80", "--out", str(data)]) == 0
    code = cli.main(
        ["forecast", "--input", str(data), "--tau", "0.1,0.2", "--oos", "10",
         "--n-starts", "1", "--out", str(tmp_path / "reports")]
    )
    assert code == 2
    assert "tau has 2 levels for 3 assets" in capsys.readouterr().err
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize("option,value", [("--n-starts", "0"), ("--max-iterations", "0"),
                                          ("--tol", "-1"), ("--tol", "nan"), ("--seed", "-3")])
def test_fit_rejects_em_settings_that_cannot_run_with_exit_2(tmp_path, capsys, option, value):
    data = tmp_path / "panel.csv"
    assert cli.main(["simulate", "--dimension", "2", "--length", "150", "--out", str(data)]) == 0
    assert cli.main(["fit", "--input", str(data), option, value]) == 2
    assert capsys.readouterr().err.startswith(f"error: {option[2:].replace('-', '_')} must be")


def test_every_chi_square_report_uses_the_5pct_point_of_its_own_df(tmp_path):
    source = tmp_path / "forecasts.csv"
    _write_forecasts(source, p=3, T=200)
    table = load_returns(source)
    panels = [table.values[:, k::3] for k in range(3)]  # y, var, es by asset
    bundle = pipeline.evaluate_forecasts(table.dates, ("a1", "a2", "a3"),
                                         np.array([TAU, 0.05, 0.2]), *panels)
    tests = {"lr_uc", "lr_cc", "dq", "c_es"}
    rows = [r for r in bundle.backtests if r["test"] in tests]
    assert len(rows) == 3 * len(tests)
    for row in rows:
        assert abs(row["critical_value"] - special.chdtri(row["df"], 0.05)) < 0.01, row
        assert row["reject"] == (row["statistic"] > row["critical_value"])


def test_backtest_reads_tau_from_manifest(tmp_path, capsys):
    source = tmp_path / "forecasts.csv"
    _write_forecasts(source)
    # a forecast run records its levels under "config"; a backtest at the top level
    for recorded, expected in (({"config": {"tau": [0.05]}}, [0.05, 0.05]),
                               ({"tau": [0.1, 0.2]}, [0.1, 0.2])):
        (tmp_path / "manifest.json").write_text(json.dumps(recorded))
        out = tmp_path / "reports"
        code = cli.main(["backtest", "--forecasts", str(source), "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        assert json.loads((out / "manifest.json").read_text())["tau"] == expected


def test_backtest_without_any_tau_exits_2(tmp_path, capsys):
    source = tmp_path / "forecasts.csv"
    _write_forecasts(source)
    out = tmp_path / "reports"
    assert cli.main(["backtest", "--forecasts", str(source), "--out", str(out)]) == 2
    assert "--tau" in capsys.readouterr().err
    for recorded in ({"command": "forecast"}, {"tau": "ten percent"}, ["tau"]):
        (tmp_path / "manifest.json").write_text(json.dumps(recorded))
        assert cli.main(["backtest", "--forecasts", str(source), "--out", str(out)]) == 2
        assert "--tau" in capsys.readouterr().err
    assert not out.exists()


def test_consecutive_main_calls_share_no_values(tmp_path, capsys):
    source = tmp_path / "forecasts.csv"
    _write_forecasts(source)
    (tmp_path / "manifest.json").write_text(json.dumps({"tau": [0.1, 0.2]}))
    out = tmp_path / "reports"
    argv = ["backtest", "--forecasts", str(source), "--out", str(out)]
    assert cli.main(argv + ["--tau", "0.05"]) == 0, capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["tau"] == [0.05, 0.05]
    assert cli.main(argv) == 0, capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["tau"] == [0.1, 0.2]
    assert cli._build_parser() is cli._build_parser()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"quantes {__version__}\n"
    for bad, message in (([], "the following arguments are required: command"),
                         (argv + ["--bogus"], "unrecognized arguments: --bogus")):
        with pytest.raises(SystemExit) as exc:
            cli.main(bad)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: quantes") and message in err


def _edit_cell(path, row, column, text):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(column)] = text
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    return cells[0]


@pytest.mark.parametrize(
    "column, make_bad, reason",
    [
        ("es_a2", lambda var, es: "0.5", "a2: shortfall forecasts must be strictly negative"),
        ("es_a2", lambda var, es: str(float(0.5 * var)), "a2: shortfall forecasts cannot exceed the quantile"),
        ("var_a2", lambda var, es: "nan", "var_a2: non-finite value nan"),
    ],
    ids=["positive-es", "es-above-var", "non-finite"],
)
def test_backtest_names_date_and_asset_of_bad_cell(tmp_path, capsys, column, make_bad, reason):
    source = tmp_path / "forecasts.csv"
    _write_forecasts(source)
    before = load_returns(source)
    var, es = before.values[5, 4], before.values[5, 5]
    date = _edit_cell(source, 5, column, make_bad(var, es))
    _edit_cell(source, 9, column, make_bad(var, es))  # later bad cells are not reported
    out = tmp_path / "reports"
    code = cli.main(["backtest", "--forecasts", str(source), "--tau", str(TAU), "--out", str(out)])
    assert code == 2
    assert f"{date} {reason}" in capsys.readouterr().err
    assert not out.exists()


def test_stats_out_writes_both_tables(tmp_path, capsys):
    data = tmp_path / "panel.csv"
    assert cli.main(["simulate", "--dimension", "2", "--length", "60", "--out", str(data)]) == 0
    out = tmp_path / "stats"
    assert cli.main(["stats", "--input", str(data), "--out", str(out)]) == 0
    table = load_returns(data)
    stats = summary_stats(table.values)
    # the files as the hand-written writer produced them, for plain column names
    summary = "statistic," + ",".join(table.columns) + "\n"
    for row in ("mean", "median", "sd", "skewness", "kurtosis", "jarque_bera", "ljung_box"):
        summary += row + "," + ",".join("%.10g" % v for v in stats[row]) + "\n"
    corr = "asset," + ",".join(table.columns) + "\n"
    for name, line in zip(table.columns, stats["correlation"]):
        corr += name + "," + ",".join("%.10g" % v for v in line) + "\n"
    assert (out / "summary.csv").read_text() == summary
    assert (out / "correlation.csv").read_text() == corr
    assert "correlation.csv" in capsys.readouterr().out


def test_fit_out_writes_a_parameter_set_that_round_trips(tmp_path, capsys):
    data = tmp_path / "panel.csv"
    assert cli.main(["simulate", "--dimension", "2", "--length", "150", "--out", str(data)]) == 0
    out = tmp_path / "fit"
    code = cli.main(["fit", "--input", str(data), "--n-starts", "1", "--max-iterations", "2",
                     "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert f"wrote {out / 'fit.json'}" in capsys.readouterr().out
    payload = json.loads((out / "fit.json").read_text())
    assert set(payload) == {"params", "tau", "q0", "loglik", "iterations", "converged",
                            "stop_reason", "start_index", "columns", "versions"}
    assert payload["stop_reason"] in ("tol", "max_iter")
    assert payload["converged"] == (payload["stop_reason"] == "tol")
    assert payload["columns"] == ["asset1", "asset2"]
    assert payload["tau"] == [TAU, TAU]
    assert 1 <= payload["iterations"] <= 2
    assert ParameterSet.from_dict(payload["params"]).to_dict() == payload["params"]


def _small_run(tmp_path):
    data = tmp_path / "panel.csv"
    assert cli.main(["simulate", "--dimension", "2", "--length", "110", "--out", str(data)]) == 0
    return RunConfig(
        input_path=str(data), tau=TAU, oos=10, refit_every=10,
        em=EMConfig(n_starts=1, max_iterations=2),
    )


def _spoil_call(monkeypatch, bad_call):
    """Make the ``bad_call``-th one-step forecast return a positive shortfall."""
    real = dynamics.one_step_forecast
    calls = []

    def spoiled(*args):
        q, es = real(*args)
        calls.append(None)
        return (q, 0.5) if len(calls) == bad_call else (q, es)

    monkeypatch.setattr(dynamics, "one_step_forecast", spoiled)


def test_degenerate_forecast_carries_the_previous_one(tmp_path, monkeypatch):
    config = _small_run(tmp_path)
    clean = rolling_forecast(config)
    _spoil_call(monkeypatch, bad_call=2 * 2 + 1)  # period 2, first asset
    bundle = rolling_forecast(config)
    assert len(bundle.warnings) == 1
    assert bundle.warnings[0].startswith(f"t=102 ({bundle.dates[2]}): degenerate forecast")
    assert bundle.manifest["warnings"] == list(bundle.warnings)
    for k in (0, 1, *range(3, 10)):
        assert np.array_equal(bundle.var[k], clean.var[k])
        assert np.array_equal(bundle.es[k], clean.es[k])
    assert np.array_equal(bundle.var[2], clean.var[1])
    assert np.array_equal(bundle.es[2], clean.es[1])


@pytest.mark.parametrize(
    "window,width,expected",
    [
        ("expanding", None, [(0, 100), (0, 103), (0, 106), (0, 109)]),
        ("rolling", 95, [(5, 100), (8, 103), (11, 106), (14, 109)]),
        ("rolling", None, [(0, 100), (3, 103), (6, 106), (9, 109)]),
    ],
)
def test_refits_see_the_rows_of_their_window_policy(tmp_path, monkeypatch, window, width,
                                                    expected):
    config = replace(_small_run(tmp_path), refit_every=3, window=window, window_width=width)
    y = load_returns(config.input_path).values
    real, seen = pipeline.fit, []

    def recording(window_rows, *args, **kwargs):
        seen.append(window_rows)
        return real(window_rows, *args, **kwargs)

    monkeypatch.setattr(pipeline, "fit", recording)
    rolling_forecast(config)
    assert len(seen) == len(expected)  # refits at periods 0, 3, 6 and 9 of 10
    for rows, (lo, hi) in zip(seen, expected):
        assert np.array_equal(rows, y[lo:hi])


def test_failed_refit_carries_the_previous_parameters(tmp_path, monkeypatch):
    # refits at periods 0, 4 and 8; with the one at period 4 failing, the run
    # is the run that refits at 0 and 8 only, warm-started from period 0
    config = replace(_small_run(tmp_path), refit_every=4)
    clean = rolling_forecast(replace(config, refit_every=8))
    real, calls = pipeline.fit, []

    def failing_second(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise NumericError("all starts failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "fit", failing_second)
    bundle = rolling_forecast(config)
    assert len(calls) == 3
    assert bundle.warnings == (f"t=104 ({bundle.dates[4]}): refit failed: all starts failed",)
    assert bundle.manifest["n_refits"] == clean.manifest["n_refits"] == 2
    assert bundle.psis[4] is bundle.psis[3] is bundle.psis[0]
    assert bundle.sigmas[4] is bundle.sigmas[0]
    assert np.array_equal(bundle.var, clean.var) and np.array_equal(bundle.es, clean.es)
    assert all(np.array_equal(a, b) for a, b in zip(bundle.psis, clean.psis))


def test_degenerate_first_forecast_still_raises(tmp_path, monkeypatch):
    config = _small_run(tmp_path)
    _spoil_call(monkeypatch, bad_call=1)
    with pytest.raises(NumericError, match=r"degenerate forecast at t=100"):
        rolling_forecast(config)


_RADICAND = "non-positive radicand in indirect-GARCH path"


def _fail_path(monkeypatch, bad_call):
    """Make the ``bad_call``-th forecast path raise the error of a non-positive
    indirect-GARCH radicand."""
    real = dynamics.risk_path
    calls = []

    def failing(*args):
        calls.append(None)
        if len(calls) == bad_call:
            raise PathError(_RADICAND, index=1)
        return real(*args)

    monkeypatch.setattr(dynamics, "risk_path", failing)


def test_a_failed_path_carries_the_previous_forecast(tmp_path, monkeypatch):
    config = _small_run(tmp_path)
    clean = rolling_forecast(config)
    _fail_path(monkeypatch, bad_call=2 * 2 + 2)  # period 2, second asset
    bundle = rolling_forecast(config)
    assert bundle.warnings == (
        f"t=102 ({bundle.dates[2]}): path failed for asset asset2 ({_RADICAND}); "
        "previous forecast carried",
    )
    assert bundle.manifest["warnings"] == list(bundle.warnings)
    for k in (0, 1, *range(3, 10)):
        assert np.array_equal(bundle.var[k], clean.var[k])
        assert np.array_equal(bundle.es[k], clean.es[k])
    assert np.array_equal(bundle.var[2], clean.var[1])
    assert np.array_equal(bundle.es[2], clean.es[1])


def test_a_failed_first_path_names_the_asset_and_the_date(tmp_path, monkeypatch):
    # a fit whose second asset is an indirect-GARCH recursion with a negative
    # eta: its radicand turns negative in row 1 of every window
    data = tmp_path / "panel.csv"
    assert cli.main(["simulate", "--kind", "ig", "--dimension", "2", "--length", "110",
                     "--out", str(data)]) == 0
    config = RunConfig(input_path=str(data), tau=TAU, oos=10, refit_every=10, kind="ig",
                       em=EMConfig(n_starts=1, max_iterations=2))
    real = pipeline.fit

    def broken_second_asset(*args, **kwargs):
        result = real(*args, **kwargs)
        specs = (result.params.specs[0], dynamics.CaviarSpec("ig", 0.01, -0.5, [0.2]))
        return replace(result, params=replace(result.params, specs=specs))

    monkeypatch.setattr(pipeline, "fit", broken_second_asset)
    with pytest.raises(NumericError) as err:
        rolling_forecast(config)
    date = load_returns(data).dates[100]
    assert str(err.value) == f"path failed for asset asset2 at t=100 ({date}): {_RADICAND}"
    assert type(err.value.__cause__) is PathError and err.value.__cause__.index == 1


def test_forecast_rejects_a_short_backtest_block_before_any_fit(tmp_path, monkeypatch, capsys):
    data = tmp_path / "panel.csv"
    assert cli.main(["simulate", "--dimension", "2", "--length", "110", "--out", str(data)]) == 0

    def no_fit(*args, **kwargs):
        raise AssertionError("fit ran for an out-of-sample block dq_test cannot test")

    monkeypatch.setattr(pipeline, "fit", no_fit)
    code = cli.main(["forecast", "--input", str(data), "--oos", "4", "--n-starts", "1",
                     "--out", str(tmp_path / "reports")])
    assert code == 2
    assert "oos must be at least 9, got 4" in capsys.readouterr().err
    assert not (tmp_path / "reports").exists()
    with pytest.raises(ValidationError, match="at least 9"):
        RunConfig(input_path=str(data), oos=8)
    assert RunConfig(input_path=str(data), oos=9).oos == 9


@pytest.mark.parametrize(
    "field,value",
    [
        ("oos", 30.9),
        ("oos", 40.0),
        ("oos", "40"),
        ("refit_every", 2.5),
        ("refit_every", True),
        ("window_width", 100.7),
    ],
)
def test_run_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ValidationError, match=f"{field} must be an integer"):
        RunConfig(input_path="panel.csv", **{field: value})


@pytest.mark.parametrize(
    "field,value,low",
    [("oos", 8, 9), ("oos", -40, 9), ("refit_every", 0, 1), ("refit_every", -2, 1),
     ("window_width", 1, 2), ("window_width", np.int64(0), 2)],
)
def test_run_config_rejects_counts_below_their_floor(field, value, low):
    with pytest.raises(ValidationError) as err:
        RunConfig(input_path="panel.csv", **{field: value})
    assert str(err.value) == f"{field} must be at least {low}, got {int(value)}"
    assert getattr(RunConfig(input_path="panel.csv", **{field: low}), field) == low


def test_run_config_takes_numpy_integer_counts():
    cfg = RunConfig(input_path="panel.csv", oos=np.int64(40), refit_every=np.int32(2),
                    window_width=np.int64(100))
    assert (cfg.oos, cfg.refit_every, cfg.window_width) == (40, 2, 100)
    assert all(type(v) is int for v in (cfg.oos, cfg.refit_every, cfg.window_width))


# -- the loader ---------------------------------------------------------------

_PANEL = "date,a,b\n2001-01-02,0.5,-1\n2001-01-03,1.5,2e-3\n2001-01-04,-0.25,7\n"


def _panel_with(tmp_path, line, text):
    """The three-row panel with data line ``line`` (2 = first) replaced."""
    lines = _PANEL.splitlines()
    lines[line - 1] = text
    path = tmp_path / "panel.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize(
    "line, text, message",
    [
        (3, "2001-01-03,1.5,", "line 3: blank cell in column 'b'"),
        (3, "2001-01-03, \t ,2", "line 3: blank cell in column 'a'"),
        (4, "2001-01-04,-0.25,1.2.3", "line 4: non-numeric cell '1.2.3' in column 'b'"),
        (2, "2001-01-02,0.5", "line 2: expected 3 fields, got 2"),
        (2, "2001-01-02,0.5,-1,3", "line 2: expected 3 fields, got 4"),
        (3, "2001-02-30,1.5,2", "line 3: bad date '2001-02-30'"),
        (3, " ,1.5,2", "line 3: bad date ''"),
        (4, "2001-01-03,1,2", "line 4: dates must be strictly increasing"),
        (3, "2001-01-03,1.5, nan", "2001-01-03 b: non-finite value nan"),
    ],
    ids=["blank", "whitespace", "non-numeric", "field-count", "extra-field", "bad-date",
         "blank-date", "not-increasing", "nan"],
)
def test_loader_names_the_bad_line_and_column(tmp_path, line, text, message):
    path = _panel_with(tmp_path, line, text)
    with pytest.raises(ValidationError) as err:
        load_returns(path)
    assert str(err.value) == f"{path}: {message}"


def test_loader_skips_blank_rows(tmp_path):
    path = _panel_with(tmp_path, 3, " , \t,")
    path.write_text(path.read_text() + "\n,,\n")
    table = load_returns(path)
    assert table.dates == ("2001-01-02", "2001-01-04")
    assert table.values.tolist() == [[0.5, -1.0], [-0.25, 7.0]]


def test_loader_reads_only_the_picked_columns(tmp_path):
    path = _panel_with(tmp_path, 3, "2001-01-03,oops,2e-3")
    with pytest.raises(ValidationError, match="non-numeric cell 'oops' in column 'a'"):
        load_returns(path)
    table = load_returns(path, columns=["b"])
    assert table.columns == ("b",)
    assert table.values.tolist() == [[-1.0], [2e-3], [7.0]]


def test_loader_values_equal_float_of_the_stripped_cell(tmp_path):
    rng = np.random.default_rng(31)
    values = rng.standard_normal(10_000) * 10.0 ** rng.integers(-300, 300, 10_000)
    pads = ["", " ", "  ", "\t", " \x1f"]  # str.strip drops 0x1f, float does not
    cells = ["%s%.17g%s" % (pads[i % 5], v, pads[i % 3]) for i, v in enumerate(values)]
    day = datetime.date(1990, 1, 1)
    lines = ["date,a,b"]
    for i in range(0, len(cells), 2):
        date = (day + datetime.timedelta(days=i)).isoformat()
        lines.append(f"{date},{cells[i]},{cells[i + 1]}")
    path = tmp_path / "panel.csv"
    path.write_text("\n".join(lines) + "\n")
    got = load_returns(path).values.reshape(-1)
    want = np.array([float(c.strip()) for c in cells])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(want, values)


def _text(path):
    with open(path, newline="") as handle:
        return handle.read()


def _random_panel(rng, T, p):
    """Header and body lines of a well-formed panel with varied cell text."""
    bits = rng.integers(0, 2**63, (T, p), dtype=np.int64)
    values = bits.view(np.float64) * rng.choice([-1.0, 1.0], (T, p))
    values[~np.isfinite(values)] = -0.0
    ordinary = rng.random((T, p)) < 0.3
    values[ordinary] = rng.standard_normal(ordinary.sum()) * 1e-3
    formats = ["%.17g", "%r", "%.10g", "%.3e", "%.0f"]
    pads = ["", " ", "\t", "\x1c", " \x1f", "\x0b"]  # str.strip drops all of these
    day = datetime.date(1901, 1, 1) + datetime.timedelta(days=int(rng.integers(0, 40000)))
    header = "date," + ",".join(f" c{j} " for j in range(p))
    lines = [header]
    for t in range(T):
        day += datetime.timedelta(days=int(rng.integers(1, 5)))
        date = day.isoformat() if rng.random() < 0.9 else f" {day.isoformat()}\t"
        cells = [pads[rng.integers(6)] + formats[rng.integers(5)] % v + pads[rng.integers(6)]
                 for v in values[t].tolist()]
        lines.append(",".join([date, *cells]))
    return lines


@pytest.mark.parametrize("seed", range(6))
def test_loader_fast_path_matches_the_per_row_parser(tmp_path, seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 5))
    lines = _random_panel(rng, int(rng.integers(1, 400)), p)
    if seed == 5 and sys.version_info >= (3, 11):  # a date isoformat writes differently
        lines[1] = lines[1].replace("-", "", 2)
    path = tmp_path / "panel.csv"
    path.write_text("\n".join(lines) + ("\n" if seed % 2 else ""))
    text = _text(path)
    picks = [None, [f"c{j}" for j in rng.permutation(p)[: rng.integers(1, p + 1)]]]
    for columns in picks:
        fast = pipeline._read_panel(path, text, columns)
        slow = pipeline._load_rows(path, text, columns)
        assert fast is not None
        assert fast.dates == slow.dates
        assert fast.columns == slow.columns
        assert fast.values.shape == slow.values.shape
        assert np.array_equal(fast.values.view(np.int64), slow.values.view(np.int64))
        picked = [[h.strip() for h in lines[0].split(",")].index(c) for c in fast.columns]
        stripped = [[line.split(",")[f].strip() for f in picked] for line in lines[1:]]
        for table in (fast, slow):
            assert [line.split(",")[1:] for line in table.lines] == stripped
        loaded = load_returns(path, columns)
        assert loaded.dates == slow.dates
        assert np.array_equal(loaded.values.view(np.int64), slow.values.view(np.int64))


@pytest.mark.parametrize(
    "text",
    [
        'date,"a",b\n2001-01-02,0.5,"1"\n',
        "date,a,b\r\n2001-01-02,0.5,1\r\n2001-01-03,1.5,2\r\n",
        "date,a,b\n2001-01-02,0.5,1\n\n  \n2001-01-03,1.5,2\n",
        "date,a,b\n2001-01-02,0.5,1\n,,\n2001-01-03,1_5,2\n",
    ],
    ids=["quoted", "crlf", "blank-lines", "blank-row-and-underscore"],
)
def test_loader_hands_what_the_c_reader_cannot_take_to_the_per_row_parser(tmp_path, text):
    path = tmp_path / "panel.csv"
    path.write_bytes(text.encode())
    assert pipeline._read_panel(path, _text(path), None) is None
    table = load_returns(path)
    assert table.columns == ("a", "b")
    assert table.dates[0] == "2001-01-02"
    assert table.values[0].tolist() == [0.5, 1.0]


@pytest.mark.parametrize("text", ["date,a,b\n2001-01-02, 0.50 ,1\n",
                                  "date,\u00e9,b\n2001-01-02,0.50\t,1\n",
                                  "date,\u00e9,b\n2001-01-02,0.50,1\n",
                                  "date,a,b\r\n2001-01-02,\x1c0.50,1\r\n"],
                         ids=["blank", "non-ascii-blank", "non-ascii", "per-row"])
def test_loader_keeps_the_stripped_cells_as_read(tmp_path, text):
    path = tmp_path / "panel.csv"
    path.write_bytes(text.encode())
    assert (pipeline._read_panel(path, text, None) is None) == ("\r" in text)
    for table in (load_returns(path), pipeline._load_rows(path, text, None)):
        assert table.lines == ("2001-01-02,0.50,1",)
        assert table.values.tolist() == [[0.5, 1.0]]
    assert load_returns(path, ["b"]).lines == ("2001-01-02,1",)


def _outcome(load, *args):
    try:
        table = load(*args)
    except Exception as exc:  # noqa: BLE001 - the two loaders must fail alike
        return type(exc), str(exc)
    return table.dates, table.columns, table.values.view(np.int64).tolist()


@pytest.mark.parametrize("columns", [None, ["a"]], ids=["all", "picked"])
def test_loader_leaves_a_nul_to_the_per_row_parser(tmp_path, columns):
    # csv rejects a NUL anywhere in the line before Python 3.11, even in a
    # column that is not picked; the C reader would read past it.
    path = tmp_path / "panel.csv"
    path.write_bytes(b"date,a,b\n2001-01-02,0.5,1\n2001-01-03,1.5,2\0\n")
    text = _text(path)
    assert pipeline._read_panel(path, text, columns) is None
    assert _outcome(load_returns, path, columns) == _outcome(pipeline._load_rows, path, text,
                                                             columns)


def test_loader_leaves_a_line_over_the_csv_field_limit_to_the_per_row_parser(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_bytes(b"date,a,b\n2001-01-02,0.5,1\n2001-01-03,0." + b"5" * 30 + b",2\n")
    limit = csv.field_size_limit(20)
    try:
        text = _text(path)
        assert pipeline._read_panel(path, text, None) is None
        slow = _outcome(pipeline._load_rows, path, text, None)
        assert slow[0] is ValidationError
        assert slow[1] == f"{path}: line 3: field larger than field limit (20)"
        assert _outcome(load_returns, path, None) == slow
    finally:
        csv.field_size_limit(limit)


def test_loader_rejects_undecodable_text_by_its_file(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_bytes(b"date,a\n2001-01-02,1\n2001-01-03,\xff\n")
    with pytest.raises(ValidationError) as err:
        load_returns(path)
    message = str(err.value)
    assert message.startswith(f"{path}: text does not decode: ")
    assert "can't decode byte 0xff in position 31" in message


@pytest.mark.parametrize(
    "header, message",
    [
        ("date,y_a,var_a,es_a,y_a", "header names column 'y_a' twice"),
        ('date,a,"a"', "header names column 'a' twice"),
        ("date,a,,b", "header field 3 names no column"),
        ("date,a,b, ", "header field 4 names no column"),
    ],
    ids=["repeated", "repeated-quoted", "blank", "trailing-blank"],
)
def test_loader_rejects_repeated_or_blank_column_names(tmp_path, header, message):
    n = header.count(",")
    path = tmp_path / "panel.csv"
    path.write_text(f"{header}\n2001-01-02" + ",1" * n + "\n")
    for columns in (None, ["a"]):  # the header is checked before the pick
        with pytest.raises(ValidationError) as err:
            load_returns(path, columns)
        assert str(err.value) == f"{path}: {message}"


def test_cli_config_file_sets_options_and_explicit_flags_win(tmp_path, monkeypatch, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("# a run\noos = 40\nrefit-every = 7\nn_starts = 3\n")
    seen = []

    def stop(config):
        seen.append(config)
        raise ValidationError("stopped")

    monkeypatch.setattr(cli, "rolling_forecast", stop)
    code = cli.main(["forecast", "--config", str(conf), "--input", "panel.csv", "--oos", "30"])
    assert code == 2
    assert capsys.readouterr().err == "error: stopped\n"
    # every key neither file nor flag sets keeps the RunConfig / EMConfig default
    assert seen == [
        RunConfig(input_path="panel.csv", oos=30, refit_every=7, em=EMConfig(n_starts=3))
    ]


def _stop_before_the_run(monkeypatch):
    """Make ``forecast`` and ``portfolio`` exit 2 with "stopped" before any
    fit; return the list that collects the RunConfigs they were given."""
    seen = []

    def stop(config):
        seen.append(config)
        raise ValidationError("stopped")

    monkeypatch.setattr(cli, "rolling_forecast", stop)
    monkeypatch.setattr(cli, "portfolio_run", stop)
    return seen


def _forecast_with_config(tmp_path, monkeypatch, text, command="forecast"):
    """Run ``command`` on a config file holding ``text``; return the exit code,
    the file's path and the RunConfigs the rolling engine received."""
    conf = tmp_path / "run.conf"
    conf.write_text(text)
    seen = _stop_before_the_run(monkeypatch)
    code = cli.main([command, "--config", str(conf), "--input", "panel.csv"])
    return code, conf, seen


_INT_KEYS = ("window_width", "oos", "refit_every", "seed", "n_starts", "max_iterations",
             "length", "dimension", "replication")
_FLOAT_KEYS = ("tau_tilde", "tol", "df")


@pytest.mark.parametrize(
    "text,message",
    [
        ("oos = 40\nbogus = 1\n", "line 2: unknown key 'bogus'"),
        ("oos = x\n", "line 1: invalid literal for int() with base 10: 'x'"),
        ("tau = 0.1,a\n", "line 1: bad number list '0.1,a'"),
        ("config = other.conf\n", "line 1: unknown key 'config'"),
        ("help = 1\n", "line 1: unknown key 'help'"),
        ("version = 1\n", "line 1: unknown key 'version'"),
        ("oos\n", "line 1: expected key = value"),
        ("columns = asset1,,asset3\n", "line 1: blank field in 'asset1,,asset3'"),
        ("tau = 0.1,\n", "line 1: blank field in '0.1,'"),
        *((f"{k} = x\n", "line 1: invalid literal for int() with base 10: 'x'")
          for k in _INT_KEYS),
        *((f"{k} = x\n", "line 1: could not convert string to float: 'x'")
          for k in _FLOAT_KEYS),
    ],
)
def test_cli_config_file_rejects_a_bad_line_with_exit_2(tmp_path, monkeypatch, capsys,
                                                       text, message):
    code, conf, seen = _forecast_with_config(tmp_path, monkeypatch, text)
    assert code == 2 and seen == []
    assert capsys.readouterr().err == f"error: {conf}: {message}\n"


def test_cli_config_file_takes_every_flag_and_ignores_other_subcommands_keys(
        tmp_path, monkeypatch, capsys):
    text = (
        "input = other.csv\ncolumns = a, b\ntau = 0.05,0.1\nkind = as\nlink = ar\n"
        "window = expanding\nwindow-width = 300\noos = 40\nrefit_every = 7\n"
        "out = there\nseed = 3\nn_starts = 2\ntol = 1e-5\nmax_iterations = 9\n"
        # keys of the portfolio, backtest and simulate subcommands: accepted, unused here
        "tau_tilde = 0.15\nforecasts = f.csv\nlength = 10\ndimension = 2\nfamily = none\n"
        "df = 4\nreplication = 1\n"
    )
    code, _, seen = _forecast_with_config(tmp_path, monkeypatch, text)
    assert code == 2
    assert capsys.readouterr().err == "error: stopped\n"
    expected = RunConfig(
        input_path="panel.csv", tau=[0.05, 0.1], columns=("a", "b"), kind="as",
        link_kind="ar", window="expanding", window_width=300, oos=40, refit_every=7,
        tau_tilde=None, out_dir="there",
        em=EMConfig(n_starts=2, tol=1e-5, max_iterations=9, seed=3),
    )
    assert seen == [expected]
    assert type(seen[0].em.tol) is float
    # portfolio declares --tau-tilde, so it takes the key
    code, _, seen = _forecast_with_config(tmp_path, monkeypatch, text, "portfolio")
    assert code == 2
    assert capsys.readouterr().err == "error: stopped\n"
    assert seen == [replace(expected, tau_tilde=0.15)]
    assert type(seen[0].tau_tilde) is float


@pytest.mark.parametrize("header", ["date,a,b", 'date,"a",b'], ids=["c-reader", "per-row"])
def test_loader_rejects_a_repeated_column_pick(tmp_path, header):
    path = tmp_path / "panel.csv"
    path.write_text(f"{header}\n2001-01-02,1,2\n2001-01-03,3,4\n")
    for columns in (["a", "a"], ["b", "a", "b"]):
        with pytest.raises(ValidationError) as err:
            load_returns(path, columns)
        assert str(err.value) == f"{path}: column {columns[-1]!r} picked twice"


@pytest.mark.parametrize("header", ["date,a,b", 'date,"a",b'], ids=["c-reader", "per-row"])
@pytest.mark.parametrize("columns", [[], ()])
def test_loader_rejects_an_empty_column_pick(tmp_path, header, columns):
    path = tmp_path / "panel.csv"
    path.write_text(f"{header}\n2001-01-02,1,2\n2001-01-03,3,4\n")
    with pytest.raises(ValidationError) as err:
        load_returns(path, columns)
    assert str(err.value) == f"{path}: the column pick is empty"


@pytest.mark.parametrize("command", ["stats", "fit", "forecast"])
def test_cli_rejects_an_empty_column_pick_with_exit_2(tmp_path, capsys, command):
    path = tmp_path / "panel.csv"
    path.write_text("date,a,b\n2001-01-02,1,2\n2001-01-03,3,4\n")
    assert cli.main([command, "--input", str(path), "--columns", ""]) == 2
    assert capsys.readouterr().err == f"error: {path}: the column pick is empty\n"


@pytest.mark.parametrize("command", ["stats", "fit", "forecast"])
def test_cli_rejects_a_repeated_column_pick_with_exit_2(tmp_path, capsys, command):
    path = tmp_path / "panel.csv"
    path.write_text("date,a,b\n2001-01-02,1,2\n2001-01-03,3,4\n")
    assert cli.main([command, "--input", str(path), "--columns", "a,a"]) == 2
    assert capsys.readouterr().err == f"error: {path}: column 'a' picked twice\n"


@pytest.mark.parametrize(
    "argv",
    [["stats", "--columns", "a,,b"], ["fit", "--columns", "a,b,"], ["fit", "--tau", "0.1,,0.05"],
     ["forecast", "--tau", ",0.1"], ["backtest", "--tau", "0.1, ,0.2"],
     ["simulate", "--tau", "0.1,,0.2"]],
)
def test_cli_rejects_a_blank_list_field_with_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[1]}: blank field in {argv[2]!r}" in capsys.readouterr().err


# The arguments of a minimal valid run of each subcommand in a folder set up
# by _minimal_run_folder; forecast and portfolio stop before their first fit.
_MINIMAL_RUNS = {
    "stats": ["--input", "panel.csv"],
    "fit": ["--input", "panel.csv", "--n-starts", "1", "--max-iterations", "1"],
    "forecast": ["--input", "panel.csv"],
    "backtest": ["--forecasts", "forecasts.csv", "--tau", str(TAU)],
    "portfolio": ["--input", "panel.csv", "--tau-tilde", "0.15"],
    "simulate": ["--length", "20"],
}


def _minimal_run_folder(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["simulate", "--dimension", "2", "--length", "150", "--out",
                     "panel.csv"]) == 0
    _write_forecasts(tmp_path / "forecasts.csv")


@pytest.mark.parametrize(
    "command,option,value",
    [("stats", "--tau", "0.7,0.2"), ("backtest", "--columns", "a1"),
     ("backtest", "--input", "nothere.csv"), ("simulate", "--n-starts", "7"),
     ("simulate", "--tol", "3"), ("simulate", "--max-iterations", "2")],
)
def test_cli_rejects_an_option_the_subcommand_does_not_read(tmp_path, monkeypatch, capsys,
                                                           command, option, value):
    _minimal_run_folder(tmp_path, monkeypatch)
    assert cli.main([command, *_MINIMAL_RUNS[command]]) == 0, capsys.readouterr().err
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *_MINIMAL_RUNS[command], option, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(_MINIMAL_RUNS))
def test_each_subcommand_reads_exactly_the_options_it_declares(tmp_path, monkeypatch, capsys,
                                                                command):
    _minimal_run_folder(tmp_path, monkeypatch)
    read, namespaces = set(), []
    merge = cli._merge

    def spy(args, key, fallback=None):
        namespaces.append(args)
        read.add(key)
        return merge(args, key, fallback)

    monkeypatch.setattr(cli, "_merge", spy)
    seen = _stop_before_the_run(monkeypatch)
    code = cli.main([command, *_MINIMAL_RUNS[command]])
    if command in ("forecast", "portfolio"):
        assert code == 2 and len(seen) == 1, capsys.readouterr().err
    else:
        assert code == 0, capsys.readouterr().err
    # the namespace holds one dest per declared option
    declared = {key for key in vars(namespaces[0]) if not key.startswith("_")}
    assert read == declared - {"command", "config"}


def test_backtest_takes_its_file_from_forecasts_alone(tmp_path, capsys):
    source = tmp_path / "forecasts.csv"
    _write_forecasts(source)
    conf = tmp_path / "run.conf"
    conf.write_text(f"input = {source}\ntau = 0.1\n")
    assert cli.main(["backtest", "--config", str(conf), "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == "error: missing required option --forecasts\n"


def test_backtest_rejects_a_repeated_column_with_exit_2(tmp_path, capsys):
    source = tmp_path / "forecasts.csv"
    _write_forecasts(source)
    lines = source.read_text().splitlines()
    lines = [line + "," + line.split(",")[1] for line in lines]  # y_a1 a second time
    source.write_text("\n".join(lines) + "\n")
    out = tmp_path / "reports"
    code = cli.main(["backtest", "--forecasts", str(source), "--tau", str(TAU), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {source}: header names column 'y_a1' twice\n"
    assert not out.exists()


@pytest.mark.parametrize("header, message", [
    ("date,a,b", "no y_<asset> columns found"),
    ("date,y_a,es_a", "missing column 'var_a'"),
    ("date,y_a,var_a,es_a,var_b", "column 'var_b' has no 'y_b' column"),
    ("date,es_b,y_a,var_a,es_a", "column 'es_b' has no 'y_b' column"),
], ids=["no-y", "no-var", "var-without-y", "es-without-y"])
def test_backtest_rejects_a_table_without_its_forecast_columns(tmp_path, capsys, header,
                                                               message):
    source = tmp_path / "forecasts.csv"
    tail = ",-2" * (header.count(",") - 1)
    source.write_text(f"{header}\n2001-01-02,-1{tail}\n2001-01-03,1{tail}\n")
    out = tmp_path / "reports"
    code = cli.main(["backtest", "--forecasts", str(source), "--tau", str(TAU), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {source}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("line_end", ["\n", "\r\n"], ids=["numpy-reader", "per-row-parser"])
def test_a_backtest_of_its_own_reports_gives_the_same_reports(tmp_path, capsys, line_end):
    source = tmp_path / "forecasts.csv"
    _write_forecasts(source, p=2, T=300, fmt="%r")
    for row, column, cell in ((3, "y_a1", "1.50"), (4, "y_a2", "+2e-3"),
                              (5, "var_a1", " -0.5 "), (5, "es_a1", "-0.75")):
        _edit_cell(source, row, column, cell)
    lines = source.read_text().splitlines()
    order = [0, 5, 2, 6, 1, 4, 3]  # the file's columns in another order
    shuffled = [",".join(line.split(",")[k] for k in order) for line in lines]
    source.write_bytes((line_end.join(shuffled) + line_end).encode())
    assert (pipeline._read_panel(source, _text(source), None) is None) == (line_end == "\r\n")
    first, second = tmp_path / "first", tmp_path / "second"
    for table, out in ((source, first), (first / "forecasts.csv", second)):
        code = cli.main(["backtest", "--forecasts", str(table), "--tau", str(TAU),
                         "--out", str(out)])
        assert code == 0, capsys.readouterr().err
    # the cells as read, stripped, in the y, var, es order of each asset
    as_read = "".join(",".join(c.strip() for c in line.split(",")) + "\n" for line in lines)
    assert (first / "forecasts.csv").read_text() == as_read
    assert " -0.5 " in source.read_text() and ",1.50," in as_read and ",+2e-3," in as_read
    for name in ("forecasts.csv", "paths_long.csv", "scores.csv", "backtests.csv",
                 "score_paths.csv"):
        assert (second / name).read_bytes() == (first / name).read_bytes(), name


# -- the I/O boundary ---------------------------------------------------------


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
def test_loader_opens_the_file_once(tmp_path, monkeypatch, quoted):
    path = tmp_path / "panel.csv"
    path.write_text(_PANEL.replace("date,a,b", 'date,"a",b') if quoted else _PANEL)
    # a quoted file goes to the per-row parser, which reads the same text
    assert (pipeline._read_panel(path, _text(path), None) is None) == quoted
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(pipeline, "open", counting_open, raising=False)
    table = load_returns(path)
    assert opened == [path]
    assert table.columns == ("a", "b")
    assert table.values.tolist() == [[0.5, -1.0], [1.5, 2e-3], [-0.25, 7.0]]


_FAILING_PATHS = ("input-not-utf8", "config-not-utf8", "stats-out-below-a-file",
                  "fit-out-below-a-file", "forecast-out-below-a-file",
                  "portfolio-out-below-a-file", "simulate-out-below-a-file",
                  "simulate-out-a-directory", "over-limit-cell", "missing-input")


def _failing_run(tmp_path, case):
    """The argv of a run that fails on a file, and the path its message names."""
    data = tmp_path / "panel.csv"
    assert cli.main(["simulate", "--dimension", "2", "--length", "150", "--out", str(data)]) == 0
    not_utf8 = tmp_path / "latin1.csv"
    not_utf8.write_bytes(b"date,a\n2001-01-02,1\n2001-01-03,caf\xe9\n")
    config = tmp_path / "latin1.conf"
    config.write_bytes(b"# caf\xe9 run\nlength = 20\n")
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n")
    long_cell = tmp_path / "long.csv"
    long_cell.write_text('date,a\n2001-01-02,"' + "1" * 200_000 + '"\n')
    missing = tmp_path / "nothere.csv"
    fit = ["fit", "--input", str(data), "--n-starts", "1", "--max-iterations", "1"]
    run = ["--input", str(data), "--oos", "20", "--n-starts", "1", "--max-iterations", "1"]
    return {
        "input-not-utf8": (["stats", "--input", str(not_utf8)], not_utf8),
        "config-not-utf8": (["simulate", "--config", str(config), "--out",
                             str(tmp_path / "simulated.csv")], config),
        "stats-out-below-a-file": (["stats", "--input", str(data), "--out",
                                    str(blocker / "reports")], blocker),
        "fit-out-below-a-file": ([*fit, "--out", str(blocker / "reports")], blocker),
        "forecast-out-below-a-file": (["forecast", *run, "--out", str(blocker / "reports")],
                                      blocker),
        "portfolio-out-below-a-file": (["portfolio", *run, "--tau-tilde", "0.15", "--out",
                                        str(blocker / "reports")], blocker),
        "simulate-out-below-a-file": (["simulate", "--length", "20", "--out",
                                       str(blocker / "panel.csv")], blocker),
        "simulate-out-a-directory": (["simulate", "--length", "20", "--out", str(tmp_path)],
                                     tmp_path),
        "over-limit-cell": (["stats", "--input", str(long_cell)], long_cell),
        "missing-input": (["stats", "--input", str(missing)], missing),
    }[case]


@pytest.mark.parametrize("case", _FAILING_PATHS)
def test_a_file_that_cannot_be_read_or_written_exits_2_with_one_line(tmp_path, monkeypatch,
                                                                     capsys, case):
    argv, path = _failing_run(tmp_path, case)
    capsys.readouterr()

    def unexpected(*args, **kwargs):
        raise AssertionError("fit ran before the output directory was checked")

    monkeypatch.setattr(cli, "fit", unexpected)  # an --out that cannot be made fails first
    monkeypatch.setattr(pipeline, "fit", unexpected)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    assert str(path) in err
    assert "Traceback" not in err


# -- simulate -----------------------------------------------------------------


def test_run_study_gives_the_same_result_in_one_or_two_processes():
    scenario = SimScenario(params=reference_params(p=2), tau=np.full(2, TAU), T=200,
                           burn_in=50, B=2, seed=7)
    em = EMConfig(n_starts=1, max_iterations=2)
    serial, pooled = (run_study(scenario, em, n_jobs=n) for n in (1, 2))
    assert isinstance(serial, StudyResult)
    assert serial.n_failed == pooled.n_failed == 0
    for name in ("estimates", "truths", "bias_pct", "rmse"):
        one, two = getattr(serial, name), getattr(pooled, name)
        assert list(one) == list(two), name
        for key in one:
            assert np.array_equal(one[key], two[key], equal_nan=True), (name, key)
    assert serial.aggregate_bias_pct == pooled.aggregate_bias_pct
    assert serial.aggregate_rmse == pooled.aggregate_rmse
    assert np.array_equal(serial.iterations, pooled.iterations)
    assert serial.stop_reasons == pooled.stop_reasons
    assert sum(serial.stop_reasons.values()) == 2
    assert serial.fit_seconds.shape == pooled.fit_seconds.shape == (2,)


def reference_simulate_file(out, y, length, p):
    """The per-row writer ``quantes simulate`` used before the block writer."""
    names = [f"asset{j + 1}" for j in range(p)]
    day = datetime.date(2000, 1, 7)
    with open(out, "w") as handle:
        handle.write("date," + ",".join(names) + "\n")
        for t in range(length):
            cells = ",".join("%.10g" % v for v in y[t])
            handle.write(f"{day.isoformat()},{cells}\n")
            day += datetime.timedelta(days=7)


@pytest.mark.parametrize("p, kind, family", [(1, "sav", "normal"), (3, "ig", "student_t")])
def test_simulate_file_matches_the_per_row_writer(tmp_path, capsys, p, kind, family):
    length = 2 * pipeline._BLOCK + 3
    out = tmp_path / "sim" / "panel.csv"
    code = cli.main(["simulate", "--dimension", str(p), "--length", str(length),
                     "--kind", kind, "--family", family, "--seed", "3", "--replication", "2",
                     "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    y = generate(SimScenario(params=reference_params(kind, "mult", p), tau=np.full(p, 0.1),
                             T=length, error_family=family, seed=3), 2)
    reference_simulate_file(tmp_path / "ref.csv", y, length, p)
    assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_simulate_defaults_are_the_library_defaults(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["simulate"]) == 0, capsys.readouterr().err
    y = generate(SimScenario(reference_params(), tau=mal.as_levels(RunConfig.tau, 3), T=1500), 0)
    day = datetime.date(2000, 1, 7)
    dates = [(day + datetime.timedelta(days=7 * t)).isoformat() for t in range(1500)]
    pipeline.write_panel(dates, y, wide=(tmp_path / "ref.csv",
                                         ["date", "asset1", "asset2", "asset3"]))
    assert (tmp_path / "simulated.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    config = tmp_path / "sim.cfg"
    config.write_text("kind = sav\nlink = mult\ndimension = 3\nlength = 1500\ntau = 0.1\n"
                      "family = normal\ndf = 5\nseed = 0\nreplication = 0\n"
                      "out = from_config.csv\n")
    assert cli.main(["simulate", "--config", str(config)]) == 0, capsys.readouterr().err
    assert (tmp_path / "from_config.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize(
    "option,value,message",
    [("--seed", "-1", "seed must be at least 0, got -1"),
     ("--replication", "-1", "replication must be at least 0, got -1"),
     ("--dimension", "-2", "p must be at least 1, got -2"),
     ("--length", "0", "T must be at least 1, got 0")],
)
def test_simulate_rejects_counts_below_their_floor_with_exit_2(tmp_path, capsys, option,
                                                                value, message):
    out = tmp_path / "panel.csv"
    # a later --length wins over the first
    assert cli.main(["simulate", "--length", "50", option, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# -- portfolio ----------------------------------------------------------------


def _portfolio_config(tmp_path, out):
    data = tmp_path / "panel.csv"
    if not data.exists():
        assert cli.main(["simulate", "--dimension", "2", "--length", "130", "--seed", "4",
                         "--out", str(data)]) == 0
    return RunConfig(input_path=str(data), tau=TAU, oos=12, tau_tilde=0.15,
                     out_dir=str(out), em=EMConfig(n_starts=1, max_iterations=2, seed=3))


def test_portfolio_run_is_deterministic_and_meets_its_constraints(tmp_path):
    bundles = []
    for name in ("first", "second"):
        config = _portfolio_config(tmp_path, tmp_path / name)
        bundles.append(pipeline.portfolio_run(config))
        pipeline.emit_reports(bundles[-1], config.out_dir)
    first, second = bundles
    assert first.portfolio == second.portfolio
    for table in ("portfolio.csv", "forecasts.csv", "scores.csv", "backtests.csv"):
        assert (tmp_path / "first" / table).read_bytes() == \
            (tmp_path / "second" / table).read_bytes(), table
    with open(tmp_path / "first" / "portfolio.csv") as handle:
        assert sum(1 for _ in handle) - 1 == 12
    manifest = json.loads((tmp_path / "first" / "manifest.json").read_text())
    assert manifest["command"] == "portfolio"
    assert set(manifest["portfolio"]) == {
        "tau_tilde", "sharpe", "hhi", "infeasible_periods"
    }
    tau = first.tau
    # refits every 4 periods: each block shares one Sigma, assembled from its psi
    assert len({psi.tobytes() for psi in first.psis}) > 1
    for i, (sigma, psi) in enumerate(zip(first.sigmas, first.psis)):
        assert sigma is first.sigmas[i - i % 4]
        assert np.array_equal(sigma, assemble_sigma(psi, MALConstraints.from_levels(tau)))
    feasible = [i for i, row in enumerate(first.portfolio) if row["feasible"]]
    assert feasible
    for i in feasible:
        weights = np.array([first.portfolio[i][f"w_{c}"] for c in first.columns])
        params_t = MALParams(mu=first.var[i], delta=tau * (0.0 - first.es[i]),
                             psi=first.psis[i], tau=tau)
        assert abs(weights.sum() - 1.0) <= 1e-10
        assert abs(linear_combine(weights, params_t).tau_star - 0.15) <= 1e-6


def test_portfolio_run_validates_each_psi_once(tmp_path, monkeypatch):
    calls = []
    real_check, real_forecast = mal.check_correlation, pipeline.rolling_forecast

    def counting(psi, *args):
        calls.append(1)
        return real_check(psi, *args)

    def forecast_then_count(config):
        bundle = real_forecast(config)
        # count only the allocation loop: the fits validate their own psi
        mal._psi_terms.cache_clear()
        monkeypatch.setattr(mal, "check_correlation", counting)
        return bundle

    monkeypatch.setattr(pipeline, "rolling_forecast", forecast_then_count)
    bundle = pipeline.portfolio_run(_portfolio_config(tmp_path, tmp_path / "reports"))
    distinct = len({psi.tobytes() for psi in bundle.psis})
    assert 1 < distinct < len(bundle.portfolio)
    assert len(calls) == distinct


def test_infeasible_period_keeps_the_previous_weights(tmp_path, monkeypatch):
    config = _portfolio_config(tmp_path, tmp_path / "reports")
    clean = pipeline.portfolio_run(config)
    real, calls = pipeline.smv_weights, []

    def infeasible_fifth(*args, **kwargs):
        calls.append(None)
        if len(calls) == 5:
            raise InfeasibleAllocationError("no feasible weights", residual=0.01)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "smv_weights", infeasible_fifth)
    bundle = pipeline.portfolio_run(config)
    assert clean.manifest["portfolio"]["infeasible_periods"] == 0
    assert bundle.manifest["portfolio"]["infeasible_periods"] == 1
    assert bundle.portfolio[:4] == clean.portfolio[:4]
    row, before = bundle.portfolio[4], clean.portfolio[3]
    assert row["feasible"] == 0
    weights = np.array([row[f"w_{c}"] for c in bundle.columns])
    assert np.array_equal(weights, [before[f"w_{c}"] for c in bundle.columns])
    params_t = MALParams(mu=bundle.var[4], delta=bundle.tau * (0.0 - bundle.es[4]),
                         psi=bundle.psis[4], tau=bundle.tau)
    al = linear_combine(weights, params_t)
    assert row["var"] == al_quantile(0.15, al.mu_star, al.tau_star, al.delta_star)
    assert row["es"] == al_es(0.15, al.mu_star, al.tau_star, al.delta_star)
    assert row["return"] == float(weights @ bundle.y[4])
    message = (f"t={row['t']} ({row['date']}): allocation infeasible (residual 1.00e-02); "
               "previous weights carried")
    assert bundle.warnings == clean.warnings + (message,)
    assert bundle.manifest["warnings"] == list(bundle.warnings)


def test_portfolio_numeric_failure_exits_3(tmp_path, monkeypatch, capsys):
    config = _portfolio_config(tmp_path, tmp_path / "reports")

    def failing_fit(*args, **kwargs):
        raise NumericError("no start converged")

    monkeypatch.setattr(pipeline, "fit", failing_fit)
    code = cli.main(["portfolio", "--input", config.input_path, "--oos", "12",
                     "--n-starts", "1", "--tau-tilde", "0.15", "--out", config.out_dir])
    assert code == 3
    assert capsys.readouterr().err.startswith("numeric failure: no start converged")
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize("command", ["forecast", "portfolio"])
def test_cli_run_writes_the_reports_of_the_library_run(tmp_path, capsys, command):
    config = _portfolio_config(tmp_path, tmp_path / "library")
    capsys.readouterr()
    out = tmp_path / "cli"
    argv = [command, "--input", config.input_path, "--tau", str(TAU), "--oos", "12",
            "--n-starts", "1", "--max-iterations", "2", "--seed", "3", "--out", str(out)]
    if command == "portfolio":
        argv += ["--tau-tilde", "0.15"]
        bundle = pipeline.portfolio_run(config)
    else:
        config = replace(config, tau_tilde=None)
        bundle = rolling_forecast(config)
    assert cli.main(argv) == 0, capsys.readouterr().err
    lines = capsys.readouterr().out.splitlines()
    paths = [Path(path) for path in pipeline.emit_reports(bundle, config.out_dir)]
    assert lines[: len(paths)] == [f"wrote {out / path.name}" for path in paths]
    if command == "portfolio":
        summary = bundle.manifest["portfolio"]
        assert lines[len(paths):] == [
            f"sharpe {summary['sharpe']:.4f}  hhi {summary['hhi']:.4f}  "
            f"infeasible {summary['infeasible_periods']}"
        ]
        assert "portfolio.csv" in {path.name for path in paths}
    else:
        assert lines[len(paths):] == []
    for path in paths[:-1]:
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name
    manifests = [json.loads((folder / "manifest.json").read_text())
                 for folder in (out, paths[0].parent)]
    for manifest in manifests:
        del manifest["wall_seconds"], manifest["config"]["out_dir"]
    assert manifests[0] == manifests[1]


def test_a_portfolio_run_needs_a_target_level(tmp_path, monkeypatch, capsys):
    config = replace(_portfolio_config(tmp_path, tmp_path / "reports"), tau_tilde=None)
    capsys.readouterr()

    def unexpected(config):
        raise AssertionError("the run started without a target level")

    monkeypatch.setattr(pipeline, "rolling_forecast", unexpected)
    with pytest.raises(ValidationError) as err:
        pipeline.portfolio_run(config)
    assert str(err.value) == "portfolio runs need a target level tau_tilde"
    code = cli.main(["portfolio", "--input", config.input_path, "--oos", "12",
                     "--out", config.out_dir])
    assert code == 2
    assert capsys.readouterr().err == "error: missing required option --tau-tilde\n"
    assert not (tmp_path / "reports").exists()


def test_forecast_rejects_an_oos_block_as_long_as_the_sample(tmp_path, monkeypatch):
    data = tmp_path / "panel.csv"
    assert cli.main(["simulate", "--dimension", "2", "--length", "20", "--out", str(data)]) == 0

    def unexpected(*args, **kwargs):
        raise AssertionError("fit called on a sample with no estimation rows")

    monkeypatch.setattr(pipeline, "fit", unexpected)
    with pytest.raises(ValidationError) as err:
        rolling_forecast(RunConfig(input_path=str(data), oos=20))
    assert str(err.value) == "out-of-sample block must be shorter than the sample"


def test_fit_with_every_start_failed_exits_3(tmp_path, monkeypatch, capsys):
    data = tmp_path / "panel.csv"
    assert cli.main(["simulate", "--dimension", "2", "--length", "150", "--out", str(data)]) == 0
    capsys.readouterr()

    real = estimation._em_chain

    def failing_chain(*args, **kwargs):
        if kwargs.get("start_index") == -1:  # the per-asset chains that seed the starts
            return real(*args, **kwargs)
        raise PathError("quantile path left the valid region", index=7)

    monkeypatch.setattr(estimation, "_em_chain", failing_chain)
    out = tmp_path / "fit"
    code = cli.main(["fit", "--input", str(data), "--n-starts", "2", "--out", str(out)])
    assert code == 3
    reason = "quantile path left the valid region"
    assert capsys.readouterr().err == (
        f"numeric failure: all starts failed: start 0: {reason}; start 1: {reason}\n"
    )
    assert not out.exists()
