import datetime
import json

import numpy as np
import pytest

from quantes import cli, dynamics
from quantes.dynamics import initial_quantile, risk_path
from quantes.estimation import EMConfig
from quantes.exceptions import NumericError
from quantes.pipeline import RunConfig, load_returns, rolling_forecast, summary_stats
from quantes.simulate import SimScenario, generate, reference_params

TAU = 0.1


def _write_forecasts(path, p=2, T=120):
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
        for t, row in enumerate(np.column_stack(columns)):
            date = (day + datetime.timedelta(days=t)).isoformat()
            handle.write(date + "," + ",".join("%.10g" % v for v in row) + "\n")


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


def test_degenerate_first_forecast_still_raises(tmp_path, monkeypatch):
    config = _small_run(tmp_path)
    _spoil_call(monkeypatch, bad_call=1)
    with pytest.raises(NumericError, match=r"degenerate forecast at t=100"):
        rolling_forecast(config)
