import csv
import datetime
import json
import sys

import numpy as np
import pytest

from quantes import __version__, cli, dynamics, mal, pipeline
from quantes.dynamics import initial_quantile, risk_path
from quantes.estimation import EMConfig, ParameterSet
from quantes.exceptions import NumericError, ValidationError
from quantes.mal import MALConstraints, MALParams, assemble_sigma, linear_combine
from quantes.pipeline import RunConfig, load_returns, rolling_forecast, summary_stats
from quantes.simulate import SimScenario, StudyResult, generate, reference_params, run_study

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


@pytest.mark.parametrize("option,value", [("--n-starts", "0"), ("--max-iterations", "0"),
                                          ("--tol", "-1"), ("--tol", "nan")])
def test_fit_rejects_em_settings_that_cannot_run_with_exit_2(tmp_path, capsys, option, value):
    data = tmp_path / "panel.csv"
    assert cli.main(["simulate", "--dimension", "2", "--length", "150", "--out", str(data)]) == 0
    assert cli.main(["fit", "--input", str(data), option, value]) == 2
    assert capsys.readouterr().err.startswith(f"error: {option[2:].replace('-', '_')} must be")


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


def test_degenerate_first_forecast_still_raises(tmp_path, monkeypatch):
    config = _small_run(tmp_path)
    _spoil_call(monkeypatch, bad_call=1)
    with pytest.raises(NumericError, match=r"degenerate forecast at t=100"):
        rolling_forecast(config)


def test_forecast_rejects_a_short_backtest_block_before_any_fit(tmp_path, monkeypatch, capsys):
    data = tmp_path / "panel.csv"
    assert cli.main(["simulate", "--dimension", "2", "--length", "110", "--out", str(data)]) == 0

    def no_fit(*args, **kwargs):
        raise AssertionError("fit ran for an out-of-sample block dq_test cannot test")

    monkeypatch.setattr(pipeline, "fit", no_fit)
    code = cli.main(["forecast", "--input", str(data), "--oos", "4", "--n-starts", "1",
                     "--out", str(tmp_path / "reports")])
    assert code == 2
    assert "out-of-sample length must be at least 9" in capsys.readouterr().err
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
        slow = pipeline._load_rows(path, columns)
        assert fast is not None
        assert fast.dates == slow.dates
        assert fast.columns == slow.columns
        assert fast.values.shape == slow.values.shape
        assert np.array_equal(fast.values.view(np.int64), slow.values.view(np.int64))
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
    assert pipeline._read_panel(path, _text(path), columns) is None
    assert _outcome(load_returns, path, columns) == _outcome(pipeline._load_rows, path, columns)


def test_loader_leaves_a_line_over_the_csv_field_limit_to_the_per_row_parser(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_bytes(b"date,a,b\n2001-01-02,0.5,1\n2001-01-03,0." + b"5" * 30 + b",2\n")
    limit = csv.field_size_limit(20)
    try:
        assert pipeline._read_panel(path, _text(path), None) is None
        slow = _outcome(pipeline._load_rows, path, None)
        assert slow[0] is csv.Error
        assert _outcome(load_returns, path, None) == slow
    finally:
        csv.field_size_limit(limit)


def test_loader_fails_on_undecodable_text_as_the_per_row_parser_does(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_bytes(b"date,a\n2001-01-02,1\n2001-01-03,\xff\n")
    with pytest.raises((UnicodeDecodeError, ValidationError)) as slow:
        pipeline._load_rows(path, None)
    with pytest.raises(slow.type) as fast:
        load_returns(path)
    assert str(fast.value) == str(slow.value)


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


@pytest.mark.parametrize("header", ["date,a,b", 'date,"a",b'], ids=["c-reader", "per-row"])
def test_loader_rejects_a_repeated_column_pick(tmp_path, header):
    path = tmp_path / "panel.csv"
    path.write_text(f"{header}\n2001-01-02,1,2\n2001-01-03,3,4\n")
    for columns in (["a", "a"], ["b", "a", "b"]):
        with pytest.raises(ValidationError) as err:
            load_returns(path, columns)
        assert str(err.value) == f"{path}: column {columns[-1]!r} picked twice"


@pytest.mark.parametrize("command", ["stats", "fit", "forecast"])
def test_cli_rejects_a_repeated_column_pick_with_exit_2(tmp_path, capsys, command):
    path = tmp_path / "panel.csv"
    path.write_text("date,a,b\n2001-01-02,1,2\n2001-01-03,3,4\n")
    assert cli.main([command, "--input", str(path), "--columns", "a,a"]) == 2
    assert capsys.readouterr().err == f"error: {path}: column 'a' picked twice\n"


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
