"""Columnar scoring, backtests and report files against the per-record code.

The ``reference_*`` functions below are the per-record implementations the
columnar pipeline replaced, kept verbatim as the oracle: every report file
must match them byte for byte and every mean score exactly.
"""

import csv
import dataclasses
import datetime
import json
from types import SimpleNamespace

import numpy as np
import pytest

from quantes.backtests import dq_test, es_tests, lr_cc, lr_uc
from quantes.dynamics import initial_quantile, risk_path
from quantes.exceptions import ValidationError
from quantes.mal import MALConstraints, as_levels, assemble_sigma
from quantes.pipeline import (
    _BLOCK, ReportBundle, _read_panel, emit_reports, evaluate_forecasts, load_returns,
)
from quantes.scoring import ForecastRecord, s_al, s_al_sum, s_fz0, s_fzn, s_mal
from quantes.simulate import SimScenario, generate, reference_params

_FLOAT_FMT = "%.10g"
TABLES = ("forecasts.csv", "paths_long.csv", "scores.csv", "score_paths.csv", "backtests.csv")


# -- the per-record reference -------------------------------------------------


def reference_score_tables(records, sigmas, columns):
    """Mean scores per rule plus the per-period long table.

    ``sigmas=None`` drops the joint-density rule, for callers that only have
    per-asset forecasts.
    """
    n = len(records)
    p = len(columns)
    per_asset = {"s_fzn": s_fzn, "s_fz0": s_fz0, "s_al": s_al}
    paths = []
    totals = {name: np.zeros(p) for name in per_asset}
    mal_vals = np.empty(n)
    for i, rec in enumerate(records):
        for name, fn in per_asset.items():
            vals = fn(rec.var, rec.es, rec.y, rec.tau)
            totals[name] += vals
            for j in range(p):
                paths.append(
                    {
                        "t": rec.t,
                        "asset": columns[j],
                        "rule": name,
                        "value": vals[j],
                    }
                )
        if sigmas is not None:
            mal_vals[i] = s_mal(rec, sigmas[i])
            paths.append(
                {"t": rec.t, "asset": "joint", "rule": "s_mal", "value": mal_vals[i]}
            )
    rows = []
    for name in per_asset:
        for j in range(p):
            rows.append(
                {"rule": name, "asset": columns[j], "value": totals[name][j] / n}
            )
    if sigmas is not None:
        rows.append(
            {"rule": "s_mal", "asset": "joint", "value": float(mal_vals.mean())}
        )
    rows.append({"rule": "s_al", "asset": "joint", "value": s_al_sum(records) / n})
    return tuple(rows), tuple(paths)


def reference_backtest_table(records, columns, tau):
    y = np.array([r.y for r in records])
    var = np.array([r.var for r in records])
    es = np.array([r.es for r in records])
    rows = []
    for j, name in enumerate(columns):
        hits = (y[:, j] <= var[:, j]).astype(float)
        scale = tau[j] * (0.0 - es[:, j])
        named = {
            "lr_uc": lr_uc(hits, tau[j]),
            "lr_cc": lr_cc(hits, tau[j]),
            "dq": dq_test(hits, tau[j]),
        }
        u_rep, c_rep = es_tests(y[:, j], var[:, j], scale, tau[j])
        named["u_es"] = u_rep
        named["c_es"] = c_rep
        for test, rep in named.items():
            rows.append(
                {
                    "test": test,
                    "asset": name,
                    "statistic": rep.statistic,
                    "critical_value": rep.critical_value,
                    "p_value": rep.p_value,
                    "reject": int(rep.reject),
                    "df": "" if rep.df is None else rep.df,
                    "degenerate": int(rep.degenerate),
                    "low_power": int(rep.low_power),
                    "hit_rate": float(hits.mean()),
                }
            )
    return tuple(rows)


def _fmt(value):
    if isinstance(value, float):
        return _FLOAT_FMT % value
    if isinstance(value, (np.floating,)):
        return _FLOAT_FMT % float(value)
    if isinstance(value, (np.integer,)):
        return str(int(value))
    return str(value)


def _write_csv(path, header, rows):
    """Write a header line and the rows; returns the number of rows written."""
    n_rows = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
            n_rows += 1
    return n_rows


def reference_emit(bundle, out):
    """The table files of the per-record ``emit_reports``; returns row counts."""
    tables = {}

    def _table(name, header, rows):
        path = out / name
        tables[name] = _write_csv(path, header, rows)

    if bundle.records:
        header = ["date"]
        for name in bundle.columns:
            header += [f"y_{name}", f"var_{name}", f"es_{name}"]
        rows = []
        for date, rec in zip(bundle.dates, bundle.records):
            row = [date]
            for j in range(len(bundle.columns)):
                row += [rec.y[j], rec.var[j], rec.es[j]]
            rows.append(row)
        _table("forecasts.csv", header, rows)
        long_rows = []
        for date, rec in zip(bundle.dates, bundle.records):
            for j, name in enumerate(bundle.columns):
                long_rows.append([date, name, "y", rec.y[j]])
                long_rows.append([date, name, "var", rec.var[j]])
                long_rows.append([date, name, "es", rec.es[j]])
        _table("paths_long.csv", ["date", "asset", "series", "value"], long_rows)
    if bundle.scores:
        _table(
            "scores.csv",
            ["rule", "asset", "value"],
            [[r["rule"], r["asset"], r["value"]] for r in bundle.scores],
        )
    if bundle.score_paths:
        date_of = {rec.t: d for d, rec in zip(bundle.dates, bundle.records)}
        _table(
            "score_paths.csv",
            ["date", "asset", "rule", "value"],
            [
                [date_of[r["t"]], r["asset"], r["rule"], r["value"]]
                for r in bundle.score_paths
            ],
        )
    if bundle.backtests:
        cols = [
            "test",
            "asset",
            "statistic",
            "critical_value",
            "p_value",
            "reject",
            "df",
            "degenerate",
            "low_power",
            "hit_rate",
        ]
        _table("backtests.csv", cols, [[r[c] for c in cols] for r in bundle.backtests])
    return tables


# -- fixtures -----------------------------------------------------------------


def _panel(p, T=160, seed=5):
    """True-model (VaR, ES) paths of a simulated panel, with awkward names."""
    params = reference_params(p=p)
    tau = as_levels([0.1, 0.05, 0.1, 0.025, 0.1][:p])
    y = generate(SimScenario(params=params, tau=tau, T=T, seed=seed))
    var = np.empty((T, p))
    es = np.empty((T, p))
    for j in range(p):
        path = risk_path(
            params.specs[j], params.links[j], y[:, j], initial_quantile(y[:, j], tau[j]),
            tau[j],
        )
        var[:, j], es[:, j] = path.quantile, path.es
    names = ['x,"y', "a b", "c,d", "e", "f"][:p]
    day = datetime.date(2003, 2, 3)
    dates = tuple((day + datetime.timedelta(days=7 * k)).isoformat() for k in range(T))
    cons = MALConstraints.from_levels(tau)
    sigmas = [
        assemble_sigma((1.0 - w) * params.psi + w * np.eye(p), cons)
        for w in np.linspace(0.0, 0.5, T)
    ]
    return dates, tuple(names), tau, y, var, es, sigmas


@pytest.mark.parametrize("with_sigmas", [False, True], ids=["backtest", "forecast"])
@pytest.mark.parametrize("p", [1, 2, 5])
def test_reports_match_per_record_reference(tmp_path, p, with_sigmas):
    dates, names, tau, y, var, es, sigmas = _panel(p)
    t = np.arange(40, 40 + len(dates)) if with_sigmas else None
    bundle = evaluate_forecasts(
        dates, names, tau, y, var, es, t=t, sigmas=sigmas if with_sigmas else None
    )

    records = tuple(
        ForecastRecord(t=int(k), y=y[i], var=var[i], es=es[i], tau=tau)
        for i, k in enumerate(bundle.t)
    )
    scores, paths = reference_score_tables(
        records, sigmas if with_sigmas else None, names
    )
    tests = reference_backtest_table(records, names, tau)
    ref = SimpleNamespace(
        dates=dates, columns=names, records=records, scores=scores,
        score_paths=paths, backtests=tests,
    )

    assert [(r["rule"], r["asset"]) for r in bundle.scores] == [
        (r["rule"], r["asset"]) for r in scores
    ]
    for got, want in zip(bundle.scores, scores):
        assert got["value"] == want["value"], (got, want)
    assert (any(r["rule"] == "s_mal" for r in bundle.scores)) == with_sigmas

    (tmp_path / "new").mkdir()
    (tmp_path / "ref").mkdir()
    emit_reports(bundle, tmp_path / "new")
    ref_rows = reference_emit(ref, tmp_path / "ref")
    for name in TABLES:
        new = (tmp_path / "new" / name).read_bytes()
        assert new == (tmp_path / "ref" / name).read_bytes(), name
    assert b'"x,""y"' in (tmp_path / "new" / "paths_long.csv").read_bytes()
    manifest = json.loads((tmp_path / "new" / "manifest.json").read_text())
    assert {k: manifest["tables"][k] for k in TABLES} == ref_rows


def test_bundle_records_rebuild_the_panel():
    dates, names, tau, y, var, es, sigmas = _panel(2, T=60)
    bundle = evaluate_forecasts(dates, names, tau, y, var, es, t=np.arange(7, 67))
    records = bundle.records
    assert [r.t for r in records] == list(range(7, 67))
    assert np.array_equal(np.array([r.es for r in records]), es)
    with pytest.raises(AttributeError):
        bundle.records = ()


@pytest.mark.parametrize(
    "cell, message",
    [
        ("es", "2003-02-24 a b: shortfall forecasts must be strictly negative"),
        ("var", "2003-02-24 a b: shortfall forecasts cannot exceed the quantile"),
        ("y", "2003-02-24 a b: forecast record entries must be finite"),
    ],
)
def test_evaluate_names_the_first_bad_cell(cell, message):
    dates, names, tau, y, var, es, _ = _panel(2, T=60)
    panels = {"y": y, "var": var, "es": es}
    bad = {"es": 0.5, "var": es[3, 1] - 1.0, "y": np.nan}[cell]
    panels[cell][3, 1] = bad
    panels[cell][9, 0] = bad  # a later bad cell is not the one reported
    with pytest.raises(ValidationError) as err:
        evaluate_forecasts(dates, names, tau, y, var, es)
    assert str(err.value) == message


# -- block boundaries of the panel writer ---------------------------------------


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize(
    "n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1], ids=lambda n: f"n{n}"
)
def test_panel_tables_match_per_record_reference_across_blocks(tmp_path, n, p):
    rng = np.random.default_rng(1000 * p + n)
    y = rng.standard_normal((n, p)) * 10.0 ** rng.integers(-12, 12, (n, p))
    var = -rng.uniform(0.0, 1.0, (n, p)) * 10.0 ** rng.integers(-12, 12, (n, p))
    es = var * rng.uniform(1.0, 3.0, (n, p)) - 1e-300
    names = ('x,"y', "a b", "e")[:p]
    day = datetime.date(2003, 2, 3)
    dates = tuple((day + datetime.timedelta(days=k)).isoformat() for k in range(n))
    dates = ('2003-02-02 "noon", UTC',) + dates[1:]  # a date cell that needs quoting
    tau = as_levels(0.1, p)
    paths = {"s_fzn": rng.standard_normal((n, p)), "s_fz0": rng.standard_normal((n, p)),
             "s_al": rng.standard_normal((n, p)), "s_mal": rng.standard_normal(n)}
    bundle = ReportBundle(dates=dates, columns=names, tau=tau, t=np.arange(n), y=y,
                          var=var, es=es, score_paths=paths)
    records = bundle.records
    rows = [
        {"t": k, "asset": asset, "rule": rule, "value": paths[rule][k, j]}
        for k in range(n)
        for rule in ("s_fzn", "s_fz0", "s_al")
        for j, asset in enumerate(names)
    ]
    for k in range(n):  # the joint rule follows the per-asset rules of each date
        rows.insert(k * (3 * p + 1) + 3 * p, {"t": k, "asset": "joint", "rule": "s_mal",
                                              "value": paths["s_mal"][k]})
    ref = SimpleNamespace(dates=dates, columns=names, records=records, scores=(),
                          score_paths=tuple(rows), backtests=())

    (tmp_path / "new").mkdir()
    (tmp_path / "ref").mkdir()
    emit_reports(bundle, tmp_path / "new")
    ref_rows = reference_emit(ref, tmp_path / "ref")
    assert set(ref_rows) == {"forecasts.csv", "paths_long.csv", "score_paths.csv"}
    for name in ref_rows:
        new = (tmp_path / "new" / name).read_bytes()
        assert new == (tmp_path / "ref" / name).read_bytes(), name
    assert b'"2003-02-02 ""noon"", UTC"' in (tmp_path / "new" / "forecasts.csv").read_bytes()
    manifest = json.loads((tmp_path / "new" / "manifest.json").read_text())
    assert manifest["tables"] == ref_rows


@pytest.mark.parametrize("quoted", [False, True], ids=["numpy-reader", "per-row-parser"])
@pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 600], ids=lambda n: f"n{n}")
def test_a_panel_written_as_read_is_the_panel_formatted_on_10g_input(tmp_path, n, quoted):
    rng = np.random.default_rng(n)
    p = 2
    y = rng.standard_normal((n, p)) * 10.0 ** rng.integers(-12, 12, (n, p))
    y[0, 0], y[-1, -1] = -0.0, 3.0
    var = -rng.uniform(0.0, 1.0, (n, p)) * 10.0 ** rng.integers(-12, 12, (n, p))
    es = var * rng.uniform(1.0, 3.0, (n, p))
    names = ("a,b", "c") if quoted else ("a", "c")
    # the file holds its columns in another order than forecasts.csv
    series = {f"{s}_{a}": panel[:, j] for s, panel in (("es", es), ("y", y), ("var", var))
              for j, a in enumerate(names)}
    day = datetime.date(2003, 2, 3)
    lines = [",".join(["date", *(f'"{c}"' if "," in c else c for c in series)])]
    for i, row in enumerate(np.column_stack(list(series.values())).tolist()):
        date = (day + datetime.timedelta(days=i)).isoformat()
        lines.append(",".join([date, *(_FLOAT_FMT % v for v in row)]))
    path = tmp_path / "forecasts.csv"
    path.write_text("\n".join(lines) + "\n")
    assert (_read_panel(path, path.read_text(), None) is None) == quoted
    table = load_returns(path)
    fields = [1 + table.columns.index(f"{s}_{a}") for a in names for s in ("y", "var", "es")]
    picked = [table.values[:, [table.columns.index(f"{s}_{a}") for a in names]]
              for s in ("y", "var", "es")]
    paths = {"s_fzn": rng.standard_normal((n, p)), "s_al": rng.standard_normal((n, p))}
    bundle = ReportBundle(dates=table.dates, columns=names, tau=as_levels(0.1, p),
                          t=np.arange(n), y=picked[0], var=picked[1], es=picked[2],
                          score_paths=paths, text=(table.lines, fields))

    emit_reports(bundle, tmp_path / "text")
    emit_reports(dataclasses.replace(bundle, text=None), tmp_path / "formatted")
    for name in ("forecasts.csv", "paths_long.csv", "score_paths.csv", "manifest.json"):
        got = (tmp_path / "text" / name).read_bytes()
        assert got == (tmp_path / "formatted" / name).read_bytes(), name
    assert (b'"a,b"' in (tmp_path / "text" / "paths_long.csv").read_bytes()) == quoted
