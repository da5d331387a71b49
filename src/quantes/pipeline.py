"""Rolling-window forecasting workflow: ingestion, estimation, reports.

The engine walks the out-of-sample block one period at a time, refitting on a
schedule and producing one-step-ahead quantile and shortfall forecasts per
asset. Everything downstream (scores, backtests, portfolio paths, report
files) is a deterministic function of the input file, the configuration and
the seed; wall-clock timings are the only non-reproducible manifest fields.
"""

import csv
import dataclasses
import datetime
import json
import platform
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import dynamics as dyn
from .backtests import dq_test, es_tests, lr_cc, lr_uc
from .estimation import EMConfig, ParameterSet, fit
from .exceptions import InfeasibleAllocationError, NumericError, ValidationError
from .mal import (
    MALConstraints,
    MALParams,
    al_es,
    al_quantile,
    as_levels,
    assemble_sigma,
    linear_combine,
)
from .portfolio import performance_stats, portfolio_risk, smv_weights
from .scoring import ForecastRecord, s_al, s_al_sum, s_fz0, s_fzn, s_mal

ROLLING = "rolling"
EXPANDING = "expanding"
WINDOWS = (ROLLING, EXPANDING)

_FLOAT_FMT = "%.10g"


@dataclass(frozen=True)
class RunConfig:
    """Everything a forecast or portfolio run needs besides the data file."""

    input_path: str
    tau: object = 0.1
    columns: tuple = None
    kind: str = dyn.SAV
    link_kind: str = dyn.MULT
    window: str = ROLLING
    window_width: int = None
    oos: int = 368
    refit_every: int = 4
    tau_tilde: float = None
    out_dir: str = "reports"
    seed: int = 0
    em: EMConfig = field(default_factory=EMConfig)

    def __post_init__(self):
        if self.window not in WINDOWS:
            raise ValidationError(f"unknown window policy {self.window!r}")
        if int(self.oos) < 1:
            raise ValidationError("out-of-sample length must be positive")
        if int(self.refit_every) < 1:
            raise ValidationError("refit cadence must be positive")
        if self.window_width is not None and int(self.window_width) < 2:
            raise ValidationError("rolling window width must exceed 1")
        if self.kind not in dyn.KINDS or self.link_kind not in dyn.LINKS:
            raise ValidationError("unknown recursion or link kind")
        if self.tau_tilde is not None and not 0.0 < float(self.tau_tilde) <= 0.5:
            raise ValidationError("portfolio level must lie in (0, 0.5]")
        if self.columns is not None:
            object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "oos", int(self.oos))
        object.__setattr__(self, "refit_every", int(self.refit_every))
        if self.window_width is not None:
            object.__setattr__(self, "window_width", int(self.window_width))

    def levels(self, p):
        return as_levels(np.asarray(self.tau, dtype=float).reshape(-1), p)

    def to_dict(self):
        out = dataclasses.asdict(self)
        out["tau"] = np.asarray(self.tau, dtype=float).reshape(-1).tolist()
        out["em"] = dataclasses.asdict(self.em)
        return out


@dataclass(frozen=True)
class ReturnsTable:
    """Date-indexed numeric panel parsed from a delimited text file."""

    dates: tuple
    values: np.ndarray
    columns: tuple

    @property
    def shape(self):
        return self.values.shape


@dataclass
class ReportBundle:
    """All tables produced by one run, ready for :func:`emit_reports`."""

    dates: tuple = ()
    columns: tuple = ()
    tau: np.ndarray = None
    records: tuple = ()
    sigmas: tuple = ()
    psis: tuple = ()
    scores: tuple = ()
    score_paths: tuple = ()
    backtests: tuple = ()
    portfolio: tuple = ()
    warnings: tuple = ()
    manifest: dict = field(default_factory=dict)


# -- ingestion ----------------------------------------------------------------


def load_returns(path, columns=None):
    """Parse a delimited file with a leading date column into a panel.

    The first header field names the date column; every other header names an
    asset. Dates must be ISO formatted and strictly increasing. A blank or
    non-numeric cell fails with its line number and column name.
    """
    path = Path(path)
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(header) < 2:
            raise ValidationError(f"{path}: need a date column plus data columns")
        names = header[1:]
        if columns is None:
            picked = list(range(len(names)))
        else:
            missing = [c for c in columns if c not in names]
            if missing:
                raise ValidationError(
                    f"{path}: columns not in header: {', '.join(missing)}"
                )
            picked = [names.index(c) for c in columns]
        dates = []
        rows = []
        prev = None
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ValidationError(
                    f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}"
                )
            raw_date = row[0].strip()
            try:
                day = datetime.date.fromisoformat(raw_date)
            except ValueError:
                raise ValidationError(
                    f"{path}: line {lineno}: bad date {raw_date!r}"
                ) from None
            if prev is not None and day <= prev:
                raise ValidationError(
                    f"{path}: line {lineno}: dates must be strictly increasing"
                )
            prev = day
            vals = []
            for k in picked:
                cell = row[1 + k].strip()
                if not cell:
                    raise ValidationError(
                        f"{path}: line {lineno}: blank cell in column {names[k]!r}"
                    )
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise ValidationError(
                        f"{path}: line {lineno}: non-numeric cell {cell!r} "
                        f"in column {names[k]!r}"
                    ) from None
            dates.append(day.isoformat())
            rows.append(vals)
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    values = np.array(rows, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{path}: non-finite values present")
    chosen = tuple(names[k] for k in picked)
    return ReturnsTable(dates=tuple(dates), values=values, columns=chosen)


# -- summary statistics -------------------------------------------------------


def _acf(x, n_lags):
    x = x - x.mean()
    denom = float(x @ x)
    if denom <= 0.0:
        raise NumericError("zero variance in autocorrelation input")
    return np.array([float(x[k:] @ x[:-k]) / denom for k in range(1, n_lags + 1)])


def summary_stats(values):
    """Per-column moments and tests plus the sample correlation matrix.

    Returns a dict with vector entries mean, median, sd, skewness, kurtosis,
    jarque_bera, ljung_box (4 lags on squared values) and a (p, p)
    ``correlation`` entry. Kurtosis is the raw fourth standardized moment and
    the variance uses the n - 1 divisor.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.ndim != 2:
        raise ValidationError("input must be a (T, p) panel")
    n, p = values.shape
    if n < 8:
        raise ValidationError("need at least 8 observations")
    if not np.all(np.isfinite(values)):
        raise ValidationError("non-finite values present")
    sd = values.std(axis=0, ddof=1)
    if np.any(sd <= 0.0):
        raise NumericError("constant column in summary input")
    centered = values - values.mean(axis=0)
    m2 = np.mean(centered**2, axis=0)
    skew = np.mean(centered**3, axis=0) / m2**1.5
    kurt = np.mean(centered**4, axis=0) / m2**2
    jb = n / 6.0 * (skew**2 + 0.25 * (kurt - 3.0) ** 2)
    lb = np.empty(p)
    for j in range(p):
        rho = _acf(values[:, j] ** 2, 4)
        lb[j] = n * (n + 2.0) * float(
            np.sum(rho**2 / (n - np.arange(1, 5, dtype=float)))
        )
    corr = np.corrcoef(values.T) if p > 1 else np.ones((1, 1))
    return {
        "mean": values.mean(axis=0),
        "median": np.median(values, axis=0),
        "sd": sd,
        "skewness": skew,
        "kurtosis": kurt,
        "jarque_bera": jb,
        "ljung_box": lb,
        "correlation": np.atleast_2d(corr),
    }


# -- rolling engine -----------------------------------------------------------


def _forecast_state(config, table):
    """One-step-ahead forecasts over the out-of-sample block.

    Returns (records, sigmas, psis, warnings, n_refits). Fit failures after
    the first window fall back to the previous parameter set with a warning;
    the first window must fit.
    """
    y = table.values
    T, p = y.shape
    if config.oos >= T:
        raise ValidationError("out-of-sample block must be shorter than the sample")
    tau = config.levels(p)
    cons = MALConstraints.from_levels(tau)
    width = config.window_width or (T - config.oos)
    em_cold = replace(config.em, seed=config.seed)
    em_warm = replace(em_cold, n_starts=1)

    params = None
    records = []
    sigmas = []
    psis = []
    warnings = []
    n_refits = 0
    for k, t in enumerate(range(T - config.oos, T)):
        lo = 0 if config.window == EXPANDING else max(0, t - width)
        window = y[lo:t]
        if params is None or k % config.refit_every == 0:
            try:
                result = fit(
                    window,
                    tau,
                    kind=config.kind,
                    link_kind=config.link_kind,
                    config=em_cold if params is None else em_warm,
                    init=params,
                )
                params = result.params
                n_refits += 1
            except NumericError as exc:
                if params is None:
                    raise
                warnings.append(f"t={t} ({table.dates[t]}): refit failed: {exc}")
        q_next = np.empty(p)
        es_next = np.empty(p)
        for j in range(p):
            yj = window[:, j]
            q0 = dyn.initial_quantile(yj, tau[j])
            path = dyn.risk_path(params.specs[j], params.links[j], yj, q0, tau[j])
            x_last = path.x[-1] if path.x is not None else 0.0
            q_next[j], es_next[j] = dyn.one_step_forecast(
                params.specs[j], params.links[j], path.quantile[-1], yj[-1], x_last
            )
        try:
            record = ForecastRecord(t=t, y=y[t], var=q_next, es=es_next, tau=tau)
        except ValidationError as exc:
            raise NumericError(
                f"degenerate forecast at t={t} ({table.dates[t]}): {exc}"
            ) from exc
        records.append(record)
        sigmas.append(assemble_sigma(params.psi, cons))
        psis.append(params.psi)
    return tuple(records), tuple(sigmas), tuple(psis), warnings, n_refits


def _score_tables(records, sigmas, columns):
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


def _backtest_table(records, columns, tau):
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
            "dq": dq_test(hits, var[:, j], tau[j]),
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


def _versions():
    return {
        "quantes": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def rolling_forecast(config):
    """Run the full out-of-sample exercise described by ``config``."""
    t0 = time.perf_counter()
    table = load_returns(config.input_path, config.columns)
    tau = config.levels(table.shape[1])
    records, sigmas, psis, warnings, n_refits = _forecast_state(config, table)
    t_fit = time.perf_counter()
    scores, score_paths = _score_tables(records, sigmas, table.columns)
    backtests = _backtest_table(records, table.columns, tau)
    t1 = time.perf_counter()
    oos_dates = table.dates[-config.oos :]
    bundle = ReportBundle(
        dates=oos_dates,
        columns=table.columns,
        tau=tau,
        records=records,
        sigmas=sigmas,
        psis=psis,
        scores=scores,
        score_paths=score_paths,
        backtests=backtests,
        warnings=tuple(warnings),
    )
    bundle.manifest = {
        "command": "forecast",
        "config": config.to_dict(),
        "versions": _versions(),
        "n_observations": table.shape[0],
        "n_assets": table.shape[1],
        "n_forecasts": len(records),
        "n_refits": n_refits,
        "warnings": list(bundle.warnings),
        "wall_seconds": {
            "fit_and_forecast": round(t_fit - t0, 3),
            "scores_and_tests": round(t1 - t_fit, 3),
        },
    }
    return bundle


def portfolio_run(config):
    """Forecast run plus a per-period minimum-risk allocation track.

    Requires ``config.tau_tilde``. Infeasible periods keep the previous
    weights (equal weights if the first period fails) and are flagged in the
    table and the warning list; their risk columns come from the achieved
    combination law at the requested level.
    """
    if config.tau_tilde is None:
        raise ValidationError("portfolio runs need a target level tau_tilde")
    t0 = time.perf_counter()
    bundle = rolling_forecast(config)
    tau = bundle.tau
    tau_tilde = float(config.tau_tilde)
    p = len(bundle.columns)
    weights = np.full(p, 1.0 / p)
    port_rows = []
    warnings = list(bundle.warnings)
    returns = np.empty(len(bundle.records))
    weight_rows = np.empty((len(bundle.records), p))
    compound = 1.0
    for i, rec in enumerate(bundle.records):
        params_t = MALParams(
            mu=rec.var, delta=tau * (0.0 - rec.es), psi=bundle.psis[i], tau=tau
        )
        try:
            alloc = smv_weights(params_t, tau_tilde, b_init=weights)
            weights = alloc.weights
            var_t, es_t = alloc.var, alloc.es
            feasible = 1
        except InfeasibleAllocationError as exc:
            al = linear_combine(weights, params_t)
            var_t = al_quantile(tau_tilde, al.mu_star, al.tau_star, al.delta_star)
            es_t = al_es(tau_tilde, al.mu_star, al.tau_star, al.delta_star)
            feasible = 0
            warnings.append(
                f"t={rec.t} ({bundle.dates[i]}): allocation infeasible "
                f"(residual {exc.residual:.2e}); previous weights carried"
            )
        ret = float(weights @ rec.y)
        compound *= 1.0 + ret
        returns[i] = ret
        weight_rows[i] = weights
        row = {"date": bundle.dates[i], "t": rec.t}
        for j, name in enumerate(bundle.columns):
            row[f"w_{name}"] = weights[j]
        row.update(
            {
                "var": var_t,
                "es": es_t,
                "return": ret,
                "compound": compound,
                "feasible": feasible,
            }
        )
        port_rows.append(row)
    sharpe, hhi = performance_stats(returns, weight_rows)
    bundle.portfolio = tuple(port_rows)
    bundle.warnings = tuple(warnings)
    bundle.manifest["command"] = "portfolio"
    bundle.manifest["warnings"] = list(bundle.warnings)
    bundle.manifest["portfolio"] = {
        "tau_tilde": tau_tilde,
        "sharpe": sharpe,
        "hhi": hhi,
        "compound_final": compound,
        "infeasible_periods": int(sum(1 for r in port_rows if not r["feasible"])),
    }
    bundle.manifest["wall_seconds"]["portfolio"] = round(
        time.perf_counter() - t0, 3
    )
    return bundle


# -- report files -------------------------------------------------------------


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


def emit_reports(bundle, out_dir):
    """Write every non-empty table plus the JSON manifest; returns the paths.

    forecasts.csv is wide (one row per date) so it round-trips through
    :func:`load_returns`; the long companion file drives path plots.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create {out}: {exc}") from exc
    written = []
    tables = {}

    def _table(name, header, rows):
        path = out / name
        tables[name] = _write_csv(path, header, rows)
        written.append(path)

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
    if bundle.portfolio:
        cols = list(bundle.portfolio[0].keys())
        _table("portfolio.csv", cols, [[r[c] for c in cols] for r in bundle.portfolio])

    manifest = dict(bundle.manifest) if bundle.manifest else {}
    manifest.setdefault("versions", _versions())
    manifest["tables"] = tables
    path = out / "manifest.json"
    with open(path, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    written.append(path)
    return [str(p) for p in written]
