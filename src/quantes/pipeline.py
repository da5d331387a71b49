"""Rolling-window forecasting workflow: ingestion, estimation, reports.

The engine walks the out-of-sample block one period at a time, refitting on a
schedule and producing one-step-ahead quantile and shortfall forecasts per
asset. Everything downstream (scores, backtests, portfolio paths, report
files) is a deterministic function of the input file, the configuration and
the seed; wall-clock timings are the only non-reproducible manifest fields.
"""

import contextlib
import csv
import dataclasses
import datetime
import io
import json
import operator
import platform
import re
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import dynamics as dyn
from .backtests import N_LAGS, _acf, dq_test, es_tests, lr_cc, lr_uc
from .estimation import EMConfig, ParameterSet, fit
from .exceptions import InfeasibleAllocationError, NumericError, PathError, ValidationError
from .mal import (
    MALConstraints,
    MALParams,
    al_es,
    al_quantile,
    as_integer,
    as_levels,
    assemble_sigma,
    linear_combine,
)
from .portfolio import performance_stats, smv_weights

# s_al_sum has no caller here; perfbench's tracer wraps pipeline.s_al_sum
from .scoring import ForecastRecord, check_forecasts, s_al, s_al_sum, s_fz0, s_fzn, s_mal

ROLLING = "rolling"
EXPANDING = "expanding"
WINDOWS = (ROLLING, EXPANDING)

_FLOAT_FMT = "%.10g"
_MIN_OOS = N_LAGS + 5  # dq_test's N_LAGS lagged hits need more than N_LAGS + 4 periods


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
    em: EMConfig = field(default_factory=EMConfig)

    def __post_init__(self):
        if self.window not in WINDOWS:
            raise ValidationError(f"unknown window policy {self.window!r}")
        for name, low in (("oos", _MIN_OOS), ("refit_every", 1), ("window_width", 2)):
            value = getattr(self, name)
            if value is not None or name != "window_width":
                object.__setattr__(self, name, as_integer(name, value, low))
        if self.kind not in dyn.KINDS or self.link_kind not in dyn.LINKS:
            raise ValidationError("unknown recursion or link kind")
        if self.tau_tilde is not None and not 0.0 < float(self.tau_tilde) <= 0.5:
            raise ValidationError("portfolio level must lie in (0, 0.5]")
        if self.columns is not None:
            object.__setattr__(self, "columns", tuple(self.columns))

    def levels(self, p):
        return as_levels(np.asarray(self.tau, dtype=float).reshape(-1), p)

    def to_dict(self):
        out = dataclasses.asdict(self)
        out["tau"] = np.asarray(self.tau, dtype=float).reshape(-1).tolist()
        out["em"] = dataclasses.asdict(self.em)
        return out


@dataclass(frozen=True)
class ReturnsTable:
    """Date-indexed numeric panel parsed from a delimited text file.

    ``lines`` keeps the cells as read, one str per date: the date, then the
    picked cells stripped, comma-separated. Whichever parser took the file,
    field ``1 + k`` of line ``i`` is the text of ``values[i, k]``.
    """

    dates: tuple
    values: np.ndarray
    columns: tuple
    lines: tuple = field(default=None, compare=False, repr=False)

    @property
    def shape(self):
        return self.values.shape


@dataclass
class ReportBundle:
    """All tables produced by one run, ready for :func:`emit_reports`.

    The forecast panel is held as arrays: ``t`` (n,) period indices and
    ``y``, ``var``, ``es`` (n, p). ``score_paths`` maps each rule to its
    per-period values, (n, p) per asset or (n,) for the joint ``s_mal``.
    ``text``, when set, is the panel's cells as read, in the ``(lines,
    fields)`` form :func:`write_panel` takes, its fields in forecasts.csv's
    column order: y, var, es for each asset.
    """

    dates: tuple = ()
    columns: tuple = ()
    tau: np.ndarray = None
    t: np.ndarray = None
    y: np.ndarray = None
    var: np.ndarray = None
    es: np.ndarray = None
    sigmas: tuple = ()
    psis: tuple = ()
    scores: tuple = ()
    score_paths: dict = field(default_factory=dict)
    backtests: tuple = ()
    portfolio: tuple = ()
    warnings: tuple = ()
    manifest: dict = field(default_factory=dict)
    text: tuple = None

    @property
    def records(self):
        """The forecast panel as one :class:`ForecastRecord` per period."""
        if self.y is None:
            return ()
        return tuple(
            ForecastRecord(t=int(t), y=y, var=var, es=es, tau=self.tau)
            for t, y, var, es in zip(self.t, self.y, self.var, self.es)
        )


# -- ingestion ----------------------------------------------------------------


def load_returns(path, columns=None):
    """Parse a delimited file with a leading date column into a panel.

    The first header field names the date column; every other header names an
    asset, once and not blank. Dates must be ISO formatted and strictly
    increasing. A cell is in Python ``float`` syntax, surrounding whitespace
    allowed. Columns not picked are not read. The table keeps the text of the
    picked cells, stripped, in ``lines``.

    The file is read once, by :func:`read_input`. numpy's C reader parses the
    body when the text has no ``"``, ``\\r`` or NUL, every line has the
    header's comma count, the dates parse and increase, and every picked cell
    parses to a finite value. Any other text goes to the per-row parser, which
    works on the same text and gives the same table or names the first bad
    cell: a blank or non-numeric cell or a malformed csv line by line number
    (and column name), a non-finite value by date and column name.
    """
    text = read_input(path)
    table = _read_panel(path, text, columns)
    return _load_rows(path, text, columns) if table is None else table


def read_input(path):
    """The text of the file at ``path``, read once with its line ends kept.

    Text that does not decode is a :class:`ValidationError` that names the
    file; an ``OSError`` passes through, its message naming the path.
    """
    try:
        with open(path, newline="") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: text does not decode: {exc}") from None


def _picked_fields(path, header, columns):
    """Indices of the ``columns`` (default: all assets) in the stripped header."""
    if len(header) < 2:
        raise ValidationError(f"{path}: need a date column plus data columns")
    names = header[1:]
    seen = set()
    for k, name in enumerate(names, start=2):
        if not name:
            raise ValidationError(f"{path}: header field {k} names no column")
        if name in seen:
            raise ValidationError(f"{path}: header names column {name!r} twice")
        seen.add(name)
    if columns is None:
        return list(range(1, len(header)))
    if not columns:
        raise ValidationError(f"{path}: the column pick is empty")
    missing = [c for c in columns if c not in names]
    if missing:
        raise ValidationError(f"{path}: columns not in header: {', '.join(missing)}")
    for k, name in enumerate(columns):
        if name in columns[:k]:
            raise ValidationError(f"{path}: column {name!r} picked twice")
    return [1 + names.index(c) for c in columns]


def _read_panel(path, text, columns):
    """The panel in ``text`` through ``np.loadtxt``, or None for the per-row parser.

    Takes only text that csv splits at every comma: no ``"``, ``\\r`` or NUL
    (csv rejects NUL before Python 3.11). With the header's comma count on
    every line no line is blank. A line as long as csv's field limit is left
    to the per-row parser, which rejects a field that long by its line.
    """
    if '"' in text or "\r" in text or "\0" in text:
        return None
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    if len(lines) < 2 or max(map(len, lines)) >= csv.field_size_limit():
        return None
    header = [h.strip() for h in lines[0].split(",")]
    fields = _picked_fields(path, header, columns)
    body = lines[1:]
    if set(map(str.count, body, [","] * len(body))) != {len(header) - 1}:
        return None
    dates = [line.partition(",")[0].strip() for line in body]
    try:
        days = list(map(datetime.date.fromisoformat, dates))
        values = np.loadtxt(body, delimiter=",", comments=None, quotechar=None,
                            usecols=fields, dtype=float, ndmin=2)
    except ValueError:
        return None
    if not all(map(operator.lt, days, days[1:])) or not np.isfinite(values).all():
        return None
    if fields != list(range(1, len(header))) or _has_blank(text):
        body = [",".join([cells[0], *(cells[f].strip() for f in fields)])
                for cells in map(str.split, body, [","] * len(body))]
    return ReturnsTable(dates=tuple(map(datetime.date.isoformat, days)), values=values,
                        columns=tuple(header[f] for f in fields), lines=tuple(body))


_BLANKS = " \t\x0b\x0c\x1c\x1d\x1e\x1f"  # the ASCII whitespace of str.strip but line ends
_BLANK = re.compile(r"[^\S\r\n]")


def _has_blank(text):
    """Whether ``text`` holds whitespace other than line ends."""
    if text.isascii():  # a few C scans, where the regex takes about 8 ns a character
        return any(map(text.__contains__, _BLANKS))
    return _BLANK.search(text) is not None


def _load_rows(path, text, columns):
    """:func:`load_returns` on ``text``, one csv row and one ``float`` per cell at a time."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"{path}: empty file")
        header = [h.strip() for h in header]
        fields = _picked_fields(path, header, columns)
        dates = []
        rows = []
        lines = []
        prev = None
        for lineno, row in enumerate(reader, start=2):
            raw_date = row[0].strip() if row else ""
            if not raw_date and all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ValidationError(
                    f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}"
                )
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
            cells = [row[f].strip() for f in fields]
            try:
                rows.append(list(map(float, cells)))
            except ValueError:  # name the bad cell
                rows.append([_cell(path, lineno, header[f], row[f]) for f in fields])
            dates.append(day.isoformat())
            lines.append(",".join([dates[-1], *cells]))
    except csv.Error as exc:
        raise ValidationError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    values = np.array(rows, dtype=float)
    chosen = tuple(header[f] for f in fields)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, k = bad[0]
        raise ValidationError(
            f"{path}: {dates[i]} {chosen[k]}: non-finite value {values[i, k]}"
        )
    return ReturnsTable(dates=tuple(dates), values=values, columns=chosen, lines=tuple(lines))


def _cell(path, lineno, column, text):
    """A stripped cell as a float; a blank or non-numeric one fails by line and column."""
    cell = text.strip()
    if not cell:
        raise ValidationError(f"{path}: line {lineno}: blank cell in column {column!r}")
    try:
        return float(cell)
    except ValueError:
        raise ValidationError(
            f"{path}: line {lineno}: non-numeric cell {cell!r} in column {column!r}"
        ) from None


# -- summary statistics -------------------------------------------------------


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

    Returns (var, es, sigmas, psis, warnings, n_refits) with (oos, p)
    forecast panels. Fit failures after the first window fall back to the
    previous parameter set, and degenerate forecasts or failed paths after
    the first period to the previous forecast, each with a warning that
    names the period (and the asset of a failed path); the first window must
    fit and the first forecast must be valid. Sigma is assembled once per
    refit.
    """
    y = table.values
    T, p = y.shape
    if config.oos >= T:
        raise ValidationError("out-of-sample block must be shorter than the sample")
    tau = config.levels(p)
    cons = MALConstraints.from_levels(tau)
    width = config.window_width or (T - config.oos)
    em_warm = replace(config.em, n_starts=1)

    params = None
    var = np.empty((config.oos, p))
    es = np.empty((config.oos, p))
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
                    config=config.em if params is None else em_warm,
                    init=params,
                )
                params = result.params
                sigma = assemble_sigma(params.psi, cons)
                n_refits += 1
            except NumericError as exc:
                if params is None:
                    raise
                warnings.append(f"t={t} ({table.dates[t]}): refit failed: {exc}")
        try:
            for j in range(p):
                yj = window[:, j]
                q0 = dyn.initial_quantile(yj, tau[j])
                path = dyn.risk_path(params.specs[j], params.links[j], yj, q0, tau[j])
                x_last = path.x[-1] if path.x is not None else 0.0
                var[k, j], es[k, j] = dyn.one_step_forecast(
                    params.specs[j], params.links[j], path.quantile[-1], yj[-1], x_last
                )
            check_forecasts(y[t], var[k], es[k])
        except (PathError, ValidationError) as exc:
            what = (f"path failed for asset {table.columns[j]}"
                    if isinstance(exc, PathError) else "degenerate forecast")
            if k == 0:
                raise NumericError(f"{what} at t={t} ({table.dates[t]}): {exc}") from exc
            var[k], es[k] = var[k - 1], es[k - 1]
            warnings.append(
                f"t={t} ({table.dates[t]}): {what} ({exc}); previous forecast carried"
            )
        sigmas.append(sigma)
        psis.append(params.psi)
    return var, es, tuple(sigmas), tuple(psis), warnings, n_refits


def _running_total(values):
    """Axis-0 sum adding rows in order from +0.0, as a loop over periods does."""
    # np.cumsum adds in order at any width; np.add.reduce sums one column pairwise
    return np.cumsum(values, axis=0)[-1] + 0.0


def _score_tables(bundle):
    """Mean scores per rule plus the per-period values of every rule.

    Without ``bundle.sigmas`` the joint-density rule is dropped, for callers
    that only have per-asset forecasts.
    """
    y, var, es, tau, columns = bundle.y, bundle.var, bundle.es, bundle.tau, bundle.columns
    n = y.shape[0]
    paths = {"s_fzn": s_fzn(var, es, y, tau), "s_fz0": s_fz0(var, es, y, tau),
             "s_al": s_al(var, es, y, tau)}
    rows = []
    for name, vals in paths.items():
        means = _running_total(vals) / n
        rows += [{"rule": name, "asset": a, "value": means[j]} for j, a in enumerate(columns)]
    if bundle.sigmas:
        mal = np.array([s_mal(rec, sig) for rec, sig in zip(bundle.records, bundle.sigmas)])
        paths["s_mal"] = mal
        rows.append({"rule": "s_mal", "asset": "joint", "value": float(mal.mean())})
    # summed per period first, then over periods, as scoring.s_al_sum adds
    al_total = float(_running_total(np.add.reduce(paths["s_al"], axis=1)))
    rows.append({"rule": "s_al", "asset": "joint", "value": al_total / n})
    return tuple(rows), paths


def _backtest_table(bundle):
    y, var, es, tau = bundle.y, bundle.var, bundle.es, bundle.tau
    rows = []
    for j, name in enumerate(bundle.columns):
        hits = (y[:, j] <= var[:, j]).astype(float)
        scale = tau[j] * (0.0 - es[:, j])
        named = {
            "lr_uc": lr_uc(hits, tau[j]),
            "lr_cc": lr_cc(hits, tau[j]),
            "dq": dq_test(hits, tau[j]),
        }
        named["u_es"], named["c_es"] = es_tests(y[:, j], var[:, j], scale, tau[j])
        for test, rep in named.items():
            rows.append(dict(
                test=test, asset=name, statistic=rep.statistic,
                critical_value=rep.critical_value, p_value=rep.p_value,
                reject=int(rep.reject), df="" if rep.df is None else rep.df,
                degenerate=int(rep.degenerate), low_power=int(rep.low_power),
                hit_rate=float(hits.mean()),
            ))
    return tuple(rows)


def evaluate_forecasts(dates, columns, tau, y, var, es, t=None, sigmas=None):
    """Validate, score and backtest a forecast panel; returns a :class:`ReportBundle`.

    ``y``, ``var`` and ``es`` are (n, p) panels over the n ``dates`` and p
    ``columns``; the first bad cell is named by date and asset. ``t`` holds the
    period indices (default 0..n-1); per-period ``sigmas`` add ``s_mal``.
    """
    y, var, es = (np.ascontiguousarray(a, dtype=float) for a in (y, var, es))
    shape = (len(dates), len(columns))
    if y.shape != shape or var.shape != shape or es.shape != shape or not len(dates):
        raise ValidationError(f"forecast panels must be non-empty and shaped {shape}")
    check_forecasts(y, var, es, dates, columns)
    bundle = ReportBundle(
        dates=tuple(dates), columns=tuple(columns), tau=as_levels(tau, shape[1]),
        t=np.arange(shape[0]) if t is None else np.asarray(t), y=y, var=var, es=es,
        sigmas=() if sigmas is None else tuple(sigmas),
    )
    bundle.scores, bundle.score_paths = _score_tables(bundle)
    bundle.backtests = _backtest_table(bundle)
    return bundle


def rolling_forecast(config):
    """Run the full out-of-sample exercise described by ``config``."""
    t0 = time.perf_counter()
    table = load_returns(config.input_path, config.columns)
    T, p = table.shape
    var, es, sigmas, psis, warnings, n_refits = _forecast_state(config, table)
    t_fit = time.perf_counter()
    start = T - config.oos
    bundle = evaluate_forecasts(
        table.dates[start:], table.columns, config.levels(p), table.values[start:], var, es,
        t=np.arange(start, T), sigmas=sigmas,
    )
    t1 = time.perf_counter()
    bundle.psis = psis
    bundle.warnings = tuple(warnings)
    bundle.manifest = {
        "command": "forecast",
        "config": config.to_dict(),
        "n_observations": T,
        "n_assets": p,
        "n_forecasts": config.oos,
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
    # the panel was validated by evaluate_forecasts; read its rows directly
    n = len(bundle.dates)
    returns = np.empty(n)
    weight_rows = np.empty((n, p))
    for i, (t, y, var, es) in enumerate(zip(bundle.t.tolist(), bundle.y, bundle.var, bundle.es)):
        params_t = MALParams(mu=var, delta=tau * (0.0 - es), psi=bundle.psis[i], tau=tau)
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
                f"t={t} ({bundle.dates[i]}): allocation infeasible "
                f"(residual {exc.residual:.2e}); previous weights carried"
            )
        ret = float(weights @ y)
        returns[i] = ret
        weight_rows[i] = weights
        row = {"date": bundle.dates[i], "t": t}
        for j, name in enumerate(bundle.columns):
            row[f"w_{name}"] = weights[j]
        row.update(
            {
                "var": var_t,
                "es": es_t,
                "return": ret,
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
        "infeasible_periods": int(sum(1 for r in port_rows if not r["feasible"])),
    }
    bundle.manifest["wall_seconds"]["portfolio"] = round(
        time.perf_counter() - t0, 3
    )
    return bundle


# -- report files -------------------------------------------------------------


def _fmt(value):
    if isinstance(value, (float, np.floating)):
        return _FLOAT_FMT % float(value)
    return str(int(value)) if isinstance(value, np.integer) else str(value)


def write_csv(path, header, rows):
    """Write a header line and the rows; returns the number of rows written."""
    n_rows = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
            n_rows += 1
    return n_rows


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _csv_cell(value):
    """``value`` as csv.writer writes it in one field of a row."""
    text = str(value)
    if text and not _NEEDS_QUOTES.search(text):
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


_BLOCK = 256  # dates per write: bounds the text held at once


def write_panel(dates, values, wide=None, long=None, text=None):
    """Write an (n, k) panel as csv tables, formatting each value once.

    ``dates`` are n csv cells. ``wide = (path, header)`` gets one row
    ``date,v_1,...,v_k`` per date, ``long = (path, header, keys)`` one row
    ``date,key_j,v_j`` per value, date-major, with k csv-text keys. Each block of
    _BLOCK dates takes one ``%.10g`` call and one join per table. Given
    ``text = (lines, fields)``, the values are written as read instead, with no
    formatting: field ``fields[j]`` of the comma-separated ``lines[i]`` is the
    cell of ``values[i, j]``. Returns the row counts (n, n * k).
    """
    k = values.shape[1]
    with contextlib.ExitStack() as stack:
        out = [table and stack.enter_context(open(table[0], "w", newline=""))
               for table in (wide, long)]
        for handle, table in zip(out, (wide, long)):
            if table:
                csv.writer(handle, lineterminator="\n").writerow(table[1])
        for i in range(0, len(dates), _BLOCK):
            day = dates[i : i + _BLOCK]
            if text:
                read = ",".join(text[0][i : i + _BLOCK]).split(",")
                stride = len(read) // len(day)
                cells = [""] * (len(day) * k)
                for j, f in enumerate(text[1]):
                    cells[j::k] = read[f::stride]
            else:
                block = values[i : i + _BLOCK].ravel().tolist()
                cells = (((_FLOAT_FMT + "\n") * len(block)) % tuple(block)).splitlines()
            if wide:  # date , v_1 , ... , v_k \n
                parts = [","] * (len(day) * (2 * k + 2))
                parts[:: 2 * k + 2] = day
                for j in range(k):
                    parts[2 + 2 * j :: 2 * k + 2] = cells[j::k]
                parts[2 * k + 1 :: 2 * k + 2] = ["\n"] * len(day)
                out[0].write("".join(parts))
            if long:  # date ,key_j, v_j \n
                parts = ["\n"] * (4 * len(cells))
                parts[2::4] = cells
                for j, key in enumerate(long[2]):
                    parts[4 * j :: 4 * k] = day
                    parts[4 * j + 1 :: 4 * k] = [f",{key},"] * len(day)
                out[1].write("".join(parts))
    return values.shape[0], values.size


def emit_reports(bundle, out_dir):
    """Write every non-empty table plus the JSON manifest; returns the paths.

    forecasts.csv is wide (one row per date) so it round-trips through
    :func:`load_returns`; the long companion file drives path plots. Each panel
    value is formatted once, in blocks of dates, by :func:`write_panel`, except
    that with ``bundle.text`` the forecast panel is written as read: a
    re-scored table is written as the table it scored, and only the values
    the run computes are formatted.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tables = {}

    dates = [_csv_cell(d) for d in bundle.dates]
    names = [_csv_cell(c) for c in bundle.columns]
    if bundle.y is not None:
        n, p = bundle.y.shape
        wide = np.stack([bundle.y, bundle.var, bundle.es], axis=2).reshape(n, 3 * p)
        header = ["date"] + [f"{s}_{c}" for c in bundle.columns for s in ("y", "var", "es")]
        keys = [f"{a},{series}" for a in names for series in ("y", "var", "es")]
        tables["forecasts.csv"], tables["paths_long.csv"] = write_panel(
            dates, wide, wide=(out / "forecasts.csv", header),
            long=(out / "paths_long.csv", ["date", "asset", "series", "value"], keys),
            text=bundle.text)
    if bundle.scores:
        tables["scores.csv"] = write_csv(
            out / "scores.csv", ["rule", "asset", "value"],
            [[r["rule"], r["asset"], r["value"]] for r in bundle.scores])
    if bundle.score_paths:
        keys, blocks = [], []
        for rule, vals in bundle.score_paths.items():
            keys += [f"{a},{rule}" for a in names] if vals.ndim == 2 else [f"joint,{rule}"]
            blocks.append(vals.reshape(len(dates), -1))
        tables["score_paths.csv"] = write_panel(
            dates, np.concatenate(blocks, axis=1),
            long=(out / "score_paths.csv", ["date", "asset", "rule", "value"], keys))[1]
    for name, rows in (("backtests.csv", bundle.backtests), ("portfolio.csv", bundle.portfolio)):
        if rows:
            cols = list(rows[0])
            tables[name] = write_csv(out / name, cols, [[r[c] for c in cols] for r in rows])

    path = out / "manifest.json"
    write_json(path, {**bundle.manifest, "tables": tables})
    return [str(out / name) for name in tables] + [str(path)]


def write_json(path, payload):
    """Write ``payload`` plus the package ``versions`` as sorted, indented JSON."""
    versions = {"quantes": __version__, "numpy": np.__version__,
                "scipy": scipy.__version__, "python": platform.python_version()}
    with open(path, "w") as handle:
        json.dump({**payload, "versions": versions}, handle, indent=2, sort_keys=True)
        handle.write("\n")
