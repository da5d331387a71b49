"""Command line front end.

Subcommands cover the whole workflow: ``stats`` summarizes a return file,
``fit`` estimates the joint model once on the full sample, ``forecast`` runs
the rolling out-of-sample exercise, ``backtest`` re-scores a previously
emitted forecast table, ``portfolio`` adds the allocation track, and
``simulate`` writes synthetic panels from the stock truth set. ``backtest``
reads forecasts.csv through ``pipeline.load_forecasts``, the one owner of its
``y_/var_/es_`` layout, and writes the forecast cells as read: the table it
writes is the table it scored. ``stats``, ``fit``, ``forecast`` and
``portfolio`` reject an ``--out`` that cannot be created before they read
their input. Each subcommand declares only the options it reads, and
``simulate`` rejects a ``df`` without ``--family student_t``. A key=value
config file can hold the flag of any subcommand; each reads its own keys,
and explicit flags win. Exit codes: 0 success, 2 validation problem or a
file that cannot be read or written, 3 numeric failure.
"""

import argparse
import datetime
import errno
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import dynamics as dyn
from .estimation import EMConfig, fit
from .exceptions import NumericError, QuantesError, ValidationError
from .mal import as_levels
from .pipeline import (
    RunConfig,
    emit_reports,
    evaluate_forecasts,
    load_forecasts,
    load_returns,
    portfolio_run,
    read_input,
    rolling_forecast,
    summary_stats,
    write_csv,
    write_json,
    write_panel,
)
from .simulate import SimScenario, generate, reference_params


def _str_list(text):
    """The stripped fields of a comma list; a blank value has none, and a
    blank field among others is rejected."""
    fields = [v.strip() for v in text.split(",")]
    if fields == [""]:
        return []
    if "" in fields:
        raise argparse.ArgumentTypeError(f"blank field in {text!r}")
    return fields


def _float_list(text):
    try:
        return [float(v) for v in _str_list(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}") from None


# Every option a subcommand may declare besides --config and --out: the
# keyword arguments of its flag, by dest.
_OPTIONS = {
    "input": {"help": "delimited return file with a date column"},
    "forecasts": {"help": "forecasts.csv from a previous run"},
    "columns": {"type": _str_list, "help": "comma list of asset columns"},
    "tau": {"type": _float_list, "help": "levels in (0, 1): one shared or one per asset"},
    "kind": {"choices": sorted(dyn.KINDS), "help": "quantile recursion"},
    "link": {"choices": sorted(dyn.LINKS), "help": "shortfall link"},
    "seed": {"type": int, "help": "seed for every stochastic stage"},
    "n_starts": {"type": int},
    "tol": {"type": float, "help": "EM stopping tolerance"},
    "max_iterations": {"type": int},
    "window": {"choices": ("rolling", "expanding")},
    "window_width": {"type": int},
    "oos": {"type": int, "help": "out-of-sample length"},
    "refit_every": {"type": int},
    "tau_tilde": {"type": float},
    "length": {"type": int, "help": "rows to generate"},
    "dimension": {"type": int, "help": "number of assets"},
    "family": {"choices": ("normal", "student_t", "none")},
    "df": {"type": float},
    "replication": {"type": int},
}
# The type a config-file key takes: its flag's, ``str`` when it declares none.
# A file may hold the key of any subcommand; each reads only its own.
_CASTERS = {"out": str, **{key: kw.get("type", str) for key, kw in _OPTIONS.items()}}

_FIT = ("input", "columns", "tau", "kind", "link", "seed", "n_starts", "tol", "max_iterations")
_RUN = _FIT + ("window", "window_width", "oos", "refit_every")
# Each subcommand: its help, what its --out names, and the other options its
# handler reads. It declares no option it does not read.
_COMMANDS = {
    "stats": ("summary statistics", "optional directory for CSV output", ("input", "columns")),
    "fit": ("one full-sample fit", "optional directory for fit.json", _FIT),
    "forecast": ("rolling out-of-sample forecasts", "report directory", _RUN),
    "backtest": ("re-score an emitted forecast table", "report directory", ("forecasts", "tau")),
    "portfolio": ("forecasts plus allocation track", "report directory", _RUN + ("tau_tilde",)),
    "simulate": ("write a synthetic panel from stock truths", "output CSV path",
                 ("kind", "link", "seed", "tau", "length", "dimension", "family", "df",
                  "replication")),
}


def _read_config_file(path):
    """key = value lines; # comments; keys match the long flag names."""
    out = {}
    for lineno, raw in enumerate(read_input(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}: line {lineno}: expected key = value")
        key, value = (side.strip() for side in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _CASTERS:
            raise ValidationError(f"{path}: line {lineno}: unknown key {key!r}")
        try:
            out[key] = _CASTERS[key](value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValidationError(f"{path}: line {lineno}: {exc}") from None
    return out


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="quantes",
        description="Joint quantile and expected shortfall forecasting.",
    )
    parser.add_argument("--version", action="version", version=f"quantes {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, out_help, keys) in _COMMANDS.items():
        p_cmd = sub.add_parser(command, help=summary)
        p_cmd.add_argument("--config", help="key=value file; explicit flags override")
        for key in keys:
            p_cmd.add_argument("--" + key.replace("_", "-"), **_OPTIONS[key])
        p_cmd.add_argument("--out", help=out_help)
    return parser


def _merge(args, key, fallback=None):
    """Explicit flag, else config-file value, else fallback. ``key`` must be
    an option of the subcommand: any other raises AttributeError."""
    val = getattr(args, key)
    return fallback if val is None else val


def _require(args, key):
    val = _merge(args, key)
    if val is None:
        raise ValidationError(f"missing required option --{key.replace('_', '-')}")
    return val


def _given(args, fields):
    """``{field: value}`` for each ``{option: field}`` the subcommand declares
    and a flag or the config file sets."""
    return {f: v for key, f in fields.items()
            if hasattr(args, key) and (v := _merge(args, key)) is not None}


_EM_FIELDS = {k: k for k in ("n_starts", "tol", "max_iterations", "seed")}
_RUN_FIELDS = {
    "tau": "tau", "columns": "columns", "kind": "kind", "link": "link_kind",
    "window": "window", "window_width": "window_width", "oos": "oos",
    "refit_every": "refit_every", "tau_tilde": "tau_tilde", "out": "out_dir",
}


def _em_config(args):
    return EMConfig(**_given(args, _EM_FIELDS))


def _run_config(args):
    return RunConfig(
        input_path=_require(args, "input"), em=_em_config(args), **_given(args, _RUN_FIELDS)
    )


_STAT_ROWS = ("mean", "median", "sd", "skewness", "kurtosis", "jarque_bera", "ljung_box")


def _print_table(names, stats, stream):
    width = max(12, max(len(n) for n in names) + 2)
    print("statistic".ljust(12) + "".join(n.rjust(width) for n in names), file=stream)
    for row in _STAT_ROWS:
        cells = "".join(f"{v:{width}.4f}" for v in stats[row])
        print(row.ljust(12) + cells, file=stream)
    print("correlation", file=stream)
    for line in stats["correlation"]:
        print("  " + "  ".join(f"{v:7.4f}" for v in line), file=stream)


def _cmd_stats(args, stream):
    out = _merge(args, "out")
    if out is not None:
        _check_out(out)
    table = load_returns(_require(args, "input"), _merge(args, "columns"))
    stats = summary_stats(table.values)
    _print_table(table.columns, stats, stream)
    if out is not None:
        out = Path(out)
        out.mkdir(parents=True, exist_ok=True)
        write_csv(out / "summary.csv", ["statistic", *table.columns],
                  [[row, *stats[row]] for row in _STAT_ROWS])
        write_csv(out / "correlation.csv", ["asset", *table.columns],
                  [[name, *line] for name, line in zip(table.columns, stats["correlation"])])
        print(f"wrote {out / 'summary.csv'} and {out / 'correlation.csv'}", file=stream)
    return 0


def _recorded_levels(args, path, p):
    """--tau, else the tau in the manifest.json written next to ``path``."""
    tau = _merge(args, "tau")
    if tau is None:
        manifest = Path(path).parent / "manifest.json"
        try:
            # no manifest records no levels, as one without a "tau" does
            recorded = json.loads(read_input(manifest)) if manifest.is_file() else {}
            tau = recorded["tau"] if "tau" in recorded else recorded["config"]["tau"]
            tau = np.asarray(tau, dtype=float)
        except (ValueError, KeyError, TypeError):
            raise ValidationError(
                f"missing option --tau: {manifest} does not record the levels of {path}"
            ) from None
    return as_levels(tau, p)


def _check_out(out):
    """Fail, creating nothing, when directory ``out`` cannot be made: ``out``
    or else its nearest existing ancestor must be a directory."""
    for folder in (Path(out), *Path(out).parents):
        if folder.is_dir():
            return
        if os.path.lexists(folder):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(folder))


def _cmd_fit(args, stream):
    out = _merge(args, "out")
    if out is not None:
        _check_out(out)
    table = load_returns(_require(args, "input"), _merge(args, "columns"))
    tau = as_levels(_merge(args, "tau", RunConfig.tau), table.shape[1])
    model = _given(args, {"kind": "kind", "link": "link_kind"})
    result = fit(table.values, tau, config=_em_config(args), **model)
    print(
        f"loglik {result.loglik:.6f}  iterations {result.iterations}  "
        f"converged {result.converged}  stop {result.stop_reason}  start {result.start_index}",
        file=stream,
    )
    for name, spec, link_par in zip(table.columns, result.params.specs,
                                    result.params.links):
        beta = " ".join(f"{b:+.4f}" for b in spec.beta)
        if link_par.kind == dyn.MULT:
            tail = f"gamma0 {link_par.gamma0:+.4f}"
        else:
            tail = "gamma " + " ".join(f"{g:+.4f}" for g in link_par.gamma)
        print(
            f"{name}: omega {spec.omega:+.4f}  eta {spec.eta:+.4f}  "
            f"beta {beta}  {tail}",
            file=stream,
        )
    if table.shape[1] > 1:
        print("psi", file=stream)
        for line in result.params.psi:
            print("  " + "  ".join(f"{v:7.4f}" for v in line), file=stream)
    if out is not None:
        out = Path(out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "fit.json", {**result.to_dict(), "columns": list(table.columns)})
        print(f"wrote {out / 'fit.json'}", file=stream)
    return 0


def _emit(bundle, out, stream):
    for path in emit_reports(bundle, out):
        print(f"wrote {path}", file=stream)


def _cmd_forecast(args, stream):
    config = _run_config(args)
    _check_out(config.out_dir)
    _emit(rolling_forecast(config), config.out_dir, stream)
    return 0


def _cmd_portfolio(args, stream):
    config = _run_config(args)
    if config.tau_tilde is None:
        raise ValidationError("missing required option --tau-tilde")
    _check_out(config.out_dir)
    bundle = portfolio_run(config)
    _emit(bundle, config.out_dir, stream)
    summary = bundle.manifest["portfolio"]
    print(
        f"sharpe {summary['sharpe']:.4f}  hhi {summary['hhi']:.4f}  "
        f"infeasible {summary['infeasible_periods']}",
        file=stream,
    )
    return 0


def _cmd_backtest(args, stream):
    """Re-score a forecasts.csv: :func:`load_forecasts` checks its columns and
    gives its panels in report order, and the reports hold its cells as read,
    not formatted again."""
    path = _require(args, "forecasts")
    table, assets = load_forecasts(path)
    tau = _recorded_levels(args, path, len(assets))
    values = table.values
    bundle = evaluate_forecasts(table.dates, assets, tau,
                                values[:, 0::3], values[:, 1::3], values[:, 2::3])
    bundle.text = table.lines
    bundle.manifest = {
        "command": "backtest",
        "source": str(path),
        "tau": bundle.tau.tolist(),
    }
    _emit(bundle, _merge(args, "out", RunConfig.out_dir), stream)
    n_reject = sum(r["reject"] for r in bundle.backtests)
    print(f"{len(bundle.backtests)} tests, {n_reject} rejections", file=stream)
    return 0


def _cmd_simulate(args, stream):
    if _merge(args, "df") is not None and _merge(args, "family") != "student_t":
        raise ValidationError("--df applies only with --family student_t")
    params = reference_params(
        **_given(args, {"kind": "kind", "link": "link_kind", "dimension": "p"})
    )
    scenario = SimScenario(
        params,
        as_levels(_merge(args, "tau", RunConfig.tau), params.p),
        _merge(args, "length", 1500),
        **_given(args, {"family": "error_family", "df": "df", "seed": "seed"}),
    )
    y = generate(scenario, **_given(args, {"replication": "replication"}))
    out = Path(_merge(args, "out", "simulated.csv"))
    out.parent.mkdir(parents=True, exist_ok=True)
    day = datetime.date(2000, 1, 7)
    dates = [(day + datetime.timedelta(days=7 * t)).isoformat() for t in range(scenario.T)]
    write_panel(dates, y, wide=(out, ["date"] + [f"asset{j + 1}" for j in range(params.p)]))
    print(f"wrote {out} ({scenario.T} rows, {params.p} assets, {scenario.error_family})",
          file=stream)
    return 0


_DISPATCH = {
    "stats": _cmd_stats,
    "fit": _cmd_fit,
    "forecast": _cmd_forecast,
    "backtest": _cmd_backtest,
    "portfolio": _cmd_portfolio,
    "simulate": _cmd_simulate,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        declared = vars(args)
        for key, value in (_read_config_file(args.config) if args.config else {}).items():
            if key in declared and declared[key] is None:
                declared[key] = value
        return _DISPATCH[args.command](args, sys.stdout)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (QuantesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
