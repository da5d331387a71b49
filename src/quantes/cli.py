"""Command line front end.

Subcommands cover the whole workflow: ``stats`` summarizes a return file,
``fit`` estimates the joint model once on the full sample, ``forecast`` runs
the rolling out-of-sample exercise, ``backtest`` re-scores a previously
emitted forecast table, ``portfolio`` adds the allocation track, and
``simulate`` writes synthetic panels from the stock truth set. A key=value
config file can hold any flag; explicit flags win. Exit codes: 0 success,
2 validation problem, 3 numeric failure.
"""

import argparse
import datetime
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import dynamics as dyn
from .estimation import EMConfig, fit
from .exceptions import (
    InfeasibleAllocationError,
    NumericError,
    PathError,
    QuantesError,
    ValidationError,
)
from .mal import as_levels
from .pipeline import (
    RunConfig,
    _versions,
    emit_reports,
    evaluate_forecasts,
    load_returns,
    portfolio_run,
    rolling_forecast,
    summary_stats,
    write_csv,
    write_panel,
)
from .simulate import SimScenario, generate, reference_params


def _float_list(text):
    try:
        return [float(v) for v in str(text).split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}") from None


def _str_list(text):
    return [v.strip() for v in str(text).split(",") if v.strip()]


_CASTERS = {
    "input": str,
    "columns": _str_list,
    "tau": _float_list,
    "kind": str,
    "link": str,
    "window": str,
    "window_width": int,
    "oos": int,
    "refit_every": int,
    "tau_tilde": float,
    "out": str,
    "seed": int,
    "n_starts": int,
    "tol": float,
    "max_iterations": int,
    "forecasts": str,
    "length": int,
    "dimension": int,
    "family": str,
    "df": float,
    "replication": int,
}


def _read_config_file(path):
    """key = value lines; # comments; keys match the long flag names."""
    out = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
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

    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--config", help="key=value file; explicit flags override")
    data.add_argument("--input", help="delimited return file with a date column")
    data.add_argument("--columns", type=_str_list, help="comma list of asset columns")
    data.add_argument(
        "--tau", type=_float_list, help="levels in (0, 1): one shared or one per asset"
    )

    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--kind", choices=sorted(dyn.KINDS), help="quantile recursion")
    model.add_argument("--link", choices=sorted(dyn.LINKS), help="shortfall link")
    model.add_argument("--seed", type=int, help="seed for every stochastic stage")
    model.add_argument("--n-starts", type=int, dest="n_starts")
    model.add_argument("--tol", type=float, help="EM stopping tolerance")
    model.add_argument("--max-iterations", type=int, dest="max_iterations")

    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--window", choices=("rolling", "expanding"))
    run.add_argument("--window-width", type=int, dest="window_width")
    run.add_argument("--oos", type=int, help="out-of-sample length")
    run.add_argument("--refit-every", type=int, dest="refit_every")
    run.add_argument("--out", help="report directory")

    p_stats = sub.add_parser("stats", parents=[data], help="summary statistics")
    p_stats.add_argument("--out", help="optional directory for CSV output")

    p_fit = sub.add_parser("fit", parents=[data, model], help="one full-sample fit")
    p_fit.add_argument("--out", help="optional directory for fit.json")

    sub.add_parser(
        "forecast", parents=[data, model, run], help="rolling out-of-sample forecasts"
    )

    p_back = sub.add_parser(
        "backtest", parents=[data], help="re-score an emitted forecast table"
    )
    p_back.add_argument("--forecasts", help="forecasts.csv from a previous run")
    p_back.add_argument("--out", help="report directory")

    p_port = sub.add_parser(
        "portfolio", parents=[data, model, run], help="forecasts plus allocation track"
    )
    p_port.add_argument("--tau-tilde", type=float, dest="tau_tilde")

    p_sim = sub.add_parser(
        "simulate", parents=[model], help="write a synthetic panel from stock truths"
    )
    p_sim.add_argument("--config", help="key=value file; explicit flags override")
    p_sim.add_argument("--tau", type=_float_list)
    p_sim.add_argument("--length", type=int, help="rows to generate")
    p_sim.add_argument("--dimension", type=int, help="number of assets")
    p_sim.add_argument("--family", choices=("normal", "student_t", "none"))
    p_sim.add_argument("--df", type=float)
    p_sim.add_argument("--replication", type=int)
    p_sim.add_argument("--out", help="output CSV path")
    return parser


def _merge(args, key, fallback=None):
    """Explicit flag, else config-file value, else fallback."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    return args._file_config.get(key, fallback)


def _require(args, key):
    val = _merge(args, key)
    if val is None:
        raise ValidationError(f"missing required option --{key.replace('_', '-')}")
    return val


def _given(args, fields):
    """``{field: value}`` for each ``{option: field}`` set by flag or config file."""
    return {f: v for key, f in fields.items() if (v := _merge(args, key)) is not None}


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
    table = load_returns(_require(args, "input"), _merge(args, "columns"))
    stats = summary_stats(table.values)
    _print_table(table.columns, stats, stream)
    out = _merge(args, "out")
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
            recorded = json.loads(manifest.read_text())
            tau = recorded["tau"] if "tau" in recorded else recorded["config"]["tau"]
            tau = np.asarray(tau, dtype=float)
        except (OSError, ValueError, KeyError, TypeError):
            raise ValidationError(
                f"missing option --tau: {manifest} does not record the levels of {path}"
            ) from None
    return as_levels(tau, p)


def _cmd_fit(args, stream):
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
    out = _merge(args, "out")
    if out is not None:
        out = Path(out)
        out.mkdir(parents=True, exist_ok=True)
        payload = result.to_dict()
        payload["columns"] = list(table.columns)
        payload["versions"] = _versions()
        with open(out / "fit.json", "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {out / 'fit.json'}", file=stream)
    return 0


def _emit(bundle, out, stream):
    for path in emit_reports(bundle, out):
        print(f"wrote {path}", file=stream)


def _cmd_forecast(args, stream):
    config = _run_config(args)
    _emit(rolling_forecast(config), config.out_dir, stream)
    return 0


def _cmd_portfolio(args, stream):
    config = _run_config(args)
    if config.tau_tilde is None:
        raise ValidationError("missing required option --tau-tilde")
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
    """Slice the panels out of a wide forecast table and re-run the battery."""
    path = _merge(args, "forecasts") or _merge(args, "input")
    if path is None:
        raise ValidationError("missing required option --forecasts")
    table = load_returns(path)
    prefixes = tuple(c[2:] for c in table.columns if c.startswith("y_"))
    if not prefixes:
        raise ValidationError(f"{path}: no y_<asset> columns found")
    for asset in prefixes:
        for want in (f"var_{asset}", f"es_{asset}"):
            if want not in table.columns:
                raise ValidationError(f"{path}: missing column {want!r}")
    tau = _recorded_levels(args, path, len(prefixes))
    col = {name: k for k, name in enumerate(table.columns)}
    y, var, es = (
        table.values[:, [col[f"{series}_{a}"] for a in prefixes]]
        for series in ("y", "var", "es")
    )
    bundle = evaluate_forecasts(table.dates, prefixes, tau, y, var, es)
    bundle.manifest = {
        "command": "backtest",
        "source": str(path),
        "tau": bundle.tau.tolist(),
        "versions": _versions(),
    }
    _emit(bundle, _merge(args, "out", "reports"), stream)
    n_reject = sum(r["reject"] for r in bundle.backtests)
    print(f"{len(bundle.backtests)} tests, {n_reject} rejections", file=stream)
    return 0


def _cmd_simulate(args, stream):
    kind = _merge(args, "kind", dyn.SAV)
    link = _merge(args, "link", dyn.MULT)
    p = int(_merge(args, "dimension", 3))
    length = int(_merge(args, "length", 1500))
    tau = as_levels(_merge(args, "tau", 0.1), p)
    family = _merge(args, "family", "normal")
    scenario = SimScenario(
        params=reference_params(kind, link, p),
        tau=tau,
        T=length,
        error_family=family,
        df=float(_merge(args, "df", 5.0)),
        seed=int(_merge(args, "seed", 0)),
    )
    y = generate(scenario, int(_merge(args, "replication", 0)))
    out = Path(_merge(args, "out", "simulated.csv"))
    if out.parent != Path("."):
        out.parent.mkdir(parents=True, exist_ok=True)
    day = datetime.date(2000, 1, 7)
    dates = [(day + datetime.timedelta(days=7 * t)).isoformat() for t in range(length)]
    write_panel(dates, y, wide=(out, ["date"] + [f"asset{j + 1}" for j in range(p)]))
    print(f"wrote {out} ({length} rows, {p} assets, {family})", file=stream)
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args._file_config = (
            _read_config_file(args.config) if getattr(args, "config", None) else {}
        )
        return _DISPATCH[args.command](args, sys.stdout)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, PathError, InfeasibleAllocationError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except QuantesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
