"""The benchmark's workloads: inputs made from a seed, one timed operation,
and checks on what the operation produced.

Every call into the package goes through a module attribute
(``cli.main``, ``dynamics.risk_path``, ``portfolio.smv_weights``) so that a
traced run can wrap it. Inputs come from ``simulate.reference_params`` and
``simulate.generate``; the program only ever sees the generated data.
"""

import contextlib
import datetime
import io
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

import quantes
from quantes import cli, dynamics, estimation, exceptions, mal, portfolio, scoring, simulate

from . import tracing

TAU = 0.1
TAU_TILDE = 0.15  # >= TAU, so the level constraint is reachable
LEVEL_TOL = 1e-6  # the allocator's own level tolerance
BUDGET_TOL = 1e-9
EM_SLACK = 1e-6  # the EM monotonicity slack the package's tests use


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


class CliFailed(Exception):
    """``cli.main`` returned a non-zero exit code."""


def sim_panel(seed, p, T, kind=dynamics.SAV, link=dynamics.MULT):
    params = simulate.reference_params(kind, link, p)
    scenario = simulate.SimScenario(params=params, tau=np.full(p, TAU), T=T, seed=seed)
    return params, simulate.generate(scenario, 0)


def _dates(n):
    day = datetime.date(2000, 1, 3)
    return [(day + datetime.timedelta(days=k)).isoformat() for k in range(n)]


def _write_table(path, header, dates, values):
    with open(path, "w") as handle:
        handle.write(",".join(header) + "\n")
        for date, row in zip(dates, values):
            handle.write(date + "," + ",".join("%.10g" % v for v in row) + "\n")


def _data_rows(path):
    with open(path) as handle:
        return sum(1 for _ in handle) - 1


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise CliFailed(f"quantes {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def _check_allocation(weights, params_t, label):
    _expect(
        abs(float(np.sum(weights)) - 1.0) <= BUDGET_TOL,
        f"{label}: weights sum to {np.sum(weights)!r}",
    )
    level = mal.linear_combine(weights, params_t).tau_star
    _expect(
        abs(level - TAU_TILDE) <= LEVEL_TOL,
        f"{label}: portfolio level {level!r} misses {TAU_TILDE}",
    )


class Workload:
    """One set of inputs and the operation the benchmark times on them."""

    name = ""
    why = ""
    setup_repeats = 3
    sizes = {}
    quality_names = ()  # end-to-end quality metrics :meth:`quality` returns

    def setup(self, seed, size, workdir):
        raise NotImplementedError

    def op(self, inputs, opdir):
        raise NotImplementedError

    def check(self, inputs, out):
        """Raise :class:`CheckFailed` when the output is wrong."""

    def quality(self, inputs, out):
        """End-to-end quality metrics of one successful operation."""
        return {}

    def layer_counts(self, inputs, out):
        """Per-layer counts read from one operation's output."""
        return {}


class FitCold(Workload):
    name = "fit_cold"
    quality_names = ("fit_loglik",)
    why = "one cold multi-start fit: all estimation, no allocation or I/O"
    sizes = {
        "full": {"p": 2, "T": 500, "n_starts": 2, "max_iterations": None},
        "tiny": {"p": 2, "T": 120, "n_starts": 1, "max_iterations": 3},
    }

    def setup(self, seed, size, workdir):
        cfg = self.sizes[size]
        _, y = sim_panel(seed, cfg["p"], cfg["T"])
        em = estimation.EMConfig(n_starts=cfg["n_starts"], seed=seed)
        if cfg["max_iterations"] is not None:
            em = replace(em, max_iterations=cfg["max_iterations"])
        return {"y": y, "tau": np.full(cfg["p"], TAU), "em": em}

    def op(self, inputs, opdir):
        return quantes.fit(
            inputs["y"], inputs["tau"], kind=dynamics.SAV, link_kind=dynamics.MULT,
            config=inputs["em"],
        )

    def check(self, inputs, out):
        _expect(np.isfinite(out.loglik), f"loglik is {out.loglik!r}")
        steps = np.diff(out.loglik_trace)
        _expect(
            steps.size == 0 or steps.min() >= -EM_SLACK,
            f"loglik trace falls by {-steps.min() if steps.size else 0.0:.3g}",
        )
        _expect(
            abs(out.loglik - out.loglik_trace[-1]) <= EM_SLACK,
            "reported loglik is not the last trace entry",
        )

    def quality(self, inputs, out):
        return {"fit_loglik": float(out.loglik)}


class PortfolioRoll(Workload):
    name = "portfolio_roll"
    quality_names = ("oos_s_mal",)
    why = "the analyst's portfolio run: cold fit, warm refits, per-period allocation, reports"
    sizes = {
        "full": {"p": 3, "window": 480, "oos": 40, "refit_every": 10, "max_iterations": None},
        "tiny": {"p": 2, "window": 120, "oos": 10, "refit_every": 5, "max_iterations": 2},
    }

    def setup(self, seed, size, workdir):
        cfg = self.sizes[size]
        p, T = cfg["p"], cfg["window"] + cfg["oos"]
        _, y = sim_panel(seed, p, T)
        names = [f"a{j + 1}" for j in range(p)]
        path = Path(workdir) / "panel.csv"
        _write_table(path, ["date", *names], _dates(T), y)
        argv = [
            "portfolio", "--input", str(path), "--tau", str(TAU),
            "--kind", dynamics.SAV, "--link", dynamics.MULT,
            "--window", "rolling", "--window-width", str(cfg["window"]),
            "--oos", str(cfg["oos"]), "--refit-every", str(cfg["refit_every"]),
            "--n-starts", "1", "--seed", str(seed), "--tau-tilde", str(TAU_TILDE),
        ]
        if cfg["max_iterations"] is not None:
            argv += ["--max-iterations", str(cfg["max_iterations"])]
        return {"argv": argv, "oos": cfg["oos"], "p": p}

    def op(self, inputs, opdir):
        bundles = []
        with tracing.capture(cli, "portfolio_run", bundles):
            _run_cli(inputs["argv"] + ["--out", str(opdir)])
        return {"bundle": bundles[-1], "dir": Path(opdir)}

    def check(self, inputs, out):
        oos, p = inputs["oos"], inputs["p"]
        bundle, folder = out["bundle"], out["dir"]
        for name, rows in (
            ("forecasts.csv", oos),
            ("portfolio.csv", oos),
            ("paths_long.csv", 3 * p * oos),
            ("score_paths.csv", (3 * p + 1) * oos),
        ):
            got = _data_rows(folder / name)
            _expect(got == rows, f"{name} has {got} rows, expected {rows}")
        manifest = json.loads((folder / "manifest.json").read_text())
        _expect(
            manifest["n_forecasts"] == oos,
            f"manifest n_forecasts {manifest['n_forecasts']} != oos {oos}",
        )
        for i, (rec, row) in enumerate(zip(bundle.records, bundle.portfolio)):
            if not row["feasible"]:
                continue
            weights = np.array([row[f"w_{c}"] for c in bundle.columns])
            params_t = mal.MALParams(
                mu=rec.var, delta=bundle.tau * (0.0 - rec.es), psi=bundle.psis[i],
                tau=bundle.tau,
            )
            _check_allocation(weights, params_t, f"period {i}")

    def quality(self, inputs, out):
        joint = [r["value"] for r in out["bundle"].scores if r["rule"] == "s_mal"]
        return {"oos_s_mal": float(joint[0])}

    def layer_counts(self, inputs, out):
        manifest = out["bundle"].manifest
        return {
            "pipeline.refits": manifest["n_refits"],
            "pipeline.warnings": len(manifest["warnings"]),
            "portfolio.infeasible_periods": manifest["portfolio"]["infeasible_periods"],
        }


class Rescore(Workload):
    name = "rescore"
    why = (
        "re-score a long p=5 forecasts file through quantes backtest: load, validate, "
        "score, backtest, write reports; no fit, no allocation"
    )
    setup_repeats = 15
    sizes = {"full": {"p": 5, "T": 2000}, "tiny": {"p": 2, "T": 300}}

    def setup(self, seed, size, workdir):
        cfg = self.sizes[size]
        p, T = cfg["p"], cfg["T"]
        params, y = sim_panel(seed, p, T)
        table = np.empty((T, 3 * p))
        for j in range(p):
            q0 = dynamics.initial_quantile(y[:, j], TAU)
            path = dynamics.risk_path(params.specs[j], params.links[j], y[:, j], q0, TAU)
            table[:, 3 * j] = y[:, j]
            table[:, 3 * j + 1] = path.quantile
            table[:, 3 * j + 2] = path.es
        header = ["date"]
        for j in range(p):
            header += [f"y_a{j + 1}", f"var_a{j + 1}", f"es_a{j + 1}"]
        path = Path(workdir) / "forecasts.csv"
        _write_table(path, header, _dates(T), table)
        return {"path": path, "p": p, "T": T}

    def op(self, inputs, opdir):
        _run_cli(
            ["backtest", "--forecasts", str(inputs["path"]), "--tau", str(TAU),
             "--out", str(opdir)]
        )
        return Path(opdir)

    def check(self, inputs, out):
        p, T = inputs["p"], inputs["T"]
        for name, rows in (
            ("forecasts.csv", T),
            ("paths_long.csv", 3 * p * T),
            ("score_paths.csv", 3 * p * T),
            ("scores.csv", 3 * p + 1),
            ("backtests.csv", 5 * p),
        ):
            got = _data_rows(out / name)
            _expect(got == rows, f"{name} has {got} rows, expected {rows}")
        source = quantes.pipeline.load_returns(inputs["path"])
        again = quantes.pipeline.load_returns(out / "forecasts.csv")
        _expect(
            source.columns == again.columns and source.dates == again.dates,
            "forecasts.csv does not round-trip its header and dates",
        )
        _expect(
            np.array_equal(source.values, again.values),
            "forecasts.csv does not round-trip its values",
        )


class Allocate(Workload):
    """One rebalancing step per operation, walking a block of periods.

    Each operation forecasts the next period from the true model over a
    rolling window and allocates at TAU_TILDE from the previous weights, the
    way ``pipeline.portfolio_run`` does after its refit. Operations cycle
    through ``periods`` periods ``stride`` rows apart on one long panel: the
    allocator's cost follows the volatility regime, which persists over
    neighbouring periods, so periods far apart give a run's median many
    regimes to span.
    """

    name = "allocate"
    why = (
        "one rebalancing step at the true model: risk_path recompute over a 500-row "
        "window and an 11-start smv_weights at tau~=0.15; no fit, no file I/O"
    )
    setup_repeats = 25
    sizes = {
        "full": {"p": 3, "window": 500, "periods": 200, "stride": 20},
        "tiny": {"p": 2, "window": 100, "periods": 3, "stride": 1},
    }

    def setup(self, seed, size, workdir):
        cfg = self.sizes[size]
        p = cfg["p"]
        params, y = sim_panel(seed, p, cfg["window"] + cfg["periods"] * cfg["stride"])
        tau = np.full(p, TAU)
        sigma = mal.assemble_sigma(params.psi, mal.MALConstraints.from_levels(tau))
        return {
            "params": params, "y": y, "tau": tau, "sigma": sigma, "seed": seed,
            "window": cfg["window"], "periods": cfg["periods"], "stride": cfg["stride"],
            "track": {"step": 0, "weights": np.full(p, 1.0 / p)},
        }

    def op(self, inputs, opdir):
        params, y, tau, track = inputs["params"], inputs["y"], inputs["tau"], inputs["track"]
        p = y.shape[1]
        t = inputs["window"] + (track["step"] % inputs["periods"]) * inputs["stride"]
        track["step"] += 1
        window = y[t - inputs["window"] : t]
        var = np.empty(p)
        es = np.empty(p)
        for j in range(p):
            q0 = dynamics.initial_quantile(window[:, j], tau[j])
            path = dynamics.risk_path(params.specs[j], params.links[j], window[:, j], q0, tau[j])
            x_last = path.x[-1] if path.x is not None else 0.0
            var[j], es[j] = dynamics.one_step_forecast(
                params.specs[j], params.links[j], path.quantile[-1], window[-1, j], x_last
            )
        record = scoring.ForecastRecord(t=t, y=y[t], var=var, es=es, tau=tau)
        score = scoring.s_mal(record, inputs["sigma"])
        params_t = mal.MALParams(mu=var, delta=tau * (0.0 - es), psi=params.psi, tau=tau)
        try:
            alloc = portfolio.smv_weights(
                params_t, TAU_TILDE, b_init=track["weights"], seed=inputs["seed"]
            )
        except exceptions.InfeasibleAllocationError:
            return {"t": t, "params": params_t, "weights": None, "score": score}
        track["weights"] = alloc.weights
        return {"t": t, "params": params_t, "weights": alloc.weights, "score": score}

    def check(self, inputs, out):
        _expect(np.isfinite(out["score"]), f"t={out['t']}: s_mal is {out['score']!r}")
        if out["weights"] is not None:
            _check_allocation(out["weights"], out["params"], f"t={out['t']}")

    def layer_counts(self, inputs, out):
        return {"portfolio.infeasible_periods": int(out["weights"] is None)}


WORKLOADS = {w.name: w for w in (FitCold(), PortfolioRoll(), Rescore(), Allocate())}
