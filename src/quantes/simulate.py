"""Synthetic data generation and parameter-recovery studies.

Returns follow y_t = q_t + D_t e_t, where q_t is the true quantile
recursion, D_t = diag(delta_t) the true scale path, and e_t a shock from
the chosen family. The "normal" family draws the model's own innovation,
a Gaussian kernel mixed over an exponential rate: e = xi W + sqrt(W) L z
with z correlated by Psi. Each margin of that mixture has its tau-quantile
exactly at zero, so the generating recursion is the true conditional
quantile path of the data and hit rates against it equal tau. The
"student_t" family keeps the location structure but replaces the kernel
with a heavier-tailed multivariate t draw, giving a misspecified stress
scenario; "none" zeroes the shock and returns the pure recursion path.

Every step follows the rule of :func:`dynamics.risk_step`, which the
estimator's paths and the forecasts follow too, so the autoregressive
offset moves on the previous period's violation (Taylor 2019, JBES 37) and
starts from the link's ``x0``. Once the shocks are drawn the assets share
no state, so :func:`generate` steps one column at a time, every period of
asset 0, then of asset 1, and so on, each column in one loop that writes
the rule out on local floats. Each value is the same float operations in
the same order as in a period-by-period loop over the assets through
``risk_step``, so the panels are the same; a failing run raises the error
that loop would meet first (see :func:`generate`).

Panels are reproducible across versions because the draw order is fixed:
the generator, seeded with ``[seed, replication]``, is split as
:func:`mal.mal_sample` splits it. One child draws the (burn_in + T, p)
normals, correlated by one ``z @ L'`` product; the other draws the mixing
values, ``exponential(1.0)`` ("normal") or ``chisquare(df)`` ("student_t").
"none" draws nothing. Each stream fills its rows in order, so a panel is a
prefix of a longer one with the same burn-in. ``tests/test_simulate.py``
pins this order against a per-period reference loop.
"""

import math
import numbers
import os
import time
from collections import Counter
from contextlib import nullcontext
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import dynamics as dyn
from .estimation import EMConfig, ParameterSet, fit
from .exceptions import NumericError, PathError, ValidationError
from .linalg import cholesky_with_jitter
from .mal import MALParams, as_integer, as_levels, mal_sample

__all__ = [
    "SimScenario",
    "StudyResult",
    "generate",
    "reference_params",
    "run_study",
]

FAMILIES = ("normal", "student_t", "none")
_BLOWUP = 1e6


@dataclass(frozen=True)
class SimScenario:
    """A data-generating configuration for one study.

    ``error_family="none"`` with the AR link puts every row on the
    violation boundary y = q, where a last-bit change in q flips the AR
    offset's violation test: such panels are no fit or path-comparison input.
    """

    params: object  # ParameterSet with the true recursion coefficients
    tau: np.ndarray
    T: int
    error_family: str = "normal"
    df: float = 5.0
    burn_in: int = 200
    B: int = 25
    seed: int = 0

    def __post_init__(self):
        if self.error_family not in FAMILIES:
            raise ValidationError(f"unknown error family {self.error_family!r}")
        if isinstance(self.df, bool) or not isinstance(self.df, numbers.Real):
            raise ValidationError(f"df must be a real number, got {self.df!r}")
        if not math.isfinite(self.df):
            raise ValidationError("df must be finite")
        object.__setattr__(self, "df", float(self.df))
        if self.error_family == "student_t" and self.df <= 2.0:
            raise ValidationError("student_t requires df > 2")
        for name, low in (("T", 1), ("burn_in", 0), ("B", 1), ("seed", 0)):
            object.__setattr__(self, name, as_integer(name, getattr(self, name), low))
        object.__setattr__(self, "tau", as_levels(self.tau))
        if self.params.p != self.tau.size:
            raise ValidationError("parameter set and tau dimensions disagree")


@dataclass(frozen=True)
class StudyResult:
    """Recovery metrics over the replications of one scenario."""

    scenario: SimScenario
    estimates: dict
    truths: dict
    bias_pct: dict
    rmse: dict
    aggregate_bias_pct: float
    aggregate_rmse: float
    iterations: np.ndarray
    fit_seconds: np.ndarray
    stop_reasons: dict  # FitResult.stop_reason -> count of successful replications
    n_failed: int


_REF_OMEGA = (-0.20, -0.12, -0.24)
_REF_ETA = (0.85, 0.70, 0.60)
_REF_BETA1 = (-0.10, -0.05, -0.20)
_REF_BETA2 = (0.05, 0.10, 0.20)
_REF_GAMMA0 = (-1.1, -1.5, -1.3)
_REF_GAMMA = ((0.05, 0.12, 0.80), (0.10, 0.05, 0.70), (0.02, 0.20, 0.60))
_REF_PSI3 = ((1.0, 0.3, 0.7), (0.3, 1.0, 0.5), (0.7, 0.5, 1.0))


def reference_params(kind=dyn.SAV, link_kind=dyn.MULT, p=3):
    """The stock three-asset truth set, tiled cyclically for other p.

    The square-root recursion takes the intercept in absolute value and the
    positive return coefficient, since its state must stay inside the
    radicand. Dimensions other than 3 reuse the coefficients asset-by-asset
    modulo 3 and switch the correlation to the geometric profile
    0.5 ** |i - j|, which is positive definite at every p.
    """
    p = as_integer("p", p, 1)
    if kind not in dyn.KINDS or link_kind not in dyn.LINKS:
        raise ValidationError("unknown recursion or link kind")
    specs = []
    links = []
    for j in range(p):
        c = j % 3
        if kind == dyn.SAV:
            specs.append(dyn.CaviarSpec(kind, _REF_OMEGA[c], _REF_ETA[c], [_REF_BETA1[c]]))
        elif kind == dyn.AS:
            specs.append(
                dyn.CaviarSpec(kind, _REF_OMEGA[c], _REF_ETA[c], [_REF_BETA1[c], _REF_BETA2[c]])
            )
        else:
            specs.append(dyn.CaviarSpec(kind, abs(_REF_OMEGA[c]), _REF_ETA[c], [_REF_BETA2[c]]))
        if link_kind == dyn.MULT:
            links.append(dyn.ESLink(link_kind, gamma0=_REF_GAMMA0[c]))
        else:
            links.append(dyn.ESLink(link_kind, gamma=list(_REF_GAMMA[c]), x0=0.1))
    if p == 3:
        psi = np.array(_REF_PSI3)
    else:
        idx = np.arange(p)
        psi = 0.5 ** np.abs(idx[:, None] - idx[None, :])
    return ParameterSet(specs=tuple(specs), links=tuple(links), psi=psi)


def _initial_state(params):
    q0 = np.empty(params.p)
    for j, spec in enumerate(params.specs):
        base = spec.omega / (1.0 - min(spec.eta, 0.98))
        if spec.kind == dyn.IG:
            q0[j] = -np.sqrt(max(base, 1e-4))
        else:
            q0[j] = min(base, -1e-2)
    return q0


def _draw_shocks(scenario, rng, total):
    """Every period's shock e_t as a (total, p) array, in the module's draw order.

    "normal" is :func:`mal.mal_sample` at mu = 0, delta = 1. "student_t"
    splits the stream the same way and mixes the same correlated kernel over
    ``chisquare(df, total)`` instead: e = xi + sqrt(df / g) L z.
    """
    p = scenario.tau.size
    if scenario.error_family == "none":
        return np.zeros((total, p))
    unit = MALParams(np.zeros(p), np.ones(p), scenario.params.psi, scenario.tau)
    if scenario.error_family == "normal":
        return mal_sample(unit, total, rng)
    z_rng, g_rng = rng.spawn(2)
    e = z_rng.standard_normal((total, p)) @ cholesky_with_jitter(unit.sigma()).T
    e *= np.sqrt(scenario.df / g_rng.chisquare(scenario.df, total))[:, None]
    e += unit.constraints.xi_tilde
    return e


def _path_error(what, column, t, burn_in):
    where = (
        f"in the {burn_in}-row burn-in" if t < burn_in else f"at returned row {t - burn_in}"
    )
    return PathError(
        f"simulated {what} in column {column} {where} (row {t} of the full run)", index=t
    )


def _step_column(spec, link, tau, q, col, stop):
    """Step one asset through rows 0, ..., stop - 1 of ``col``, its list of
    shocks, overwriting each with that row's return; ``q`` is the asset's
    initial quantile and ``tau`` its level.

    The period rule of :func:`dynamics.risk_step` is written out here on
    local floats, operation for operation, so no row costs a Python call
    and the column equals a loop over ``risk_step`` byte for byte
    (``tests/test_simulate.py::test_generate_is_the_per_period_loop_byte_for_byte``
    pins the two). Returns None, or (row, stage, what) for the first
    failure: stage 0 for a non-positive indirect-GARCH radicand, 1 for a
    quantile outside [-1e6, 0) or NaN, 2 for a scale that is not positive.
    """
    sav, ig = spec.kind == dyn.SAV, spec.kind == dyn.IG
    omega, eta, beta1 = spec.coef[:3]
    beta2 = spec.coef[-1]
    mult = link.kind == dyn.MULT
    factor = link.factor
    g1, g2, g3 = (0.0, 0.0, 0.0) if mult else link.coef
    x = link.x0
    es = factor * q if mult else q - x
    for t in range(stop):
        if t:
            if sav:
                q_next = omega + beta1 * abs(y) + eta * q
            elif ig:
                rad = omega + beta1 * (y * y) + eta * (q * q)
                if rad <= 0.0:
                    return t, 0, "step failed (non-positive radicand in indirect-GARCH step)"
                q_next = -math.sqrt(rad)
            else:
                q_next = (omega + beta1 * (0.0 if 0.0 > y else y)
                          + beta2 * (0.0 if 0.0 > -y else -y) + eta * q)
            if mult:
                es = factor * q_next
            else:
                if y <= q:
                    x = g1 + g2 * (q - y) + g3 * x
                es = q_next - x
            q = q_next
        # written so that a NaN quantile fails too
        if not (abs(q) <= _BLOWUP and q < 0.0):
            return t, 1, "quantile path left the valid region"
        delta = tau * (0.0 - es)
        if not delta > 0.0:
            return t, 2, "scale path became non-positive"
        y = col[t] = q + delta * col[t]
    return None


def generate(scenario, replication=0):
    """Simulate one replication; returns a (T, p) matrix after burn-in.

    The draws follow the fixed order of the module docstring, so a
    (scenario, replication) pair gives the same panel in every version, and
    its first rows do not depend on T. All shocks are drawn before the
    recursion runs. Given the shocks the assets share no state, so each
    asset then steps through its own column alone, period by period in
    one loop on plain floats (:func:`_step_column`), by the rule of
    :func:`dynamics.risk_step`. ``error_family="none"`` with the AR link
    gives no fit input (see :class:`SimScenario`).

    Raises :class:`PathError` when an indirect-GARCH radicand is not
    positive, a quantile leaves [-1e6, 0) or is NaN, or a scale is not
    positive; its ``index`` counts rows from the first burn-in row, and the
    message names the column and whether that row lies in the burn-in. The
    error raised is the one a period-by-period loop over all assets meets
    first: the earliest row, and within a row a radicand failure before a
    quantile failure before a scale failure, each in its lowest column. A
    bool, non-integral or negative ``replication`` raises
    :class:`ValidationError`.
    """
    params = scenario.params
    rng = np.random.default_rng([scenario.seed, as_integer("replication", replication, 0)])

    # each column of shocks is overwritten by that asset's returns
    y = _draw_shocks(scenario, rng, scenario.burn_in + scenario.T)
    # (row, stage, what, column) of the earliest failure
    first = None
    columns = zip(params.specs, params.links, scenario.tau.tolist(),
                  _initial_state(params).tolist())
    for j, (spec, link, tau, q) in enumerate(columns):
        col = y[:, j].tolist()
        # a later column can only fail first on or before the earliest row
        failed = _step_column(spec, link, tau, q, col,
                              len(col) if first is None else first[0] + 1)
        if failed is None:
            y[:, j] = col
        elif first is None or failed[:2] < first[:2]:
            first = (*failed, j)
    if first is not None:
        t, _, what, j = first
        raise _path_error(what, j, t, scenario.burn_in)
    return y[scenario.burn_in:]


def _truth_map(params):
    """Flat name -> value map of the dynamic truth coefficients."""
    out = {}
    for j, (spec, link) in enumerate(zip(params.specs, params.links), start=1):
        out[f"omega_{j}"] = spec.omega
        out[f"eta_{j}"] = spec.eta
        out[f"beta1_{j}"] = float(spec.beta[0])
        if spec.kind == dyn.AS:
            out[f"beta2_{j}"] = float(spec.beta[1])
        if link.kind == dyn.MULT:
            out[f"gamma0_{j}"] = link.gamma0
        else:
            for i in range(3):
                out[f"gamma{i + 1}_{j}"] = float(link.gamma[i])
    return out


def _recursion_names(truths):
    return [k for k in truths if k.split("_")[0] in ("omega", "eta", "beta1", "beta2")]


def _study_worker(args):
    scenario, rep, em_config, kind, link_kind = args
    try:
        data = generate(scenario, rep)
    except (PathError, NumericError):
        return None, 0, 0.0, None
    # every replication fits with its own deterministic random-start stream
    cfg = replace(em_config, seed=em_config.seed * 100003 + 1000 + rep)
    start = time.perf_counter()
    try:
        res = fit(data, scenario.tau, kind=kind, link_kind=link_kind, config=cfg)
    except (PathError, NumericError):
        return None, 0, time.perf_counter() - start, None
    secs = time.perf_counter() - start
    return _truth_map(res.params), res.iterations, secs, res.stop_reason


def run_study(scenario, em_config=None, n_jobs=None):
    """Generate-and-refit over ``scenario.B`` replications.

    ``n_jobs`` (at least 1) worker processes (default: CPU count); results are
    aggregated in replication order so the outcome does not depend on
    scheduling. Replications whose generation or fit fails are counted in
    ``n_failed`` and excluded from the metrics. Every asset is fitted with
    one recursion and one link kind, so a scenario whose assets mix kinds
    raises :class:`ValidationError` naming the first asset, counted from 1
    as in the estimate names, that differs from asset 1.
    """
    em_config = em_config or EMConfig()
    params = scenario.params
    kind, link_kind = params.specs[0].kind, params.links[0].kind
    for j, (spec, link) in enumerate(zip(params.specs, params.links), start=1):
        if (spec.kind, link.kind) != (kind, link_kind):
            raise ValidationError(
                f"run_study fits one recursion and link for every asset: asset {j} is "
                f"{spec.kind}/{link.kind}, asset 1 is {kind}/{link_kind}"
            )
    jobs = [(scenario, rep, em_config, kind, link_kind) for rep in range(scenario.B)]
    n_jobs = (os.cpu_count() or 1) if n_jobs is None else as_integer("n_jobs", n_jobs, 1)
    parallel = n_jobs > 1 and scenario.B > 1
    with ProcessPoolExecutor(min(n_jobs, scenario.B)) if parallel else nullcontext() as pool:
        results = list((pool.map if parallel else map)(_study_worker, jobs))

    truths = _truth_map(params)
    ok = [r for r in results if r[0] is not None]
    if not ok:
        raise NumericError("every replication failed")
    estimates = {
        name: np.array([r[0][name] for r in ok]) for name in truths
    }
    bias_pct = {}
    rmse = {}
    for name, vals in estimates.items():
        truth = truths[name]
        err = vals - truth
        bias_pct[name] = float(np.mean(err / truth) * 100.0) if truth != 0 else np.nan
        rmse[name] = float(np.sqrt(np.mean(err**2)))

    rec = _recursion_names(truths)
    agg_truth = float(np.sum(np.abs([truths[k] for k in rec])))
    agg_hat = np.array(
        [np.sum(np.abs([r[0][k] for k in rec])) for r in ok]
    )
    agg_err = agg_hat - agg_truth
    return StudyResult(
        scenario=scenario,
        estimates=estimates,
        truths=truths,
        bias_pct=bias_pct,
        rmse=rmse,
        aggregate_bias_pct=float(np.mean(agg_err / agg_truth) * 100.0),
        aggregate_rmse=float(np.sqrt(np.mean(agg_err**2))),
        iterations=np.array([r[1] for r in ok]),
        fit_seconds=np.array([r[2] for r in ok]),
        stop_reasons=dict(Counter(r[3] for r in ok)),
        n_failed=scenario.B - len(ok),
    )
