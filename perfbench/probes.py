"""Direct timings of a few public layer functions at the simulated truth.

The estimation probes run on the ``fit_cold`` panel (SAV/MULT, p=2, T=500);
the recursion probes run each kind and link on one T=1500 series. A probe
that raises is reported as failed with its exception, and gives no time.
"""

import time

import numpy as np

from quantes import dynamics, estimation, mal, simulate

from .workloads import TAU, sim_panel

MIN_SECONDS = 0.2  # per probe; repeats until this much time has passed
MIN_REPEATS = 3


def _time_call(fn, scale):
    """Median time of repeated ``fn()`` calls, in seconds times ``scale``."""
    times = []
    begin = time.perf_counter()
    while len(times) < MIN_REPEATS or time.perf_counter() - begin < MIN_SECONDS:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
        if times[0] > MIN_SECONDS:
            break
    return float(np.median(times)) * scale


def _estimation_state(seed):
    params, y = sim_panel(seed, 2, 500)
    tau = np.full(2, TAU)
    cons = mal.MALConstraints.from_levels(tau)
    q0 = np.array([dynamics.initial_quantile(y[:, j], TAU) for j in range(2)])
    paths = [
        dynamics.risk_path(params.specs[j], params.links[j], y[:, j], q0[j], TAU)
        for j in range(2)
    ]
    q = np.column_stack([p.quantile for p in paths])
    delta = np.column_stack([p.delta for p in paths])
    u, z = estimation.e_step(y, q, delta, params.psi, cons)
    return {
        "params": params, "y": y, "tau": tau, "cons": cons, "q0": q0, "q": q,
        "delta": delta, "u": u, "z": z, "rows": (y - q) / delta,
    }


def _em_iteration(s):
    u, z = estimation.e_step(s["y"], s["q"], s["delta"], s["params"].psi, s["cons"])
    moved = estimation.dynamic_m_step(s["params"], s["y"], s["tau"], s["q0"], u, z)
    q = np.empty_like(s["y"])
    delta = np.empty_like(s["y"])
    for j in range(s["y"].shape[1]):
        path = dynamics.risk_path(
            moved.specs[j], moved.links[j], s["y"][:, j], s["q0"][j], TAU
        )
        q[:, j] = path.quantile
        delta[:, j] = path.delta
    return estimation.sigma_m_step((s["y"] - q) / delta, u, z, s["cons"])


def _density_params(s):
    return mal.MALParams(
        mu=s["q"].mean(axis=0), delta=s["delta"].mean(axis=0), psi=s["params"].psi,
        tau=s["tau"],
    )


def probe_calls(seed):
    """``name -> (unit, zero-argument callable)`` for every probe."""
    s = _estimation_state(seed)
    density = _density_params(s)
    series = sim_panel(seed, 1, 1500)[1][:, 0]
    q0 = dynamics.initial_quantile(series, TAU)
    calls = {
        "estimation.e_step.ms": (
            "ms",
            lambda: estimation.e_step(s["y"], s["q"], s["delta"], s["params"].psi, s["cons"]),
        ),
        "estimation.observed_loglik.ms": (
            "ms",
            lambda: estimation.observed_loglik(s["params"], s["y"], s["tau"], s["q0"]),
        ),
        "estimation.q_function.ms": (
            "ms",
            lambda: estimation.q_function(
                s["params"], s["y"], s["tau"], s["q0"], s["u"], s["z"]
            ),
        ),
        "estimation.sigma_m_step.ms": (
            "ms",
            lambda: estimation.sigma_m_step(s["rows"], s["u"], s["z"], s["cons"]),
        ),
        "estimation.dynamic_m_step.ms": (
            "ms",
            lambda: estimation.dynamic_m_step(
                s["params"], s["y"], s["tau"], s["q0"], s["u"], s["z"]
            ),
        ),
        "estimation.em_iteration.ms": ("ms", lambda: _em_iteration(s)),
        "mal.mal_log_density.ms": ("ms", lambda: mal.mal_log_density(s["y"], density)),
    }
    for kind, link in ((dynamics.SAV, dynamics.MULT), (dynamics.AS, dynamics.AR),
                       (dynamics.IG, dynamics.MULT)):
        truth = simulate.reference_params(kind, link, 1)
        spec, es_link = truth.specs[0], truth.links[0]
        calls[f"dynamics.risk_path.{kind}_{link}.us"] = (
            "us",
            lambda spec=spec, es_link=es_link: dynamics.risk_path(
                spec, es_link, series, q0, TAU
            ),
        )
    return calls


_SCALE = {"ms": 1e3, "us": 1e6, "s": 1.0}


def run_probes(seed):
    """``name -> {"value", "unit"}`` or ``{"unit", "failed": "Type: message"}``."""
    out = {}
    for name, (unit, fn) in probe_calls(seed).items():
        try:
            out[name] = {"value": _time_call(fn, _SCALE[unit]), "unit": unit}
        except Exception as exc:  # a probe boundary: record and go on
            out[name] = {"unit": unit, "failed": f"{type(exc).__name__}: {exc}"}
    return out
