import inspect

import numpy as np
import pytest

from quantes import dynamics as dyn
from quantes import estimation
from quantes.estimation import (
    _M_FLOOR,
    EMConfig,
    FitResult,
    ParameterSet,
    _assemble,
    _loglik_rows,
    _panel_paths,
    dynamic_m_step,
    e_step,
    fit,
    observed_loglik,
    q_function,
    sigma_m_step,
)
from quantes.exceptions import ValidationError
from quantes.mal import (
    MALConstraints,
    MALParams,
    _quad_form,
    _SigmaCache,
    mal_log_density,
    mal_sample,
)
from quantes.simulate import SimScenario, generate, reference_params

PSI3 = np.array([[1, 0.3, 0.7], [0.3, 1, 0.5], [0.7, 0.5, 1.0]])

# Conditional mixing-moment oracle, frozen from adaptive quadrature of the
# exponential-mixture posterior at tau = (0.1, 0.1, 0.1), psi = PSI3.
ESTEP_ORACLE = [
    # (y - q, delta, E[W|y], E[1/W|y])
    ([0.4, -0.3, 0.8], [0.5, 0.4, 0.6], 0.16511275837508, 10.93392896184690),
    ([-1.2, 0.2, -0.5], [0.5, 0.4, 0.6], 0.21738674854918, 7.41386907950574),
]


def _sim_panel(kind=dyn.SAV, link=dyn.MULT, T=400, p=3, seed=5, rep=0):
    params = reference_params(kind, link, p)
    sc = SimScenario(params=params, tau=[0.1] * p, T=T, seed=seed)
    return params, generate(sc, rep), np.full(p, 0.1)


# -- conditional moments ------------------------------------------------------


def test_e_step_matches_quadrature():
    cons = MALConstraints.from_levels([0.1] * 3)
    resid = np.array([row[0] for row in ESTEP_ORACLE])
    delta = np.array([row[1] for row in ESTEP_ORACLE])
    u, z = e_step(resid, np.zeros_like(resid), delta, PSI3, cons)
    for i, (_, _, u_want, z_want) in enumerate(ESTEP_ORACLE):
        assert u[i] == pytest.approx(u_want, abs=1e-12)
        assert z[i] == pytest.approx(z_want, abs=1e-11)


def test_e_step_product_bound():
    # E[W]E[1/W] >= 1 for any posterior, by Jensen
    rng = np.random.default_rng(90)
    cons = MALConstraints.from_levels([0.1, 0.05, 0.25])
    y = rng.normal(size=(200, 3))
    q = y - rng.uniform(0.05, 3.0, size=(200, 3))
    delta = rng.uniform(0.1, 2.0, size=(200, 3))
    u, z = e_step(y, q, delta, PSI3, cons)
    assert np.all(u * z >= 1.0)
    assert np.all(u > 0) and np.all(z > 0)


def test_e_step_p1_closed_forms():
    """At p = 1 the half-integer Bessel ratios collapse: E[W|y] has the
    elementary form sqrt(b/a)(1 + 1/sqrt(ab)) and E[1/W|y] = sqrt(a/b)."""
    tau = 0.1
    cons = MALConstraints.from_levels([tau])
    xi = cons.xi_tilde[0]
    s2 = cons.sigma_tilde[0] ** 2
    rng = np.random.default_rng(91)
    resid = rng.normal(size=(50, 1)) * 2.0
    delta = rng.uniform(0.2, 1.5, size=(50, 1))
    u, z = e_step(resid, np.zeros_like(resid), delta, np.array([[1.0]]), cons)
    r = resid[:, 0] / delta[:, 0]
    a = 2.0 + xi**2 / s2
    b = r**2 / s2
    s = np.sqrt(a * b)
    np.testing.assert_allclose(u, np.sqrt(b / a) * (1.0 + 1.0 / s), rtol=1e-10)
    np.testing.assert_allclose(z, np.sqrt(a / b), rtol=1e-10)


# -- complete-data objective --------------------------------------------------


def test_q_function_p1_reduction():
    """The joint objective at p = 1 equals the scalar formula assembled by
    hand from the same paths."""
    params, y, tau = _sim_panel(p=1, T=300)
    cons = MALConstraints.from_levels(tau)
    xi = cons.xi_tilde[0]
    s2 = cons.sigma_tilde[0] ** 2
    q0 = np.array([dyn.initial_quantile(y[:, 0], tau[0])])
    rng = np.random.default_rng(92)
    u = rng.uniform(0.5, 2.0, y.shape[0])
    z = rng.uniform(0.5, 3.0, y.shape[0])
    got = q_function(params, y, tau, q0, u, z)
    path = dyn.risk_path(params.specs[0], params.links[0], y[:, 0], q0[0], tau[0])
    r = (y[:, 0] - path.quantile) / path.delta
    by_hand = (
        -0.5 * y.shape[0] * np.log(s2)
        - np.log(path.delta).sum()
        + (xi / s2) * r.sum()
        - 0.5 * float(z @ (r**2 / s2))
        - 0.5 * (xi**2 / s2) * u.sum()
    )
    assert got == pytest.approx(by_hand, rel=1e-12)


def test_observed_loglik_is_density_sum():
    params, y, tau = _sim_panel(T=250)
    q0 = np.array([dyn.initial_quantile(y[:, j], tau[j]) for j in range(3)])
    got = observed_loglik(params, y, tau, q0)
    total = 0.0
    for t in range(y.shape[0]):
        mu_t = np.empty(3)
        dl_t = np.empty(3)
        for j in range(3):
            path = dyn.risk_path(params.specs[j], params.links[j], y[:, j], q0[j], tau[j])
            mu_t[j] = path.quantile[t]
            dl_t[j] = path.delta[t]
        point = MALParams(mu=mu_t, delta=dl_t, psi=params.psi, tau=tau)
        total += mal_log_density(y[t], point)
    assert got == pytest.approx(total, rel=1e-10)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_loglik_rows_equal_the_density_row_for_row(p):
    # constant location and scale: the fit path's rows and the public density
    # share one core, so away from the m floor they agree bit for bit
    tau = np.array([0.1, 0.05, 0.25])[:p]
    params = MALParams(mu=[-1.0, -0.5, -2.0][:p], delta=[0.4, 0.9, 1.3][:p],
                       psi=PSI3[:p, :p], tau=tau)
    y = mal_sample(params, 300, 7)
    q = np.tile(params.mu, (300, 1))
    dl = np.tile(params.delta, (300, 1))
    cache = _SigmaCache(params.psi, params.constraints)
    assert _quad_form((y - q) / dl, cache).min() > _M_FLOOR
    rows = _loglik_rows(y, q, dl, cache)
    assert np.array_equal(rows, mal_log_density(y, params))


# -- M-steps ------------------------------------------------------------------


def test_sigma_m_step_recovers_truth_scale():
    """With true paths and true correlation, the closed-form update lands on
    the generator's correlation up to sampling error."""
    params, y, tau = _sim_panel(T=4000, seed=17)
    cons = MALConstraints.from_levels(tau)
    q0 = np.array([dyn.initial_quantile(y[:, j], tau[j]) for j in range(3)])
    resid = np.empty_like(y)
    delta = np.empty_like(y)
    for j in range(3):
        path = dyn.risk_path(params.specs[j], params.links[j], y[:, j], q0[j], tau[j])
        resid[:, j] = y[:, j] - path.quantile
        delta[:, j] = path.delta
    u, z = e_step(y, y - resid, delta, params.psi, cons)
    candidate = sigma_m_step(resid / delta, u, z, cons)
    assert np.allclose(np.diag(candidate), 1.0)
    np.testing.assert_allclose(candidate, PSI3, atol=0.06)


def test_sigma_m_step_p1_identity():
    cons = MALConstraints.from_levels([0.1])
    out = sigma_m_step(np.random.default_rng(0).normal(size=(50, 1)),
                       np.ones(50), np.ones(50), cons)
    assert out.shape == (1, 1) and out[0, 0] == 1.0


def test_dynamic_m_step_never_lowers_objective():
    params, y, tau = _sim_panel(T=300, seed=23)
    q0 = np.array([dyn.initial_quantile(y[:, j], tau[j]) for j in range(3)])
    cons = MALConstraints.from_levels(tau)
    rng = np.random.default_rng(93)
    perturbed = ParameterSet(
        specs=tuple(
            dyn.CaviarSpec(s.kind, s.omega * 1.3, min(s.eta * 1.05, 0.97),
                           (np.asarray(s.beta) * 0.7).tolist())
            for s in params.specs
        ),
        links=params.links,
        psi=params.psi,
    )
    resid = np.empty_like(y)
    delta = np.empty_like(y)
    for j in range(3):
        path = dyn.risk_path(perturbed.specs[j], perturbed.links[j], y[:, j], q0[j], tau[j])
        resid[:, j] = y[:, j] - path.quantile
        delta[:, j] = path.delta
    u, z = e_step(y, y - resid, delta, perturbed.psi, cons)
    before = q_function(perturbed, y, tau, q0, u, z)
    updated = dynamic_m_step(perturbed, y, tau, q0, u, z)
    after = q_function(updated, y, tau, q0, u, z)
    assert after >= before


# -- full fits ----------------------------------------------------------------


@pytest.mark.parametrize("kind,link", [(dyn.SAV, dyn.MULT), (dyn.AS, dyn.AR)])
def test_fit_trace_monotone(kind, link):
    _, y, tau = _sim_panel(kind=kind, link=link, T=350, seed=29)
    result = fit(y, tau, kind=kind, link_kind=link,
                 config=EMConfig(n_starts=2, seed=1))
    diffs = np.diff(result.loglik_trace)
    assert np.all(diffs >= 0.0)
    assert result.loglik == pytest.approx(result.loglik_trace[-1])


@pytest.mark.parametrize("kind,link", [(dyn.SAV, dyn.MULT), (dyn.AS, dyn.AR)])
def test_every_dynamic_pass_keeps_the_q_value(kind, link, monkeypatch):
    # a block move is kept only if the Q-value at the sweep's E-step weights
    # does not fall, and the pass hands back the paths of its packed vector
    _, y, tau = _sim_panel(kind=kind, link=link, T=350, seed=29)
    inner = estimation._update_dynamics
    signature = inspect.signature(inner)
    falls = []

    def recording(*args, **kwargs):
        a = signature.bind(*args, **kwargs).arguments
        theta, q, dl = inner(*args, **kwargs)
        paths = _panel_paths(kind, link, theta, a["y"], a["q0"], a["x0s"], a["tau"])
        assert np.array_equal(paths[0], q) and np.array_equal(paths[1], dl)
        weights = (a["cache"], a["u"], a["z"])
        before = _assemble(a["y"], a["q"], a["dl"], *weights)[0]
        falls.append(before - _assemble(a["y"], q, dl, *weights)[0])
        return theta, q, dl

    monkeypatch.setattr(estimation, "_update_dynamics", recording)
    fit(y, tau, kind=kind, link_kind=link, config=EMConfig(n_starts=2, seed=1))
    assert falls
    assert [f for f in falls if f > 0.0] == []


@pytest.mark.parametrize("kind,link", [(dyn.SAV, dyn.MULT), (dyn.AS, dyn.AR)])
def test_chain_rows_are_the_rows_of_its_final_state(kind, link, monkeypatch):
    # fit ranks its starts on the rows each chain returns
    _, y, tau = _sim_panel(kind=kind, link=link, T=350, seed=29)
    inner = estimation._em_chain
    signature = inspect.signature(inner)
    chains = []

    def recording(*args, **kwargs):
        state = inner(*args, **kwargs)
        chains.append((signature.bind(*args, **kwargs).arguments, state))
        return state

    monkeypatch.setattr(estimation, "_em_chain", recording)
    fit(y, tau, kind=kind, link_kind=link,
        config=EMConfig(n_starts=2, max_iterations=4, seed=1))
    assert len(chains) == 5  # one univariate chain per asset, then two starts
    for a, state in chains:
        q, dl = _panel_paths(kind, link, state["theta"], a["y"], a["q0"], a["x0s"], a["tau"])
        cache = _SigmaCache(state["psi"], MALConstraints.from_levels(a["tau"]))
        rows = _loglik_rows(a["y"], q, dl, cache)
        assert np.all(rows == state["rows"])
        assert float(rows.sum()) == state["loglik"]


def test_fit_bit_reproducible():
    _, y, tau = _sim_panel(T=300, seed=31)
    cfg = EMConfig(n_starts=2, seed=7)
    a = fit(y, tau, config=cfg)
    b = fit(y, tau, config=cfg)
    assert a.loglik == b.loglik
    assert a.start_index == b.start_index
    for sa, sb in zip(a.params.specs, b.params.specs):
        assert sa.omega == sb.omega and sa.eta == sb.eta
        assert np.array_equal(sa.beta, sb.beta)
    assert np.array_equal(a.params.psi, b.params.psi)


def test_fit_warm_start_stays_near_truth():
    params, y, tau = _sim_panel(T=900, seed=37)
    result = fit(y, tau, config=EMConfig(n_starts=1, seed=0), init=params)
    assert isinstance(result, FitResult)
    assert result.converged and result.stop_reason == "tol"
    assert result.iterations == 29
    q0 = result.q0
    assert result.loglik >= observed_loglik(params, y, tau, q0) - 1e-6
    for got, true in zip(result.params.specs, params.specs):
        assert abs(got.omega - true.omega) < 0.25
        assert abs(got.eta - true.eta) < 0.15


def test_fit_in_sample_hit_rates():
    # the fitted quantile paths should cover close to tau in sample
    _, y, tau = _sim_panel(T=1000, seed=41)
    result = fit(y, tau, config=EMConfig(n_starts=1, seed=0))
    for j in range(3):
        rate = float(np.mean(y[:, j] <= result.paths[j].quantile))
        assert abs(rate - 0.1) < 0.03


def test_fit_callback_sees_every_iteration():
    _, y, tau = _sim_panel(T=300, seed=43)
    seen = []
    fit(y, tau, config=EMConfig(n_starts=1, seed=0),
        callback=lambda start, it, ll: seen.append((start, it, ll)))
    assert seen
    lls = [ll for _, _, ll in seen]
    assert np.all(np.diff(lls) >= 0.0)


@pytest.mark.parametrize("kind,link", [(dyn.IG, dyn.MULT), (dyn.SAV, dyn.AR)])
def test_fit_loglik_is_the_observed_loglik_of_its_params(kind, link):
    # the EM's panel and observed_loglik evaluate the paths the same way
    _, y, tau = _sim_panel(kind=kind, link=link, T=300, p=2, seed=47)
    r = fit(y, tau, kind=kind, link_kind=link, config=EMConfig(n_starts=1, max_iterations=5))
    assert observed_loglik(r.params, y, r.tau, r.q0) == r.loglik


def test_one_level_is_shared_by_every_asset():
    params, y, tau = _sim_panel(T=300, seed=53)
    q0 = np.array([dyn.initial_quantile(y[:, j], tau[j]) for j in range(3)])
    u, z = np.ones(y.shape[0]), np.ones(y.shape[0])
    assert observed_loglik(params, y, 0.1, q0) == observed_loglik(params, y, tau, q0)
    assert q_function(params, y, 0.1, q0, u, z) == q_function(params, y, tau, q0, u, z)
    a = dynamic_m_step(params, y, 0.1, q0, u, z)
    b = dynamic_m_step(params, y, tau, q0, u, z)
    assert a.to_dict() == b.to_dict()
    cfg = EMConfig(n_starts=1, max_iterations=3)
    shared, full = fit(y, 0.1, config=cfg), fit(y, tau, config=cfg)
    assert shared.to_dict() == full.to_dict()
    assert np.array_equal(shared.loglik_trace, full.loglik_trace)
    for bad in ([0.1, 0.1], [0.1] * 4):
        with pytest.raises(ValidationError, match="3 assets"):
            observed_loglik(params, y, bad, q0)
        with pytest.raises(ValidationError, match="3 assets"):
            q_function(params, y, bad, q0, u, z)
        with pytest.raises(ValidationError, match="3 assets"):
            dynamic_m_step(params, y, bad, q0, u, z)
        with pytest.raises(ValidationError, match="3 assets"):
            fit(y, bad, config=cfg)


@pytest.mark.parametrize(
    "field,value",
    [
        ("n_starts", 1.5),
        ("n_starts", 2.0),
        ("n_starts", True),
        ("max_iterations", 10.5),
        ("max_iterations", "10"),
        ("seed", 1.5),
        ("seed", True),
    ],
)
def test_em_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ValidationError, match=f"{field} must be an integer"):
        EMConfig(**{field: value})
    assert type(getattr(EMConfig(**{field: np.int64(3)}), field)) is int


def test_fit_validation():
    with pytest.raises(ValidationError):
        fit(np.zeros((30, 3)), [0.1, 0.1, 0.1])  # too short for p = 3
    _, y, tau = _sim_panel(T=300)
    with pytest.raises(ValidationError):
        fit(y, [0.1, 0.1])  # tau length mismatch
    with pytest.raises(ValidationError):
        fit(y, tau, kind="garch")
