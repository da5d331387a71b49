import inspect
import json

import numpy as np
import pytest
from scipy import special

from quantes import dynamics as dyn
from quantes import estimation
from quantes.estimation import (
    _M_FLOOR,
    EMConfig,
    FitResult,
    ParameterSet,
    _assemble,
    _e_pass,
    _loglik_rows,
    _panel_paths,
    dynamic_m_step,
    e_step,
    fit,
    observed_loglik,
    q_function,
    sigma_m_step,
)
from quantes.exceptions import PathError, ValidationError
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


def test_e_step_is_the_weights_of_the_likelihood_pass():
    # the weights written out on their own, as the E-step computed them
    # before it shared the pass with the row log-likelihoods
    params, y, tau = _sim_panel(T=300, seed=43)
    cons = MALConstraints.from_levels(tau)
    q0 = np.array([dyn.initial_quantile(y[:, j], tau[j]) for j in range(3)])
    q, dl = estimation._paths(params.specs, params.links, y, q0, tau)
    cache = _SigmaCache(params.psi, cons)
    m = np.maximum(_quad_form((y - q) / dl, cache), _M_FLOOR)
    s = np.sqrt((2.0 + cache.skew) * m)
    ratio = np.exp(np.log(special.kve(cache.nu + 1.0, s)) - np.log(special.kve(cache.nu, s)))
    u, z = e_step(y, q, dl, params.psi, cons)
    assert np.array_equal(u, np.sqrt(m / (2.0 + cache.skew)) * ratio)
    assert np.array_equal(z, np.sqrt((2.0 + cache.skew) / m) * ratio - 2.0 * cache.nu / m)


@pytest.mark.parametrize("n", [2, 5])
def test_each_em_iteration_evaluates_the_bessel_terms_once(n, monkeypatch):
    # one likelihood pass before the loop and one per iteration, each with
    # K_nu and K_nu+1: the trace's value and the next weights share them
    params, y, tau = _sim_panel(T=300, seed=41)
    q0 = np.array([dyn.initial_quantile(y[:, j], tau[j]) for j in range(3)])
    theta = estimation._pack(params.specs, params.links)
    kve, calls = special.kve, []
    monkeypatch.setattr(special, "kve", lambda nu, s: calls.append(nu) or kve(nu, s))
    state = estimation._em_chain(
        y, tau, q0, np.zeros(3), theta, params.psi, dyn.SAV, dyn.MULT,
        EMConfig(tol=0.0, max_iterations=n, n_starts=1), callback=None, start_index=0,
    )
    assert state["iterations"] == n and state["stop_reason"] == "max_iter"
    assert len(calls) == 2 + 2 * n


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
    v, log_scale = (y - q) / dl, np.log(dl).sum(axis=1)
    assert np.array_equal(_loglik_rows(v, log_scale, cache)[0], mal_log_density(y, params))
    assert np.array_equal(_e_pass(v, log_scale, cache)[0], mal_log_density(y, params))


def test_paths_name_the_asset_whose_path_fails():
    params, y, tau = _sim_panel(T=300, seed=5)
    q0 = np.array([dyn.initial_quantile(y[:, j], tau[j]) for j in range(3)])
    specs = list(params.specs)
    specs[1] = dyn.CaviarSpec(dyn.IG, 0.01, -0.5, [0.2])  # its radicand turns negative
    with pytest.raises(PathError) as alone:
        dyn.quantile_path(specs[1], y[:, 1], q0[1])
    with pytest.raises(PathError) as err:
        estimation._paths(tuple(specs), params.links, y, q0, tau)
    assert str(err.value) == f"invalid path for asset 1: {alone.value}"
    assert alone.value.index is not None
    assert err.value.index == alone.value.index


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
    # does not fall, and the pass hands back the paths of its coefficients
    # and the Q-value there, also when it keeps a link step as it is
    _, y, tau = _sim_panel(kind=kind, link=link, T=350, seed=29)
    inner = estimation._update_dynamics
    signature = inspect.signature(inner)
    nq = 4 if kind == dyn.AS else 3
    falls = []
    link_moves = []

    def recording(*args, **kwargs):
        a = signature.bind(*args, **kwargs).arguments
        theta, q, dl, val = inner(*args, **kwargs)
        paths = _panel_paths(kind, link, theta, a["y"], a["q0"], a["x0s"], a["tau"])
        assert np.array_equal(paths[0], q) and np.array_equal(paths[1], dl)
        weights = (a["cache"], a["u"], a["z"])
        assert val == _assemble(a["y"], q, dl, *weights)[0]
        before = _assemble(a["y"], a["q"], a["dl"], *weights)[0]
        falls.append(before - val)
        link_moves.append(not np.array_equal(theta[:, nq:], a["theta"][:, nq:]))
        return theta, q, dl, val

    monkeypatch.setattr(estimation, "_update_dynamics", recording)
    fit(y, tau, kind=kind, link_kind=link, config=EMConfig(n_starts=2, seed=1))
    assert falls
    assert [f for f in falls if f > 0.0] == []
    assert any(link_moves)


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
        rows = _e_pass((a["y"] - q) / dl, np.log(dl).sum(axis=1), cache)[0]
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
        q = dyn.quantile_path(result.params.specs[j], y[:, j], result.q0[j])
        rate = float(np.mean(y[:, j] <= q))
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


def test_an_ar_parameter_set_round_trips_through_its_dict():
    # the fit.json of an AR fit: gamma as a list and the offset seed x0
    params = reference_params(dyn.AS, dyn.AR, 3)
    data = json.loads(json.dumps(params.to_dict()))
    assert data["assets"][0]["gamma"] == [0.05, 0.12, 0.80] and "gamma0" not in data["assets"][0]
    back = ParameterSet.from_dict(data)
    assert back.to_dict() == data
    for got, want in zip(back.links, params.links):
        assert got.kind == dyn.AR and got.x0 == want.x0
        assert np.array_equal(got.gamma, want.gamma)
    assert np.array_equal(back.psi, params.psi)


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


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("n_starts", 0, "n_starts must be at least 1"),
        ("n_starts", -2, "n_starts must be at least 1"),
        ("max_iterations", 0, "max_iterations must be at least 1"),
        ("seed", -3, "seed must be at least 0, got -3"),
        ("seed", np.int64(-1), "seed must be at least 0, got -1"),
        ("tol", -1e-5, "tol must be finite and >= 0"),
        ("tol", float("nan"), "tol must be finite and >= 0"),
        ("tol", float("inf"), "tol must be finite and >= 0"),
    ],
)
def test_em_config_rejects_settings_that_cannot_run(field, value, message):
    with pytest.raises(ValidationError, match=message):
        EMConfig(**{field: value})
    assert EMConfig(tol=0.0).tol == 0.0  # runs every start to the cap


def test_fit_validation():
    with pytest.raises(ValidationError):
        fit(np.zeros((30, 3)), [0.1, 0.1, 0.1])  # too short for p = 3
    _, y, tau = _sim_panel(T=300)
    with pytest.raises(ValidationError):
        fit(y, [0.1, 0.1])  # tau length mismatch
    with pytest.raises(ValidationError):
        fit(y, tau, kind="garch")
