import csv
import importlib.util
import io
import pathlib

import numpy as np
import pytest

from quantes import dynamics as dyn
from quantes import simulate
from quantes.dynamics import (
    AR,
    AS,
    IG,
    MULT,
    SAV,
    CaviarSpec,
    ESLink,
    RiskPath,
    ar_offset,
    initial_es_offset,
    initial_quantile,
    one_step_forecast,
    quantile_path,
    quantile_step,
    risk_path,
    scale_path,
    shortfall,
)
from quantes.exceptions import PathError, ValidationError
from quantes.simulate import SimScenario, generate, reference_params

DATA = pathlib.Path(__file__).parent / "data"


def _read_column(path, name):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return np.array([float(r[name]) for r in rows])


@pytest.fixture(scope="module")
def synthetic():
    return _read_column(DATA / "synthetic_returns.csv", "y")


def test_sav_path_matches_golden(synthetic):
    golden = _read_column(DATA / "golden_sav_path.csv", "q")
    spec = CaviarSpec(SAV, -0.2, 0.85, [-0.1])
    q = quantile_path(spec, synthetic, q0=-1.8)
    np.testing.assert_allclose(q, golden, rtol=1e-10)


def test_ar_es_matches_golden(synthetic):
    spec = CaviarSpec(SAV, -0.2, 0.85, [-0.1])
    q = quantile_path(spec, synthetic, q0=-1.8)
    es_gold = _read_column(DATA / "golden_ar_es.csv", "es")
    x_gold = _read_column(DATA / "golden_ar_es.csv", "x")
    link = ESLink(AR, gamma=[0.05, 0.12, 0.80], x0=0.3)
    rp = risk_path(spec, link, synthetic, q0=-1.8, tau=0.1)
    assert np.array_equal(rp.quantile, q)
    np.testing.assert_allclose(rp.es, es_gold, rtol=1e-10)
    np.testing.assert_allclose(rp.x, x_gold, rtol=1e-10)


def test_goldens_are_the_generator_output():
    # the oracle and the committed files cannot drift apart
    loader = importlib.util.spec_from_file_location("make_goldens", DATA / "make_goldens.py")
    gen = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(gen)
    for name, (header, rows) in gen.tables().items():
        text = io.StringIO()
        gen.render(header, rows, text)
        with open(DATA / name, newline="") as fh:
            assert text.getvalue() == fh.read(), name


def test_sav_constant_series_fixed_point():
    # With y identically c, the path converges to (omega + beta |c|)/(1 - eta).
    spec = CaviarSpec(SAV, -0.1, 0.8, [-0.2])
    y = np.full(4000, 1.5)
    q = quantile_path(spec, y, q0=-3.0)
    expected = (-0.1 + -0.2 * 1.5) / (1.0 - 0.8)
    assert q[-1] == pytest.approx(expected, abs=1e-10)


def test_as_reduces_to_sav_when_betas_equal():
    rng = np.random.default_rng(0)
    y = rng.normal(size=300)
    sav = CaviarSpec(SAV, -0.05, 0.9, [-0.15])
    asym = CaviarSpec(AS, -0.05, 0.9, [-0.15, -0.15])
    np.testing.assert_allclose(
        quantile_path(sav, y, -1.0), quantile_path(asym, y, -1.0), rtol=1e-14
    )


def test_ig_negative_root_and_square_identity():
    spec = CaviarSpec(IG, 0.2, 0.7, [0.1])
    rng = np.random.default_rng(1)
    y = rng.normal(size=200)
    q = quantile_path(spec, y, q0=-1.0)
    assert np.all(q < 0.0)
    # squared path satisfies the linear recursion exactly
    for t in range(1, 200):
        assert q[t] ** 2 == pytest.approx(
            0.2 + 0.7 * q[t - 1] ** 2 + 0.1 * y[t - 1] ** 2, rel=1e-12
        )


def test_ig_nonpositive_radicand_raises_with_index():
    spec = CaviarSpec(IG, -0.5, 0.1, [0.0])
    y = np.zeros(10)
    with pytest.raises(PathError) as err:
        quantile_path(spec, y, q0=-0.1)
    assert err.value.index == 1


def test_quantile_step_matches_path():
    rng = np.random.default_rng(2)
    y = rng.normal(size=50)
    for spec in (
        CaviarSpec(SAV, -0.2, 0.85, [-0.1]),
        CaviarSpec(AS, -0.2, 0.8, [-0.1, 0.05]),
        CaviarSpec(IG, 0.2, 0.7, [0.1]),
    ):
        q = quantile_path(spec, y, q0=-1.5)
        steps = np.array([quantile_step(spec, q[t - 1], y[t - 1]) for t in range(1, 50)])
        if spec.kind == IG:
            np.testing.assert_array_max_ulp(steps, q[1:], maxulp=2)
        else:
            assert np.array_equal(steps, q[1:])


def test_path_determinism(synthetic):
    spec = CaviarSpec(AS, -0.15, 0.88, [-0.05, 0.1])
    a = quantile_path(spec, synthetic, -2.0)
    b = quantile_path(spec, synthetic, -2.0)
    np.testing.assert_array_equal(a, b)


def test_es_multiplicative_steeper_than_quantile():
    rng = np.random.default_rng(5)
    y = rng.normal(size=200)
    spec = CaviarSpec(SAV, -0.2, 0.85, [-0.1])
    rp = risk_path(spec, ESLink(MULT, gamma0=-1.1), y, q0=-1.5, tau=0.1)
    factor = 1.0 + np.exp(-1.1)
    assert np.array_equal(rp.es, factor * rp.quantile)
    assert np.all(rp.es < rp.quantile)
    assert rp.x is None
    np.testing.assert_allclose(rp.delta, 0.1 * (0.0 - rp.es), rtol=1e-14)


@pytest.mark.parametrize("gamma0", [-1.1, -1.5, -1.3, 0.0, 0.7, -30.0])
def test_shortfall_factor_is_derived_once_with_np_exp(gamma0):
    link = ESLink(MULT, gamma0=gamma0)
    assert link.factor == 1.0 + np.exp(gamma0)
    q = np.random.default_rng(2).normal(-1.0, 0.3, size=50)
    assert np.array_equal(dyn.shortfall(link, q, None), (1.0 + np.exp(gamma0)) * q)
    assert all(dyn.shortfall(link, v, None) == (1.0 + np.exp(gamma0)) * v for v in q.tolist())
    assert ESLink(AR, gamma=[0.1, 0.2, 0.3]).factor is None


def test_es_ar_zero_gammas_zero_x0_collapses_to_quantile():
    rng = np.random.default_rng(3)
    y = rng.normal(size=100)
    spec = CaviarSpec(SAV, -0.2, 0.85, [-0.1])
    rp = risk_path(spec, ESLink(AR, gamma=[0.0, 0.0, 0.0], x0=0.0), y, -1.5, tau=0.1)
    np.testing.assert_array_equal(rp.es, rp.quantile)
    np.testing.assert_array_equal(rp.x, np.zeros_like(rp.quantile))


def test_es_ar_no_violations_keeps_offset_constant():
    y = np.zeros(50)
    flat = CaviarSpec(SAV, -1.0, 0.0, [0.0])  # q = -1 throughout: y never reaches it
    rp = risk_path(flat, ESLink(AR, gamma=[0.05, 0.1, 0.9], x0=0.4), y, -1.0, tau=0.1)
    np.testing.assert_array_equal(rp.quantile, np.full(50, -1.0))
    np.testing.assert_array_equal(rp.x, np.full(50, 0.4))
    np.testing.assert_allclose(rp.es, rp.quantile - 0.4)


def test_es_ar_offset_stays_nonnegative():
    # every update adds a non-negative gap, so even a large gamma keeps x >= 0
    rng = np.random.default_rng(4)
    y = rng.normal(size=500) - 0.5
    spec = CaviarSpec(SAV, -0.05, 0.9, [-0.1])
    q = quantile_path(spec, y, -1.0)
    hit = y[:-1] <= q[:-1]
    assert hit.any() and not hit.all()
    for gamma, x0 in (([0.0, 0.0, 0.0], 0.2), ([3.0, 50.0, 0.99], 0.0)):
        x, dx = ar_offset(np.array(gamma), q, y, x0, grad=True)
        assert np.all(x >= 0.0) and np.all(np.isfinite(dx))
        assert np.all(x[1:][hit] == gamma[0] + gamma[1] * (q - y)[:-1][hit] + gamma[2] * x[:-1][hit])
        assert np.array_equal(x[1:][~hit], x[:-1][~hit])
    assert x.max() > 100.0


@pytest.mark.parametrize(
    "link", [ESLink(MULT, gamma0=-1.1), ESLink(AR, gamma=[0.05, 0.1, 0.9])], ids=[MULT, AR]
)
def test_risk_path_non_positive_scale_raises_with_index(link):
    # omega > 0 with eta = 0 lifts the path above zero from row 1 on
    spec = CaviarSpec(SAV, 0.5, 0.0, [0.0])
    with pytest.raises(PathError) as err:
        risk_path(spec, link, np.zeros(10), q0=-1.0, tau=0.1)
    assert err.value.index == 1


def test_risk_path_bundles_consistently(synthetic):
    spec = CaviarSpec(SAV, -0.2, 0.85, [-0.1])
    link = ESLink(AR, gamma=[0.05, 0.12, 0.8], x0=0.3)
    rp = risk_path(spec, link, synthetic, q0=-1.8, tau=0.1)
    assert isinstance(rp, RiskPath)
    np.testing.assert_allclose(rp.delta, 0.1 * (0.0 - rp.es), rtol=1e-14)
    np.testing.assert_allclose(rp.es, rp.quantile - rp.x, rtol=1e-14)
    assert np.all(rp.delta > 0.0)


def test_one_step_forecast_consistent_with_path(synthetic):
    spec = CaviarSpec(SAV, -0.2, 0.85, [-0.1])
    link = ESLink(MULT, gamma0=-1.1)
    rp = risk_path(spec, link, synthetic, q0=-1.8, tau=0.1)
    # the forecast from row t-1 equals the in-sample row t, at every t
    steps = [one_step_forecast(spec, link, rp.quantile[t - 1], synthetic[t - 1])
             for t in range(1, synthetic.size)]
    q_next, es_next = np.array(steps).T
    assert np.array_equal(q_next, rp.quantile[1:])
    assert np.array_equal(es_next, rp.es[1:])


def test_one_step_forecast_ar_carries_offset():
    spec = CaviarSpec(SAV, -0.2, 0.85, [-0.1])
    link = ESLink(AR, gamma=[0.05, 0.12, 0.8], x0=0.0)
    q_next, es_next = one_step_forecast(spec, link, -1.0, 0.5, x_last=0.7)
    assert es_next == q_next - 0.7
    # a violation of the last in-sample quantile moves the offset
    q_next, es_next = one_step_forecast(spec, link, -1.0, -1.5, x_last=0.7)
    assert es_next == q_next - (0.05 + 0.12 * 0.5 + 0.8 * 0.7)


@pytest.mark.parametrize("kind", [SAV, AS, IG])
def test_one_step_forecast_continues_the_ar_path(kind):
    truth = reference_params(kind, AR, 1)
    y = generate(SimScenario(params=truth, tau=[0.1], T=400, seed=5), 0)[:, 0]
    spec, link = truth.specs[0], truth.links[0]
    rp = risk_path(spec, link, y, initial_quantile(y, 0.1), 0.1)
    steps = [one_step_forecast(spec, link, rp.quantile[t - 1], y[t - 1], rp.x[t - 1])
             for t in range(1, y.size)]
    q_next, es_next = np.array(steps).T
    if kind == IG:
        np.testing.assert_array_max_ulp(q_next, rp.quantile[1:], maxulp=2)
    else:
        assert np.array_equal(q_next, rp.quantile[1:])
    assert np.array_equal(es_next, q_next - rp.x[1:])
    assert np.sum(y[:-1] <= rp.quantile[:-1]) > 10


@pytest.mark.parametrize("kind", [SAV, AS, IG])
def test_risk_path_reproduces_the_simulated_ar_paths(kind, monkeypatch):
    truth = reference_params(kind, AR, 2)
    tau = np.array([0.1, 0.05])
    step = dyn.risk_step
    steps = []

    def recorded(*args):
        steps.append(step(*args))
        return steps[-1]

    monkeypatch.setattr(dyn, "risk_step", recorded)
    y = generate(SimScenario(params=truth, tau=tau, T=400, burn_in=0, seed=8), 0)
    q0 = simulate._initial_state(truth)
    for j, (spec, link) in enumerate(zip(truth.specs, truth.links)):
        # the simulator steps the assets in turn from row 1 on
        first = (q0[j], shortfall(link, q0[j], link.x0), link.x0)
        q, es, x = np.array([first, *steps[j::2]]).T
        rp = risk_path(spec, link, y[:, j], q0[j], tau[j])
        if kind == IG:
            # each step is within 2 ulp, but the simulator carries q, not the
            # path's radicand, so the gaps ride the recursion (4 ulp at most
            # in 20 seeds of T=2000); es = q - x adds one rounding
            np.testing.assert_array_max_ulp(rp.quantile, q, maxulp=4)
            np.testing.assert_array_max_ulp(rp.es, es, maxulp=5)
        else:
            assert np.array_equal(rp.quantile, q)
            assert np.array_equal(rp.es, es)
        # the path evaluator along the simulator's quantiles
        delta, x_path, _ = scale_path(AR, link.gamma, q, y[:, j], tau[j], link.x0)
        assert np.array_equal(x_path, x)
        assert np.array_equal(q - x_path, es)
        assert np.array_equal(delta, tau[j] * (0.0 - es))
        assert np.sum(y[:-1, j] <= q[:-1]) > 10


def test_initial_state_helpers():
    rng = np.random.default_rng(5)
    y = rng.normal(size=1000)
    q0 = initial_quantile(y, 0.1)
    assert q0 == pytest.approx(np.quantile(y[:100], 0.1))
    # short series fall back to min_obs capped at the sample size
    q0_short = initial_quantile(y[:30], 0.1)
    assert q0_short == pytest.approx(np.quantile(y[:30], 0.1))
    x0 = initial_es_offset(y, q0)
    head = y[:100]
    assert x0 == pytest.approx(np.mean(q0 - head[head < q0]))
    assert initial_es_offset(y, y.min() - 1.0) == 0.0


@pytest.mark.parametrize("n", [1, 2, 49, 50, 51, 120])
def test_initial_quantile_equals_numpy(n):
    rng = np.random.default_rng(n)
    samples = [rng.normal(size=n), rng.integers(-2, 3, size=n).astype(float)]
    for y in samples:
        for tau in (1e-9, 0.01, 0.1, 0.5, 0.999999):
            assert initial_quantile(y, tau, frac=1.0, min_obs=0) == np.quantile(y, tau)
    y = samples[0].copy()
    y[n // 2] = np.nan
    assert np.isnan(initial_quantile(y, 0.1, frac=1.0, min_obs=0))
    with pytest.raises(ValidationError):
        initial_quantile(y, 1.5)


def test_spec_validation():
    with pytest.raises(ValidationError):
        CaviarSpec("garch", -0.1, 0.8, [-0.1])
    with pytest.raises(ValidationError):
        CaviarSpec(SAV, -0.1, 0.8, [-0.1, 0.2])
    with pytest.raises(ValidationError):
        CaviarSpec(AS, -0.1, 0.8, [-0.1])
    with pytest.raises(ValidationError):
        CaviarSpec(SAV, np.inf, 0.8, [-0.1])
    with pytest.raises(ValidationError):
        ESLink(AR, gamma=[0.1, -0.2, 0.3], x0=0.0)
    with pytest.raises(ValidationError):
        ESLink(AR, gamma=[0.1, 0.2, 0.3], x0=-0.5)
    with pytest.raises(ValidationError):
        ESLink("scale", gamma0=0.0)
