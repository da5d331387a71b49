import math

import numpy as np
import pytest
from scipy import special, stats

from quantes import backtests
from quantes.backtests import (
    CHI2_1,
    CHI2_2,
    CHI2_4,
    ONE_SIDED_Z,
    TWO_SIDED_Z,
    dm_test,
    dq_test,
    es_tests,
    lr_cc,
    lr_uc,
)
from quantes.exceptions import ValidationError
from quantes.mal import al_quantile, fixed_scale, fixed_skew


def _al_draws(rng, n, mu, tau, delta):
    w = rng.exponential(size=n)
    z = rng.standard_normal(n)
    return mu + delta * (fixed_skew(tau) * w + np.sqrt(w) * fixed_scale(tau) * z)


# -- unconditional coverage ---------------------------------------------------


def test_lr_uc_exact_rate_is_exactly_zero():
    hits = np.zeros(1000)
    hits[:50] = 1.0
    report = lr_uc(hits, 0.05)
    assert report.statistic == 0.0
    assert not report.reject


def test_lr_uc_zero_hits_closed_form():
    report = lr_uc(np.zeros(100), 0.05)
    want = -2.0 * 100 * math.log(0.95)
    assert report.statistic == pytest.approx(want, rel=1e-12)
    assert report.statistic == pytest.approx(10.258658877510115, rel=1e-12)
    assert report.reject
    assert report.critical_value == CHI2_1


def test_lr_uc_reject_is_pure_function_of_statistic():
    rng = np.random.default_rng(81)
    for _ in range(50):
        hits = (rng.uniform(size=200) < 0.07).astype(float)
        rep = lr_uc(hits, 0.05)
        assert rep.reject == (rep.statistic > rep.critical_value)


# -- conditional coverage -----------------------------------------------------


def test_lr_cc_alternating_hits_reject():
    """Alternating violations hit the exact rate 0.5 but are maximally
    dependent, so the independence component dominates."""
    hits = np.tile([1.0, 0.0], 250)
    report = lr_cc(hits, 0.5)
    assert report.df == 2
    assert report.critical_value == CHI2_2
    assert report.statistic > 100
    assert report.reject


def test_lr_cc_single_hit_finite():
    hits = np.zeros(60)
    hits[0] = 1.0
    report = lr_cc(hits, 0.05)
    assert np.isfinite(report.statistic)


def test_lr_cc_exceeds_uc_component():
    rng = np.random.default_rng(82)
    hits = (rng.uniform(size=400) < 0.05).astype(float)
    assert lr_cc(hits, 0.05).statistic >= lr_uc(hits, 0.05).statistic - 1e-12


# -- dynamic quantile ---------------------------------------------------------


def test_dq_lag_predictable_hits_reject():
    # every violation follows a violation: the lag-1 coefficient is huge
    hits = np.tile([1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 50)
    report = dq_test(hits, 0.2)
    assert report.critical_value == CHI2_4
    assert report.reject


def test_dq_degenerate_regressors_flagged():
    report = dq_test(np.zeros(100), 0.05)
    assert report.degenerate
    assert report.reject


def test_dq_minimal_window_runs():
    hits = np.array([0, 1, 0, 0, 1, 0, 0, 0, 1], dtype=float)
    report = dq_test(hits, 0.2)
    assert np.isfinite(report.statistic) or report.degenerate


def test_dq_calibrated_under_null():
    rng = np.random.default_rng(83)
    rejections = 0
    for _ in range(300):
        hits = (rng.uniform(size=368) < 0.05).astype(float)
        rejections += dq_test(hits, 0.05).reject
    assert rejections / 300 < 0.12


# -- expected shortfall battery ----------------------------------------------


def test_u_es_uniform_grid_is_zero():
    """PIT values forming an exact uniform grid give sample mean tau/2 for
    the cumulative violation process, so the statistic vanishes."""
    tau, n = 0.1, 1000
    grid = (np.arange(n) + 0.5) / n
    mu, delta = -0.5, 0.8
    y = al_quantile(grid, mu, tau, delta)
    u_rep, _ = es_tests(y, np.full(n, mu), np.full(n, delta), tau)
    assert u_rep.statistic == pytest.approx(0.0, abs=1e-10)
    assert u_rep.critical_value == TWO_SIDED_Z


def test_u_es_no_violations_closed_form():
    tau, n = 0.1, 200
    grid = np.linspace(0.5, 0.9, n)
    mu, delta = -0.5, 0.8
    y = al_quantile(grid, mu, tau, delta)
    u_rep, _ = es_tests(y, np.full(n, mu), np.full(n, delta), tau)
    want = math.sqrt(n) * (-tau / 2.0) / math.sqrt(tau * (1 / 3 - tau / 4))
    assert u_rep.statistic == pytest.approx(want, rel=1e-12)


def test_c_es_zero_variance_degenerate():
    tau, n = 0.1, 300
    grid = np.linspace(0.5, 0.9, n)  # no violations: H is identically zero
    y = al_quantile(grid, -0.5, tau, 0.8)
    _, c_rep = es_tests(y, np.full(n, -0.5), np.full(n, 0.8), tau)
    assert c_rep.degenerate


def test_es_low_power_flag():
    rng = np.random.default_rng(84)
    y = _al_draws(rng, 40, -0.5, 0.1, 0.8)
    u_rep, c_rep = es_tests(y, np.full(40, -0.5), np.full(40, 0.8), 0.1)
    assert u_rep.low_power and c_rep.low_power


# -- forecast comparison ------------------------------------------------------


def test_dm_alternating_differential_is_zero():
    a = np.tile([1.0, 0.0], 50)
    b = np.tile([0.0, 1.0], 50)
    report = dm_test(a, b)
    assert report.statistic == pytest.approx(0.0, abs=1e-12)
    assert not report.reject


def test_dm_antisymmetric():
    rng = np.random.default_rng(85)
    a = rng.normal(size=300)
    b = rng.normal(size=300)
    fwd = dm_test(a, b)
    back = dm_test(b, a)
    assert fwd.statistic == -back.statistic


def test_dm_location_alternative():
    rng = np.random.default_rng(86)
    d = rng.normal(0.5, 1.0, 1000)
    report = dm_test(np.zeros(1000), -d)  # score_a - score_b = d > 0 on average
    assert report.statistic == pytest.approx(0.5 * math.sqrt(1000), rel=0.25)
    assert not report.reject  # one-sided against the negative tail
    mirror = dm_test(-d, np.zeros(1000))
    assert mirror.statistic < ONE_SIDED_Z
    assert mirror.reject


def test_dm_needs_length_ten():
    with pytest.raises(ValidationError):
        dm_test(np.zeros(5), np.ones(5))


def test_dm_constant_differential_degenerate():
    report = dm_test(np.full(50, 0.3), np.zeros(50))
    assert report.degenerate


# -- joint calibration of the gated tests ------------------------------------


def test_battery_calibration_on_true_forecasts():
    """Correct constant forecasts on i.i.d. AL data: each gated test rejects
    at close to its nominal 5 percent rate over 500 runs."""
    tau, T = 0.05, 368
    mu, delta = -1.2, 0.5
    var_true = al_quantile(tau, mu, 0.05, delta)
    rng = np.random.default_rng(2029)
    counts = {"uc": 0, "cc": 0, "dq": 0, "ues": 0}
    for _ in range(500):
        y = _al_draws(rng, T, mu, 0.05, delta)
        hits = (y <= var_true).astype(float)
        counts["uc"] += lr_uc(hits, tau).reject
        counts["cc"] += lr_cc(hits, tau).reject
        counts["dq"] += dq_test(hits, tau).reject
        u_rep, _ = es_tests(y, np.full(T, mu), np.full(T, delta), 0.05)
        counts["ues"] += u_rep.reject
    for name, n_reject in counts.items():
        rate = n_reject / 500
        assert 0.02 <= rate <= 0.08, (name, rate)


# -- p-values -----------------------------------------------------------------


def _hits(n, rate, seed):
    return (np.random.default_rng(seed).uniform(size=n) < rate).astype(float)


@pytest.mark.parametrize(
    "hits",
    [np.r_[np.ones(5), np.zeros(95)], _hits(400, 0.055, 87), _hits(400, 0.3, 88)],
    ids=["zero", "small", "large"],
)
def test_chi2_p_values_equal_the_scipy_stats_ones(hits):
    uc, cc, dq = lr_uc(hits, 0.05), lr_cc(hits, 0.05), dq_test(hits, 0.05)
    assert all(isinstance(rep, backtests.TestReport) for rep in (uc, cc, dq))
    assert (uc.df, cc.df, dq.df) == (1, 2, 4)
    for rep in (uc, cc, dq):
        assert rep.p_value == float(stats.chi2.sf(rep.statistic, rep.df))
    if hits.mean() == 0.05:  # the exact rate: a zero statistic has p-value one
        assert uc.statistic == 0.0 and uc.p_value == 1.0


@pytest.mark.parametrize("df", [1, 2, 4])
def test_chi2_survival_at_zero_small_and_large_statistics(df):
    # the statistics the reports never hit exactly, taken straight to the function
    for x in (0.0, 1e-12, 1e-3, 0.7, 3.84, 9.49, 60.0, 800.0, 1e4):
        assert float(special.chdtrc(df, x)) == float(stats.chi2.sf(x, df))


@pytest.mark.parametrize("seed, shift", [(89, 0.0), (90, 0.4), (91, -3.0)])
def test_es_p_values_equal_the_scipy_stats_ones(seed, shift):
    rng = np.random.default_rng(seed)
    y = _al_draws(rng, 300, -0.5, 0.1, 0.8) + shift
    u_rep, c_rep = es_tests(y, np.full(300, -0.5), np.full(300, 0.8), 0.1)
    assert u_rep.p_value == float(2.0 * stats.norm.sf(abs(u_rep.statistic)))
    assert c_rep.p_value == float(stats.chi2.sf(c_rep.statistic, 4))


@pytest.mark.parametrize(
    "a, b",
    [
        (np.random.default_rng(92).normal(size=200), np.random.default_rng(93).normal(size=200)),
        (np.zeros(100), -np.random.default_rng(94).normal(0.5, 1.0, 100)),
        (np.full(50, 0.3), np.zeros(50)),
        (np.zeros(50), np.full(50, 0.3)),
    ],
    ids=["noise", "shifted", "plus-inf", "minus-inf"],
)
def test_dm_p_values_equal_the_scipy_stats_ones(a, b):
    report = dm_test(a, b)
    assert report.p_value == float(stats.norm.cdf(report.statistic))
    if report.degenerate:
        assert abs(report.statistic) == math.inf
        assert report.p_value == (1.0 if report.statistic > 0 else 0.0)
