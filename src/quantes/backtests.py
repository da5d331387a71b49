"""Coverage, independence and shortfall backtests, plus forecast comparison.

The battery covers the standard one-sided-tail checks: unconditional
coverage and first-order-Markov conditional coverage likelihood ratios,
a dynamic quantile regression test on lagged violations, the cumulative-
violation pair of shortfall tests built on the probability integral
transform of the fitted asymmetric Laplace marginal, and a long-run-
variance corrected comparison of two loss series.

Critical values are held fixed at the conventional 5% points (3.84, 5.99,
9.49 for the chi-square families, 1.96 two-sided and -1.645 one-sided for
the normal ones) rather than recomputed, so reports are comparable across
runs; p-values carry the continuous version of the same information. The
lag count ``N_LAGS`` of the dynamic quantile and conditional shortfall tests
is fixed with them, so 9.49 is the 5% point at every such report's df.
Every chi-square report is built by ``_chi2_report``, the one place that
maps a df to its critical value and states the rejection rule.

All statistics use the convention 0 * log 0 = 0 where empty cells make a
likelihood term vanish.
"""

import math
from dataclasses import dataclass

import numpy as np
# chdtrc and ndtr: what scipy.stats' chi2.sf and norm.sf/cdf evaluate, unwrapped
from scipy import special

from .exceptions import NumericError, ValidationError
from .mal import al_cdf

__all__ = [
    "TestReport",
    "lr_uc",
    "lr_cc",
    "dq_test",
    "es_tests",
    "dm_test",
]

N_LAGS = 4  # lagged hits of dq_test, autocorrelations of es_tests' conditional test
CHI2_1 = 3.84
CHI2_2 = 5.99
CHI2_4 = 9.49
TWO_SIDED_Z = 1.96
ONE_SIDED_Z = -1.645


@dataclass(frozen=True)
class TestReport:
    """One test outcome.

    ``reject`` is a pure function of the statistic and the critical value:
    statistic above the critical value for the chi-square tests (built by
    ``_chi2_report``, the rule's one statement for them), absolute
    statistic above it for the two-sided shortfall test, statistic below
    it for the one-sided comparison test. ``degenerate`` marks reports
    whose statistic could not be computed from the data as given;
    ``low_power`` marks shortfall tests run with under five expected
    violations.
    """

    statistic: float
    critical_value: float
    p_value: float
    reject: bool
    df: int = None
    degenerate: bool = False
    low_power: bool = False


def _as_hits(hits):
    hits = np.asarray(hits)
    if hits.ndim != 1 or hits.size == 0:
        raise ValidationError("hits must be a non-empty vector")
    hits = hits.astype(float)
    if not np.all((hits == 0.0) | (hits == 1.0)):
        raise ValidationError("hits must be binary")
    return hits


def _bernoulli_loglik(n0, n1):
    """Maximized log-likelihood of n0 zeros and n1 ones; 0 for no draws."""
    if n0 + n1 == 0:
        return 0.0
    p = n1 / (n0 + n1)  # below 1 when n0 > 0 and above 0 when n1 > 0
    return (n0 * math.log(1.0 - p) if n0 else 0.0) + (n1 * math.log(p) if n1 else 0.0)


_CRITICAL = {1: CHI2_1, 2: CHI2_2, N_LAGS: CHI2_4}


def _chi2_report(stat, df, degenerate=False, low_power=False):
    """Reject when ``stat`` exceeds the 5% point at ``df``; ``stat = inf``
    marks a degenerate report, which reads p-value 0 and rejects."""
    critical = _CRITICAL[df]
    return TestReport(
        statistic=stat,
        critical_value=critical,
        p_value=float(special.chdtrc(df, stat)),
        reject=stat > critical,
        df=df,
        degenerate=degenerate,
        low_power=low_power,
    )


def _acf(x, n_lags):
    """Sample autocorrelations at lags 1..n_lags about the sample mean."""
    x = x - x.mean()
    denom = float(x @ x)
    if denom <= 0.0:
        raise NumericError("zero variance in autocorrelation input")
    return np.array([float(x[k:] @ x[:-k]) / denom for k in range(1, n_lags + 1)])


def lr_uc(hits, tau):
    """Unconditional coverage likelihood ratio against hit rate ``tau``."""
    hits = _as_hits(hits)
    tau = float(tau)
    if not 0.0 < tau < 1.0:
        raise ValidationError("tau must lie strictly inside (0, 1)")
    n = hits.size
    n1 = float(hits.sum())
    n0 = n - n1
    pi_hat = n1 / n
    # ratio form keeps the statistic exactly zero when the hit rate lands on tau
    stat = 0.0
    if n1 > 0.0:
        stat += n1 * math.log(tau / pi_hat)
    if n0 > 0.0:
        stat += n0 * math.log((1.0 - tau) / (1.0 - pi_hat))
    return _chi2_report(max(-2.0 * stat, 0.0), 1)


def lr_cc(hits, tau):
    """Conditional coverage: unconditional ratio plus Markov independence."""
    hits = _as_hits(hits)
    if hits.size < 2:
        raise ValidationError("conditional coverage needs at least two periods")
    prev, curr = hits[:-1], hits[1:]
    n00, n01, n10, n11 = (
        float(np.sum((prev == i) & (curr == j))) for i in (0, 1) for j in (0, 1)
    )
    # the counts are integer-valued floats, so any grouping of their sums is exact
    ll_pooled = _bernoulli_loglik(n00 + n10, n01 + n11)
    ll_markov = _bernoulli_loglik(n00, n01) + _bernoulli_loglik(n10, n11)
    lr_ind = max(-2.0 * (ll_pooled - ll_markov), 0.0)
    return _chi2_report(lr_uc(hits, tau).statistic + lr_ind, 2)


def dq_test(hits, tau):
    """Dynamic quantile regression test on lagged violations.

    Regresses the demeaned hit on a constant and ``N_LAGS`` lagged hit
    indicators and applies a Wald test to the lag coefficients alone. The
    regressor set is deliberately limited to lagged hits so the chi-square
    reference with ``N_LAGS`` degrees of freedom applies.
    """
    hits = _as_hits(hits)
    tau = float(tau)
    n = hits.size
    if n <= N_LAGS + 4:
        raise ValidationError("series too short for the lag structure")

    dep = hits[N_LAGS:] - tau
    lags = [hits[N_LAGS - k : n - k] for k in range(1, N_LAGS + 1)]
    x = np.column_stack([np.ones(n - N_LAGS)] + lags)
    xtx = x.T @ x
    if np.linalg.matrix_rank(xtx) < x.shape[1]:
        return _chi2_report(math.inf, N_LAGS, degenerate=True)
    xtx_inv = np.linalg.inv(xtx)
    beta = xtx_inv @ (x.T @ dep)
    cov_lags = tau * (1.0 - tau) * xtx_inv[1:, 1:]
    b = beta[1:]
    return _chi2_report(float(b @ np.linalg.solve(cov_lags, b)), N_LAGS)


def es_tests(y, var, scale, tau):
    """Cumulative-violation shortfall tests for one asset.

    The probability integral transform u_t comes from the fitted
    asymmetric Laplace marginal with location ``var`` and scale path
    ``scale``. The unconditional statistic compares the mean cumulative
    violation against its null value tau/2 using the exact null standard
    deviation sqrt(tau(1/3 - tau/4)); the conditional statistic is a
    Box-Pierce sum over the first ``N_LAGS`` autocorrelations of the
    cumulative violations. Returns ``(unconditional, conditional)``.
    """
    y, var, scale = (np.asarray(a, dtype=float) for a in (y, var, scale))
    tau = float(tau)
    if y.ndim != 1 or y.shape != var.shape or y.shape != scale.shape:
        raise ValidationError("y, var and scale must be aligned vectors")
    if y.size <= N_LAGS:
        raise ValidationError("series too short for the lag structure")
    low_power = tau * y.size < 5.0

    u = al_cdf(y, var, tau, scale)
    h = (tau - u) / tau * (u <= tau)
    t = float(y.size)
    sd0 = math.sqrt(tau * (1.0 / 3.0 - tau / 4.0))
    u_stat = math.sqrt(t) * (float(h.mean()) - tau / 2.0) / sd0
    u_report = TestReport(
        statistic=u_stat,
        critical_value=TWO_SIDED_Z,
        p_value=float(2.0 * special.ndtr(-abs(u_stat))),
        reject=abs(u_stat) > TWO_SIDED_Z,
        low_power=low_power,
    )

    try:
        rhos = _acf(h, N_LAGS).tolist()
    except NumericError:  # zero variance in the cumulative violations
        return u_report, _chi2_report(math.inf, N_LAGS, degenerate=True, low_power=low_power)
    acf_sq = 0.0
    for rho in rhos:
        acf_sq += rho**2  # float pow in lag order; numpy's rho * rho can differ by 1 ulp
    return u_report, _chi2_report(t * acf_sq, N_LAGS, low_power=low_power)


def dm_test(score_a, score_b):
    """One-sided comparison of two loss series (negative favors the first).

    The statistic is the mean loss difference studentized by a Bartlett
    long-run variance with lag floor(T^(1/3)); the null of equal accuracy
    is rejected in favor of the first series when the statistic falls
    below -1.645. Swapping the inputs negates the statistic exactly.
    """
    a, b = (np.asarray(s, dtype=float) for s in (score_a, score_b))
    if a.ndim != 1 or a.shape != b.shape:
        raise ValidationError("score series must be aligned vectors")
    t = a.size
    if t < 10:
        raise ValidationError("comparison needs at least ten periods")
    d = a - b
    dev = d - d.mean()
    lag = int(math.floor(t ** (1.0 / 3.0)))
    lrv = float(dev @ dev) / t
    for k in range(1, lag + 1):
        weight = 1.0 - k / (lag + 1.0)
        lrv += 2.0 * weight * float(dev[k:] @ dev[:-k]) / t
    # a constant differential leaves only rounding residue in dev; treat it
    # as zero variance rather than studentizing by float noise
    scale = max(1.0, float(np.max(np.abs(d))))
    degenerate = bool(lrv <= 0.0 or np.max(np.abs(dev)) <= 1e-12 * scale)
    mean = float(d.mean())
    if degenerate:
        stat = 0.0 if mean == 0.0 else math.copysign(math.inf, mean)
    else:
        stat = mean / math.sqrt(lrv / t)
    return TestReport(
        statistic=stat,
        critical_value=ONE_SIDED_Z,
        p_value=float(special.ndtr(stat)),
        reject=stat < ONE_SIDED_Z,
        degenerate=degenerate,
    )
