"""Scoring functions for joint quantile/shortfall forecast evaluation.

Four losses are provided. The joint multivariate log score penalizes a
(VaR, ES) forecast pair through the full correlated likelihood; the two
Fissler-Ziegel style losses need only the per-asset pair and generate loss
differences homogeneous of degree one half and zero respectively, which
makes model comparisons insensitive to the measurement scale of returns;
the asymmetric-Laplace score is the univariate negative log-likelihood
with the shortfall acting as the scale.

Every score is negatively oriented: smaller is better. Shortfall
forecasts must be strictly negative everywhere; the scores are undefined
otherwise and the inputs are rejected.
"""

from dataclasses import dataclass

import numpy as np

from .bessel import log_bessel_k
from .exceptions import DegeneratePointError, ValidationError
from .mal import as_levels, fixed_skew

__all__ = [
    "ForecastRecord",
    "check_forecasts",
    "s_mal",
    "s_fzn",
    "s_fz0",
    "s_al",
    "s_al_sum",
]


@dataclass(frozen=True)
class ForecastRecord:
    """One period's realized returns with the forecasts made for them.

    ``var`` and ``es`` are the per-asset quantile and shortfall forecasts;
    ``es`` must sit at or below ``var`` and strictly below zero, which is
    what the lower-tail levels this package targets always produce.
    """

    t: int
    y: np.ndarray
    var: np.ndarray
    es: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        tau = as_levels(self.tau)
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        var = np.atleast_1d(np.asarray(self.var, dtype=float))
        es = np.atleast_1d(np.asarray(self.es, dtype=float))
        p = tau.size
        if y.shape != (p,) or var.shape != (p,) or es.shape != (p,):
            raise ValidationError("y, var, es and tau must share one length")
        check_forecasts(y, var, es)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "es", es)
        object.__setattr__(self, "tau", tau)

    @property
    def p(self):
        return self.tau.size


def check_forecasts(y, var, es, dates=None, columns=None):
    """Reject the first bad cell of a forecast panel, in date order.

    ``y``, ``var`` and ``es`` are equal-shape (T, p) panels, or (p,) for one
    period. Every cell must be finite with es < 0 and es <= var. With
    ``dates`` and ``columns`` the error names the cell's date and asset.
    """
    ok = np.isfinite(y) & np.isfinite(var) & np.isfinite(es) & (es < 0.0) & (es <= var)
    if ok.all():
        return
    ok, y, var, es = (np.atleast_2d(a) for a in (ok, y, var, es))
    i, j = np.unravel_index(np.argmin(ok), ok.shape)
    if not np.isfinite([y[i, j], var[i, j], es[i, j]]).all():
        reason = "forecast record entries must be finite"
    elif es[i, j] >= 0.0:
        reason = "shortfall forecasts must be strictly negative"
    else:
        reason = "shortfall forecasts cannot exceed the quantile"
    where = "" if dates is None else f"{dates[i]} {columns[j]}: "
    raise ValidationError(where + reason)


def s_mal(record, sigma):
    """Joint negative log score of one record under correlation scale ``sigma``.

    ``sigma`` is the p x p scale-shape matrix of the fitted model (the
    correlation matrix conjugated by the level-implied scale vector). The
    record's shortfalls set the per-asset scale through tau * |es|; the
    sign carried by the shortfall cancels out of every quadratic form and
    flips the linear term, which the formula absorbs, so the score is
    evaluated with the positive scale directly.

    At p = 1 score differences between forecast sets coincide with the
    differences of :func:`s_al`.
    """
    sigma = np.asarray(sigma, dtype=float)
    p = record.p
    if sigma.shape != (p, p):
        raise ValidationError("sigma dimension does not match the record")
    xi = fixed_skew(record.tau)
    delta = record.tau * (0.0 - record.es)

    sigma_inv = np.linalg.inv(sigma)
    sign, logdet = np.linalg.slogdet(sigma)
    if sign <= 0.0:
        raise ValidationError("sigma must be positive definite")

    w = (record.y - record.var) / delta
    lin = float(w @ sigma_inv @ xi)
    maha = float(w @ sigma_inv @ w)
    if maha <= 0.0:
        raise DegeneratePointError("score evaluated exactly at the forecast point")
    skew = float(xi @ sigma_inv @ xi)

    nu = (2.0 - p) / 2.0
    arg = np.sqrt((2.0 + skew) * maha)
    return float(
        0.5 * logdet
        + np.sum(np.log(delta))
        - 0.5 * nu * (np.log(maha) - np.log(2.0 + skew))
        - lin
        - log_bessel_k(nu, arg)
    )


def _require_negative_es(es):
    es = np.asarray(es, dtype=float)
    if np.any(es >= 0.0) or not np.all(np.isfinite(es)):
        raise ValidationError("shortfall forecasts must be strictly negative")
    return es


def s_fzn(q, es, y, tau):
    """Half-homogeneous joint loss, elementwise over broadcastable inputs.

    Scaling (q, es, y) jointly by c > 0 scales loss differences (and this
    particular member, the loss itself) by sqrt(c).
    """
    es = _require_negative_es(es)
    q = np.asarray(q, dtype=float)
    y = np.asarray(y, dtype=float)
    tau = np.asarray(tau, dtype=float)
    hit = (y < q).astype(float)
    root = np.sqrt(-es)
    out = (
        (hit - tau) * q / (2.0 * tau * root)
        - (hit * y / tau - es) / (2.0 * root)
        + root
    )
    return float(out) if out.ndim == 0 else out


def s_fz0(q, es, y, tau):
    """Zero-homogeneous joint loss: differences are scale-invariant."""
    es = _require_negative_es(es)
    q = np.asarray(q, dtype=float)
    y = np.asarray(y, dtype=float)
    tau = np.asarray(tau, dtype=float)
    hit = (y < q).astype(float)
    out = hit * (y - q) / (tau * es) + q / es + np.log(-es) - 1.0
    return float(out) if out.ndim == 0 else out


def s_al(q, es, y, tau):
    """Univariate asymmetric-Laplace log score, elementwise.

    Equals the negative log-likelihood of an asymmetric Laplace with
    location q and scale tau * (0 - es), so averaging it over a forecast
    block reproduces the likelihood comparison of competing (VaR, ES)
    paths one asset at a time.
    """
    es = _require_negative_es(es)
    q = np.asarray(q, dtype=float)
    y = np.asarray(y, dtype=float)
    tau = np.asarray(tau, dtype=float)
    hit = (y < q).astype(float)
    out = -np.log((tau - 1.0) / es) - (y - q) * (tau - hit) / (tau * es)
    return float(out) if out.ndim == 0 else out


def s_al_sum(records):
    """Total asymmetric-Laplace score: summed over assets and records."""
    total = 0.0
    for record in records:
        total += float(
            np.sum(s_al(record.var, record.es, record.y, record.tau))
        )
    return total
