"""Conditional quantile and expected-shortfall recursions.

Three quantile updates driven by lagged returns (symmetric absolute value,
asymmetric slope, indirect GARCH with the negative root) and two shortfall
links (a multiplicative factor below the quantile, and an autoregressive
offset that widens after violations, both after Taylor 2019, JBES 37).
Paths are plain arrays indexed like the input series: entry t is the
one-step forecast made with information through t-1, with entry 0 pinned
to the supplied initial state.

Every quantile recursion is a first-order linear filter (in q for the two
slope kinds, in q^2 for indirect GARCH), and so is each derivative of the
path with respect to a coefficient; :func:`filter_path` runs them through
``scipy.signal.lfilter``. The shortfall offset only changes after
violations, so its recursion is a filter over those indices alone.
:func:`risk_step` takes the same rules one period at a time, for the
forecast and the simulator.

This module is the one path evaluator: :func:`filter_path` gives a quantile
path and :func:`scale_path` the MAL scale delta = tau (0 - es) of either
link, each with its derivatives on request. :func:`risk_path` bundles the
two for one series, and the estimator builds its panels and block
gradients from the same two functions, so a fitted parameter set means the
same paths everywhere. Everything here is a pure function of its
arguments, so paths are reproducible bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .exceptions import PathError, ValidationError

SAV = "sav"
AS = "as"
IG = "ig"
MULT = "mult"
AR = "ar"

KINDS = (SAV, AS, IG)
LINKS = (MULT, AR)

__all__ = [
    "SAV",
    "AS",
    "IG",
    "MULT",
    "AR",
    "CaviarSpec",
    "ESLink",
    "RiskPath",
    "quantile_step",
    "quantile_path",
    "filter_path",
    "ar_offset",
    "scale_path",
    "shortfall",
    "risk_path",
    "risk_step",
    "one_step_forecast",
    "initial_quantile",
    "initial_es_offset",
]


@dataclass(frozen=True)
class CaviarSpec:
    """Quantile recursion coefficients for one series.

    ``beta`` has two entries for the asymmetric-slope kind (positive part,
    negative part) and one entry otherwise.
    """

    kind: str
    omega: float
    eta: float
    beta: np.ndarray

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown quantile recursion kind {self.kind!r}")
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        expected = 2 if self.kind == AS else 1
        if beta.shape != (expected,):
            raise ValidationError(
                f"kind {self.kind!r} needs {expected} beta coefficient(s)"
            )
        vals = np.array([self.omega, self.eta, *beta], dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValidationError("recursion coefficients must be finite")
        object.__setattr__(self, "omega", float(self.omega))
        object.__setattr__(self, "eta", float(self.eta))
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class ESLink:
    """Expected-shortfall link attached to a quantile path.

    Multiplicative kind: es = (1 + exp(gamma0)) * q, steepening the quantile.
    Autoregressive kind (Taylor 2019): es = q - x, where the offset becomes
    gamma[0] + gamma[1] * (q_prev - y_prev) + gamma[2] * x_prev after a
    violation y_prev <= q_prev and carries over otherwise; ``x0`` seeds it.
    The gap q_prev - y_prev is then non-negative, so gamma >= 0 and x0 >= 0
    keep x >= 0. ``factor`` is the multiplicative link's 1 + exp(gamma0),
    derived once when the link is built (None for the autoregressive link).
    """

    kind: str
    gamma0: float = 0.0
    gamma: np.ndarray = None
    x0: float = 0.0

    def __post_init__(self):
        if self.kind not in LINKS:
            raise ValidationError(f"unknown shortfall link kind {self.kind!r}")
        if self.kind == MULT:
            if not np.isfinite(self.gamma0):
                raise ValidationError("gamma0 must be finite")
            object.__setattr__(self, "gamma0", float(self.gamma0))
            object.__setattr__(self, "gamma", None)
            object.__setattr__(self, "factor", float(1.0 + np.exp(self.gamma0)))
        else:
            gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float))
            if gamma.shape != (3,):
                raise ValidationError("autoregressive link needs 3 gamma coefficients")
            if np.any(gamma < 0.0) or not np.all(np.isfinite(gamma)):
                raise ValidationError("gamma coefficients must be finite and >= 0")
            if not np.isfinite(self.x0) or self.x0 < 0.0:
                raise ValidationError("x0 must be finite and >= 0")
            object.__setattr__(self, "gamma", gamma)
            object.__setattr__(self, "x0", float(self.x0))
            object.__setattr__(self, "factor", None)

    @property
    def coef(self):
        """The natural coefficients :func:`scale_path` takes: gamma0 for the
        multiplicative link, the gamma vector for the autoregressive one."""
        return self.gamma0 if self.kind == MULT else self.gamma


@dataclass(frozen=True)
class RiskPath:
    """Aligned per-period quantile, shortfall, scale and offset paths."""

    quantile: np.ndarray
    es: np.ndarray
    delta: np.ndarray
    x: np.ndarray = None


_UNIT = (1.0,)  # numerator of every filter: the input enters undelayed


def _regressors(kind, y):
    """Lagged-return inputs of the recursion, one per beta: entry t-1
    drives step t."""
    prev = y[:-1]
    if kind == SAV:
        return (np.abs(prev),)
    if kind == AS:
        return (np.maximum(prev, 0.0), np.maximum(-prev, 0.0))
    return (prev * prev,)


def filter_path(kind, coef, y, q0, jacobian=False):
    """Quantile path of one recursion along ``y`` and optionally its Jacobian.

    ``coef`` is (omega, eta, *beta). Each kind is the linear filter
    s_t = omega + eta s_{t-1} + beta'r_{t-1} with s = q (SAV, AS) or s = q^2
    and q = -sqrt(s) (IG). The derivative of s with respect to each
    coefficient is the same filter driven by 1, s_{t-1} or a regressor
    column, so the whole Jacobian is a single ``lfilter`` call.

    Returns ``(q, dq)`` with dq of shape (T, len(coef)) and row 0 zero, or
    None without ``jacobian``. Raises :class:`PathError` carrying the first
    index with a non-positive IG radicand or a non-finite quantile.
    """
    omega, eta = coef[0], coef[1]
    reg = _regressors(kind, y)
    ar = (1.0, -eta)
    # the filter's first output is its first input, so the state seeds row 0
    s = np.empty(y.size)
    s[0] = q0 * q0 if kind == IG else q0
    s[1:] = omega
    for beta, r in zip(coef[2:], reg):
        s[1:] += beta * r
    s = lfilter(_UNIT, ar, s)
    if kind == IG:
        bad = np.flatnonzero(s[1:] <= 0.0)
        if bad.size:
            raise PathError(
                "non-positive radicand in indirect-GARCH path", index=int(bad[0]) + 1
            )
        q = np.empty(y.size)
        q[0] = q0
        q[1:] = -np.sqrt(s[1:])
    else:
        q = s
    finite = np.isfinite(q)
    if not finite.all():
        raise PathError("quantile path diverged", index=int(np.argmin(finite)))
    if not jacobian:
        return q, None
    drive = np.zeros((y.size, 2 + len(reg)))
    drive[1:, 0] = 1.0
    drive[1:, 1] = s[:-1]
    for i, r in enumerate(reg, start=2):
        drive[1:, i] = r
    dq = lfilter(_UNIT, ar, drive, axis=0)
    if kind == IG:
        # q = -sqrt(s), so dq = ds / (2 q)
        dq[1:] /= 2.0 * q[1:, None]
    return q, dq


def ar_offset(gamma, q, y, x0, grad=False):
    """Autoregressive shortfall offset and optionally its derivatives.

    After a violation y_{t-1} <= q_{t-1} the offset becomes
    g1 + g2 (q_{t-1} - y_{t-1}) + g3 x_{t-1}; otherwise it carries over
    (Taylor 2019). So the recursion is one first-order filter over the
    violations, forward-filled in between. Under ``grad`` also returns dx
    of shape (T, 3), the derivative with respect to (g1, g2, g3); else
    None. The violation indicator is treated as locally constant in the
    parameters (it changes on a measure-zero set).
    """
    hit = np.flatnonzero(y[:-1] <= q[:-1])
    gap = q[hit] - y[hit]
    g1, g2, g3 = gamma
    ar = (1.0, -g3)
    # the filter's first output is its first input, so x0 seeds row 0
    xv = lfilter(_UNIT, ar, np.concatenate(([x0], g1 + g2 * gap)))
    # slot[t]: how many violations happened before t, i.e. the row of xv in force
    slot = np.zeros(y.size, dtype=np.intp)
    slot[hit + 1] = np.arange(1, hit.size + 1)
    np.maximum.accumulate(slot, out=slot)
    x = xv[slot]
    if not grad:
        return x, None
    drive = np.zeros((hit.size + 1, 3))
    drive[1:] = np.column_stack((np.ones(hit.size), gap, xv[:-1]))
    return x, lfilter(_UNIT, ar, drive, axis=0)[slot]


def quantile_step(spec, q_prev, y_prev):
    """One recursion step: the quantile for the next period.

    The terms are added in :func:`filter_path`'s order, (omega + beta'r) +
    eta s, so a SAV or AS step equals the path's next row bit for bit. IG
    steps from q rather than the path's radicand s, so it agrees within 2 ulp.
    """
    if spec.kind == SAV:
        return spec.omega + spec.beta[0] * abs(y_prev) + spec.eta * q_prev
    if spec.kind == AS:
        pos, neg = spec.beta[0] * max(y_prev, 0.0), spec.beta[1] * max(-y_prev, 0.0)
        return spec.omega + pos + neg + spec.eta * q_prev
    rad = spec.omega + spec.beta[0] * (y_prev * y_prev) + spec.eta * (q_prev * q_prev)
    if rad <= 0.0:
        raise PathError("negative radicand in indirect-GARCH step")
    return -np.sqrt(rad)


def quantile_path(spec, y, q0):
    """Full quantile path along ``y`` starting from ``q0``."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValidationError("returns must be a non-empty vector")
    return filter_path(spec.kind, (spec.omega, spec.eta, *spec.beta), y, float(q0))[0]


def scale_path(kind, gamma, q, y, tau, x0=0.0, grad=False):
    """MAL scale path delta = tau (0 - es) of a shortfall link along ``q``.

    ``gamma`` is the link's natural coefficient: gamma0 for the
    multiplicative link, delta = -tau (1 + exp(gamma0)) q with gamma0 capped
    at 60; the vector (g1, g2, g3) for the autoregressive one,
    delta = -tau (q - x) with the offset x of :func:`ar_offset` seeded by
    ``x0``. Returns ``(delta, x, ddelta)``: x is None for the multiplicative
    link, and ``ddelta`` is the (T, len(gamma)) derivative with respect to
    gamma under ``grad``, else None. Raises :class:`PathError` carrying the
    first index with a non-positive scale.
    """
    if kind == MULT:
        g = math.exp(min(gamma, 60.0))
        delta, x = -tau * (1.0 + g) * q, None
    else:
        x, dx = ar_offset(gamma, q, y, x0, grad)
        delta = -tau * (q - x)
    positive = delta > 0.0
    if not positive.all():
        raise PathError(
            "shortfall path implies a non-positive scale", index=int(np.argmin(positive))
        )
    if not grad:
        return delta, x, None
    if kind == MULT:
        return delta, x, (-tau * g * q)[:, None]
    return delta, x, tau * dx


def shortfall(link, q, x):
    """Expected shortfall of ``link`` at quantile ``q`` and offset ``x``
    (ignored by the multiplicative link); elementwise on arrays."""
    return link.factor * q if link.kind == MULT else q - x


def risk_path(spec, link, y, q0, tau):
    """Quantile, shortfall and scale paths bundled for one series."""
    y = np.asarray(y, dtype=float)
    q = quantile_path(spec, y, q0)
    delta, x, _ = scale_path(link.kind, link.coef, q, y, tau, link.x0)
    return RiskPath(quantile=q, es=shortfall(link, q, x), delta=delta, x=x)


def risk_step(spec, link, q, y, x):
    """One period of the paths: (q, y, x) of period t to (q, es, x) of t+1.

    The same rules as :func:`risk_path`, the offset updating when y <= q.
    ``x`` is the autoregressive offset and passes through the
    multiplicative link unchanged.
    """
    q_next = quantile_step(spec, q, y)
    if link.kind == AR and y <= q:
        g1, g2, g3 = link.gamma
        x = g1 + g2 * (q - y) + g3 * x
    return q_next, shortfall(link, q_next, x), x


def one_step_forecast(spec, link, q_last, y_last, x_last=0.0):
    """Out-of-sample one-step quantile and shortfall from the last
    in-sample quantile, return and offset: :func:`risk_step` without the
    offset. The offset moves on the last in-sample violation (Taylor 2019),
    so the forecast follows the rule of the in-sample path: from row T-1 of
    :func:`risk_path` it equals row T, exactly for SAV and AS and within
    2 ulp for IG, whose path carries the radicand rather than q."""
    return risk_step(spec, link, q_last, y_last, x_last)[:2]


def initial_quantile(y, tau, frac=0.1, min_obs=50):
    """Empirical tau-quantile of the leading segment of the sample: the
    order statistics around (n - 1) tau from one partition, blended as
    ``np.quantile``'s linear method blends them, so equal to it bit for bit."""
    y = np.asarray(y, dtype=float)
    n = min(y.size, max(int(np.ceil(frac * y.size)), min_obs))
    if not 0.0 <= tau <= 1.0:
        raise ValidationError("tau must lie in [0, 1]")
    v = (n - 1) * float(tau)
    # at the top numpy blends the maximum with itself, at weight v - (-1)
    lo, hi = (int(v), int(v) + 1) if v < n - 1 else (-1, -1)
    part = np.partition(y[:n], (lo, hi, n - 1))
    if np.isnan(part[-1]):
        return float(part[-1])
    a, b, g = float(part[lo]), float(part[hi]), v - lo
    return a + (b - a) * g if g < 0.5 else b - (b - a) * (1.0 - g)


def initial_es_offset(y, q0, frac=0.1, min_obs=50):
    """Mean exceedance below ``q0`` over the leading segment, floored at 0."""
    y = np.asarray(y, dtype=float)
    n = min(y.size, max(int(np.ceil(frac * y.size)), min_obs))
    head = y[:n]
    exceed = q0 - head[head < q0]
    if exceed.size == 0:
        return 0.0
    return float(max(np.mean(exceed), 0.0))
