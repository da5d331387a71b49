"""Conditional quantile and expected-shortfall recursions.

Three quantile updates driven by lagged returns (symmetric absolute value,
asymmetric slope, indirect GARCH with the negative root) and two shortfall
links (a multiplicative factor below the quantile, and an autoregressive
offset that widens after violations, both after Taylor 2019, JBES 37).
Paths are plain arrays indexed like the input series: entry t is the
one-step forecast made with information through t-1, with entry 0 pinned
to the supplied initial state.

Every quantile recursion is a first-order linear recursion
s_t = c_t + eta s_{t-1} (in q for the two slope kinds, in q^2 for indirect
GARCH), and so is each derivative of the path with respect to a
coefficient. :func:`_recurse` solves one as a bidiagonal system with a
single LAPACK ``dgttrs`` call, every column of a Jacobian at once. Each row
costs one product and one sum, rounded as a Python loop rounds them, so a
path equals the loop bit for bit; that holds while the LAPACK build does
not fuse the two into one multiply-add, and tests/test_kernels.py guards
it. The shortfall offset only changes after violations, so its recursion
runs over those indices alone. :func:`risk_step` takes the same rules one
period at a time for the forecast; the simulator writes them out inline.

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
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dgttrs

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
    negative part) and one entry otherwise. ``coef`` is (omega, eta, *beta)
    as a tuple of Python floats, derived once when the spec is built, so a
    :func:`quantile_step` on float inputs stays off numpy scalars.
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
        object.__setattr__(self, "coef", (self.omega, self.eta, *beta.tolist()))


@dataclass(frozen=True)
class ESLink:
    """Expected-shortfall link attached to a quantile path.

    Multiplicative kind: es = (1 + exp(gamma0)) * q, steepening the quantile.
    Autoregressive kind (Taylor 2019): es = q - x, where the offset becomes
    gamma[0] + gamma[1] * (q_prev - y_prev) + gamma[2] * x_prev after a
    violation y_prev <= q_prev and carries over otherwise; ``x0`` seeds it.
    The gap q_prev - y_prev is then non-negative, so gamma >= 0 and x0 >= 0
    keep x >= 0. Two values are derived once when the link is built:
    ``factor``, the multiplicative link's 1 + exp(gamma0) (None for the
    autoregressive link), and ``coef``, the natural coefficients
    :func:`scale_path` takes: gamma0 for the multiplicative link, the gamma
    vector as a tuple of Python floats for the autoregressive one.
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
            object.__setattr__(self, "coef", self.gamma0)
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
            object.__setattr__(self, "coef", tuple(gamma.tolist()))


@dataclass(frozen=True)
class RiskPath:
    """Aligned per-period quantile, shortfall, scale and offset paths."""

    quantile: np.ndarray
    es: np.ndarray
    delta: np.ndarray
    x: np.ndarray = None


def _regressors(kind, prev):
    """Inputs of the recursion, one per beta, from the lagged returns
    ``prev``: the return of period t-1 drives step t."""
    if kind == SAV:
        return (np.abs(prev),)
    if kind == AS:
        return (np.maximum(prev, 0.0), np.maximum(-prev, 0.0))
    return (prev * prev,)


@lru_cache(maxsize=32)
def _unit_factor(m):
    """The fixed part of the m-row factorization that :func:`_recurse`
    hands to ``dgttrs``, read-only: the zero multipliers of the lower
    factor and the zero second superdiagonal of the upper one (one buffer),
    the upper factor's unit diagonal, and identity pivots."""
    zeros, ones = np.zeros(m - 1), np.ones(m)
    pivots = np.arange(1, m + 1, dtype=np.int32)
    for a in (zeros, ones, pivots):
        a.flags.writeable = False
    return zeros, ones, zeros[1:], pivots


def _recurse(rev, eta):
    """Solve s_t = c_t + eta s_{t-1} down axis 0 of the drive c, given as
    ``rev``: its rows in reverse time order, 1-D or (rows, k) in Fortran
    order. Returns s in the same reversed layout.

    One LAPACK ``dgttrs`` call on a hand-built factorization: the identity
    as lower factor, then the unit upper-bidiagonal factor with
    superdiagonal -eta, whose back substitution runs the recursion from the
    last row (the first period) up. Row t computes
    (c_t - (-eta) s_{t-1} - 0 s_{t-2}) / 1: one product and one sum,
    rounded as a loop rounds them, then an exact subtraction and division.
    So s equals the loop bit for bit while the LAPACK build does not fuse
    the product into the sum (tests/test_kernels.py checks it). A path
    that overflows cannot reach back: every row up to one past its first
    non-finite row equals the loop's, and the rows after it are non-finite
    too. A non-finite drive row would reach back, through the identity
    pass, to the first period, so its column is solved again: the rows
    before it alone, that row as c_t + eta s_{t-1}, and NaN after it.
    """
    m = rev.shape[0]
    if m < 3:
        # the wrapper rejects fewer than 3 rows: pad zero rows at the late end
        pad = np.zeros((3 - m,) + rev.shape[1:])
        return _recurse(np.concatenate((pad, rev)), eta)[3 - m :]
    zeros, ones, zeros2, pivots = _unit_factor(m)
    du = np.empty(m - 1)
    du.fill(-eta)
    s = dgttrs(zeros, ones, du, zeros2, pivots, rev)[0]
    # each column's first-period row is its drive's unless a later row
    # reached back
    first = s[-1]
    if (math.isfinite(first) if s.ndim == 1 else np.isfinite(first).all()):
        return s
    for c, out in zip(rev.reshape(m, -1).T, s.reshape(m, -1).T):
        bad = np.flatnonzero(~np.isfinite(c))
        if bad.size:
            i = bad[-1]  # the column's first non-finite drive row in time
            out[i + 1 :] = _recurse(c[i + 1 :], eta)
            with np.errstate(over="ignore", invalid="ignore"):
                out[i] = c[i] + eta * out[i + 1] if i + 1 < m else c[i]
            out[:i] = np.nan
    return s


def filter_path(kind, coef, y, q0, jacobian=False):
    """Quantile path of one recursion along ``y`` and optionally its Jacobian.

    ``coef`` is (omega, eta, *beta). Each kind is the linear recursion
    s_t = omega + eta s_{t-1} + beta'r_{t-1} with s = q (SAV, AS) or s = q^2
    and q = -sqrt(s) (IG), solved by :func:`_recurse`. The derivative of s
    with respect to each coefficient is the same recursion driven by 1,
    s_{t-1} or a regressor column, so the whole Jacobian is one more solve
    with one column per coefficient.

    Returns ``(q, dq)``: q a C-contiguous array, and dq of shape
    (T, len(coef)) with row 0 zero, or None without ``jacobian``. dq is the
    solver's Fortran-order buffer seen with its rows put back in time
    order, so a caller that stacks it copies it once. Raises
    :class:`PathError` carrying the first index with a non-positive IG
    radicand or a non-finite quantile.
    """
    omega, eta = coef[0], coef[1]
    # the drives are built in the solver's reverse time order: row i holds
    # period T-1-i, so the lagged returns run y[T-2], ..., y[0]
    reg = _regressors(kind, y[-2::-1])
    # the recursion's first row is its first input, so the state seeds it
    rev = np.empty(y.size)
    rev[-1] = q0 * q0 if kind == IG else q0
    # omega + beta'r in place, summed left to right (the first sum commuted)
    steps = rev[:-1]
    np.multiply(coef[2], reg[0], out=steps)
    steps += omega
    for beta, r in zip(coef[3:], reg[1:]):
        steps += beta * r
    srev = _recurse(rev, eta)
    s = srev[::-1]
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
        q = s.copy()
    finite = np.isfinite(q)
    if not finite.all():
        raise PathError("quantile path diverged", index=int(np.argmin(finite)))
    if not jacobian:
        return q, None
    # one row per coefficient, so drive.T is the Fortran-order (T, n) drive
    # that dgttrs takes without a transposing copy
    drive = np.empty((2 + len(reg), y.size))
    drive[:, -1] = 0.0
    drive[0, :-1] = 1.0
    drive[1, :-1] = srev[1:]
    for i, r in enumerate(reg, start=2):
        drive[i, :-1] = r
    dq = _recurse(drive.T, eta)[::-1]
    if kind == IG:
        # q = -sqrt(s), so dq = ds / (2 q)
        dq[1:] /= 2.0 * q[1:, None]
    return q, dq


def ar_offset(gamma, q, y, x0, grad=False):
    """Autoregressive shortfall offset and optionally its derivatives.

    After a violation y_{t-1} <= q_{t-1} the offset becomes
    g1 + g2 (q_{t-1} - y_{t-1}) + g3 x_{t-1}; otherwise it carries over
    (Taylor 2019). So the offset is one first-order recursion over the
    violations (:func:`_recurse`), forward-filled in between. Under
    ``grad`` also returns dx of shape (T, 3), the derivative with respect
    to (g1, g2, g3); else None. The violation indicator is treated as
    locally constant in the parameters (it changes on a measure-zero set).
    """
    # the latest violation first, in the solver's reverse order
    back = np.flatnonzero(y[:-1] <= q[:-1])[::-1]
    gap = q[back] - y[back]
    g1, g2, g3 = gamma
    # the recursion's first row is its first input, so x0 seeds it
    rev = np.empty(back.size + 1)
    rev[-1] = x0
    rev[:-1] = g1 + g2 * gap
    xrev = _recurse(rev, g3)
    # slot[t]: how many violations happened before t, i.e. the row in force
    # counted from the first period
    slot = np.zeros(y.size, dtype=np.intp)
    slot[back + 1] = np.arange(back.size, 0, -1)
    np.maximum.accumulate(slot, out=slot)
    x = xrev[::-1][slot]
    if not grad:
        return x, None
    drive = np.empty((3, back.size + 1))
    drive[:, -1] = 0.0
    drive[0, :-1] = 1.0
    drive[1, :-1] = gap
    drive[2, :-1] = xrev[1:]
    return x, _recurse(drive.T, g3)[::-1][slot]


def quantile_step(spec, q_prev, y_prev):
    """One recursion step: the quantile for the next period.

    The terms are added in :func:`filter_path`'s order, (omega + beta'r) +
    eta s, so a SAV or AS step equals the path's next row bit for bit. IG
    steps from q rather than the path's radicand s, so it agrees within 2 ulp.
    """
    if spec.kind == SAV:
        omega, eta, beta = spec.coef
        return omega + beta * abs(y_prev) + eta * q_prev
    if spec.kind == AS:
        omega, eta, beta1, beta2 = spec.coef
        return omega + beta1 * max(y_prev, 0.0) + beta2 * max(-y_prev, 0.0) + eta * q_prev
    omega, eta, beta = spec.coef
    rad = omega + beta * (y_prev * y_prev) + eta * (q_prev * q_prev)
    if rad <= 0.0:
        raise PathError("non-positive radicand in indirect-GARCH step")
    return -math.sqrt(rad)


def quantile_path(spec, y, q0):
    """Full quantile path along ``y`` starting from ``q0``."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValidationError("returns must be a non-empty vector")
    return filter_path(spec.kind, spec.coef, y, float(q0))[0]


def scale_path(kind, gamma, q, y, tau, x0=0.0, grad=False):
    """MAL scale path delta = tau (0 - es) of a shortfall link along ``q``.

    ``gamma`` is the link's natural coefficient: gamma0 for the
    multiplicative link, delta = -tau (1 + exp(gamma0)) q with gamma0 capped
    at 60; the vector (g1, g2, g3) for the autoregressive one,
    delta = -tau (q - x) with the offset x of :func:`ar_offset` seeded by
    ``x0``. Returns ``(delta, x, ddelta)``: x is None for the multiplicative
    link, and ``ddelta`` is the (T, len(gamma)) derivative with respect to
    gamma under ``grad``, else None. Raises :class:`PathError` carrying the
    first index with a non-finite or non-positive scale.
    """
    if kind == MULT:
        g = math.exp(min(gamma, 60.0))
        delta, x = -tau * (1.0 + g) * q, None
    else:
        x, dx = ar_offset(gamma, q, y, x0, grad)
        delta = -tau * (q - x)
    # an offset that overflowed leaves delta = +inf, which is no scale either
    ok = np.isfinite(delta) & (delta > 0.0)
    if not ok.all():
        raise PathError(
            "shortfall path implies a non-finite or non-positive scale",
            index=int(np.argmin(ok)),
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
    # simulate._step_column repeats this rule operation for operation;
    # tests/test_simulate.py::test_generate_is_the_per_period_loop_byte_for_byte
    # pins the two byte for byte through reference_generate, which steps here
    q_next = quantile_step(spec, q, y)
    if link.kind == AR and y <= q:
        g1, g2, g3 = link.coef
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


def _seed_segment(y):
    """The leading segment that seeds a path's initial state: the first
    ceil(0.1 n) values, but at least 50 and at most all n."""
    y = np.asarray(y, dtype=float)
    return y[: min(y.size, max(math.ceil(0.1 * y.size), 50))]


def initial_quantile(y, tau):
    """Empirical tau-quantile of the seed segment: the order statistics
    around (n - 1) tau from one partition, blended as ``np.quantile``'s
    linear method blends them, so equal to it bit for bit."""
    head = _seed_segment(y)
    if not 0.0 <= tau <= 1.0:
        raise ValidationError("tau must lie in [0, 1]")
    n = head.size
    v = (n - 1) * float(tau)
    # at the top numpy blends the maximum with itself, at weight v - (-1)
    lo, hi = (int(v), int(v) + 1) if v < n - 1 else (-1, -1)
    part = head.copy()
    part.partition((lo, hi, n - 1))
    if math.isnan(part[-1]):
        return float(part[-1])
    a, b, g = float(part[lo]), float(part[hi]), v - lo
    return a + (b - a) * g if g < 0.5 else b - (b - a) * (1.0 - g)


def initial_es_offset(y, q0):
    """Mean exceedance below ``q0`` over the seed segment, floored at 0."""
    head = _seed_segment(y)
    exceed = q0 - head[head < q0]
    if exceed.size == 0:
        return 0.0
    return float(max(np.mean(exceed), 0.0))
