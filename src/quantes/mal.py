"""Multivariate asymmetric Laplace distribution with fixed tail levels.

The distribution is parameterized so that, for a vector of probability
levels tau in (0,1)^p, each marginal's tau_j-quantile sits exactly at the
location mu_j. That pins the skew and scale shape parameters to known
functions of tau; the free parameters are the location vector, a positive
per-coordinate scale vector (the diagonal of D), and a correlation matrix
Psi mixing the coordinates.

The density is evaluated in one place: :class:`_SigmaCache` derives the
Sigma terms (inverse, log-determinant, Sigma^-1 xi, xi' Sigma^-1 xi, the
Bessel order), :func:`_bessel_terms` the Bessel term of a quadratic form,
and :func:`_log_density_rows` turns scaled residuals, their quadratic form
and its Bessel term into row log densities. :func:`mal_log_density`, the
joint score ``scoring.s_mal`` and the EM's likelihood pass in ``estimation``
(which also reads its E-step weights off the Bessel term) all call the
three; each applies its own policy at the pole m = 0.

The terms that depend only on (tau, psi) or on (Sigma, xi, nu) are memoised
per process, keyed on the bytes of those arrays: :func:`_psi_terms` holds the
validated psi, its :class:`MALConstraints` and Sigma, and :func:`_sigma_terms`
the :class:`_SigmaCache` of a Sigma. A forecast or portfolio run changes psi
only at a refit but builds a :class:`MALParams` and scores every period, so
each distinct matrix is validated, inverted and factored once. The shared
arrays are read-only views of immutable bytes. The EM builds its
:class:`_SigmaCache` directly, because its psi moves every iteration and a
memo would only fill with matrices that are never seen again.

All operations treat parameter containers as immutable values; sampling
takes an explicit seeded generator, so everything here is safe to call from
worker processes.
"""

import functools
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import special

from .exceptions import DegeneratePointError, ValidationError
from .linalg import check_correlation, cholesky_with_jitter

__all__ = [
    "as_integer",
    "as_levels",
    "fixed_skew",
    "fixed_scale",
    "MALConstraints",
    "MALParams",
    "ALParams",
    "assemble_sigma",
    "mal_log_density",
    "mal_sample",
    "linear_combine",
    "implied_covariance",
    "al_log_density",
    "al_cdf",
    "al_quantile",
    "al_mean",
    "al_es",
]


def as_integer(name, value, low):
    """``value`` as an ``int`` of at least ``low``; a bool, a non-integral
    number or a smaller value raises :class:`ValidationError`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < low:
        raise ValidationError(f"{name} must be at least {low}, got {value}")
    return value


def as_levels(tau, p=None):
    """Validate and return a probability-level vector with entries in (0,1).

    With ``p`` the vector is for p assets: a single level is repeated p
    times, and any length other than 1 or p is rejected.
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    if tau.ndim != 1 or tau.size == 0:
        raise ValidationError("tau must be a one-dimensional non-empty vector")
    if not ((tau > 0.0) & (tau < 1.0)).all():
        raise ValidationError("every tau level must lie strictly inside (0, 1)")
    if p is None or tau.size == p:
        return tau
    if tau.size == 1:
        return np.full(p, tau[0])
    raise ValidationError(
        f"tau has {tau.size} levels for {p} assets: give one shared level or one per asset"
    )


def fixed_skew(tau):
    """Skew parameter implied by the level: (1 - 2 tau) / (tau (1 - tau))."""
    tau = np.asarray(tau, dtype=float)
    return (1.0 - 2.0 * tau) / (tau * (1.0 - tau))


def fixed_scale(tau):
    """Scale-shape parameter implied by the level: sqrt(2 / (tau (1 - tau)))."""
    tau = np.asarray(tau, dtype=float)
    return np.sqrt(2.0 / (tau * (1.0 - tau)))


@dataclass(frozen=True)
class MALConstraints:
    """Level-implied shape constants: skew vector, scale vector, Bessel order.

    Satisfies 2*sigma_tilde^2 + xi_tilde^2 = 1/(tau(1-tau))^2 elementwise,
    which is what ties the scale of the distribution to the quantile level.
    """

    tau: np.ndarray
    xi_tilde: np.ndarray
    sigma_tilde: np.ndarray
    nu: float

    @classmethod
    def from_levels(cls, tau):
        tau = as_levels(tau)
        return cls(
            tau=tau,
            xi_tilde=fixed_skew(tau),
            sigma_tilde=fixed_scale(tau),
            nu=(2.0 - tau.size) / 2.0,
        )

    @property
    def p(self):
        return self.tau.size


def assemble_sigma(psi, constraints):
    """Scale-shape matrix Lambda Psi Lambda with Lambda = diag(sigma_tilde)."""
    psi = check_correlation(psi)
    s = constraints.sigma_tilde
    if psi.shape[0] != s.size:
        raise ValidationError("psi dimension does not match the level vector")
    return psi * np.outer(s, s)


# distinct keys each memo holds: a run has one psi, so one Sigma, per refit
_MEMO_SIZE = 128


def _frozen(a):
    """A copy of ``a`` over immutable bytes, so no holder can make it writable."""
    return np.frombuffer(a.tobytes(), dtype=float).reshape(a.shape)


def _thawed(key):
    """The read-only float array of a ``(bytes, shape)`` memo key."""
    return np.frombuffer(key[0], dtype=float).reshape(key[1])


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _psi_terms(tau_key, psi_key):
    """Validated psi, its constraints and Sigma for one (tau, psi), derived once.

    The keys are the ``(bytes, shape)`` of the float arrays. A rejected input
    raises and is not cached, so it raises again on every call. Every array
    returned is shared by all callers and read-only for good.
    """
    cons = MALConstraints.from_levels(_thawed(tau_key))
    psi = check_correlation(_thawed(psi_key))
    if psi.shape != (cons.p, cons.p):
        raise ValidationError("mu, delta, psi and tau dimensions disagree")
    cons = replace(cons, xi_tilde=_frozen(cons.xi_tilde), sigma_tilde=_frozen(cons.sigma_tilde))
    # the expression of assemble_sigma, so both give the same floats
    return psi, cons, _frozen(psi * np.outer(cons.sigma_tilde, cons.sigma_tilde))


@dataclass(frozen=True)
class MALParams:
    """Full parameter set: location mu, positive scales delta, correlation psi.

    Validated on construction. ``mu`` and ``delta`` are read-only copies of
    the inputs. ``psi``, ``tau``, ``constraints`` and the Sigma that
    :meth:`sigma` returns come from :func:`_psi_terms`, which validates and
    derives each distinct (tau, psi) once per process, so a run that builds
    one parameter set per period checks its psi and assembles Sigma once per
    refit.
    """

    mu: np.ndarray
    delta: np.ndarray
    psi: np.ndarray
    tau: np.ndarray
    constraints: MALConstraints = field(init=False, repr=False)
    _sigma: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # copies, so that freezing them leaves the caller's arrays writable
        mu, delta, tau = (np.array(a, dtype=float, ndmin=1)
                          for a in (self.mu, self.delta, self.tau))
        psi = np.array(self.psi, dtype=float, ndmin=2)
        psi, cons, sigma = _psi_terms((tau.tobytes(), tau.shape), (psi.tobytes(), psi.shape))
        p = cons.p
        if mu.shape != (p,) or delta.shape != (p,):
            raise ValidationError("mu, delta, psi and tau dimensions disagree")
        if not ((delta > 0.0) & np.isfinite(delta)).all():
            raise ValidationError("delta entries must be strictly positive and finite")
        mu.flags.writeable = False
        delta.flags.writeable = False
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "tau", cons.tau)
        object.__setattr__(self, "constraints", cons)
        object.__setattr__(self, "_sigma", sigma)

    @property
    def p(self):
        return self.tau.size

    def sigma(self):
        return self._sigma


@dataclass(frozen=True)
class ALParams:
    """Univariate asymmetric Laplace triple produced by linear combination."""

    mu_star: float
    tau_star: float
    delta_star: float


class _SigmaCache:
    """The Sigma-derived terms of every density evaluation, computed once.

    Built from (psi, constraints), or by :meth:`from_sigma` from a ready
    Sigma with its skew vector and Bessel order. ``sign`` is the sign of the
    determinant, for callers that must reject a Sigma that is not positive
    definite.
    """

    __slots__ = ("inv", "sign", "logdet", "lin", "skew", "nu")

    def __init__(self, psi, cons):
        self._derive(assemble_sigma(psi, cons), cons.xi_tilde, cons.nu)

    @classmethod
    def from_sigma(cls, sigma, xi, nu):
        cache = cls.__new__(cls)
        cache._derive(sigma, xi, nu)
        return cache

    def _derive(self, sigma, xi, nu):
        self.inv = np.linalg.inv(sigma)
        sign, logdet = np.linalg.slogdet(sigma)
        self.sign, self.logdet = float(sign), float(logdet)
        self.lin = self.inv @ xi
        self.skew = float(xi @ self.lin)
        self.nu = nu


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _sigma_terms(sigma_key, xi_key, nu):
    """:meth:`_SigmaCache.from_sigma` of one (Sigma, xi, nu), derived once.

    The array keys are ``(bytes, shape)`` pairs, as for :func:`_psi_terms`;
    the cache's arrays are read-only for good. Call it through
    :func:`_sigma_cache`.
    """
    cache = _SigmaCache.from_sigma(_thawed(sigma_key), _thawed(xi_key), nu)
    cache.inv, cache.lin = _frozen(cache.inv), _frozen(cache.lin)
    return cache


def _sigma_cache(sigma, xi, nu):
    """The shared :class:`_SigmaCache` of a ready Sigma, skew vector and order."""
    return _sigma_terms((sigma.tobytes(), sigma.shape), (xi.tobytes(), xi.shape), nu)


def _quad_form(v, cache):
    """Row-wise v' Sigma^-1 v of the (n, p) scaled residuals ``v``."""
    return np.einsum("ti,ij,tj->t", v, cache.inv, v)


def _bessel_terms(m, cache):
    """``(s, log(K_nu(s) e^s))`` at the quadratic forms m: s = sqrt((2 + xi' Sigma^-1 xi) m)."""
    s = np.sqrt((2.0 + cache.skew) * m)
    return s, np.log(special.kve(cache.nu, s))


def _log_density_rows(v, m, bessel, log_scale, cache):
    """Row log densities of the scaled residuals ``v`` = (y - mu) / delta.

    ``m`` is their quadratic form after the caller's policy at the pole
    m = 0, ``bessel`` its :func:`_bessel_terms`, and ``log_scale`` the sum
    of log delta, per row or shared.
    """
    s, log_kve = bessel
    log_k = log_kve - s
    return (
        math.log(2.0)
        + v @ cache.lin
        - 0.5 * v.shape[1] * math.log(2.0 * math.pi)
        - log_scale
        - 0.5 * cache.logdet
        + 0.5 * cache.nu * (np.log(m) - math.log(2.0 + cache.skew))
        + log_k
    )


def mal_log_density(y, params):
    """Log density of the distribution at ``y`` (one point or rows of points).

    Parameters
    ----------
    y : array, shape (p,) or (n, p)
    params : MALParams

    Returns
    -------
    float or ndarray of shape (n,)

    Raises
    ------
    DegeneratePointError
        If a point coincides exactly with the location vector, where the
        Bessel argument is zero and the density is unbounded for p >= 2.
    """
    y = np.asarray(y, dtype=float)
    one_point = y.ndim == 1
    rows = y.reshape(1, -1) if one_point else y
    if rows.shape[1] != params.p:
        raise ValidationError("point dimension does not match the parameter set")
    if not np.isfinite(rows).all():
        raise ValidationError("points must be finite")
    cons = params.constraints
    cache = _sigma_cache(params.sigma(), cons.xi_tilde, cons.nu)
    v = (rows - params.mu) / params.delta
    m = _quad_form(v, cache)
    bad = np.flatnonzero(m <= 0.0)
    if bad.size:
        raise DegeneratePointError(
            "density evaluated exactly at the location point", index=int(bad[0])
        )
    out = _log_density_rows(v, m, _bessel_terms(m, cache), np.log(params.delta).sum(), cache)
    return float(out[0]) if one_point else out


def mal_sample(params, n, seed):
    """Draw ``n`` vectors via the exponential scale-mixture representation.

    Y = mu + D xi W + sqrt(W) D Sigma^{1/2} Z with W ~ Exp(1), Z standard
    normal. ``seed`` is an integer or a ``numpy.random.Generator`` with a seed
    sequence. Its stream is split by ``spawn(2)``: the first child draws the
    (n, p) block of Z, correlated by one ``Z @ L'`` product with L the
    Cholesky factor of Sigma, and the second the n values of W. Each child
    fills its rows in order, so row i of a sample does not depend on ``n``.
    """
    n = as_integer("n", n, 1)
    z_rng, w_rng = np.random.default_rng(seed).spawn(2)
    z = z_rng.standard_normal((n, params.p)) @ cholesky_with_jitter(params.sigma()).T
    w = w_rng.exponential(1.0, n)[:, None]
    return params.mu + params.delta * (params.constraints.xi_tilde * w + np.sqrt(w) * z)


def linear_combine(b, params):
    """Distribution of b'Y: an asymmetric Laplace with remapped parameters.

    Closed under linear combinations; the resulting level tau_star is the
    probability that b'Y falls below its own location mu_star.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (params.p,):
        raise ValidationError("weight vector dimension does not match parameters")
    if not np.any(b != 0.0):
        raise ValidationError("weight vector must be non-zero")
    d_xi = params.delta * params.constraints.xi_tilde
    a = params.sigma() * (params.delta[:, None] * params.delta)
    return _combined(float(b @ params.mu), float(b @ d_xi), float(b @ a @ b))


def _combined(mu_star, g, v):
    """The law of b'Y from mu_star = b'mu, g = b'D xi and v = b'D Sigma D b."""
    if v <= 0.0:
        raise ValidationError("weight vector has zero variance under the parameters")
    root = math.sqrt(2.0 * v + g * g)
    return ALParams(mu_star=mu_star, tau_star=0.5 * (1.0 - g / root), delta_star=v / (2.0 * root))


def implied_covariance(params):
    """Model-implied covariance D (xi xi' + Sigma) D. Diagnostic only."""
    xi = params.constraints.xi_tilde
    inner = np.outer(xi, xi) + params.sigma()
    return inner * np.outer(params.delta, params.delta)


# -- univariate asymmetric Laplace in the check-loss parameterization --------


def _check_loss(u, tau):
    return u * (tau - (u < 0.0))


def al_log_density(y, mu, tau, delta):
    """Log density (tau(1-tau)/delta) exp(-rho_tau((y-mu)/delta)), elementwise."""
    y = np.asarray(y, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if np.any(delta <= 0.0):
        raise ValidationError("delta must be strictly positive")
    tau = np.asarray(tau, dtype=float)
    return np.log(tau * (1.0 - tau) / delta) - _check_loss((y - mu) / delta, tau)


def al_cdf(y, mu, tau, delta):
    """Distribution function; equals tau exactly at y = mu."""
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    delta = np.asarray(delta, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if np.any(delta <= 0.0):
        raise ValidationError("delta must be strictly positive")
    z = y - mu
    lower = tau * np.exp(np.minimum((1.0 - tau) / delta * z, 0.0))
    upper = 1.0 - (1.0 - tau) * np.exp(np.minimum(-tau / delta * z, 0.0))
    out = np.where(z <= 0.0, lower, upper)
    return float(out) if out.ndim == 0 else out


def al_quantile(u, mu, tau, delta):
    """Quantile function, the exact inverse of :func:`al_cdf` on (0, 1)."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValidationError("probabilities must lie strictly inside (0, 1)")
    tau = np.asarray(tau, dtype=float)
    delta = np.asarray(delta, dtype=float)
    lower = mu + delta / (1.0 - tau) * np.log(np.minimum(u / tau, 1.0))
    upper = mu - delta / tau * np.log(np.minimum((1.0 - u) / (1.0 - tau), 1.0))
    out = np.where(u <= tau, lower, upper)
    return float(out) if out.ndim == 0 else out


def al_mean(mu, tau, delta):
    """Mean mu + delta * skew(tau) of the univariate distribution."""
    return mu + np.asarray(delta, dtype=float) * fixed_skew(tau)


def al_es(u, mu, tau, delta):
    """Lower expected shortfall E[Y | Y <= Q(u)] at an arbitrary level u.

    Closed form from integrating the quantile function; below ``tau`` the
    lower tail is exponential, above it the truncated upper branch joins in.
    At u = tau this reduces to mu - delta / (1 - tau), and as u -> 1 it
    approaches the mean.
    """
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValidationError("probabilities must lie strictly inside (0, 1)")
    tau = np.asarray(tau, dtype=float)
    delta = np.asarray(delta, dtype=float)
    lower = delta / (1.0 - tau) * (np.log(np.maximum(u, 1e-300) / tau) - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_hi = np.log(np.minimum((1.0 - u) / (1.0 - tau), 1.0))
        mixed = (delta / u) * (
            -tau / (1.0 - tau) - ((tau - u) - (1.0 - u) * log_hi) / tau
        )
    out = mu + np.where(u <= tau, lower, mixed)
    return float(out) if out.ndim == 0 else out
