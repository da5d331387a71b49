"""Maximum-likelihood estimation of the joint quantile/shortfall model.

The latent exponential mixing variable of the distribution gives a clean
EM scheme. The E-step has closed-form conditional moments u_t = E[W_t | y_t]
and z_t = E[1/W_t | y_t] built from ratios of modified Bessel functions.
The M-step cycles through three conditional blocks: the quantile recursion
coefficients, the shortfall-link coefficients given the new quantile paths,
and the correlation matrix, whose closed-form update is rescaled back onto
the correlation manifold. Numerical maximization uses a simplex search on
the first sweep to move off the start, then quasi-Newton refinement with
exact gradients from forward sensitivity recursions.

The likelihood rows come from the density core in ``mal``, with the
quadratic form floored at ``_M_FLOOR``; the expected complete-data
objective (the Q-value) is computed only in :func:`_assemble`.

The scheme is a generalized EM (Dempster, Laird & Rubin 1977, JRSS-B 39):
each block's move is only a proposal, kept when the Q-value at the current
weights does not fall, so the observed log-likelihood never decreases,
whatever the inner optimizer budgets are. The quantile block is proposed
with the scale paths frozen, which keeps its first-order condition
centered on the conditional-quantile fit itself, so the quantile dynamics
are recovered without bias even when the innovation distribution is not
the one being maximized.

Everything here is pure-functional over immutable inputs: fits can run in
parallel worker processes with no shared state beyond the arguments.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import optimize, special

from . import dynamics as dyn
from .exceptions import NumericError, PathError, ValidationError
from .linalg import nearest_pd_correlation
from .mal import MALConstraints, _log_density_rows, _quad_form, _SigmaCache, as_levels

__all__ = [
    "EMConfig",
    "ParameterSet",
    "FitResult",
    "e_step",
    "q_function",
    "sigma_m_step",
    "dynamic_m_step",
    "observed_loglik",
    "fit",
]

_PENALTY = 1e10
_LOG_FLOOR = math.log(1e-10)
_M_FLOOR = 1e-300
_SIMPLEX_MAXITER = 400  # Nelder-Mead budget of a block, first EM iteration only
_GRADIENT_MAXITER = 60  # L-BFGS-B budget of a block
_INIT_CANDIDATES = 24  # random univariate candidates per asset
_PERTURB_SD = 0.1  # sd of the multiplicative noise of starts after the first
_ETA_BOUND = 0.999  # |eta| bound of the quantile recursions


@dataclass(frozen=True)
class EMConfig:
    """The settings of :func:`fit` that a caller chooses.

    ``n_starts`` random starts perturb the univariate-calibrated initial
    point multiplicatively with N(0, _PERTURB_SD^2) noise (the first start
    is unperturbed). ``tol`` is the absolute change in observed
    log-likelihood between consecutive iterations that counts as converged,
    ``max_iterations`` caps the iterations of a start, and ``seed`` drives
    every random draw. The optimizer budgets are module constants.
    """

    tol: float = 1e-5
    max_iterations: int = 200
    n_starts: int = 100
    seed: int = 0


@dataclass(frozen=True)
class ParameterSet:
    """Per-asset recursion coefficients plus the cross-asset correlation."""

    specs: tuple
    links: tuple
    psi: np.ndarray

    def __post_init__(self):
        specs = tuple(self.specs)
        links = tuple(self.links)
        if len(specs) != len(links) or not specs:
            raise ValidationError("specs and links must align, one pair per asset")
        psi = np.atleast_2d(np.asarray(self.psi, dtype=float))
        if psi.shape != (len(specs), len(specs)):
            raise ValidationError("psi dimension must match the asset count")
        object.__setattr__(self, "specs", specs)
        object.__setattr__(self, "links", links)
        object.__setattr__(self, "psi", psi)

    @property
    def p(self):
        return len(self.specs)

    def to_dict(self):
        out = {"psi": self.psi.tolist(), "assets": []}
        for spec, link in zip(self.specs, self.links):
            entry = {
                "kind": spec.kind,
                "omega": spec.omega,
                "eta": spec.eta,
                "beta": spec.beta.tolist(),
                "link": link.kind,
            }
            if link.kind == dyn.MULT:
                entry["gamma0"] = link.gamma0
            else:
                entry["gamma"] = link.gamma.tolist()
                entry["x0"] = link.x0
            out["assets"].append(entry)
        return out

    @classmethod
    def from_dict(cls, data):
        specs, links = [], []
        for entry in data["assets"]:
            specs.append(
                dyn.CaviarSpec(entry["kind"], entry["omega"], entry["eta"], entry["beta"])
            )
            if entry["link"] == dyn.MULT:
                links.append(dyn.ESLink(dyn.MULT, gamma0=entry["gamma0"]))
            else:
                links.append(dyn.ESLink(dyn.AR, gamma=entry["gamma"], x0=entry["x0"]))
        return cls(specs=tuple(specs), links=tuple(links), psi=np.array(data["psi"]))


@dataclass(frozen=True)
class FitResult:
    """Outcome of one full multi-start fit.

    ``stop_reason`` says why the chosen start stopped: ``"tol"`` when the
    log-likelihood changed by less than ``EMConfig.tol``, ``"max_iter"`` at
    the iteration cap. Only ``"tol"`` counts as converged.
    """

    params: ParameterSet
    tau: np.ndarray
    q0: np.ndarray
    loglik: float
    loglik_trace: np.ndarray
    iterations: int
    stop_reason: str
    start_index: int
    paths: tuple

    @property
    def converged(self):
        return self.stop_reason == "tol"

    def to_dict(self):
        return {
            "params": self.params.to_dict(),
            "tau": self.tau.tolist(),
            "q0": self.q0.tolist(),
            "loglik": self.loglik,
            "iterations": self.iterations,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "start_index": self.start_index,
        }


# -- packing of the dynamic parameters ---------------------------------------


def _n_dynamic(kind, link_kind):
    n = 4 if kind == dyn.AS else 3
    return n + (3 if link_kind == dyn.AR else 1)


def _pack(specs, links):
    out = []
    for spec, link in zip(specs, links):
        out.extend([spec.omega, spec.eta, *spec.beta])
        if link.kind == dyn.MULT:
            out.append(link.gamma0)
        else:
            out.extend(np.log(np.maximum(link.gamma, 1e-10)))
    return np.array(out, dtype=float)


def _unpack(theta, kind, link_kind, p, x0s):
    n = _n_dynamic(kind, link_kind)
    specs, links = [], []
    nb = 2 if kind == dyn.AS else 1
    for j in range(p):
        block = theta[j * n : (j + 1) * n]
        specs.append(dyn.CaviarSpec(kind, block[0], block[1], block[2 : 2 + nb]))
        if link_kind == dyn.MULT:
            links.append(dyn.ESLink(dyn.MULT, gamma0=block[2 + nb]))
        else:
            gamma = np.exp(np.clip(block[2 + nb : 5 + nb], _LOG_FLOOR, 60.0))
            links.append(dyn.ESLink(dyn.AR, gamma=gamma, x0=x0s[j]))
    return tuple(specs), tuple(links)


def _quantile_bounds(kind, p):
    nq = 4 if kind == dyn.AS else 3
    bounds = []
    for _ in range(p):
        for i in range(nq):
            bounds.append((-_ETA_BOUND, _ETA_BOUND) if i == 1 else (None, None))
    return bounds


def _link_bounds(link_kind, p):
    # keeps the shortfall gap away from the degenerate closure es -> q,
    # where the likelihood rewards steering quantile paths through data
    # points, and away from overflow on the other side
    if link_kind == dyn.MULT:
        return [(-12.0, 8.0)] * p
    return [(_LOG_FLOOR + 1e-6, 8.0)] * (3 * p)


# -- paths of a packed parameter vector --------------------------------------


def _link_scale(link_kind, b, q, ycol, x0j, tau_j, want_grad=False):
    """Scale path of one asset's packed link coefficients ``b`` given its
    quantile path ``q``, with its (T, len(b)) derivative under ``want_grad``
    (else None); None when the scale is not finite and positive, or the
    requested derivative is not finite."""
    gamma = b[0] if link_kind == dyn.MULT else np.exp(np.clip(b, _LOG_FLOOR, 60.0))
    try:
        delta, _, d = dyn.scale_path(link_kind, gamma, q, ycol, tau_j, x0j, want_grad)
    except PathError:
        return None
    if not np.all(np.isfinite(delta)):
        return None
    if want_grad and link_kind == dyn.AR:
        # chain rule through the log-parameterization; an offset near the
        # overflow threshold can carry it past
        with np.errstate(over="ignore"):
            d = d * gamma
        if not np.all(np.isfinite(d)):
            return None
    return delta, d


def _paths(specs, links, y, q0, tau):
    """(q, delta) panels: each asset's quantile filter and link scale.
    Raises :class:`PathError` naming the first asset whose path is invalid."""
    T, p = y.shape
    q = np.empty((T, p))
    dl = np.empty((T, p))
    for j, (spec, link) in enumerate(zip(specs, links)):
        ycol = y[:, j]
        try:
            q[:, j] = qj = dyn.quantile_path(spec, ycol, q0[j])
            dl[:, j] = dyn.scale_path(link.kind, link.coef, qj, ycol, tau[j], link.x0)[0]
        except PathError as exc:
            raise PathError(f"invalid path for asset {j}: {exc}", index=exc.index) from exc
    return q, dl


def _panel_paths(kind, link_kind, theta, y, q0, x0s, tau):
    """(q, delta) panels of a packed parameter vector; raises
    :class:`PathError` when a block is invalid, non-finite entries included."""
    try:
        specs, links = _unpack(theta, kind, link_kind, y.shape[1], x0s)
    except ValidationError as exc:
        raise PathError(f"invalid coefficients: {exc}") from exc
    return _paths(specs, links, y, q0, tau)


# -- likelihood machinery ----------------------------------------------------


def _floored_m(v, cache):
    """Quadratic form of the scaled residuals ``v``, floored at ``_M_FLOOR``."""
    return np.maximum(_quad_form(v, cache), _M_FLOOR)


def _loglik_rows(y, q, dl, cache):
    v = (y - q) / dl
    return _log_density_rows(v, _floored_m(v, cache), np.log(dl).sum(axis=1), cache)


def e_step(y, q, delta, psi, constraints):
    """Conditional mixing-variable moments at each observation.

    Row-aligned arrays of shape (T, p) (a single (p,) row is accepted);
    returns ``(u, z)`` with u_t = E[W_t | y_t] and z_t = E[1/W_t | y_t].
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    delta = np.atleast_2d(np.asarray(delta, dtype=float))
    cache = _SigmaCache(psi, constraints)
    return _weights((y - q) / delta, cache)


def _weights(v, cache):
    m = _floored_m(v, cache)
    s = np.sqrt((2.0 + cache.skew) * m)
    log_ratio = np.log(special.kve(cache.nu + 1.0, s)) - np.log(
        special.kve(cache.nu, s)
    )
    ratio = np.exp(log_ratio)
    u = np.sqrt(m / (2.0 + cache.skew)) * ratio
    z = np.sqrt((2.0 + cache.skew) / m) * ratio - 2.0 * cache.nu / m
    return u, z


def _assemble(y, q, dl, cache, u, z, dq=None, ddl=None):
    """Q-function value and, given derivative arrays, its gradient.

    ``dq`` and ``ddl`` are (p, T, nb): derivatives of the quantile and scale
    paths with respect to each asset's nb block entries; None stands for
    identically zero. The gradient is packed asset by asset, or None when
    both are None.
    """
    rows = (y - q) / dl
    au = rows @ cache.inv
    m = np.einsum("tj,tj->t", rows, au)
    val = (
        -0.5 * y.shape[0] * cache.logdet
        - np.log(dl).sum()
        + float(rows.sum(axis=0) @ cache.lin)
        - 0.5 * float(z @ m)
        - 0.5 * cache.skew * float(u.sum())
    )
    if dq is None and ddl is None:
        return val, None
    # dQ/d(rows) = lin - z au, d(rows) = -(dq + rows ddl) / dl and
    # d(-log dl) = -ddl / dl
    coeff = (cache.lin - z[:, None] * au) / dl
    grad = 0.0
    if dq is not None:
        grad = grad - np.einsum("tj,jti->ji", coeff, dq)
    if ddl is not None:
        grad = grad - np.einsum("tj,jti->ji", coeff * rows + 1.0 / dl, ddl)
    return val, grad.ravel()


def q_function(params, y, tau, q0, u, z):
    """Expected complete-data objective at a candidate parameter set."""
    y = np.asarray(y, dtype=float)
    tau = as_levels(tau, params.p)
    cons = MALConstraints.from_levels(tau)
    q, dl = _paths(params.specs, params.links, y, np.asarray(q0, float), tau)
    cache = _SigmaCache(params.psi, cons)
    return _assemble(y, q, dl, cache, np.asarray(u, float), np.asarray(z, float))[0]


def observed_loglik(params, y, tau, q0):
    """Observed-data log-likelihood of the full parameter set."""
    y = np.asarray(y, dtype=float)
    tau = as_levels(tau, params.p)
    cons = MALConstraints.from_levels(tau)
    q, dl = _paths(params.specs, params.links, y, np.asarray(q0, float), tau)
    cache = _SigmaCache(params.psi, cons)
    return float(_loglik_rows(y, q, dl, cache).sum())


def sigma_m_step(u_rows, u, z, constraints):
    """Closed-form scale-shape update mapped back to a correlation matrix.

    ``u_rows`` are the per-period scaled residuals (y - q) / delta at the
    updated dynamic parameters. Returns the candidate correlation; the EM
    loop decides whether to accept it.
    """
    xi = constraints.xi_tilde
    if constraints.p == 1:
        return np.array([[1.0]])
    T = u_rows.shape[0]
    a = np.einsum("t,ti,tj->ij", z, u_rows, u_rows) / T
    a += (u.sum() / T) * np.outer(xi, xi)
    cross = np.outer(u_rows.sum(axis=0), xi) / T
    a -= cross + cross.T  # symmetrized version of the -2/T cross term
    scale = np.outer(constraints.sigma_tilde, constraints.sigma_tilde)
    s = a / scale
    d = np.diag(s).copy()
    if np.any(d <= 0.0) or not np.all(np.isfinite(s)):
        raise NumericError("scale update left the positive cone")
    corr = s / np.sqrt(np.outer(d, d))
    return nearest_pd_correlation(corr)


class _StepBase:
    """Negative objective over one conditional block of packed parameters.

    Subclasses fill ``_q``/``_dl`` (and, under ``want_grad``, whichever of
    the derivative buffers ``_dpath``/``_dscale`` is not identically zero)
    for a candidate block vector; invalid parameter regions return a large
    penalty with a zero gradient, which the line searches back away from.
    Work buffers are reused across evaluations, so one instance must not be
    shared between threads.
    """

    _dpath = None
    _dscale = None

    def value(self, theta):
        if not self._fill(theta, False):
            return _PENALTY
        val, _ = _assemble(self.y, self._q, self._dl, self.cache, self.u, self.z)
        return -val if np.isfinite(val) else _PENALTY

    def value_and_grad(self, theta):
        if not self._fill(theta, True):
            return _PENALTY, np.zeros_like(theta)
        val, grad = _assemble(
            self.y, self._q, self._dl, self.cache, self.u, self.z,
            self._dpath, self._dscale,
        )
        if not np.isfinite(val):
            return _PENALTY, np.zeros_like(theta)
        return -val, -grad


class _QuantileStep(_StepBase):
    """Quantile-coefficient block with the scale paths held fixed.

    Holding the scales makes this block's score the conditional-quantile
    fitting condition itself; the scale derivatives are therefore
    identically zero. Candidate paths must stay strictly negative so the
    shortfall links remain feasible when the scales are re-derived.
    """

    def __init__(self, y, kind, q0, cache, u, z, delta_fixed):
        self.y = y
        self.kind = kind
        self.q0 = q0
        self.cache = cache
        self.u = u
        self.z = z
        self.T, self.p = y.shape
        self.nq = 4 if kind == dyn.AS else 3
        self._q = np.empty((self.T, self.p))
        self._dl = delta_fixed
        self._dpath = np.zeros((self.p, self.T, self.nq))

    def _fill(self, theta, want_grad):
        nq = self.nq
        for j in range(self.p):
            try:
                qj, dqj = dyn.filter_path(
                    self.kind, theta[j * nq : (j + 1) * nq], self.y[:, j], self.q0[j],
                    want_grad,
                )
            except PathError:
                return False
            if not np.all(qj < 0.0):
                return False
            self._q[:, j] = qj
            if want_grad:
                self._dpath[j] = dqj
        return True


class _LinkStep(_StepBase):
    """Shortfall-link block given fixed quantile paths.

    With the quantile paths frozen this is an exact conditional
    maximization of the full expected complete-data objective; the quantile
    derivatives are identically zero.
    """

    def __init__(self, y, link_kind, tau, x0s, q_fixed, cache, u, z):
        self.y = y
        self.link_kind = link_kind
        self.tau = tau
        self.x0s = x0s
        self.cache = cache
        self.u = u
        self.z = z
        self.T, self.p = y.shape
        self.nl = 3 if link_kind == dyn.AR else 1
        self._q = q_fixed
        self._dl = np.empty((self.T, self.p))
        self._dscale = np.zeros((self.p, self.T, self.nl))

    def _fill(self, theta, want_grad):
        nl = self.nl
        for j in range(self.p):
            res = _link_scale(
                self.link_kind, theta[j * nl : (j + 1) * nl], self._q[:, j], self.y[:, j],
                self.x0s[j], self.tau[j], want_grad,
            )
            if res is None:
                return False
            self._dl[:, j] = res[0]
            if want_grad:
                self._dscale[j] = res[1]
        return True


def _maximize(objective, theta0, bounds, use_simplex):
    """Inner minimizer for one block: simplex warmup, quasi-Newton polish.

    Returns whichever candidate (including ``theta0`` itself) achieves the
    best value, so a block update never loses ground on its own objective.
    """
    theta0 = np.asarray(theta0, dtype=float)
    candidates = [theta0]
    seed = theta0
    if bounds is not None:
        # scipy's ``None`` means unbounded; np.clip needs numeric limits
        lo = np.array([-np.inf if b[0] is None else b[0] for b in bounds], dtype=float)
        hi = np.array([np.inf if b[1] is None else b[1] for b in bounds], dtype=float)
        seed = np.clip(theta0, lo, hi)
        if not np.array_equal(seed, theta0):
            candidates.append(seed)
    if use_simplex:
        try:
            nm = optimize.minimize(
                objective.value,
                seed,
                method="Nelder-Mead",
                bounds=bounds,
                options={"maxiter": _SIMPLEX_MAXITER, "xatol": 1e-8, "fatol": 1e-10},
            )
            candidates.append(np.asarray(nm.x, dtype=float))
        except ValueError:
            pass
    try:
        qn = optimize.minimize(
            objective.value_and_grad,
            candidates[-1],
            method="L-BFGS-B",
            jac=True,
            bounds=bounds,
            options={"maxiter": _GRADIENT_MAXITER, "ftol": 1e-11, "gtol": 1e-8},
        )
        candidates.append(np.asarray(qn.x, dtype=float))
    except ValueError:
        pass
    values = [objective.value(c) for c in candidates]
    return candidates[int(np.argmin(values))]


def _update_dynamics(y, tau, q0, x0s, kind, link_kind, cache, u, z, theta, q, dl,
                     use_simplex):
    """One guarded pass over the dynamic-parameter blocks.

    ``(q, dl)`` are the paths of ``theta``. The quantile block is proposed
    against the frozen scales ``dl``, then the link block against the
    current quantile paths. A block's move is kept only if the Q-value at
    its re-derived paths is not below the current one, so the Q-value never
    falls. Returns the new packed vector with its paths.
    """
    p = y.shape[1]
    nq = 4 if kind == dyn.AS else 3
    nl = 3 if link_kind == dyn.AR else 1
    nb = nq + nl
    blocks = (
        (np.arange(nq), _quantile_bounds(kind, p),
         lambda q, dl: _QuantileStep(y, kind, q0, cache, u, z, dl)),
        (nq + np.arange(nl), _link_bounds(link_kind, p),
         lambda q, dl: _LinkStep(y, link_kind, tau, x0s, q, cache, u, z)),
    )
    val = _assemble(y, q, dl, cache, u, z)[0]
    for offsets, bounds, objective in blocks:
        sel = np.concatenate([j * nb + offsets for j in range(p)])
        cand = theta.copy()
        cand[sel] = _maximize(objective(q, dl), theta[sel], bounds, use_simplex)
        try:
            q_c, dl_c = _panel_paths(kind, link_kind, cand, y, q0, x0s, tau)
        except PathError:
            continue
        val_c = _assemble(y, q_c, dl_c, cache, u, z)[0]
        if val_c >= val:
            theta, q, dl, val = cand, q_c, dl_c, val_c
    return theta, q, dl


def dynamic_m_step(params, y, tau, q0, u, z):
    """Conditional maximization over the recursion coefficients, psi fixed.

    The EM's guarded pass: a quantile move proposed against frozen scale
    paths, then a link move against the new quantile paths, each kept only
    when the full objective does not fall. Returns a parameter set with
    updated specs and links; the value of :func:`q_function` at the packed
    coefficients never decreases.
    """
    y = np.asarray(y, dtype=float)
    tau = as_levels(tau, params.p)
    q0 = np.asarray(q0, dtype=float)
    kind = params.specs[0].kind
    link_kind = params.links[0].kind
    x0s = np.array(
        [link.x0 if link.kind == dyn.AR else 0.0 for link in params.links]
    )
    cons = MALConstraints.from_levels(tau)
    cache = _SigmaCache(params.psi, cons)
    theta = _pack(params.specs, params.links)
    q, dl = _panel_paths(kind, link_kind, theta, y, q0, x0s, tau)
    theta, _, _ = _update_dynamics(
        y, tau, q0, x0s, kind, link_kind, cache,
        np.asarray(u, float), np.asarray(z, float), theta, q, dl, use_simplex=True,
    )
    specs, links = _unpack(theta, kind, link_kind, tau.size, x0s)
    return ParameterSet(specs=specs, links=links, psi=params.psi)


# -- initialization ----------------------------------------------------------


def _candidate_block(rng, kind, link_kind, q0):
    scale = max(abs(q0), 0.1)
    eta = rng.uniform(0.5, 0.95)
    omega = q0 * (1.0 - eta) * rng.uniform(0.3, 1.5)
    if kind == dyn.SAV:
        betas = [rng.uniform(-0.3, 0.0)]
    elif kind == dyn.AS:
        betas = [rng.uniform(-0.3, 0.05), rng.uniform(-0.25, 0.25)]
    else:
        omega = scale**2 * (1.0 - eta) * rng.uniform(0.2, 1.5)
        betas = [rng.uniform(0.01, 0.3)]
    block = [omega, eta, *betas]
    if link_kind == dyn.MULT:
        block.append(rng.uniform(-2.5, -0.5))
    else:
        block.extend(
            np.log(
                [rng.uniform(0.01, 0.2), rng.uniform(0.01, 0.3), rng.uniform(0.3, 0.9)]
            )
        )
    return block


def _univariate_theta(y_j, tau_j, kind, link_kind, q0, x0, config, rng):
    """Best-of-N random candidate, then a univariate EM polish."""
    cons = MALConstraints.from_levels([tau_j])
    cache = _SigmaCache(np.array([[1.0]]), cons)
    col = y_j.reshape(-1, 1)
    tau_v = np.array([tau_j])
    q0v = np.array([q0])
    x0v = np.array([x0])

    best_theta, best_val = None, np.inf
    for _ in range(_INIT_CANDIDATES):
        theta = np.array(_candidate_block(rng, kind, link_kind, q0))
        try:
            q, dl = _panel_paths(kind, link_kind, theta, col, q0v, x0v, tau_v)
        except PathError:
            continue
        val = -float(_loglik_rows(col, q, dl, cache).sum())
        if val < best_val:
            best_theta, best_val = theta, val
    if best_theta is None:
        raise NumericError("no valid univariate starting candidate found")

    chain_cfg = replace(config, max_iterations=min(30, config.max_iterations))
    state = _em_chain(
        col, tau_v, q0v, x0v, best_theta, np.array([[1.0]]), kind, link_kind,
        chain_cfg, callback=None, start_index=-1,
    )
    return state["theta"]


def _em_chain(y, tau, q0, x0s, theta0, psi0, kind, link_kind, config, callback, start_index):
    cons = MALConstraints.from_levels(tau)
    theta = np.asarray(theta0, dtype=float).copy()
    psi = np.asarray(psi0, dtype=float).copy()
    p = tau.size

    q, dl = _panel_paths(kind, link_kind, theta, y, q0, x0s, tau)
    cache = _SigmaCache(psi, cons)
    rows = _loglik_rows(y, q, dl, cache)
    ll = float(rows.sum())
    trace = [ll]
    stop_reason = "max_iter"
    iterations = 0
    for it in range(1, config.max_iterations + 1):
        iterations = it
        u, z = _weights((y - q) / dl, cache)
        theta, q, dl = _update_dynamics(
            y, tau, q0, x0s, kind, link_kind, cache, u, z, theta, q, dl,
            use_simplex=(it == 1),
        )
        if p > 1:
            try:
                psi_cand = sigma_m_step((y - q) / dl, u, z, cons)
            except NumericError:
                psi_cand = None
            if psi_cand is not None:
                cache_cand = _SigmaCache(psi_cand, cons)
                if _assemble(y, q, dl, cache_cand, u, z)[0] >= _assemble(y, q, dl, cache, u, z)[0]:
                    psi, cache = psi_cand, cache_cand
        rows = _loglik_rows(y, q, dl, cache)
        ll_new = float(rows.sum())
        trace.append(ll_new)
        if callback is not None:
            callback(start_index, it, ll_new)
        if abs(ll_new - ll) < config.tol:
            ll = ll_new
            stop_reason = "tol"
            break
        ll = ll_new

    return {
        "theta": theta,
        "psi": psi,
        "loglik": ll,
        "rows": rows,
        "trace": np.array(trace),
        "iterations": iterations,
        "stop_reason": stop_reason,
    }


def _perturb(theta, rng, eta_idx):
    out = theta * (1.0 + _PERTURB_SD * rng.standard_normal(theta.size))
    out[eta_idx] = np.clip(out[eta_idx], -_ETA_BOUND + 1e-6, _ETA_BOUND - 1e-6)
    return out


def fit(y, tau, kind=dyn.SAV, link_kind=dyn.MULT, config=None, init=None, callback=None):
    """Fit the model to a (T, p) return panel at levels ``tau``.

    Parameters
    ----------
    y : array, shape (T, p)
    tau : level in (0, 1) shared by every asset, or one level per asset
    kind : quantile recursion kind (``sav``, ``as``, ``ig``)
    link_kind : shortfall link kind (``mult``, ``ar``)
    config : EMConfig
    init : ParameterSet, optional
        Warm start; skips the univariate calibration stage. Random starts
        beyond the first still perturb it.
    callback : callable, optional
        Called as ``callback(start_index, iteration, loglik)`` after every
        EM iteration.

    Returns
    -------
    FitResult
    """
    config = config or EMConfig()
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y.reshape(-1, 1)
    if y.ndim != 2 or y.shape[0] < 2:
        raise ValidationError("returns must be a (T, p) panel")
    if not np.all(np.isfinite(y)):
        raise ValidationError("returns contain non-finite values")
    T, p = y.shape
    tau = as_levels(tau, p)
    if kind not in dyn.KINDS or link_kind not in dyn.LINKS:
        raise ValidationError("unknown recursion or link kind")
    n_free = p * _n_dynamic(kind, link_kind) + p * (p - 1) // 2
    if T < 10 * n_free:
        raise ValidationError(
            f"sample of length {T} is too short for {n_free} free parameters"
        )

    rng = np.random.default_rng(config.seed)
    q0 = np.array([dyn.initial_quantile(y[:, j], tau[j]) for j in range(p)])
    x0s = np.array(
        [
            dyn.initial_es_offset(y[:, j], q0[j]) if link_kind == dyn.AR else 0.0
            for j in range(p)
        ]
    )

    if init is not None:
        if init.p != p:
            raise ValidationError("warm-start parameter set has the wrong dimension")
        theta0 = _pack(init.specs, init.links)
        psi0 = init.psi.copy() if p > 1 else np.array([[1.0]])
    else:
        blocks = [
            _univariate_theta(y[:, j], tau[j], kind, link_kind, q0[j], x0s[j], config, rng)
            for j in range(p)
        ]
        theta0 = np.concatenate(blocks)
        psi0 = nearest_pd_correlation(np.corrcoef(y.T)) if p > 1 else np.array([[1.0]])

    nb = _n_dynamic(kind, link_kind)

    def _selection_score(state):
        # chains are compared on a winsorized likelihood: the density has
        # integrable poles at y = mu for p >= 2, so a chain can buy an
        # arbitrarily large loglik with a handful of rows by steering a
        # quantile path through data points; clipping the top rows at the
        # next-largest value ranks interior solutions ahead of those
        rows = state["rows"]
        w = max(3, T // 300)
        clip = np.sort(rows)[-(w + 1)]
        return float(np.minimum(rows, clip).sum())

    best = None
    best_score = -np.inf
    errors = []
    eta_idx = 1 + nb * np.arange(p)
    for k in range(config.n_starts):
        theta_k = theta0 if k == 0 else _perturb(theta0, rng, eta_idx)
        try:
            state = _em_chain(
                y, tau, q0, x0s, theta_k, psi0, kind, link_kind, config, callback, k
            )
        except (PathError, NumericError) as exc:
            errors.append(f"start {k}: {exc}")
            continue
        score = _selection_score(state) if p > 1 else state["loglik"]
        if best is None or score > best_score:
            best = (k, state)
            best_score = score
    if best is None:
        raise NumericError("all starts failed: " + "; ".join(errors[:5]))

    k, state = best
    specs, links = _unpack(state["theta"], kind, link_kind, p, x0s)
    params = ParameterSet(specs=specs, links=links, psi=state["psi"])
    paths = tuple(
        dyn.risk_path(specs[j], links[j], y[:, j], q0[j], tau[j]) for j in range(p)
    )
    return FitResult(
        params=params,
        tau=tau,
        q0=q0,
        loglik=state["loglik"],
        loglik_trace=np.array(state["trace"]),
        iterations=state["iterations"],
        stop_reason=state["stop_reason"],
        start_index=k,
        paths=paths,
    )
