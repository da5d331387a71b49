"""Maximum-likelihood estimation of the joint quantile/shortfall model.

The latent exponential mixing variable of the distribution gives a clean
EM scheme. The E-step has closed-form conditional moments u_t = E[W_t | y_t]
and z_t = E[1/W_t | y_t] built from ratios of modified Bessel functions.
The M-step cycles through three conditional blocks: the quantile recursion
coefficients, the shortfall-link coefficients given the new quantile paths,
and the correlation matrix, whose closed-form update is rescaled back onto
the correlation manifold. With the weights fixed, the Q-value's main term
is a weighted quadratic in the scaled residuals, so each dynamic block
moves by a few guarded Levenberg-Marquardt steps on its Gauss-Newton
metric, with exact gradients from forward sensitivity recursions.

The dynamic coefficients are a (p, n) array with one row per asset, whose
column blocks ``[:nq]`` and ``[nq:]`` are the quantile and link blocks;
only :func:`_pack`, :func:`_unpack` and :func:`_bounds` know each column.
The likelihood rows come from the density core in ``mal``, with the
quadratic form floored at ``_M_FLOOR``; the expected complete-data
objective (the Q-value) is computed only in :func:`_assemble`.

The scheme is a generalized EM (Dempster, Laird & Rubin 1977, JRSS-B 39):
each block's move is only a proposal, kept when the Q-value at the current
weights does not fall, so the observed log-likelihood never decreases,
however few steps a block takes. The quantile block is proposed
with the scale paths frozen, which keeps its first-order condition
centered on the conditional-quantile fit itself, so the quantile dynamics
are recovered without bias even when the innovation distribution is not
the one being maximized; its steps are re-scored on re-derived scales,
while the link block's last kept step stands as :func:`_lm_move` scored it.

Everything here is pure-functional over immutable inputs: fits can run in
parallel worker processes with no shared state beyond the arguments.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from . import dynamics as dyn
from .exceptions import NumericError, PathError, ValidationError
from .linalg import nearest_pd_correlation
from .mal import MALConstraints, _log_density_rows, _quad_form, _SigmaCache, as_integer, as_levels

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

_LOG_FLOOR = math.log(1e-10)
_M_FLOOR = 1e-300
_LM_STEPS = 3  # kept Levenberg-Marquardt steps of a block per pass
_LM_TRIES = 8  # Levenberg-Marquardt tries of a block per pass
_INIT_CANDIDATES = 24  # random univariate candidates per asset
_PERTURB_SD = 0.1  # sd of the multiplicative noise of starts after the first
_ETA_BOUND = 0.999  # |eta| bound of the quantile recursions


@dataclass(frozen=True)
class EMConfig:
    """The settings of :func:`fit` that a caller chooses.

    ``n_starts`` random starts perturb the univariate-calibrated initial
    point multiplicatively with N(0, _PERTURB_SD^2) noise (the first start
    is unperturbed). ``tol`` is the absolute change in observed
    log-likelihood between consecutive iterations that counts as converged
    (0 runs every start to the cap), ``max_iterations`` caps the iterations
    of a start, and ``seed`` drives every random draw. The step budget of a
    block is a module constant. A bool or non-integral count or seed, a
    count below 1, or a negative or non-finite ``tol`` raises
    :class:`ValidationError`.
    """

    tol: float = 1e-5
    max_iterations: int = 200
    n_starts: int = 100
    seed: int = 0

    def __post_init__(self):
        for name in ("max_iterations", "n_starts", "seed"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
        for name in ("max_iterations", "n_starts"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be at least 1")
        if not 0.0 <= self.tol < math.inf:
            raise ValidationError(f"tol must be finite and >= 0, got {self.tol!r}")


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


def _pack(specs, links):
    """(p, n) coefficients: row j is asset j's quantile block (omega, eta,
    *beta), then its link block (gamma0, or log gamma for the AR link)."""
    rows = []
    for spec, link in zip(specs, links):
        row = [spec.omega, spec.eta, *spec.beta]
        if link.kind == dyn.MULT:
            row.append(link.gamma0)
        else:
            row.extend(np.log(np.maximum(link.gamma, 1e-10)))
        rows.append(row)
    return np.array(rows, dtype=float)


def _unpack(theta, kind, link_kind, x0s):
    nq = 4 if kind == dyn.AS else 3
    specs = tuple(dyn.CaviarSpec(kind, row[0], row[1], row[2:nq]) for row in theta)
    if link_kind == dyn.MULT:
        links = tuple(dyn.ESLink(dyn.MULT, gamma0=row[nq]) for row in theta)
    else:
        gamma = np.exp(np.clip(theta[:, nq:], _LOG_FLOOR, 60.0))
        links = tuple(dyn.ESLink(dyn.AR, gamma=g, x0=x0) for g, x0 in zip(gamma, x0s))
    return specs, links


def _bounds(kind, link_kind):
    """Box ``(lo, hi)`` of one asset's row, which broadcasts over the assets:
    |eta| <= _ETA_BOUND, and the link coefficients in a fixed interval."""
    nq = 4 if kind == dyn.AS else 3
    lo, hi = np.full(nq, -np.inf), np.full(nq, np.inf)
    lo[1], hi[1] = -_ETA_BOUND, _ETA_BOUND
    # keeps the shortfall gap away from the degenerate closure es -> q,
    # where the likelihood rewards steering quantile paths through data
    # points, and away from overflow on the other side
    if link_kind == dyn.MULT:
        return np.append(lo, -12.0), np.append(hi, 8.0)
    return np.append(lo, [_LOG_FLOOR + 1e-6] * 3), np.append(hi, [8.0] * 3)


# -- paths of the packed coefficients ----------------------------------------


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
    """(q, delta) panels of the (p, n) coefficients ``theta``; raises
    :class:`PathError` when a block is invalid, non-finite entries included."""
    try:
        specs, links = _unpack(theta, kind, link_kind, x0s)
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


def _assemble(y, q, dl, cache, u, z, dq=None, ddl=None, metric=False):
    """Q-function value and, given derivative arrays, its gradient.

    ``dq`` and ``ddl`` are (p, T, nb): derivatives of the quantile and scale
    paths with respect to each asset's nb entries of one block, a (p, nb)
    column slice of the coefficients; None stands for identically zero. The
    gradient has the block's (p, nb) shape, or is None when both are None.
    Under ``metric`` a third item is the Gauss-Newton metric
    H = sum_t z_t J_t' inv(Psi~) J_t of the quadratic term, with J the
    derivative of the scaled residuals, a (p nb, p nb) matrix over the
    block's entries in row-major order.
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
    if not metric:
        return val, grad
    jac = (0.0 if dq is None else dq) + (0.0 if ddl is None else rows.T[:, :, None] * ddl)
    # row (j, i) of flat is J[j, :, i]; H[j, i, k, l] = inv[j, k] sum_t z_t J J
    p, _, n = jac.shape
    flat = (jac / -dl.T[:, :, None]).transpose(0, 2, 1).reshape(p * n, -1)
    h = ((flat * z) @ flat.T).reshape(p, n, p, n) * cache.inv[:, None, :, None]
    return val, grad, h.reshape(p * n, p * n)


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


def _quantile_block(b, y, kind, q0, dl):
    """Paths of the (p, nq) quantile block ``b`` at the frozen scales ``dl``.

    Holding the scales makes this block's score the conditional-quantile
    fitting condition itself. Returns ``(q, dl, dq, None)``, or None when a
    path fails or leaves q < 0, which the shortfall links need when the
    scales are re-derived.
    """
    T, p = y.shape
    q = np.empty((T, p))
    dq = np.empty((p, T, b.shape[1]))
    for j in range(p):
        try:
            q[:, j], dq[j] = dyn.filter_path(kind, b[j], y[:, j], q0[j], jacobian=True)
        except PathError:
            return None
    if not np.all(q < 0.0):
        return None
    return q, dl, dq, None


def _link_block(b, y, link_kind, tau, x0s, q):
    """Paths of the (p, nl) link block ``b`` given the frozen quantile paths
    ``q``: ``(q, dl, None, ddl)``, or None when a scale is not finite and
    positive or its derivative is not finite."""
    T, p = y.shape
    gamma = b if link_kind == dyn.MULT else np.exp(np.clip(b, _LOG_FLOOR, 60.0))
    dl = np.empty((T, p))
    ddl = np.empty((p, T, b.shape[1]))
    for j in range(p):
        g = gamma[j, 0] if link_kind == dyn.MULT else gamma[j]
        try:
            dl[:, j], _, ddl[j] = dyn.scale_path(
                link_kind, g, q[:, j], y[:, j], tau[j], x0s[j], True
            )
        except PathError:
            return None
    if not np.all(np.isfinite(dl)):
        return None
    if link_kind == dyn.AR:
        # chain rule through the log-parameterization; an offset near the
        # overflow threshold can carry it past
        with np.errstate(over="ignore"):
            ddl *= gamma[:, None, :]
        if not np.all(np.isfinite(ddl)):
            return None
    return q, dl, None, ddl


def _lm_move(block, b, lo, hi, log_scale, y, cache, u, z):
    """Levenberg-Marquardt ascent of one block's Q-value from ``b``.

    ``block`` maps a (p, nb) block to its paths ``(q, dl, dq, ddl)`` or
    None; ``lo`` and ``hi`` are its (nb,) bounds. Each try solves
    (H + lam diag H) d = grad Q, with H the Gauss-Newton metric of
    :func:`_assemble`, and clips b + d to [lo, hi]. Entries on a bound
    whose gradient points out of the box are held. Under ``log_scale``
    every entry is the log of a coefficient, and the step is taken on the
    coefficient: b + log(1 + d), so a coefficient near its floor does not
    jump across the box. A try is kept only if the block's Q-value does not
    fall, then lam shrinks tenfold; otherwise it grows tenfold. With the
    E-step weights fixed every kept step is a generalized EM step (Lange
    1995, the EM-gradient algorithm). Stops after ``_LM_STEPS`` kept steps
    or ``_LM_TRIES`` tries and returns the kept ``(b, paths, value)``
    triples, first to last (empty when none was kept).
    """
    paths = block(b)
    if paths is None:
        return []
    val, grad, h = _assemble(y, *paths[:2], cache, u, z, *paths[2:], metric=True)
    lam = 1e-3
    kept = []
    for _ in range(_LM_TRIES):
        free = ~(((b <= lo) & (grad < 0.0)) | ((b >= hi) & (grad > 0.0)))
        flat = free.ravel()
        d = np.zeros_like(b)
        try:
            d[free] = np.linalg.solve((h + lam * np.diag(np.diag(h)))[np.ix_(flat, flat)],
                                      grad[free])
        except np.linalg.LinAlgError:
            d[:] = np.nan
        if log_scale:
            # d is a relative change of the coefficient, floored so b + d >= lo
            with np.errstate(divide="ignore"):
                d = np.log1p(np.maximum(d, np.expm1(lo - b)))
        cand = np.clip(b + d, lo, hi)
        paths = block(cand) if np.all(np.isfinite(cand)) else None
        res = None if paths is None else _assemble(
            y, *paths[:2], cache, u, z, *paths[2:], metric=True
        )
        if res is None or not res[0] >= val:
            lam *= 10.0
            continue
        b, (val, grad, h) = cand, res
        lam /= 10.0
        kept.append((b, paths, val))
        if len(kept) == _LM_STEPS:
            break
    return kept


def _update_dynamics(y, tau, q0, x0s, kind, link_kind, cache, u, z, theta, q, dl):
    """One guarded pass over the blocks of the (p, n) coefficients ``theta``
    with paths ``(q, dl)``; the Q-value never falls.

    The quantile block ``theta[:, :nq]`` moves by :func:`_lm_move` against
    the frozen scales ``dl`` and keeps the last kept step whose re-derived
    paths do not lower the Q-value. The link block ``theta[:, nq:]`` then
    moves against the current quantile paths, which is where
    :func:`_lm_move` scored it, so its last kept step stands as it is.
    Returns the new coefficients with their paths and Q-value.
    """
    nq = 4 if kind == dyn.AS else 3
    lo, hi = _bounds(kind, link_kind)
    val = _assemble(y, q, dl, cache, u, z)[0]
    steps = _lm_move(
        lambda b: _quantile_block(b, y, kind, q0, dl),
        theta[:, :nq], lo[:nq], hi[:nq], False, y, cache, u, z,
    )
    for b, _, _ in reversed(steps):
        cand = np.hstack((b, theta[:, nq:]))
        try:
            q_c, dl_c = _panel_paths(kind, link_kind, cand, y, q0, x0s, tau)
        except PathError:
            continue
        val_c = _assemble(y, q_c, dl_c, cache, u, z)[0]
        if val_c >= val:
            theta, q, dl, val = cand, q_c, dl_c, val_c
            break
    steps = _lm_move(
        lambda b: _link_block(b, y, link_kind, tau, x0s, q),
        theta[:, nq:], lo[nq:], hi[nq:], True, y, cache, u, z,
    )
    if steps:
        b, (_, dl, _, _), val = steps[-1]
        theta = np.hstack((theta[:, :nq], b))
    return theta, q, dl, val


def dynamic_m_step(params, y, tau, q0, u, z):
    """Conditional maximization over the recursion coefficients, psi fixed.

    The EM's guarded pass: Levenberg-Marquardt steps on the quantile block
    against frozen scale paths, then on the link block against the new
    quantile paths, each block's move kept only when the full objective
    does not fall. Returns a parameter set with
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
    theta = _update_dynamics(
        y, tau, q0, x0s, kind, link_kind, cache,
        np.asarray(u, float), np.asarray(z, float), theta, q, dl,
    )[0]
    specs, links = _unpack(theta, kind, link_kind, x0s)
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
        theta = np.array([_candidate_block(rng, kind, link_kind, q0)])
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
        theta, q, dl, val = _update_dynamics(
            y, tau, q0, x0s, kind, link_kind, cache, u, z, theta, q, dl
        )
        if p > 1:
            try:
                psi_cand = sigma_m_step((y - q) / dl, u, z, cons)
            except NumericError:
                psi_cand = None
            if psi_cand is not None:
                cache_cand = _SigmaCache(psi_cand, cons)
                if _assemble(y, q, dl, cache_cand, u, z)[0] >= val:
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


def _perturb(theta, rng):
    out = theta * (1.0 + _PERTURB_SD * rng.standard_normal(theta.shape))
    out[:, 1] = np.clip(out[:, 1], -_ETA_BOUND + 1e-6, _ETA_BOUND - 1e-6)  # eta
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
    n_free = p * _bounds(kind, link_kind)[0].size + p * (p - 1) // 2
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
    for k in range(config.n_starts):
        theta_k = theta0 if k == 0 else _perturb(theta0, rng)
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
    specs, links = _unpack(state["theta"], kind, link_kind, x0s)
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
