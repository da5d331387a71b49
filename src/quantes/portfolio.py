"""Risk-level-constrained minimum-variance portfolio construction.

The allocator minimizes the portfolio's correlated-scale quadratic form
b'Ab, with A = D Sigma D, subject to two equalities: the weights sum to
one, and the probability that the portfolio return falls below its own
location equals a target level tau~. Because linear combinations of the
model's return vector stay in the asymmetric Laplace family, that
probability is 1/2 (1 - t / sqrt(2 b'Ab + t^2)) with t = s'b and skew
vector s = D xi~; shorting is allowed, so the weights live in all of R^p.

The level does not change when b is scaled. On the budget line 1'b = 1 it
equals tau~ exactly when t >= 0 and (1 - k^2) t^2 = 2 k^2 b'Ab, with
k = 1 - 2 tau~, so the objective (1 - k^2) t^2 / (2 k^2) grows with t and
the optimum has the smallest feasible t. With alpha = 1'A^-1 1,
beta = 1'A^-1 s, gamma = s'A^-1 s and D = alpha gamma - beta^2, the least
b'Ab on {1'b = 1, s'b = t} is (gamma - 2 beta t + alpha t^2) / D, so the
optimal t is the smallest non-negative root of

    ((1 - k^2) D - 2 k^2 alpha) t^2 + 4 k^2 beta t - 2 k^2 gamma = 0

and the weights are the minimum-scale point of that plane: one p x p
solve with two right-hand sides and no iteration. tau~ = 1/2 gives t = 0.
The solve is one direct LAPACK ``dgesv`` call, the routine that
``np.linalg.solve`` wraps: a rebalancing step costs a few microseconds of
arithmetic, and numpy's wrapper costs several times that, so the step runs
on the bare call and on plain Python floats. Up to p = 5 the two give the
same bits; from p = 6 up they can differ in the last bit, because numpy and
scipy each bundle their own OpenBLAS build.

Feasibility is exact. The lowest level a budget-line portfolio reaches is
L = 1/2 (1 - sqrt(c / (c + 2))) with c = gamma when beta > 0 (attained at
b proportional to A^-1 s) and c = D / alpha otherwise (approached as
t grows, never attained); a target below L is infeasible.

When s is parallel to the ones vector (every asset has the same scale and
level) D vanishes and t is the same for every budget-line portfolio, so
the level fixes the objective at (1 - k^2) t^2 / (2 k^2) and every
budget-line portfolio with that scale is optimal. It is feasible only
when that scale is at least the minimum 1 / alpha. The allocator then
moves from the minimum-scale portfolio A^-1 1 / alpha towards the supplied
initial weights until the scale reaches it.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgesv

from .exceptions import InfeasibleAllocationError, NumericError, ValidationError
from .mal import ALParams, _combined, al_mean, linear_combine

__all__ = [
    "AllocationResult",
    "smv_weights",
    "portfolio_risk",
    "performance_stats",
]

_BUDGET_TOL = 1e-10
_LEVEL_TOL = 1e-6
# D / (alpha gamma) at or below this counts as a skew vector parallel to 1
_PARALLEL_RTOL = 1e-12


@dataclass(frozen=True)
class AllocationResult:
    """A feasible allocation with its portfolio-level risk summary."""

    weights: np.ndarray
    tau_star_achieved: float
    objective: float
    al: ALParams
    var: float
    es: float


def _level(g, v):
    """Level of a portfolio with skew g = s'b and scale v = b'Ab."""
    return 0.5 * (1.0 - g / math.sqrt(2.0 * v + g * g + 1e-300))


def _parallel_skew_weights(a_matrix, skew_vec, tau_tilde, b_mv, alpha, b0):
    """Weights when s = t 1: the level pins the scale, not the direction."""
    t = float(skew_vec @ b_mv)
    k = 1.0 - 2.0 * tau_tilde
    if k > 0.0 and t > 0.0:
        target = (1.0 - k * k) * t * t / (2.0 * k * k)
    elif k == 0.0 and t == 0.0:
        target = 1.0 / alpha  # s = 0: every portfolio sits at level 1/2
    else:
        target = -np.inf
    if target < 1.0 / alpha:
        lowest = min(_level(t, float(b_mv @ a_matrix @ b_mv)), 0.5)
        raise InfeasibleAllocationError(
            "equal asset skews fix the level on the budget line away from the target",
            residual=max(lowest - tau_tilde, 0.0),
        )
    u = b0 - b_mv
    u = u - u.mean()
    if np.linalg.norm(u) <= 1e-10 * np.linalg.norm(b_mv):
        u = np.eye(b_mv.size)[0] - 1.0 / b_mv.size
    return b_mv + np.sqrt((target - 1.0 / alpha) / float(u @ a_matrix @ u)) * u


def _solve_pair(a_matrix, rhs):
    """A^-1 r for both rows r of ``rhs``, from one LU factorization of A
    (LAPACK ``dgesv``); the solutions come back as rows."""
    _, _, x, info = dgesv(a_matrix, rhs.T)
    if info > 0:
        raise np.linalg.LinAlgError("Singular matrix")
    return x.T


def _allocate(a_matrix, skew_vec, tau_tilde, b_init):
    """Weights b with their skew s'b and scale b'Ab, or raise if infeasible.

    Raises ``np.linalg.LinAlgError`` when A is exactly singular, as
    ``np.linalg.solve`` would.
    """
    p = a_matrix.shape[0]
    b0 = np.full(p, 1.0 / p) if b_init is None else np.asarray(b_init, dtype=float)
    if b0.shape != (p,):
        raise ValidationError("initial weights dimension does not match")
    rhs = np.empty((2, p))
    rhs[0] = 1.0
    rhs[1] = skew_vec
    ones = rhs[0]
    z, w = _solve_pair(a_matrix, rhs)
    alpha, beta, gamma = float(ones @ z), float(ones @ w), float(skew_vec @ w)
    b_mv = z / alpha
    # A^-1 (s - (beta / alpha) 1), the direction that moves s'b along the
    # budget line; s'w_perp is D / alpha without the cancellation in D
    w_perp = w - (beta / alpha) * z
    d = alpha * float(skew_vec @ w_perp)

    if d <= _PARALLEL_RTOL * alpha * gamma:
        b = _parallel_skew_weights(a_matrix, skew_vec, tau_tilde, b_mv, alpha, b0)
    else:
        k = 1.0 - 2.0 * tau_tilde
        c = gamma if beta > 0.0 else d / alpha
        lowest = 0.5 * (1.0 - math.sqrt(c / (c + 2.0)))
        # smallest non-negative root, rationalized so that k = 0 gives t = 0;
        # den <= 0 only at tau_tilde == lowest when the bound is not attained
        root = math.sqrt(max(8.0 * d * ((1.0 - k * k) * gamma - 2.0 * k * k), 0.0))
        den = 4.0 * k * beta + root
        if tau_tilde < lowest or den <= 0.0:
            raise InfeasibleAllocationError(
                "the target level lies below every budget-line portfolio's level",
                residual=max(lowest - tau_tilde, 0.0),
            )
        t = 4.0 * k * gamma / den
        b = b_mv + ((alpha * t - beta) / d) * w_perp

    g, v = float(skew_vec @ b), float(b @ a_matrix @ b)
    level_err = abs(_level(g, v) - tau_tilde)
    budget_err = abs(float(ones @ b) - 1.0)
    if not (level_err <= _LEVEL_TOL and budget_err <= _BUDGET_TOL):
        raise InfeasibleAllocationError(
            "no weight vector meets the risk-level and budget constraints",
            residual=max(level_err, budget_err),
        )
    return b, g, v


def smv_weights(params, tau_tilde, b_init=None, seed=0):
    """Minimum-scale weights at portfolio risk level ``tau_tilde``.

    ``params`` is the fitted distribution for the current period (location
    at the per-asset quantiles, scale from the shortfalls). The objective
    is the portfolio's quadratic scale b' D Sigma D b and the level
    constraint fixes the probability of the portfolio falling below its
    own location. The solution is exact (see the module docstring). Raises
    when no weight vector on the budget line can reach the target level.

    ``b_init`` (equal weights when omitted) matters only when every asset
    shares its scale and level: the optimum is then a whole set of
    portfolios, and the one returned lies in the direction of ``b_init``
    from the minimum-scale portfolio. ``seed`` is ignored; it is kept so
    that existing callers keep working.
    """
    tau_tilde = float(tau_tilde)
    if not 0.0 < tau_tilde <= 0.5:
        raise ValidationError("target level must lie in (0, 0.5]")
    if params.p == 1:
        if abs(tau_tilde - float(params.tau[0])) > _LEVEL_TOL:
            raise InfeasibleAllocationError(
                "a single asset pins the portfolio level to its own tau",
                residual=abs(tau_tilde - float(params.tau[0])),
            )
        b, obj = np.ones(1), float(params.delta[0] ** 2 * params.sigma()[0, 0])
        al = linear_combine(b, params)
    else:
        # A and s exactly as linear_combine forms them, so al is its result
        a_matrix = params.sigma() * (params.delta[:, None] * params.delta)
        skew_vec = params.delta * params.constraints.xi_tilde
        b, g, obj = _allocate(a_matrix, skew_vec, tau_tilde, b_init)
        al = _combined(float(b @ params.mu), g, obj)
    var, es = portfolio_risk(al, tau_tilde)
    return AllocationResult(
        weights=b,
        tau_star_achieved=al.tau_star,
        objective=obj,
        al=al,
        var=var,
        es=es,
    )


def portfolio_risk(al, tau_tilde):
    """Portfolio quantile and shortfall implied by its return distribution.

    The location is the achieved quantile by construction; the shortfall
    follows from the mean and the scale of the combined distribution.
    """
    tau_tilde = float(tau_tilde)
    if abs(al.tau_star - tau_tilde) > _LEVEL_TOL:
        raise ValidationError("distribution level does not match the requested target")
    var = float(al.mu_star)
    es = float(al_mean(al.mu_star, al.tau_star, al.delta_star) - al.delta_star / tau_tilde)
    return var, es


def performance_stats(returns, weights):
    """Mean-to-dispersion ratio of realized returns and average concentration.

    Concentration is the time-averaged sum of squared weights with each
    period's weights normalized by their absolute sum, so short positions
    count toward concentration and the result stays inside (0, 1].
    """
    returns = np.asarray(returns, dtype=float)
    if returns.ndim != 1 or returns.size == 0:
        raise ValidationError("returns must be a non-empty vector")
    if returns.size < 2:
        raise NumericError("dispersion undefined for a single period")
    sd = float(returns.std(ddof=1))
    if sd <= 0.0:
        raise NumericError("returns have zero variance")
    sharpe = float(returns.mean()) / sd

    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    norms = np.sum(np.abs(weights), axis=1)
    if np.any(norms <= 0.0):
        raise ValidationError("weights rows cannot be all zero")
    scaled = weights / norms[:, None]
    hhi = float(np.mean(np.sum(scaled**2, axis=1)))
    return sharpe, hhi
