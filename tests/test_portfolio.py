"""Tests for the closed-form risk-level-constrained allocator.

The multi-start augmented-Lagrangian solver the closed form replaced is kept
here as the reference: it searches the same problem numerically, so the two
must agree on feasibility, weights and objective.
"""

import numpy as np
import pytest
from scipy import optimize

from quantes.dynamics import initial_quantile, risk_path
from quantes.exceptions import InfeasibleAllocationError, NumericError, ValidationError
from quantes.mal import MALParams, al_es, linear_combine
from quantes.portfolio import (
    AllocationResult, _allocate, _solve_pair, performance_stats, portfolio_risk, smv_weights,
)
from quantes.simulate import SimScenario, generate, reference_params

LEVEL_TOL = 1e-6  # the allocator's own level tolerance
BUDGET_TOL = 1e-10


# -- reference: multi-start augmented Lagrangian with a Newton polish ---------


def _level_parts(b, a_matrix, skew_vec):
    g = float(skew_vec @ b)
    ab = a_matrix @ b
    v = float(b @ ab)
    r = np.sqrt(2.0 * v + g * g + 1e-300)
    return g, ab, v, r


def _level(b, a_matrix, skew_vec):
    g, _, _, r = _level_parts(b, a_matrix, skew_vec)
    return 0.5 * (1.0 - g / r)


def _level_grad(b, a_matrix, skew_vec):
    g, ab, v, r = _level_parts(b, a_matrix, skew_vec)
    return (g * ab - v * skew_vec) / r**3


def _solve_single(b0, a_matrix, skew_vec, tau_tilde, ones):
    lam = np.zeros(2)
    rho = 10.0
    b = np.asarray(b0, dtype=float)
    prev_norm = np.inf

    def residuals(bb):
        return np.array(
            [_level(bb, a_matrix, skew_vec) - tau_tilde, float(ones @ bb) - 1.0]
        )

    for _ in range(20):
        def objective(bb):
            c = residuals(bb)
            f = float(bb @ a_matrix @ bb)
            grad_c1 = _level_grad(bb, a_matrix, skew_vec)
            val = f + lam @ c + 0.5 * rho * float(c @ c)
            grad = (
                2.0 * (a_matrix @ bb)
                + (lam[0] + rho * c[0]) * grad_c1
                + (lam[1] + rho * c[1]) * ones
            )
            return val, grad

        res = optimize.minimize(objective, b, jac=True, method="BFGS",
                                options={"maxiter": 200, "gtol": 1e-10})
        b = res.x
        c = residuals(b)
        norm = float(np.max(np.abs(c)))
        lam = lam + rho * c
        if norm > 0.25 * prev_norm:
            rho *= 10.0
        prev_norm = norm
        if norm < 1e-9:
            break

    for _ in range(8):
        c = residuals(b)
        if abs(c[0]) <= 1e-12 and abs(c[1]) <= 1e-14:
            break
        j = np.vstack([_level_grad(b, a_matrix, skew_vec), ones])
        step = np.linalg.lstsq(j, c, rcond=None)[0]
        b = b - step
    c = residuals(b)
    return b, float(np.max(np.abs(c)))


def reference_weights(params, tau_tilde, b_init=None, seed=0, n_starts=11):
    """Best of ``n_starts`` numerical solves; None when none meets the constraints."""
    a_matrix = params.sigma() * np.outer(params.delta, params.delta)
    skew_vec = params.delta * params.constraints.xi_tilde
    p = params.p
    ones = np.ones(p)
    b0 = np.full(p, 1.0 / p) if b_init is None else np.asarray(b_init, dtype=float)
    rng = np.random.default_rng(seed)
    starts = [b0]
    for _ in range(n_starts - 1):
        cand = b0 + rng.normal(0.0, 0.5 / np.sqrt(p), size=p)
        starts.append(cand + (1.0 - cand.sum()) / p)
    best = None
    for start in starts:
        try:
            b, _ = _solve_single(start, a_matrix, skew_vec, tau_tilde, ones)
        except (FloatingPointError, np.linalg.LinAlgError):
            continue
        level_err = abs(_level(b, a_matrix, skew_vec) - tau_tilde)
        budget_err = abs(float(ones @ b) - 1.0)
        if level_err <= LEVEL_TOL and budget_err <= BUDGET_TOL:
            obj = float(b @ a_matrix @ b)
            if best is None or obj < best[1]:
                best = (b, obj)
    return best


# -- helpers -------------------------------------------------------------------


def _random_params(rng, p):
    m = rng.normal(size=(p, p))
    cov = m @ m.T + 0.5 * np.eye(p)
    sd = np.sqrt(np.diag(cov))
    return MALParams(
        mu=rng.normal(size=p),
        delta=rng.uniform(0.5, 3.0, size=p),
        psi=cov / np.outer(sd, sd),
        tau=rng.uniform(0.02, 0.3, size=p),
    )


def _equal_params(p, tau=0.1, rho=0.3):
    psi = np.full((p, p), rho)
    np.fill_diagonal(psi, 1.0)
    return MALParams(mu=np.zeros(p), delta=np.ones(p), psi=psi, tau=np.full(p, tau))


def _moments(params):
    a_matrix = params.sigma() * np.outer(params.delta, params.delta)
    skew_vec = params.delta * params.constraints.xi_tilde
    ones = np.ones(params.p)
    z, w = np.linalg.solve(a_matrix, np.column_stack([ones, skew_vec])).T
    return a_matrix, skew_vec, float(ones @ z), float(ones @ w), float(skew_vec @ w)


def _lowest_level(params):
    _, _, alpha, beta, gamma = _moments(params)
    c = gamma if beta > 0.0 else (alpha * gamma - beta**2) / alpha
    return 0.5 * (1.0 - np.sqrt(c / (c + 2.0)))


def _assert_constraints(result, params, tau_tilde):
    assert abs(float(result.weights.sum()) - 1.0) <= 1e-10
    assert abs(linear_combine(result.weights, params).tau_star - tau_tilde) <= 1e-9
    assert abs(result.tau_star_achieved - tau_tilde) <= 1e-9


# -- tests ---------------------------------------------------------------------


@pytest.mark.parametrize("case", range(20))
def test_matches_multistart_reference(case):
    rng = np.random.default_rng(1000 + case)
    params = _random_params(rng, (2, 3, 5)[case % 3])
    tau_tilde = float(rng.uniform(0.01, 0.5))
    # the problem has one minimizer, so four starts suffice and keep this quick
    ref = reference_weights(params, tau_tilde, n_starts=4)
    if ref is None:
        with pytest.raises(InfeasibleAllocationError):
            smv_weights(params, tau_tilde)
        return
    result = smv_weights(params, tau_tilde)
    _assert_constraints(result, params, tau_tilde)
    assert np.max(np.abs(result.weights - ref[0])) <= 1e-6
    assert abs(result.objective - ref[1]) <= 1e-8 * ref[1]


def test_result_law_is_linear_combine_bit_for_bit():
    rng = np.random.default_rng(77)
    n_feasible = 0
    for case in range(200):
        p = 2 + case % 4
        params = _equal_params(p, tau=0.1) if case % 10 == 0 else _random_params(rng, p)
        try:
            result = smv_weights(params, float(rng.uniform(0.01, 0.5)))
        except InfeasibleAllocationError:
            continue
        n_feasible += 1
        want = linear_combine(result.weights, params)
        assert (result.al.mu_star, result.al.tau_star, result.al.delta_star) == \
            (want.mu_star, want.tau_star, want.delta_star)
        assert result.tau_star_achieved == want.tau_star
    assert n_feasible >= 100


def test_reported_risk_is_the_shortfall_of_the_combined_distribution():
    params = MALParams(mu=[0.2, -0.1, 0.4], delta=[1.0, 0.6, 1.4],
                       psi=[[1, 0.3, 0.5], [0.3, 1, 0.2], [0.5, 0.2, 1]], tau=[0.05, 0.1, 0.2])
    result = smv_weights(params, 0.1)
    assert isinstance(result, AllocationResult)
    al = linear_combine(result.weights, params)
    assert (result.var, result.es) == portfolio_risk(al, 0.1)
    # at its own level the quantile is the location and the shortfall al_es
    assert result.var == al.mu_star
    assert result.es == pytest.approx(al_es(al.tau_star, al.mu_star, al.tau_star, al.delta_star),
                                      rel=1e-12)
    with pytest.raises(ValidationError):
        portfolio_risk(al, 0.2)


def test_single_asset_pins_level():
    params = MALParams(mu=[0.3], delta=[1.5], psi=[[1.0]], tau=[0.1])
    result = smv_weights(params, 0.1)
    assert np.array_equal(result.weights, [1.0])
    assert abs(result.tau_star_achieved - 0.1) <= 1e-12
    with pytest.raises(InfeasibleAllocationError) as info:
        smv_weights(params, 0.2)
    assert info.value.residual == pytest.approx(0.1)


@pytest.mark.parametrize(
    "params, beta_positive",
    [
        (_random_params(np.random.default_rng(1003), 2), True),
        # a wide-scale, strongly skewed asset highly correlated with a mild one
        (MALParams(mu=[0, 0], delta=[1, 1], psi=[[1, 0.9], [0.9, 1]], tau=[0.05, 0.3]), False),
    ],
)
def test_below_lowest_level_raises_with_gap(params, beta_positive):
    assert (_moments(params)[3] > 0.0) == beta_positive
    lowest = _lowest_level(params)
    gap = 0.5 * lowest
    with pytest.raises(InfeasibleAllocationError) as info:
        smv_weights(params, lowest - gap)
    assert info.value.residual == pytest.approx(gap, rel=1e-9)
    _assert_constraints(smv_weights(params, lowest + 1e-3), params, lowest + 1e-3)


def test_median_level_has_zero_skew_term():
    params = _random_params(np.random.default_rng(7), 3)
    result = smv_weights(params, 0.5)
    _assert_constraints(result, params, 0.5)
    _, skew_vec, _, _, _ = _moments(params)
    assert abs(float(skew_vec @ result.weights)) <= 1e-12 * np.abs(skew_vec).sum()


@pytest.mark.parametrize("p", [2, 3])
def test_equal_assets_fix_the_objective(p):
    params = _equal_params(p)
    k = 1.0 - 2.0 * 0.15
    sigma = float(params.delta[0] * params.constraints.xi_tilde[0])
    expected = (1.0 - k * k) * sigma**2 / (2.0 * k * k)
    assert expected == pytest.approx(41.1187, abs=1e-4)
    b_init = np.linspace(1.0, 0.2, p)
    result = smv_weights(params, 0.15, b_init=b_init)
    _assert_constraints(result, params, 0.15)
    assert result.objective == pytest.approx(expected, rel=1e-12)
    # the optimum moves from equal weights towards b_init's budget-plane part
    step = result.weights - 1.0 / p
    toward = b_init - b_init.mean()
    assert float(step @ toward) > 0.0
    assert np.allclose(step * np.linalg.norm(toward), toward * np.linalg.norm(step))
    # equal weights are the minimum-scale portfolio here, so the default
    # start gives no direction and the allocator moves along e1 - 1/p
    default = smv_weights(params, 0.15)
    _assert_constraints(default, params, 0.15)
    assert default.objective == pytest.approx(expected, rel=1e-12)
    assert default.weights[0] > 1.0 / p
    assert np.allclose(default.weights[1:], default.weights[1], rtol=0.0, atol=1e-12)
    ref = reference_weights(params, 0.15, b_init=b_init)
    assert ref is not None
    assert abs(result.objective - ref[1]) <= 1e-8 * ref[1]
    with pytest.raises(InfeasibleAllocationError):
        smv_weights(params, 0.5)


def test_median_assets_allow_only_the_median_level():
    params = _equal_params(3, tau=0.5)
    result = smv_weights(params, 0.5)
    _assert_constraints(result, params, 0.5)
    assert np.allclose(result.weights, 1.0 / 3.0, rtol=0.0, atol=1e-12)
    with pytest.raises(InfeasibleAllocationError) as info:
        smv_weights(params, 0.3)
    assert info.value.residual == pytest.approx(0.2)


@pytest.mark.parametrize("tau_tilde", [0.0, -0.1, 0.5000001, 1.0])
def test_rejects_level_outside_range(tau_tilde):
    with pytest.raises(ValidationError):
        smv_weights(_equal_params(2), tau_tilde)


def test_rejects_initial_weights_of_wrong_shape():
    with pytest.raises(ValidationError):
        smv_weights(_random_params(np.random.default_rng(0), 3), 0.2, b_init=np.ones(2))


def _solve_cases(p, n, seed):
    """Random D Sigma D with the right-hand sides 1 and D xi~ as rows."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        params = _random_params(rng, p)
        a_matrix = params.sigma() * (params.delta[:, None] * params.delta)
        yield a_matrix, np.array([np.ones(p), params.delta * params.constraints.xi_tilde])


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_solve_equals_numpy_solve_bit_for_bit(p):
    for a_matrix, rhs in _solve_cases(p, 500, 40 + p):
        want = np.linalg.solve(a_matrix, rhs.T).T
        assert np.array_equal(_solve_pair(a_matrix, rhs), want)


@pytest.mark.parametrize("p", range(6, 13))
def test_solve_agrees_with_numpy_solve_in_the_last_bits(p):
    # numpy and scipy each bundle their own OpenBLAS (0.3.31 and 0.3.30 in
    # the builds this was measured on); from p = 6 up their dgesv kernels
    # round many systems differently, by a few units in the last place
    for a_matrix, rhs in _solve_cases(p, 200, 40 + p):
        want = np.linalg.solve(a_matrix, rhs.T).T
        got = _solve_pair(a_matrix, rhs)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_singular_scale_matrix_raises_linalg_error():
    a_matrix = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.5, 1.0, 4.0]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(a_matrix, np.ones(3))
    with pytest.raises(np.linalg.LinAlgError):
        _allocate(a_matrix, np.array([1.0, 2.0, 0.5]), 0.15, None)


@pytest.mark.parametrize(
    "params, tau_tilde",
    [
        (MALParams(mu=[0.3], delta=[1.5], psi=[[1.0]], tau=[0.1]), 0.1),
        (_random_params(np.random.default_rng(5), 3), 0.3),
        (_equal_params(3), 0.15),
    ],
    ids=["one-asset", "closed-form", "equal-skews"],
)
def test_risk_summary_is_plain_floats(params, tau_tilde):
    result = smv_weights(params, tau_tilde)
    for x in (result.var, result.es, result.objective, result.tau_star_achieved,
              result.al.mu_star, result.al.tau_star, result.al.delta_star):
        assert type(x) is float


# -- the portfolio level law against data ----------------------------------


@pytest.mark.parametrize(
    "kind,link,seed", [("sav", "mult", 1), ("as", "ar", 2), ("ig", "mult", 3)]
)
def test_portfolio_level_law_is_calibrated_at_the_truth(kind, link, seed):
    # at the true paths, the allocated portfolio's return falls below its
    # var with probability tau~: pins linear_combine plus smv_weights
    # against simulated data rather than against their own algebra
    p, tau, T = 3, np.full(3, 0.1), 2000
    params = reference_params(kind, link, p)
    y = generate(SimScenario(params=params, tau=tau, T=T, seed=seed))
    paths = [
        risk_path(params.specs[j], params.links[j], y[:, j],
                  initial_quantile(y[:, j], tau[j]), tau[j])
        for j in range(p)
    ]
    q = np.column_stack([path.quantile for path in paths])
    delta = np.column_stack([path.delta for path in paths])
    for tau_tilde in (0.10, 0.15, 0.20):
        weights, hits = np.full(p, 1.0 / p), []
        for t in range(100, T):
            law = MALParams(mu=q[t], delta=delta[t], psi=params.psi, tau=tau)
            alloc = smv_weights(law, tau_tilde, b_init=weights)  # raises if infeasible
            weights = alloc.weights
            hits.append(float(weights @ y[t]) <= alloc.var)
        n = len(hits)
        z = (sum(hits) - n * tau_tilde) / np.sqrt(n * tau_tilde * (1.0 - tau_tilde))
        assert abs(z) <= 3.0, (tau_tilde, sum(hits) / n)


# -- performance summary ------------------------------------------------------


def test_performance_stats_sharpe_and_concentration():
    returns = np.array([0.01, -0.02, 0.03, 0.005])
    weights = np.array([[0.5, 0.5, 0.0], [1.5, -0.5, 0.0], [0.2, 0.3, 0.5], [0.0, 0.0, 2.0]])
    sharpe, hhi = performance_stats(returns, weights)
    assert sharpe == float(returns.mean()) / float(returns.std(ddof=1))
    # each row normalized by its absolute sum, so the short leg counts
    rows = [0.5**2 + 0.5**2, 0.75**2 + 0.25**2, 0.2**2 + 0.3**2 + 0.5**2, 1.0]
    assert hhi == pytest.approx(np.mean(rows), abs=1e-15)
    assert 0.0 < hhi <= 1.0
    # a single weight row applies to every period
    assert performance_stats(returns, [0.25, 0.25, 0.5])[1] == pytest.approx(0.375)


@pytest.mark.parametrize(
    "returns,weights,error",
    [
        ([0.01], [[1.0]], NumericError),
        ([0.25, 0.25, 0.25], [[1.0]], NumericError),
        ([[0.01, 0.02], [0.0, 0.01]], [[1.0]], ValidationError),
        ([], [[1.0]], ValidationError),
        ([0.01, -0.02], [[0.5, 0.5], [0.0, 0.0]], ValidationError),
    ],
    ids=["one-period", "constant", "2-d-returns", "empty", "all-zero-row"],
)
def test_performance_stats_rejects_what_it_cannot_summarize(returns, weights, error):
    with pytest.raises(error):
        performance_stats(returns, weights)
