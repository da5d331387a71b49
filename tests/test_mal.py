import numpy as np
import pytest

from quantes import mal, scoring
from quantes.exceptions import DegeneratePointError, NumericError, ValidationError
from quantes.linalg import JITTER, cholesky_with_jitter
from quantes.mal import (
    ALParams,
    MALConstraints,
    MALParams,
    al_cdf,
    al_log_density,
    al_mean,
    al_quantile,
    as_levels,
    assemble_sigma,
    fixed_scale,
    fixed_skew,
    implied_covariance,
    linear_combine,
    mal_log_density,
    mal_sample,
)

# Frozen mixing-variable quadrature values for the joint log density.
DENSITY_ORACLE = [
    (
        dict(
            mu=[0.1, -0.3],
            delta=[0.8, 1.4],
            psi=[[1, 0.45], [0.45, 1]],
            tau=[0.1, 0.25],
        ),
        [-1.2, 0.7],
        -5.79416901917271,
    ),
    (
        dict(mu=[0.0, 0.0], delta=[1.0, 1.0], psi=[[1, -0.3], [-0.3, 1]], tau=[0.05, 0.05]),
        [0.5, 0.1],
        -4.43298001979120,
    ),
    (
        dict(
            mu=[0.2, -0.1, 0.0],
            delta=[1.1, 0.6, 2.0],
            psi=[[1, 0.3, 0.7], [0.3, 1, 0.5], [0.7, 0.5, 1]],
            tau=[0.1, 0.1, 0.1],
        ),
        [-2.0, 1.0, 0.3],
        -7.97755109322583,
    ),
    (
        dict(
            mu=[0.0, 0.0, 0.0],
            delta=[0.5, 0.5, 0.5],
            psi=np.eye(3).tolist(),
            tau=[0.5, 0.25, 0.75],
        ),
        [0.05, -0.02, 0.01],
        0.02292311742059,
    ),
]


def test_fixed_parameter_identity():
    tau = np.linspace(0.01, 0.99, 25)
    lhs = 2.0 * fixed_scale(tau) ** 2 + fixed_skew(tau) ** 2
    np.testing.assert_allclose(lhs, 1.0 / (tau * (1.0 - tau)) ** 2, rtol=1e-12)


def test_fixed_skew_signs():
    assert fixed_skew(0.5) == 0.0
    assert fixed_skew(0.1) > 0.0
    assert fixed_skew(0.9) < 0.0


def test_constraints_from_levels():
    cons = MALConstraints.from_levels([0.1, 0.5, 0.9])
    assert cons.p == 3
    assert cons.nu == pytest.approx((2.0 - 3.0) / 2.0)
    np.testing.assert_allclose(cons.xi_tilde, fixed_skew(np.array([0.1, 0.5, 0.9])))


def test_levels_validation():
    for bad in ([0.0, 0.5], [0.5, 1.0], [np.nan], []):
        with pytest.raises(ValidationError):
            as_levels(bad)


def test_levels_broadcast_to_assets():
    assert np.array_equal(as_levels(0.1, 3), [0.1, 0.1, 0.1])
    assert np.array_equal(as_levels([0.1, 0.2], 2), [0.1, 0.2])
    assert np.array_equal(as_levels([0.1, 0.2]), [0.1, 0.2])
    for bad, p in (([0.1, 0.2], 3), ([0.1, 0.2, 0.3], 2), ([1.5], 2)):
        with pytest.raises(ValidationError):
            as_levels(bad, p)


def test_assemble_sigma_matches_elementwise_oracle():
    tau = np.array([0.1, 0.25, 0.6])
    psi = np.array([[1, 0.3, -0.2], [0.3, 1, 0.5], [-0.2, 0.5, 1]])
    cons = MALConstraints.from_levels(tau)
    sigma = assemble_sigma(psi, cons)
    s = np.sqrt(2.0 / (tau * (1.0 - tau)))
    for i in range(3):
        for j in range(3):
            assert sigma[i, j] == pytest.approx(s[i] * psi[i, j] * s[j], rel=1e-14)
    assert np.allclose(sigma, sigma.T)
    assert np.linalg.eigvalsh(sigma).min() > 0.0


def test_params_validation():
    with pytest.raises(ValidationError):
        MALParams(mu=[0.0], delta=[-1.0], psi=[[1.0]], tau=[0.1])
    with pytest.raises(ValidationError):
        MALParams(mu=[0.0, 0.0], delta=[1.0, 1.0], psi=[[1, 0.2], [0.3, 1]], tau=[0.1, 0.1])
    with pytest.raises(ValidationError):
        MALParams(mu=[0.0, 0.0], delta=[1.0, 1.0], psi=[[1, 1.2], [1.2, 1]], tau=[0.1, 0.1])
    with pytest.raises(ValidationError):
        MALParams(mu=[0.0], delta=[1.0, 1.0], psi=[[1.0]], tau=[0.1])


BAD_CORRELATIONS = [
    ([[1.0, 0.2, 0.1], [0.2, 1.0, 0.3]], "must be square"),
    ([[1.0, np.inf], [np.inf, 1.0]], "must be finite"),
    ([[1.0, np.nan], [np.nan, 1.0]], "must be finite"),
    ([[1.0, 0.2], [0.3, 1.0]], "must be symmetric"),
    ([[1.1, 0.2], [0.2, 1.0]], "must have a unit diagonal"),
    ([[1.0, 1.2], [1.2, 1.0]], "must be positive definite"),
]


@pytest.mark.parametrize("psi, message", BAD_CORRELATIONS,
                         ids=["square", "inf", "nan", "symmetric", "diagonal", "pd"])
def test_correlation_messages_through_params_and_assemble_sigma(psi, message):
    with pytest.raises(ValidationError, match=f"correlation matrix {message}"):
        MALParams(mu=[0.0, 0.0], delta=[1.0, 1.0], psi=psi, tau=[0.1, 0.1])
    with pytest.raises(ValidationError, match=f"correlation matrix {message}"):
        assemble_sigma(psi, MALConstraints.from_levels([0.1, 0.1]))


def _rejected(psi):
    try:
        assemble_sigma(psi, MALConstraints.from_levels(np.full(psi.shape[0], 0.1)))
    except ValidationError:
        return True
    return False


def test_inline_tolerance_agrees_with_allclose():
    """Entries moved by about 1e-8 + 1e-5 |b|, just inside and just outside."""
    rng = np.random.default_rng(29)
    outcomes = set()
    for _ in range(400):
        psi = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        psi[0, 1] = psi[1, 0] = rng.uniform(-0.6, 0.6)
        psi[1, 2] = psi[2, 1] = rng.uniform(-0.3, 0.3)
        factor = rng.uniform(1.0 - 1e-6, 1.0 + 1e-6)
        if rng.uniform() < 0.5:
            i, j = (0, 1) if rng.uniform() < 0.5 else (2, 1)
            psi[i, j] = psi[j, i] + rng.choice([-1, 1]) * factor * (
                1e-8 + 1e-5 * abs(psi[j, i]))
            expected = not np.allclose(psi, psi.T, atol=1e-8)
        else:
            k = rng.integers(3)
            psi[k, k] = 1.0 + rng.choice([-1, 1]) * factor * (1e-8 + 1e-5)
            expected = not np.allclose(np.diag(psi), 1.0, atol=1e-8)
        assert _rejected(psi) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_params_sigma_is_assemble_sigma():
    psi = np.array([[1.0, 0.3, -0.2], [0.3, 1.0, 0.5], [-0.2, 0.5, 1.0]])
    params = MALParams(mu=[0.1, 0.0, -0.2], delta=[0.5, 1.0, 2.0], psi=psi, tau=[0.05, 0.1, 0.3])
    assert np.array_equal(params.sigma(), assemble_sigma(psi, params.constraints))
    assert params.sigma() is params.sigma()


def test_params_hold_read_only_copies():
    mu, psi = np.array([0.1, -0.2]), np.array([[1.0, 0.4], [0.4, 1.0]])
    params = MALParams(mu=mu, delta=np.ones(2), psi=psi, tau=np.full(2, 0.1))
    for target in (params.psi, params.mu, params.sigma()):
        with pytest.raises(ValueError):
            target[0] = 5.0
    psi[0, 1] = psi[1, 0] = -0.9
    mu[0] = 7.0
    assert psi.flags.writeable and mu.flags.writeable
    assert params.psi[0, 1] == 0.4 and params.mu[0] == 0.1
    assert np.array_equal(params.sigma(), assemble_sigma([[1.0, 0.4], [0.4, 1.0]],
                                                         params.constraints))


# -- the per-process memo of the (tau, psi) and Sigma terms ---------------------


def _clear_memos():
    mal._psi_terms.cache_clear()
    mal._sigma_terms.cache_clear()


def _random_correlation(rng, p):
    m = rng.normal(size=(p, p + 2))
    cov = m @ m.T
    sd = np.sqrt(np.diag(cov))
    psi = cov / np.outer(sd, sd)
    np.fill_diagonal(psi, 1.0)
    return 0.5 * (psi + psi.T)


def _scores(rng, p, psi, tau):
    """MALParams fields, Sigma, s_mal and the log density of seeded inputs."""
    mu, delta = rng.normal(size=p), rng.uniform(0.5, 2.0, p)
    params = MALParams(mu=mu, delta=delta, psi=psi, tau=tau)
    y = rng.normal(size=(4, p))
    es = -rng.uniform(0.5, 2.0, p)
    rec = scoring.ForecastRecord(t=0, y=y[0], var=es + rng.uniform(0.0, 1.0, p), es=es,
                                 tau=tau)
    return (params.mu, params.delta, params.psi, params.tau, params.constraints.xi_tilde,
            params.constraints.sigma_tilde, params.constraints.nu, params.sigma(),
            scoring.s_mal(rec, params.sigma()), mal_log_density(y, params))


def _bit_equal(a, b):
    return all(np.array_equal(x, y) and np.asarray(x).dtype == np.asarray(y).dtype
               for x, y in zip(a, b, strict=True))


def test_memo_gives_the_uncached_terms_bit_for_bit(monkeypatch):
    _clear_memos()
    rng = np.random.default_rng(41)
    cases = [(p, _random_correlation(rng, p), rng.uniform(0.02, 0.4, p))
             for p in (1, 2, 3, 4, 5) for _ in range(4)]
    cached = [_scores(np.random.default_rng(k), *case) for k, case in enumerate(cases)]
    hits = [_scores(np.random.default_rng(k), *case) for k, case in enumerate(cases)]
    assert mal._psi_terms.cache_info().hits >= len(cases)
    assert mal._sigma_terms.cache_info().hits >= len(cases)
    monkeypatch.setattr(mal, "_psi_terms", mal._psi_terms.__wrapped__)
    monkeypatch.setattr(mal, "_sigma_terms", mal._sigma_terms.__wrapped__)
    for k, case in enumerate(cases):
        uncached = _scores(np.random.default_rng(k), *case)
        assert _bit_equal(cached[k], uncached) and _bit_equal(hits[k], uncached)
        p, psi, tau = case
        assert np.array_equal(uncached[7], assemble_sigma(psi, MALConstraints.from_levels(tau)))


def test_memo_validates_each_psi_once(monkeypatch):
    _clear_memos()
    calls = []
    real = mal.check_correlation

    def counting(psi, *args):
        calls.append(1)
        return real(psi, *args)

    monkeypatch.setattr(mal, "check_correlation", counting)
    psi = np.array([[1.0, 0.3, -0.1], [0.3, 1.0, 0.2], [-0.1, 0.2, 1.0]])
    for k in range(100):
        # a fresh copy each time: the memo keys on the values, not the object
        MALParams(mu=np.full(3, 0.01 * k), delta=np.ones(3), psi=psi.copy(), tau=[0.1] * 3)
    assert len(calls) == 1


@pytest.mark.parametrize("bad, message", [
    ([[1.0, 1.2], [1.2, 1.0]], "positive definite"),
    ([[1.0, np.nan], [np.nan, 1.0]], "finite"),
])
def test_memo_never_caches_a_rejected_psi(bad, message):
    _clear_memos()
    good = [[1.0, 0.2], [0.2, 1.0]]
    kw = dict(mu=[0.0, 0.0], delta=[1.0, 1.0], tau=[0.1, 0.1])
    for _ in range(3):
        MALParams(psi=good, **kw)
        with pytest.raises(ValidationError, match=f"correlation matrix must be {message}"):
            MALParams(psi=bad, **kw)
    assert mal._psi_terms.cache_info().currsize == 1


def test_memo_arrays_can_never_be_made_writable():
    _clear_memos()
    params = MALParams(mu=[0.1, -0.2], delta=[1.0, 2.0], psi=[[1.0, 0.4], [0.4, 1.0]],
                       tau=[0.1, 0.2])
    cons = params.constraints
    cache = mal._sigma_cache(params.sigma(), cons.xi_tilde, cons.nu)
    shared = (params.psi, params.tau, params.sigma(), cons.xi_tilde, cons.sigma_tilde,
              cache.inv, cache.lin)
    for array in shared:
        with pytest.raises(ValueError):
            array.flags.writeable = True
        with pytest.raises(ValueError):
            array[0] = 5.0
    again = MALParams(mu=[0.0, 0.0], delta=[1.0, 1.0], psi=[[1.0, 0.4], [0.4, 1.0]],
                      tau=[0.1, 0.2])
    assert again.sigma() is params.sigma() and again.constraints is cons


@pytest.mark.parametrize("kw,y,expected", DENSITY_ORACLE)
def test_log_density_matches_quadrature_oracle(kw, y, expected):
    params = MALParams(**kw)
    assert mal_log_density(np.array(y), params) == pytest.approx(expected, abs=1e-8)


def test_log_density_reduces_to_univariate(seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(200):
        tau = float(rng.uniform(0.02, 0.98))
        mu = float(rng.normal())
        delta = float(rng.uniform(0.2, 3.0))
        y = mu + float(rng.normal()) * delta + 1e-6
        par = MALParams(mu=[mu], delta=[delta], psi=[[1.0]], tau=[tau])
        a = mal_log_density(np.array([y]), par)
        b = float(al_log_density(y, mu, tau, delta))
        assert a == pytest.approx(b, abs=1e-10)


def _midpoint_mass(params, lo, hi, cells):
    edges = np.linspace(lo, hi, cells + 1)
    h = edges[1] - edges[0]
    centers = edges[:-1] + 0.5 * h
    xx, yy = np.meshgrid(centers, centers, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    vals = np.exp(mal_log_density(pts, params))
    return vals.reshape(cells, cells), h


def test_log_density_normalizes_p2():
    # Exponential tails make a finite box fine; the integrable log
    # singularity at mu needs a finer midpoint grid near the center, so the
    # central box contribution is recomputed at higher resolution.
    params = MALParams(
        mu=[0.0, 0.0], delta=[1.0, 1.5], psi=[[1, 0.4], [0.4, 1]], tau=[0.2, 0.4]
    )
    coarse, h = _midpoint_mass(params, -60.0, 60.0, 600)  # h = 0.2
    total = coarse.sum() * h * h
    # cells covering [-2, 2]^2 exactly (box edges align with cell edges)
    inner = slice(290, 310)
    total -= coarse[inner, inner].sum() * h * h
    fine, hf = _midpoint_mass(params, -2.0, 2.0, 800)  # h = 0.005
    total += fine.sum() * hf * hf
    assert total == pytest.approx(1.0, abs=1e-3)


def test_log_density_degenerate_point():
    params = MALParams(
        mu=[0.1, 0.2], delta=[1.0, 1.0], psi=[[1, 0.0], [0.0, 1]], tau=[0.1, 0.1]
    )
    with pytest.raises(DegeneratePointError):
        mal_log_density(np.array([0.1, 0.2]), params)


def test_log_density_row_batch_matches_single():
    params = MALParams(
        mu=[0.0, 0.0], delta=[1.0, 2.0], psi=[[1, 0.25], [0.25, 1]], tau=[0.1, 0.3]
    )
    pts = np.array([[0.5, -0.3], [-1.0, 2.0], [0.1, 0.1]])
    batch = mal_log_density(pts, params)
    singles = [mal_log_density(row, params) for row in pts]
    np.testing.assert_allclose(batch, singles, rtol=1e-14)


def test_log_density_finite_over_usable_range():
    # quadratic forms from 1e-16 to 1e16 at Bessel orders 1/2, 0, -1/2 and
    # -5/2: the Bessel factor neither overflows near the location nor
    # underflows far in the tails
    scales = np.logspace(-8, 8, 60)
    for p in (1, 2, 3, 7):
        params = MALParams(
            mu=np.zeros(p), delta=np.ones(p), psi=np.eye(p), tau=np.full(p, 0.1)
        )
        inv = np.linalg.inv(params.sigma())
        direction = np.random.default_rng(p).standard_normal(p)
        direction /= np.sqrt(direction @ inv @ direction)
        for sign in (1.0, -1.0):
            rows = sign * scales[:, None] * direction
            m = np.einsum("ti,ij,tj->t", rows, inv, rows)
            np.testing.assert_allclose(m, scales**2, rtol=1e-9)
            assert np.all(np.isfinite(mal_log_density(rows, params)))


def test_sample_marginal_quantiles():
    params = MALParams(
        mu=[0.3, -0.5, 0.0],
        delta=[1.0, 0.5, 2.0],
        psi=[[1, 0.3, 0.7], [0.3, 1, 0.5], [0.7, 0.5, 1]],
        tau=[0.05, 0.25, 0.5],
    )
    draws = mal_sample(params, 400_000, seed=1234)
    hit = (draws < params.mu).mean(axis=0)
    np.testing.assert_allclose(hit, params.tau, atol=0.004)


def test_sample_reproducible():
    params = MALParams(mu=[0.0], delta=[1.0], psi=[[1.0]], tau=[0.3])
    a = mal_sample(params, 100, seed=9)
    b = mal_sample(params, 100, seed=9)
    np.testing.assert_array_equal(a, b)
    # each stream fills its rows in order, so a shorter sample is a prefix
    np.testing.assert_array_equal(mal_sample(params, 37, seed=9), a[:37])


@pytest.mark.parametrize("n", [100.0, 2.5, True, "100"])
def test_sample_rejects_a_non_integer_size(n):
    params = MALParams(mu=[0.0], delta=[1.0], psi=[[1.0]], tau=[0.3])
    with pytest.raises(ValidationError, match="n must be an integer"):
        mal_sample(params, n, seed=9)


@pytest.mark.parametrize("n", [0, -3])
def test_sample_rejects_a_size_below_1(n):
    params = MALParams(mu=[0.0], delta=[1.0], psi=[[1.0]], tau=[0.3])
    with pytest.raises(ValidationError) as err:
        mal_sample(params, n, seed=9)
    assert str(err.value) == f"n must be at least 1, got {n}"


def test_sample_mean_matches_theory():
    params = MALParams(
        mu=[0.1, -0.2], delta=[0.7, 1.2], psi=[[1, -0.4], [-0.4, 1]], tau=[0.2, 0.7]
    )
    draws = mal_sample(params, 600_000, seed=5)
    theory = params.mu + params.delta * params.constraints.xi_tilde
    np.testing.assert_allclose(draws.mean(axis=0), theory, atol=0.02)


def test_implied_covariance_against_samples():
    params = MALParams(
        mu=[0.0, 0.0], delta=[1.0, 0.6], psi=[[1, 0.5], [0.5, 1]], tau=[0.15, 0.4]
    )
    draws = mal_sample(params, 800_000, seed=77)
    emp = np.cov(draws.T)
    np.testing.assert_allclose(emp, implied_covariance(params), rtol=0.03)


def test_linear_combine_unit_vector_recovers_marginal():
    params = MALParams(
        mu=[0.4, -1.0, 0.2],
        delta=[0.9, 1.7, 0.3],
        psi=[[1, 0.2, 0.1], [0.2, 1, -0.3], [0.1, -0.3, 1]],
        tau=[0.1, 0.3, 0.8],
    )
    for j in range(3):
        b = np.zeros(3)
        b[j] = 1.0
        al = linear_combine(b, params)
        assert al.mu_star == pytest.approx(params.mu[j], abs=1e-12)
        assert al.tau_star == pytest.approx(params.tau[j], abs=1e-12)
        assert al.delta_star == pytest.approx(params.delta[j], abs=1e-12)


def test_linear_combine_median_levels():
    params = MALParams(
        mu=[0.0, 0.0], delta=[1.0, 2.0], psi=[[1, 0.3], [0.3, 1]], tau=[0.5, 0.5]
    )
    b = np.array([0.6, 0.4])
    al = linear_combine(b, params)
    assert al.tau_star == pytest.approx(0.5, abs=1e-12)
    a = params.sigma() * np.outer(params.delta, params.delta)
    expected = np.sqrt(b @ a @ b) / (2.0 * np.sqrt(2.0))
    assert al.delta_star == pytest.approx(expected, rel=1e-12)


def test_linear_combine_sampling_ks():
    rng = np.random.default_rng(42)
    n = 200_000
    for _ in range(5):
        p = 3
        tau = rng.uniform(0.05, 0.95, size=p)
        corr = np.array([[1, 0.3, 0.5], [0.3, 1, 0.2], [0.5, 0.2, 1]])
        params = MALParams(
            mu=rng.normal(size=p),
            delta=rng.uniform(0.3, 2.0, size=p),
            psi=corr,
            tau=tau,
        )
        b = rng.normal(size=p)
        al = linear_combine(b, params)
        draws = mal_sample(params, n, seed=rng) @ b
        sorted_draws = np.sort(draws)
        theo = al_cdf(sorted_draws, al.mu_star, al.tau_star, al.delta_star)
        emp_hi = np.arange(1, n + 1) / n
        emp_lo = np.arange(0, n) / n
        ks = max(np.abs(theo - emp_hi).max(), np.abs(theo - emp_lo).max())
        assert ks < 0.01


def test_linear_combine_validation():
    params = MALParams(mu=[0.0, 0.0], delta=[1.0, 1.0], psi=np.eye(2), tau=[0.1, 0.1])
    with pytest.raises(ValidationError):
        linear_combine(np.zeros(2), params)
    with pytest.raises(ValidationError):
        linear_combine(np.ones(3), params)


# -- univariate helpers ------------------------------------------------------


def test_al_density_normalizes_and_matches_cdf():
    from scipy import integrate

    mu, tau, delta = 0.3, 0.2, 1.4
    total, _ = integrate.quad(
        lambda y: np.exp(al_log_density(y, mu, tau, delta)),
        -300,
        300,
        points=[mu],
        limit=500,
    )
    assert total == pytest.approx(1.0, abs=1e-9)
    for y in (-3.0, 0.3, 2.5):
        num, _ = integrate.quad(
            lambda s: np.exp(al_log_density(s, mu, tau, delta)),
            -300,
            y,
            points=[mu] if y > mu else None,
            limit=500,
        )
        assert al_cdf(y, mu, tau, delta) == pytest.approx(num, abs=1e-9)


def test_al_cdf_at_location_equals_tau():
    for tau in (0.01, 0.25, 0.5, 0.95):
        assert al_cdf(0.0, 0.0, tau, 2.0) == pytest.approx(tau, abs=1e-14)


def test_al_quantile_inverts_cdf():
    rng = np.random.default_rng(3)
    u = rng.uniform(0.001, 0.999, size=500)
    y = al_quantile(u, -0.4, 0.15, 0.8)
    np.testing.assert_allclose(al_cdf(y, -0.4, 0.15, 0.8), u, atol=1e-12)


def test_al_mean_matches_samples():
    rng = np.random.default_rng(11)
    u = rng.uniform(1e-9, 1 - 1e-9, size=2_000_000)
    y = al_quantile(u, 0.5, 0.2, 1.3)
    assert y.mean() == pytest.approx(al_mean(0.5, 0.2, 1.3), abs=0.01)


def test_alparams_container():
    al = ALParams(mu_star=1.0, tau_star=0.2, delta_star=0.5)
    assert al.mu_star == 1.0 and al.tau_star == 0.2 and al.delta_star == 0.5


def test_cholesky_with_jitter_retries_a_singular_matrix_and_rejects_an_indefinite_one():
    singular = np.ones((2, 2))  # positive semidefinite, rank 1
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(singular)
    low = cholesky_with_jitter(singular)
    assert np.allclose(low @ low.T, singular + JITTER * np.eye(2), rtol=0.0, atol=1e-15)
    assert np.array_equal(low, np.tril(low))
    with pytest.raises(NumericError, match="not positive definite even after jitter"):
        cholesky_with_jitter(np.array([[1.0, 2.0], [2.0, 1.0]]))
