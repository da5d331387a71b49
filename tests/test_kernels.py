"""Filter kernels against the explicit time loops they replaced, and the
analytic block gradients against central differences.

The ``_ref_*`` functions below are the per-period recursions, kept as the
reference: the lfilter paths, the violation-indexed offset and the einsum
Q-function must reproduce them on seeded inputs.
"""

import math
import warnings

import numpy as np
import pytest

from quantes import dynamics as dyn
from quantes import estimation as est
from quantes.exceptions import PathError
from quantes.mal import MALConstraints
from quantes.simulate import SimScenario, generate, reference_params

RTOL = 1e-12
KINDS = (dyn.SAV, dyn.AS, dyn.IG)
LINKS = (dyn.MULT, dyn.AR)
_LOG_FLOOR = math.log(1e-10)


# -- reference loops ----------------------------------------------------------


def _ref_sav_loop(omega, eta, beta1, y, q0):
    q = np.empty(y.size)
    q[0] = q0
    for t in range(1, y.size):
        q[t] = omega + eta * q[t - 1] + beta1 * abs(y[t - 1])
    return q


def _ref_as_loop(omega, eta, beta1, beta2, y, q0):
    q = np.empty(y.size)
    q[0] = q0
    for t in range(1, y.size):
        prev = y[t - 1]
        pos = prev if prev > 0.0 else 0.0
        neg = -prev if prev < 0.0 else 0.0
        q[t] = omega + eta * q[t - 1] + beta1 * pos + beta2 * neg
    return q


def _ref_ig_loop(omega, eta, beta1, y, q0):
    # Returns the first index with a non-positive radicand, or -1 if clean.
    q = np.empty(y.size)
    q[0] = q0
    for t in range(1, y.size):
        rad = omega + eta * q[t - 1] * q[t - 1] + beta1 * y[t - 1] * y[t - 1]
        if rad <= 0.0:
            return q, t
        q[t] = -np.sqrt(rad)
    return q, -1


def _ref_ar_offset_loop(g1, g2, g3, q, y, x0):
    x = np.empty(y.size)
    x[0] = x0
    for t in range(1, y.size):
        if y[t - 1] <= q[t - 1]:
            x[t] = g1 + g2 * (q[t - 1] - y[t - 1]) + g3 * x[t - 1]
        else:
            x[t] = x[t - 1]
    return x


def _ref_sav_sens(omega, eta, beta1, y, q0):
    T = y.size
    q = np.empty(T)
    dq = np.zeros((T, 3))
    q[0] = q0
    for t in range(1, T):
        ay = abs(y[t - 1])
        q[t] = omega + eta * q[t - 1] + beta1 * ay
        dq[t, 0] = 1.0 + eta * dq[t - 1, 0]
        dq[t, 1] = q[t - 1] + eta * dq[t - 1, 1]
        dq[t, 2] = ay + eta * dq[t - 1, 2]
    return q, dq


def _ref_as_sens(omega, eta, beta1, beta2, y, q0):
    T = y.size
    q = np.empty(T)
    dq = np.zeros((T, 4))
    q[0] = q0
    for t in range(1, T):
        prev = y[t - 1]
        pos = prev if prev > 0.0 else 0.0
        neg = -prev if prev < 0.0 else 0.0
        q[t] = omega + eta * q[t - 1] + beta1 * pos + beta2 * neg
        dq[t, 0] = 1.0 + eta * dq[t - 1, 0]
        dq[t, 1] = q[t - 1] + eta * dq[t - 1, 1]
        dq[t, 2] = pos + eta * dq[t - 1, 2]
        dq[t, 3] = neg + eta * dq[t - 1, 3]
    return q, dq


def _ref_ig_sens(omega, eta, beta1, y, q0):
    T = y.size
    q = np.empty(T)
    dq = np.zeros((T, 3))
    q[0] = q0
    for t in range(1, T):
        y2 = y[t - 1] * y[t - 1]
        rad = omega + eta * q[t - 1] * q[t - 1] + beta1 * y2
        if rad <= 0.0:
            return q, dq, t
        q[t] = -np.sqrt(rad)
        # d(-sqrt(rad)) = d(rad) / (2 q_t) because q_t = -sqrt(rad)
        two_q_prev = 2.0 * q[t - 1]
        inv = 1.0 / (2.0 * q[t])
        dq[t, 0] = (1.0 + eta * two_q_prev * dq[t - 1, 0]) * inv
        dq[t, 1] = (q[t - 1] * q[t - 1] + eta * two_q_prev * dq[t - 1, 1]) * inv
        dq[t, 2] = (y2 + eta * two_q_prev * dq[t - 1, 2]) * inv
    return q, dq, -1


def _ref_ar_offset_sens(g1, g2, g3, q, dq, y, x0):
    T = y.size
    nq = dq.shape[1]
    x = np.empty(T)
    dx = np.zeros((T, nq + 3))
    x[0] = x0
    for t in range(1, T):
        if y[t - 1] <= q[t - 1]:
            x[t] = g1 + g2 * (q[t - 1] - y[t - 1]) + g3 * x[t - 1]
            for i in range(nq):
                dx[t, i] = g2 * dq[t - 1, i] + g3 * dx[t - 1, i]
            dx[t, nq] = 1.0 + g3 * dx[t - 1, nq]
            dx[t, nq + 1] = (q[t - 1] - y[t - 1]) + g3 * dx[t - 1, nq + 1]
            dx[t, nq + 2] = x[t - 1] + g3 * dx[t - 1, nq + 2]
        else:
            x[t] = x[t - 1]
            for i in range(nq + 3):
                dx[t, i] = dx[t - 1, i]
    return x, dx


def _ref_block_sens(kind, link_kind, block, ycol, q0j, x0j, tau_j):
    if kind == dyn.SAV:
        q, dq = _ref_sav_sens(block[0], block[1], block[2], ycol, q0j)
        nq = 3
    elif kind == dyn.AS:
        q, dq = _ref_as_sens(block[0], block[1], block[2], block[3], ycol, q0j)
        nq = 4
    else:
        q, dq, bad = _ref_ig_sens(block[0], block[1], block[2], ycol, q0j)
        nq = 3
        if bad >= 0:
            return None
    if not np.all(np.isfinite(q)):
        return None

    if link_kind == dyn.MULT:
        g0 = min(block[nq], 60.0)
        factor = 1.0 + math.exp(g0)
        delta = -tau_j * factor * q
        if not np.all(delta > 0.0):
            return None
        ddelta = np.empty((ycol.size, nq + 1))
        ddelta[:, :nq] = -tau_j * factor * dq
        ddelta[:, nq] = -tau_j * math.exp(g0) * q
        return q, delta, dq, ddelta

    gamma = np.exp(np.clip(block[nq : nq + 3], _LOG_FLOOR, 60.0))
    x, dx = _ref_ar_offset_sens(gamma[0], gamma[1], gamma[2], q, dq, ycol, x0j)
    delta = -tau_j * (q - x)
    if not np.all(delta > 0.0):
        return None
    des = np.empty((ycol.size, nq + 3))
    des[:, :nq] = dq - dx[:, :nq]
    # chain rule through the log-parameterization of the gammas
    des[:, nq:] = -dx[:, nq:] * gamma
    return q, delta, dq, -tau_j * des


def _ref_assemble(y, q, dl, inv, lin, skew, logdet, u, z, dq, ddl, want_grad):
    T, p = y.shape
    u_rows = (y - q) / dl
    au = np.dot(u_rows, inv)
    val = -0.5 * T * logdet - 0.5 * skew * np.sum(u)
    for t in range(T):
        mt = 0.0
        for j in range(p):
            mt += u_rows[t, j] * au[t, j]
            val += u_rows[t, j] * lin[j] - np.log(dl[t, j])
        val -= 0.5 * z[t] * mt
    if not want_grad:
        return val, np.zeros(1)
    nb = dq.shape[2]
    grad = np.zeros((p, nb))
    for j in range(p):
        for t in range(T):
            coeff = lin[j] - z[t] * au[t, j]
            inv_dl = 1.0 / dl[t, j]
            uj = u_rows[t, j]
            for i in range(nb):
                dd = ddl[j, t, i]
                du = (-dq[j, t, i] - uj * dd) * inv_dl
                grad[j, i] += coeff * du - dd * inv_dl
    return val, grad


def _ref_path(kind, coef, y, q0):
    """Reference path and Jacobian; the value-only loop agrees with the
    sensitivity loop up to rounding (IG groups beta * y * y differently)."""
    if kind == dyn.SAV:
        q, dq = _ref_sav_sens(*coef, y, q0)
    elif kind == dyn.AS:
        q, dq = _ref_as_sens(*coef, y, q0)
    else:
        q, dq, bad = _ref_ig_sens(*coef, y, q0)
        assert bad < 0
    loop = {dyn.SAV: _ref_sav_loop, dyn.AS: _ref_as_loop}.get(kind)
    q_loop = loop(*coef, y, q0) if loop else _ref_ig_loop(*coef, y, q0)[0]
    np.testing.assert_allclose(q_loop, q, rtol=RTOL, atol=0.0)
    return q, dq


# -- seeded inputs ------------------------------------------------------------


def _coefs(kind, rng):
    """Coefficients with strictly negative quantile paths."""
    eta = rng.uniform(0.5, 0.97)
    if kind == dyn.SAV:
        return (rng.uniform(-0.3, -0.02), eta, rng.uniform(-0.4, -0.05))
    if kind == dyn.AS:
        return (rng.uniform(-0.3, -0.02), eta, rng.uniform(-0.4, -0.05),
                rng.uniform(-0.4, -0.05))
    return (rng.uniform(0.05, 0.5), eta, rng.uniform(0.02, 0.3))


def _series(rng, T=400):
    return rng.standard_normal(T) * rng.uniform(0.5, 3.0)


SEEDS = range(6)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_path_and_jacobian_match_loops(kind, seed):
    rng = np.random.default_rng([seed, KINDS.index(kind)])
    y = _series(rng)
    coef = _coefs(kind, rng)
    q0 = -rng.uniform(0.5, 3.0)
    q_ref, dq_ref = _ref_path(kind, coef, y, q0)
    q, none = dyn.filter_path(kind, coef, y, q0)
    assert none is None
    np.testing.assert_allclose(q, q_ref, rtol=RTOL, atol=0.0)
    q_j, dq = dyn.filter_path(kind, np.array(coef), y, q0, jacobian=True)
    assert np.array_equal(q_j, q)
    assert dq.shape == dq_ref.shape == (y.size, len(coef))
    np.testing.assert_allclose(dq, dq_ref, rtol=RTOL, atol=0.0)
    spec = dyn.CaviarSpec(kind, coef[0], coef[1], list(coef[2:]))
    assert np.array_equal(dyn.quantile_path(spec, y, q0), q)


@pytest.mark.parametrize("seed", SEEDS)
def test_ig_first_bad_radicand_index(seed):
    rng = np.random.default_rng([seed, 99])
    y = _series(rng, T=300)
    # omega < 0 drives the radicand down until it crosses zero
    coef = (-rng.uniform(0.5, 2.0), rng.uniform(0.3, 0.9), rng.uniform(0.01, 0.1))
    q0 = -rng.uniform(2.0, 6.0)
    _, bad = _ref_ig_loop(*coef, y, q0)
    assert bad > 0
    with pytest.raises(PathError) as info:
        dyn.filter_path(dyn.IG, coef, y, q0)
    assert info.value.index == bad
    with pytest.raises(PathError) as info:
        dyn.filter_path(dyn.IG, coef, y, q0, jacobian=True)
    assert info.value.index == bad
    assert _ref_ig_sens(*coef, y, q0)[2] == bad


def _offset_cases(rng, q, y):
    """(label, q) pairs: the model path, no violation, every violation, and
    violations on even rows only, each followed by a row 3 above its
    quantile."""
    alternate = y + np.where(np.arange(y.size) % 2 == 0, 0.5, -3.0)
    return [
        ("model", q),
        ("none", np.full(y.size, y.min() - 1.0)),
        ("all", y + rng.uniform(0.1, 1.0, y.size)),
        ("alternate", alternate),
    ]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_ar_offset_and_derivatives_match_loop(kind, seed):
    rng = np.random.default_rng([seed, 7, KINDS.index(kind)])
    y = _series(rng)
    coef = _coefs(kind, rng)
    q, dq = _ref_path(kind, coef, y, -1.5)
    for label, qc in _offset_cases(rng, q, y):
        for gamma in ([0.05, 0.12, 0.8], rng.uniform([0.01, 0.5, 0.1], [0.2, 2.0, 0.9])):
            x0 = rng.uniform(0.0, 1.0)
            g1, g2, g3 = gamma
            x_ref = _ref_ar_offset_loop(g1, g2, g3, qc, y, x0)
            x_ref2, dx_ref = _ref_ar_offset_sens(g1, g2, g3, qc, dq, y, x0)
            assert np.array_equal(x_ref, x_ref2)
            x, none = dyn.ar_offset(np.array(gamma), qc, y, x0)
            assert none is None
            # same operations in the same order as the loop: equal, not close
            np.testing.assert_array_equal(x, x_ref, err_msg=label)
            x2, dx = dyn.ar_offset(np.array(gamma), qc, y, x0, grad=True)
            assert np.array_equal(x, x2)
            # the gamma columns of the loop's sensitivities
            np.testing.assert_array_equal(dx, dx_ref[:, -3:], err_msg=label)
            if label == "none":
                assert np.all(x == x0) and np.all(dx == 0.0)


def _block(kind, link_kind, rng):
    block = list(_coefs(kind, rng))
    if link_kind == dyn.MULT:
        block.append(rng.uniform(-2.5, -0.5))
    else:
        block.extend(np.log(rng.uniform([0.01, 0.01, 0.3], [0.2, 0.3, 0.9])))
    return np.array(block)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("link_kind", LINKS)
@pytest.mark.parametrize("seed", range(3))
def test_block_paths_and_assemble_match_loops(kind, link_kind, seed):
    rng = np.random.default_rng([seed, 3, KINDS.index(kind), LINKS.index(link_kind)])
    T, p = 300, 3
    y = np.column_stack([_series(rng, T) for _ in range(p)])
    tau = rng.uniform(0.05, 0.2, p)
    q0 = -rng.uniform(0.5, 3.0, p)
    x0s = rng.uniform(0.0, 1.0, p)
    blocks = [_block(kind, link_kind, rng) for _ in range(p)]
    nb = blocks[0].size
    q = np.empty((T, p))
    dl = np.empty((T, p))
    dq = np.zeros((p, T, nb))
    ddl = np.empty((p, T, nb))
    for j, block in enumerate(blocks):
        ref = _ref_block_sens(kind, link_kind, block, y[:, j], q0[j], x0s[j], tau[j])
        # one asset alone is a one-column panel
        new = est._panel_paths(
            kind, link_kind, block[None], y[:, [j]], q0[[j]], x0s[[j]], tau[[j]]
        )
        np.testing.assert_allclose(new[0][:, 0], ref[0], rtol=RTOL, atol=0.0)
        np.testing.assert_allclose(new[1][:, 0], ref[1], rtol=RTOL, atol=0.0)
        q[:, j], dl[:, j] = ref[0], ref[1]
        dq[j, :, : ref[2].shape[1]] = ref[2]
        ddl[j] = ref[3]
    panel = est._panel_paths(kind, link_kind, np.array(blocks), y, q0, x0s, tau)
    np.testing.assert_allclose(panel[0], q, rtol=RTOL, atol=0.0)
    np.testing.assert_allclose(panel[1], dl, rtol=RTOL, atol=0.0)

    psi = np.array([[1.0, 0.3, 0.5], [0.3, 1.0, 0.2], [0.5, 0.2, 1.0]])
    cache = est._SigmaCache(psi, MALConstraints.from_levels(tau))
    u, z = est.e_step(y, q, dl, psi, MALConstraints.from_levels(tau))
    args = (y, q, dl, cache.inv, cache.lin, cache.skew, cache.logdet, u, z, dq, ddl)
    val_ref, grad_ref = _ref_assemble(*args, True)
    val, grad = est._assemble(y, q, dl, cache, u, z, dq, ddl)
    assert val == pytest.approx(val_ref, rel=RTOL, abs=0.0)
    np.testing.assert_allclose(grad, grad_ref, rtol=1e-10, atol=1e-10 * np.abs(grad_ref).max())
    val_only, none = est._assemble(y, q, dl, cache, u, z)
    assert none is None and val_only == val
    # one derivative array alone is the sum with the other one zeroed
    _, grad_q = _ref_assemble(*args[:-1], np.zeros_like(ddl), True)
    np.testing.assert_allclose(
        est._assemble(y, q, dl, cache, u, z, dq)[1], grad_q,
        rtol=1e-10, atol=1e-10 * np.abs(grad_q).max(),
    )
    _, grad_l = _ref_assemble(*args[:-2], np.zeros_like(dq), ddl, True)
    np.testing.assert_allclose(
        est._assemble(y, q, dl, cache, u, z, None, ddl)[1], grad_l,
        rtol=1e-10, atol=1e-10 * np.abs(grad_l).max(),
    )


# -- analytic block gradients against central differences --------------------


def _step_problem(kind, link_kind, T=160, p=2, seed=17):
    params = reference_params(kind, link_kind, p)
    tau = np.full(p, 0.1)
    y = generate(SimScenario(params=params, tau=tau, T=T, seed=seed), 0)
    q0 = np.array([dyn.initial_quantile(y[:, j], tau[j]) for j in range(p)])
    x0s = np.array(
        [dyn.initial_es_offset(y[:, j], q0[j]) if link_kind == dyn.AR else 0.0
         for j in range(p)]
    )
    links = tuple(
        dyn.ESLink(dyn.AR, gamma=link.gamma, x0=x0s[j]) if link_kind == dyn.AR else link
        for j, link in enumerate(params.links)
    )
    params = est.ParameterSet(specs=params.specs, links=links, psi=params.psi)
    cons = MALConstraints.from_levels(tau)
    q, dl = est._paths(params.specs, params.links, y, q0, tau)
    u, z = est.e_step(y, q, dl, params.psi, cons)
    cache = est._SigmaCache(params.psi, cons)
    theta = est._pack(params.specs, params.links)
    return y, tau, q0, x0s, q, dl, u, z, cache, theta


def _central_difference(fun, theta, rel=1e-6):
    grad = np.empty_like(theta)
    for i in range(theta.size):
        h = rel * max(1.0, abs(theta.flat[i]))
        up, down = theta.copy(), theta.copy()
        up.flat[i] += h
        down.flat[i] -= h
        grad.flat[i] = (fun(up) - fun(down)) / (2.0 * h)
    return grad


def _blocks(kind, link_kind, y, tau, q0, x0s, q, dl):
    """The quantile block (scales frozen at ``dl``) and the link block
    (quantile paths frozen at ``q``), each as (paths function, columns of
    the packed coefficients)."""
    nq = 4 if kind == dyn.AS else 3
    return (
        (lambda b: est._quantile_block(b, y, kind, q0, dl), slice(None, nq)),
        (lambda b: est._link_block(b, y, link_kind, tau, x0s, q), slice(nq, None)),
    )


def _block_value(block, y, cache, u, z, b):
    paths = block(b)
    return est._assemble(y, paths[0], paths[1], cache, u, z)[0]


def _check_gradient(block, b, y, cache, u, z):
    paths = block(b)
    assert paths is not None
    val, grad = est._assemble(y, *paths[:2], cache, u, z, *paths[2:])
    assert val == _block_value(block, y, cache, u, z, b)
    fd = _central_difference(lambda c: _block_value(block, y, cache, u, z, c), b)
    np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-6 * max(1.0, np.abs(fd).max()))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("link_kind", LINKS)
def test_quantile_step_gradient_matches_central_differences(kind, link_kind):
    y, tau, q0, x0s, q, dl, u, z, cache, theta = _step_problem(kind, link_kind)
    (block, cols), _ = _blocks(kind, link_kind, y, tau, q0, x0s, q, dl)
    # off the truth, so the check is not made on a near-zero gradient
    _check_gradient(block, theta[:, cols] * 1.05, y, cache, u, z)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("link_kind", LINKS)
def test_link_step_gradient_matches_central_differences(kind, link_kind):
    y, tau, q0, x0s, q, dl, u, z, cache, theta = _step_problem(kind, link_kind)
    _, (block, cols) = _blocks(kind, link_kind, y, tau, q0, x0s, q, dl)
    _check_gradient(block, theta[:, cols] + 0.1, y, cache, u, z)


# -- the Levenberg-Marquardt move -------------------------------------------------


def test_metric_is_the_hessian_where_the_quantile_block_is_quadratic():
    # with the scales frozen and eta held, a SAV path is linear in omega and
    # beta, so the frozen-scale Q is quadratic there and -H is its Hessian
    y, tau, q0, x0s, q, dl, u, z, cache, theta = _step_problem(dyn.SAV, dyn.MULT)
    (block, cols), _ = _blocks(dyn.SAV, dyn.MULT, y, tau, q0, x0s, q, dl)
    b = theta[:, cols] * 1.05
    paths = block(b)
    _, _, metric = est._assemble(y, *paths[:2], cache, u, z, *paths[2:], metric=True)
    free = np.array([0, 2, 3, 5])  # omega and beta of both assets
    hessian = np.empty((free.size, free.size))
    for col, i in enumerate(free):
        h = 1e-3 * max(1.0, abs(b.flat[i]))
        up, down = b.copy(), b.copy()
        up.flat[i] += h
        down.flat[i] -= h
        g_up = est._assemble(y, *block(up)[:2], cache, u, z, *block(up)[2:])[1]
        g_down = est._assemble(y, *block(down)[:2], cache, u, z, *block(down)[2:])[1]
        hessian[:, col] = (g_up - g_down).ravel()[free] / (2.0 * h)
    np.testing.assert_allclose(metric[np.ix_(free, free)], -hessian, rtol=1e-5)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("link_kind", LINKS)
def test_metric_uses_the_jacobian_of_the_scaled_residuals(kind, link_kind):
    # H = sum_t z_t J_t' inv J_t with J the central-difference derivative of
    # (y - q) / dl, for each block; the link block's J is all through dl
    y, tau, q0, x0s, q, dl, u, z, cache, theta = _step_problem(kind, link_kind)
    for block, cols in _blocks(kind, link_kind, y, tau, q0, x0s, q, dl):
        b = theta[:, cols] * 1.05
        paths = block(b)
        _, _, metric = est._assemble(y, *paths[:2], cache, u, z, *paths[2:], metric=True)
        jac = np.empty(y.shape + (b.size,))
        for i in range(b.size):
            h = 1e-6 * max(1.0, abs(b.flat[i]))
            up, down = b.copy(), b.copy()
            up.flat[i] += h
            down.flat[i] -= h
            r_up = (y - block(up)[0]) / block(up)[1]
            r_down = (y - block(down)[0]) / block(down)[1]
            jac[:, :, i] = (r_up - r_down) / (2.0 * h)
        want = np.einsum("t,tji,jk,tkl->il", z, jac, cache.inv, jac)
        np.testing.assert_allclose(metric, want, rtol=1e-5, atol=1e-7 * np.abs(want).max())


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("link_kind", LINKS)
def test_one_lm_move_keeps_the_block_value_and_the_box(kind, link_kind):
    y, tau, q0, x0s, q, dl, u, z, cache, theta = _step_problem(kind, link_kind)
    lo, hi = est._bounds(kind, link_kind)
    start = theta * 1.05
    start[:, 1] = est._ETA_BOUND  # eta on its bound
    blocks = _blocks(kind, link_kind, y, tau, q0, x0s, q, dl)
    for (block, cols), log_scale in zip(blocks, (False, True)):
        paths = block(start[:, cols])
        _, _, metric = est._assemble(y, *paths[:2], cache, u, z, *paths[2:], metric=True)
        np.testing.assert_allclose(metric, metric.T, rtol=1e-12,
                                   atol=1e-12 * np.abs(metric).max())
        eig = np.linalg.eigvalsh(metric)
        assert eig.min() >= -1e-10 * eig.max()
        steps = est._lm_move(block, start[:, cols], lo[cols], hi[cols], log_scale, y, cache, u, z)
        assert 1 <= len(steps) <= est._LM_STEPS
        values = [_block_value(block, y, cache, u, z, b)
                  for b in [start[:, cols], *(moved for moved, _, _ in steps)]]
        assert np.all(np.diff(values) >= 0.0)
        for moved, moved_paths, value in steps:
            # each kept step carries its own paths and the Q-value there
            assert value == est._assemble(y, *moved_paths[:2], cache, u, z)[0]
            assert np.all(lo[cols] <= moved) and np.all(moved <= hi[cols])
            after = start.copy()
            after[:, cols] = moved
            assert np.all(np.abs(after[:, 1]) <= est._ETA_BOUND)


# -- one path evaluator ---------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("link_kind", LINKS)
def test_risk_path_equals_the_em_panel(kind, link_kind):
    # risk_path, the EM's panel of the packed parameters and the link step's
    # scale all run one quantile filter and one scale function: equal, not close
    p, T = 3, 2000
    truth = reference_params(kind, link_kind, p)
    tau = np.full(p, 0.1)
    y = generate(SimScenario(params=truth, tau=tau, T=T, seed=3), 0)
    q0 = np.array([dyn.initial_quantile(y[:, j], tau[j]) for j in range(p)])
    x0s = np.array([link.x0 for link in truth.links])
    theta = est._pack(truth.specs, truth.links)
    specs, links = est._unpack(theta, kind, link_kind, x0s)
    q, dl = est._panel_paths(kind, link_kind, theta, y, q0, x0s, tau)
    for j in range(p):
        path = dyn.risk_path(specs[j], links[j], y[:, j], q0[j], tau[j])
        assert np.array_equal(path.quantile, q[:, j])
        assert np.array_equal(path.delta, dl[:, j])
    _, (block, cols) = _blocks(kind, link_kind, y, tau, q0, x0s, q, dl)
    assert np.array_equal(block(theta[:, cols])[1], dl)


def test_em_panel_rejects_non_finite_coefficients_as_a_path_error():
    y, tau, q0, x0s, q, dl, u, z, cache, theta = _step_problem(dyn.SAV, dyn.MULT)
    for bad in (np.nan, np.inf):
        broken = theta.copy()
        broken[0, 0] = bad
        with pytest.raises(PathError):
            est._panel_paths(dyn.SAV, dyn.MULT, broken, y, q0, x0s, tau)


def test_link_step_rejects_an_exploding_offset_without_a_warning():
    # g3 = exp(60) blows the offset up: the scale is rejected before the
    # chain rule multiplies the (infinite) derivatives by gamma
    y, tau, q0, x0s, q, dl, u, z, cache, theta = _step_problem(dyn.SAV, dyn.AR)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        paths = est._link_block(np.tile([-2.0, 8.0, 60.0], (y.shape[1], 1)), y, dyn.AR, tau, x0s, q)
    assert paths is None


def test_link_step_rejects_an_overflowing_gradient_without_a_warning():
    # every row a violation with g3 = exp(6): the offset ends near 4.5e307,
    # finite, but the chain rule carries its derivative past the overflow
    T = 120
    y, q = np.full((T, 1), -1.0), np.full((T, 1), -0.5)
    tau = np.array([0.1])
    theta = np.array([0.0, 0.0, 6.0])
    x, _ = dyn.ar_offset(np.exp(theta), q[:, 0], y[:, 0], 0.0)
    assert np.isfinite(x[-1]) and x[-1] > 1e307
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        paths = est._link_block(theta[None], y, dyn.AR, tau, np.zeros(1), q)
    assert paths is None
