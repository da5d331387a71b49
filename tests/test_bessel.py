import numpy as np
import pytest

from quantes.bessel import log_bessel_k
from quantes.exceptions import ValidationError

# High-precision reference values (40-digit arbitrary-precision evaluation
# of the modified Bessel function, logged).
REFERENCE = [
    (0.0, 0.5, -0.078589769869081417),
    (0.0, 1.0, -0.8650643989067881),
    (0.5, 2.0, -2.1207822376352452),
    (-0.5, 2.0, -2.1207822376352452),
    (1.0, 3.0, -3.2149726738773356),
    (2.5, 10.0, -10.640322251618633),
    (-3.5, 0.07, 12.240761762945483),
    (0.0, 250.0, -252.53543811042727),
    (4.0, 10000.0, -10004.378591372725),
]


@pytest.mark.parametrize("nu,x,expected", REFERENCE)
def test_matches_high_precision_reference(nu, x, expected):
    assert log_bessel_k(nu, x) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_integral_representation_oracle():
    # K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt
    from scipy import integrate

    for nu, x in [(0.0, 1.0), (0.7, 2.5), (-1.2, 0.8)]:
        val, _ = integrate.quad(
            lambda t: np.exp(-x * np.cosh(t)) * np.cosh(nu * t), 0, 60, limit=400
        )
        assert log_bessel_k(nu, x) == pytest.approx(np.log(val), rel=1e-10)


def test_half_integer_closed_form():
    # K_{1/2}(x) = sqrt(pi/(2x)) exp(-x)
    x = np.array([0.01, 0.3, 1.0, 7.0, 120.0])
    expected = 0.5 * np.log(np.pi / (2.0 * x)) - x
    np.testing.assert_allclose(log_bessel_k(0.5, x), expected, rtol=1e-13)
    # symmetry in the order
    np.testing.assert_allclose(log_bessel_k(-0.5, x), expected, rtol=1e-13)


def test_recurrence_in_log_space():
    # K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x), checked on a wide grid
    # entirely through the log-scale interface.
    nus = np.array([0.5, 1.0, 1.5, 2.0, 3.7, 6.0])
    xs = np.array([0.05, 0.3, 1.0, 4.0, 30.0, 300.0, 2e4])
    for nu in nus:
        lhs = log_bessel_k(nu + 1.0, xs)
        rhs = np.logaddexp(
            log_bessel_k(nu - 1.0, xs), np.log(2.0 * nu / xs) + log_bessel_k(nu, xs)
        )
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-9)


def test_finite_over_usable_range():
    xs = np.logspace(-8, 8, 60)
    for nu in (-2.5, -0.5, 0.0, 0.5, 3.0):
        vals = log_bessel_k(nu, xs)
        assert np.all(np.isfinite(vals))


def test_monotone_decreasing_in_x():
    xs = np.linspace(0.1, 50.0, 400)
    vals = log_bessel_k(1.3, xs)
    assert np.all(np.diff(vals) < 0.0)


def test_rejects_nonpositive_argument():
    with pytest.raises(ValidationError):
        log_bessel_k(0.5, 0.0)
    with pytest.raises(ValidationError):
        log_bessel_k(0.5, -1.0)
