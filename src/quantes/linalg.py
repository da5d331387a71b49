"""Small linear-algebra helpers shared across modules.

Each tolerance is a module constant, fixed for every caller: the jitter of
the one Cholesky retry, the eigenvalue floor of the correlation projection
and the absolute tolerance of the correlation check.
"""

import numpy as np

from .exceptions import NumericError, ValidationError

JITTER = 1e-10
EIG_FLOOR = 1e-8
CORR_TOL = 1e-8


def cholesky_with_jitter(a):
    """Lower Cholesky factor of ``a``, retrying once with ``JITTER`` on the
    diagonal before giving up."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    try:
        return np.linalg.cholesky(a + JITTER * np.eye(a.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise NumericError("matrix is not positive definite even after jitter") from exc


def nearest_pd_correlation(a):
    """Project a symmetric matrix to a positive definite correlation matrix.

    Symmetrizes, clips eigenvalues at ``EIG_FLOOR``, then rescales to a unit
    diagonal. Congruence by a positive diagonal preserves definiteness, so a
    single clipping pass suffices.
    """
    a = np.asarray(a, dtype=float)
    sym = 0.5 * (a + a.T)
    vals, vecs = np.linalg.eigh(sym)
    clipped = (vecs * np.maximum(vals, EIG_FLOOR)) @ vecs.T
    d = np.sqrt(np.diag(clipped))
    if np.any(d <= 0.0) or not np.all(np.isfinite(d)):
        raise NumericError("cannot rescale matrix with non-positive diagonal")
    corr = clipped / np.outer(d, d)
    np.fill_diagonal(corr, 1.0)
    return 0.5 * (corr + corr.T)


def check_correlation(psi):
    """Validate that ``psi`` is a finite, symmetric PD correlation matrix. The
    symmetry and unit-diagonal tests are ``np.allclose``'s with ``atol=CORR_TOL``."""
    psi = np.asarray(psi, dtype=float)
    if psi.ndim != 2 or psi.shape[0] != psi.shape[1]:
        raise ValidationError("correlation matrix must be square")
    if not np.isfinite(psi).all():
        raise ValidationError("correlation matrix must be finite")
    if not (np.abs(psi - psi.T) <= CORR_TOL + 1e-5 * np.abs(psi.T)).all():
        raise ValidationError("correlation matrix must be symmetric")
    if not (np.abs(np.diagonal(psi) - 1.0) <= CORR_TOL + 1e-5).all():
        raise ValidationError("correlation matrix must have a unit diagonal")
    if np.linalg.eigvalsh(psi).min() <= 0.0:
        raise ValidationError("correlation matrix must be positive definite")
    return psi
