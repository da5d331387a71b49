"""Modified Bessel function of the second kind, in log scale.

The likelihood needs log K_nu(x) for half-integer-adjacent orders at
arguments spanning many decades, so the exponentially scaled routine is
used and unscaled in log space: log K_nu(x) = log(kve(nu, x)) - x.
"""

import numpy as np
from scipy import special

from .exceptions import ValidationError

__all__ = ["log_bessel_k"]


def log_bessel_k(nu, x):
    """log K_nu(x) for x > 0, elementwise.

    Finite across the whole usable argument range (tiny x, where K diverges
    slowly, through x ~ 1e8, where the direct function underflows).
    """
    nu = np.asarray(nu, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0) or not np.all(np.isfinite(x)):
        raise ValidationError("log_bessel_k requires strictly positive finite x")
    out = np.log(special.kve(nu, x)) - x
    return out if out.ndim else float(out)
