"""The Bessel cross-check's reference: the Matern kernel by its Bessel
route at every nu, the closed forms bypassed."""

import numpy as np

from gpbandit.kernels import _ZERO_SNAP, KernelSpec, _matern_bessel


def matern_via_bessel(spec: KernelSpec, r) -> np.ndarray:
    """Force the Bessel-based route, bypassing closed-form dispatch.

    Used to cross-check the half-integer closed forms.
    """
    r = np.asarray(r, dtype=float)
    with np.errstate(over="ignore"):
        s = r / spec.lengthscale  # inf past the float range; K_nu(inf) = 0
    zero = s < _ZERO_SNAP
    s_safe = np.where(zero, 1.0, s)
    return np.where(zero, 1.0, _matern_bessel(s_safe, spec.nu))
