"""Gaussian states on quadrature phase space.

Conventions, fixed once and used everywhere:

* the n-mode vacuum has covariance equal to the identity and zero displacement,
* mode operators relate to quadratures through a = (x + i p) / sqrt(2),
* the displacement vector holds the quadrature expectation values and the
  covariance matrix the symmetrised centered second moments
  cov_ij = <{R_i - d_i, R_j - d_j}> (anticommutator, no factor 1/2),
* arrays are always stored in the interleaved order (x1, p1, x2, p2, ...).

With these choices a thermal mode has covariance (1 + 2 n_th) I, a coherent
state |alpha> has displacement sqrt(2) (Re alpha, Im alpha), and a beam
splitter of reflectivity eta acts as the rotation
[[sqrt(eta) I, sqrt(1-eta) I], [-sqrt(1-eta) I, sqrt(eta) I]].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

SYMMETRY_TOL = 1e-12


@cache
def omega(n_modes: int) -> np.ndarray:
    """Symplectic form for ``n_modes`` modes; a shared read-only array."""
    w = np.zeros((2 * n_modes, 2 * n_modes))
    x = np.arange(0, 2 * n_modes, 2)
    w[x, x + 1] = 1.0
    w[x + 1, x] = -1.0
    w.setflags(write=False)
    return w


@dataclass(frozen=True, eq=False)
class GaussianState:
    """A Gaussian state: real covariance matrix plus real displacement vector.

    Attributes:
        cov: real symmetric 2n x 2n covariance matrix (vacuum = identity).
        disp: real, finite quadrature displacement vector of length 2n.
    """

    cov: np.ndarray
    disp: np.ndarray

    def __post_init__(self):
        cov = np.array(self.cov, dtype=float)
        disp = np.array(self.disp, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] % 2:
            raise ValueError(f"covariance must be square with even size, got {cov.shape}")
        if disp.shape != (cov.shape[0],):
            raise ValueError(f"displacement shape {disp.shape} does not match covariance {cov.shape}")
        asym = np.abs(cov - cov.T).max()
        if not asym <= SYMMETRY_TOL:  # NaN fails too
            raise ValueError(f"covariance asymmetry {asym:.3e} exceeds {SYMMETRY_TOL}")
        if not np.isfinite(disp).all():
            raise ValueError(f"displacement must be finite, got {disp}")
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "disp", disp)

    @property
    def n_modes(self) -> int:
        return self.cov.shape[0] // 2


# (x1 + x2, p1 + p2, x1 - x2, p1 - p2): sqrt(2) times the normal modes
_BEAM = np.array([[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, -1, 0], [0, 1, 0, -1]], dtype=float)
_BEAM.setflags(write=False)


def normal_modes(m: np.ndarray) -> np.ndarray:
    """A two-mode symmetric matrix or vector taken between the modes
    (x1, p1, x2, p2) and the normal modes (x1 +- x2)/sqrt(2), (p1 +- p2)/sqrt(2),
    either way: a 50:50 beam splitter, its own inverse. Each entry of each
    product with the 0, +-1 matrix is one rounded sum of two entries, and the
    result is symmetrised, so entries equal or opposite in one frame stay
    exactly so, and the result is exactly symmetric."""
    if m.ndim == 1:
        return (_BEAM @ m) * np.sqrt(0.5)
    x = _BEAM @ m @ _BEAM
    return 0.25 * (x + x.T)
