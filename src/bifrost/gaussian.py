"""Gaussian states and symplectic transformations on quadrature phase space.

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

State families differentiate by propagation, not by differences: for a fixed
input (Sigma, d) and a path of symplectic maps S(l), the output moments
S Sigma S^T and S d have derivatives dS Sigma S^T + S Sigma dS^T and dS d
(:func:`propagate`), and a partial trace, being a selection of rows and
columns, commutes with the derivative. The beam splitter's dS/d eta is
analytic (:func:`beam_splitter_derivative`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from .errors import check_photon_numbers

SYMMETRY_TOL = 1e-12
SYMPLECTIC_TOL = 1e-10


@cache
def omega(n_modes: int) -> np.ndarray:
    """Symplectic form for ``n_modes`` modes; a shared read-only array."""
    w = np.zeros((2 * n_modes, 2 * n_modes))
    x = np.arange(0, 2 * n_modes, 2)
    w[x, x + 1] = 1.0
    w[x + 1, x] = -1.0
    w.setflags(write=False)
    return w


def block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The block-diagonal matrix with ``a`` then ``b`` on its diagonal."""
    n = a.shape[0]
    out = np.zeros((n + b.shape[0], n + b.shape[0]))
    out[:n, :n] = a
    out[n:, n:] = b
    return out


def _mode_pair(diag: float, off: float) -> np.ndarray:
    """The two-mode matrix [[diag I, off I], [-off I, diag I]]."""
    return np.array(
        [[diag, 0.0, off, 0.0], [0.0, diag, 0.0, off], [-off, 0.0, diag, 0.0], [0.0, -off, 0.0, diag]]
    )


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


@dataclass(frozen=True, eq=False)
class SymplecticTransform:
    """A real linear map on quadratures satisfying S Omega S^T = Omega."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise ValueError(f"symplectic matrix must be square with even size, got {m.shape}")
        omg = omega(m.shape[0] // 2)
        err = np.abs(m @ omg @ m.T - omg).max()
        if not err <= SYMPLECTIC_TOL:  # NaN fails too
            raise ValueError(f"symplectic identity violated by {err:.3e}")
        object.__setattr__(self, "matrix", m)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2


def vacuum(n_modes: int) -> GaussianState:
    """The n-mode vacuum: identity covariance, zero displacement."""
    if n_modes < 1:
        raise ValueError("need at least one mode")
    return GaussianState(np.eye(2 * n_modes), np.zeros(2 * n_modes))


def thermal(n_th: float) -> GaussianState:
    """Single thermal mode with mean occupation ``n_th``."""
    check_photon_numbers(n_th)
    return GaussianState((1.0 + 2.0 * n_th) * np.eye(2), np.zeros(2))


def coherent(alpha_re: float, alpha_im: float = 0.0) -> GaussianState:
    """Single-mode coherent state with complex amplitude alpha_re + i alpha_im."""
    disp = np.array([np.sqrt(2.0) * alpha_re, np.sqrt(2.0) * alpha_im])
    return GaussianState(np.eye(2), disp)


def two_mode_squeezed(r: float) -> GaussianState:
    """Two-mode squeezed vacuum with squeezing parameter ``r``.

    Covariance blocks: cosh(2r) I on the diagonal and sinh(2r) sigma_z as the
    cross-mode correlation (x-x correlated, p-p anticorrelated).
    """
    if r < 0:
        raise ValueError("squeezing parameter must be nonnegative")
    return GaussianState(_two_mode_squeezed_cov(r), np.zeros(4))


def _two_mode_squeezed_cov(r: float) -> np.ndarray:
    c, s = np.cosh(2.0 * r), np.sinh(2.0 * r)
    cov = c * np.eye(4)
    cov[0, 2] = cov[2, 0] = s
    cov[1, 3] = cov[3, 1] = -s
    return cov


def tmsv(n_s: float) -> GaussianState:
    """Two-mode squeezed vacuum parametrised by the protocol photon number.

    The covariance blocks are (1 + 4 n_s) I and 2 sqrt(2 n_s (2 n_s + 1)) sigma_z,
    i.e. sinh^2 r = 2 n_s. Note that under the vacuum-identity convention this
    makes the per-mode photon number equal to 2 n_s, twice the label.
    """
    return GaussianState(tmsv_cov(n_s), np.zeros(4))


def tmsv_cov(n_s: float) -> np.ndarray:
    """The covariance of ``tmsv(n_s)`` as a new, unvalidated array; where its
    entries, about 4 n_s, come within a factor 2 of the float range,
    ArithmeticError before any arithmetic warns."""
    check_photon_numbers(n_s)
    if not 8.0 * float(n_s) < np.inf:
        raise ArithmeticError(f"the two-mode squeezed covariance leaves the float range: n_s = {n_s}")
    return _two_mode_squeezed_cov(np.arcsinh(np.sqrt(2.0 * n_s)))


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Tensor product of two states; a's modes come first."""
    cov = block_diag(a.cov, b.cov)
    disp = np.concatenate([a.disp, b.disp])
    return GaussianState(cov, disp)


def beam_splitter_matrix(eta: float) -> np.ndarray:
    """The matrix of ``beam_splitter(eta)``, built without the symplectic check
    so that a larger transform holding it is checked once, as a whole."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("reflectivity must lie in [0, 1]")
    return _mode_pair(np.sqrt(eta), np.sqrt(1.0 - eta))


def beam_splitter(eta: float) -> SymplecticTransform:
    """Two-mode beam splitter of reflectivity ``eta`` (zero relative phase).

    The second output slot carries sqrt(eta) of the second input plus
    -sqrt(1-eta) of the first, so keeping it models reflection off a target
    of reflectivity eta embedded in the first (environment) mode.
    """
    return SymplecticTransform(beam_splitter_matrix(eta))


def beam_splitter_derivative(eta: float) -> np.ndarray:
    """d/d eta of the matrix of ``beam_splitter(eta)``.

    The entries carry 1/sqrt(eta) and 1/sqrt(1 - eta), so the derivative
    exists only for 0 < eta < 1; anywhere else this raises ValueError.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"reflectivity must lie strictly in (0, 1) to differentiate, got {eta}")
    return _mode_pair(0.5 / np.sqrt(eta), -0.5 / np.sqrt(1.0 - eta))


def beam_splitter_amplitude_derivative(amp: float) -> np.ndarray:
    """d/d amp of the matrix of ``beam_splitter(amp**2)``, for 0 <= amp < 1.

    In the amplitude the entries are amp and sqrt(1 - amp^2), so unlike
    :func:`beam_splitter_derivative` this stays regular at amp = 0; outside
    [0, 1) it raises ValueError.
    """
    if not 0.0 <= amp < 1.0:
        raise ValueError(f"amplitude reflectivity must lie in [0, 1) to differentiate, got {amp}")
    return _mode_pair(1.0, -amp / np.sqrt(1.0 - amp * amp))


def _conjugate(s: SymplecticTransform, state: GaussianState) -> tuple[np.ndarray, np.ndarray]:
    """S Sigma and the symmetrised S Sigma S^T, for a transform and state of
    the same size."""
    if s.matrix.shape[0] != state.cov.shape[0]:
        raise ValueError(
            f"dimension mismatch: transform on {s.n_modes} modes, state has {state.n_modes}"
        )
    s_cov = s.matrix @ state.cov
    cov = s_cov @ s.matrix.T
    # halved first, the same bits outside the subnormal range: the sum of two
    # entries may leave the float range where their mean does not
    return s_cov, 0.5 * cov + 0.5 * cov.T


def apply(s: SymplecticTransform, state: GaussianState) -> GaussianState:
    """Act with a symplectic map: cov -> S cov S^T, disp -> S disp."""
    return GaussianState(_conjugate(s, state)[1], s.matrix @ state.disp)


def propagate(
    state: GaussianState, s: SymplecticTransform, ds: np.ndarray, keep: Sequence[int]
) -> tuple[GaussianState, np.ndarray, np.ndarray]:
    """Tangent of the family l -> partial_trace(apply(S(l), state), keep).

    ``state`` does not depend on l, ``s`` is S(l) and ``ds`` its derivative.
    Returns the state, bit for bit what that expression gives, and the
    derivatives dS Sigma S^T + S Sigma dS^T of the covariance and dS d of the
    displacement, restricted to the kept modes like the state. Only the kept
    entries of the products are formed, so an entry of a discarded mode
    that would overflow (eta1 = 1e-300 with n_th = 1e300) raises no warning.
    """
    s_cov, cov = _conjugate(s, state)
    idx = _quadrature_indices(state.n_modes, tuple(keep))
    ds_kept = ds.take(idx, 0)
    x = s_cov.take(idx, 0) @ ds_kept.T
    return (
        GaussianState(_restrict(cov, idx), (s.matrix @ state.disp)[idx]),
        x + x.T,
        ds_kept @ state.disp,
    )


def _restrict(m: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The rows and columns ``idx`` of ``m``."""
    return m.take(idx, 0).take(idx, 1)


@cache
def _quadrature_indices(n_modes: int, keep: tuple[int, ...]) -> np.ndarray:
    """The quadrature indices of the modes ``keep``; a shared read-only array."""
    if not keep:
        raise ValueError("must keep at least one mode")
    if any(k < 0 or k >= n_modes for k in keep):
        raise ValueError(f"mode index out of range for {n_modes} modes: {keep}")
    if any(b <= a for a, b in zip(keep, keep[1:])):
        raise ValueError("kept modes must be strictly increasing")
    idx = np.array([q for m in keep for q in (2 * m, 2 * m + 1)])
    idx.setflags(write=False)
    return idx


def partial_trace(state: GaussianState, keep: Sequence[int]) -> GaussianState:
    """Restrict to the listed modes by deleting the complementary rows/columns."""
    idx = _quadrature_indices(state.n_modes, tuple(keep))
    return GaussianState(_restrict(state.cov, idx), state.disp[idx])
