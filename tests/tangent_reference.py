"""Reference states and tangents for tests: each channel family composed
from checked symplectic parts.

The package builds every received family's moments and their derivatives
in closed form. This is the composition they are checked against: the input
from one-mode and two-mode states by ``tensor`` (and ``permute_modes``), the
transform as a ``direct_sum`` of checked ``SymplecticTransform`` blocks,
``apply`` and ``partial_trace`` for the state, and dS Sigma S^T +
S Sigma dS^T and dS d for the derivatives. The conventions are those of
:mod:`bifrost.gaussian`; the physicality test is ``min_physical_eigenvalue``.
"""

from dataclasses import dataclass

import numpy as np

from bifrost.errors import check_photon_numbers
from bifrost.gaussian import GaussianState, omega

SYMPLECTIC_TOL = 1e-10


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


def block_diag(a, b):
    """The block-diagonal matrix with ``a`` then ``b`` on its diagonal."""
    n = a.shape[0]
    out = np.zeros((n + b.shape[0], n + b.shape[0]))
    out[:n, :n] = a
    out[n:, n:] = b
    return out


def thermal(n_th):
    """Single thermal mode with mean occupation ``n_th``."""
    check_photon_numbers(n_th)
    return GaussianState((1.0 + 2.0 * n_th) * np.eye(2), np.zeros(2))


def coherent(alpha_re, alpha_im=0.0):
    """Single-mode coherent state with complex amplitude alpha_re + i alpha_im."""
    return GaussianState(np.eye(2), np.array([np.sqrt(2.0) * alpha_re, np.sqrt(2.0) * alpha_im]))


def two_mode_squeezed(r):
    """Two-mode squeezed vacuum with squeezing parameter ``r``: cosh(2r) I on
    the diagonal and sinh(2r) sigma_z as the cross-mode correlation. The
    entangled bi-frequency probe of label n_s has sinh^2 r = 2 n_s, the
    quantum-illumination probe sinh^2 r = n_s."""
    if r < 0:
        raise ValueError("squeezing parameter must be nonnegative")
    c, s = np.cosh(2.0 * r), np.sinh(2.0 * r)
    cov = c * np.eye(4)
    cov[0, 2] = cov[2, 0] = s
    cov[1, 3] = cov[3, 1] = -s
    return GaussianState(cov, np.zeros(4))


def tensor(a, b):
    """Tensor product of two states; a's modes come first."""
    return GaussianState(block_diag(a.cov, b.cov), np.concatenate([a.disp, b.disp]))


def _mode_pair(diag, off):
    """The two-mode matrix [[diag I, off I], [-off I, diag I]]."""
    return np.array(
        [[diag, 0.0, off, 0.0], [0.0, diag, 0.0, off], [-off, 0.0, diag, 0.0], [0.0, -off, 0.0, diag]]
    )


def beam_splitter(eta):
    """Two-mode beam splitter of reflectivity ``eta``: the second output slot
    carries sqrt(eta) of the second input and -sqrt(1 - eta) of the first,
    so keeping it models reflection off a target embedded in the first
    (environment) mode."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("reflectivity must lie in [0, 1]")
    return SymplecticTransform(_mode_pair(np.sqrt(eta), np.sqrt(1.0 - eta)))


def beam_splitter_derivative(eta):
    """d/d eta of the matrix of ``beam_splitter(eta)``, for 0 < eta < 1."""
    if not 0.0 < eta < 1.0:
        raise ValueError(f"reflectivity must lie strictly in (0, 1) to differentiate, got {eta}")
    return _mode_pair(0.5 / np.sqrt(eta), -0.5 / np.sqrt(1.0 - eta))


def beam_splitter_amplitude_derivative(amp):
    """d/d amp of the matrix of ``beam_splitter(amp**2)``, for 0 <= amp < 1."""
    if not 0.0 <= amp < 1.0:
        raise ValueError(f"amplitude reflectivity must lie in [0, 1) to differentiate, got {amp}")
    return _mode_pair(1.0, -amp / np.sqrt(1.0 - amp * amp))


def _quadratures(keep):
    return [q for m in keep for q in (2 * m, 2 * m + 1)]


def apply(s, state):
    """Act with a symplectic map: cov -> S cov S^T, disp -> S disp."""
    cov = s.matrix @ state.cov @ s.matrix.T
    return GaussianState(0.5 * (cov + cov.T), s.matrix @ state.disp)


def partial_trace(state, keep):
    """Restrict to the modes ``keep`` by deleting the other rows and columns."""
    idx = _quadratures(keep)
    return GaussianState(state.cov[np.ix_(idx, idx)], state.disp[idx])


def identity_transform(n_modes):
    return SymplecticTransform(np.eye(2 * n_modes))


def direct_sum(s1, s2):
    """Block-diagonal composition acting on the concatenated mode sets."""
    return SymplecticTransform(block_diag(s1.matrix, s2.matrix))


def permute_modes(state, order):
    """Reorder modes so that new mode k is old mode ``order[k]``."""
    idx = _quadratures(order)
    return GaussianState(state.cov[np.ix_(idx, idx)], state.disp[idx])


def min_physical_eigenvalue(state):
    """The least eigenvalue of cov + i Omega; a physical state has none below
    -1e-9, the uncertainty relation up to round-off."""
    return float(np.linalg.eigvalsh(state.cov + 1j * omega(state.n_modes)).min())


def reference_tangent(state, s, ds, keep):
    """The state partial_trace(apply(s, state), keep) and its derivatives
    along ``ds``, restricted to the kept modes."""
    out = partial_trace(apply(s, state), keep)
    x = s.matrix @ state.cov @ ds.T
    idx = _quadratures(keep)
    return out, (x + x.T)[np.ix_(idx, idx)], (ds @ state.disp)[idx]


def _embedded(block, size, start):
    d = np.zeros((size, size))
    d[start:start + 4, start:start + 4] = block
    return d


def bifrequency_input(n_s, n_th, probe):
    """The bi-frequency protocol's input (bath 1, signal 1, bath 2, signal 2)."""
    if probe == "tmsv":
        baths = tensor(thermal(n_th), thermal(n_th))
        raw = tensor(baths, two_mode_squeezed(np.arcsinh(np.sqrt(2.0 * n_s))))
        return permute_modes(raw, [0, 2, 1, 3])
    arm = tensor(thermal(n_th), coherent(np.sqrt(n_s)))
    return tensor(arm, arm)


def bifrequency_tangent(eta1, lam, n_s, n_th, probe):
    """Received (signal 1, signal 2) state of the bi-frequency protocol."""
    s = direct_sum(beam_splitter(eta1), beam_splitter(eta1 + lam))
    ds = _embedded(beam_splitter_derivative(eta1 + lam), 8, 4)
    return reference_tangent(bifrequency_input(n_s, n_th, probe), s, ds, [1, 3])


def qi_quantum_tangent(amp, n_s, n_th):
    """Received (reflection, idler) state of quantum illumination."""
    state = tensor(thermal(n_th), two_mode_squeezed(np.arcsinh(np.sqrt(n_s))))
    s = direct_sum(beam_splitter(amp**2), identity_transform(1))
    ds = _embedded(beam_splitter_amplitude_derivative(amp), 6, 0)
    return reference_tangent(state, s, ds, [1, 2])


def qi_classical_tangent(amp, n_s, n_th):
    """Received single mode of the coherent quantum-illumination probe."""
    state = tensor(thermal(n_th), coherent(np.sqrt(n_s)))
    ds = beam_splitter_amplitude_derivative(amp)
    return reference_tangent(state, beam_splitter(amp**2), ds, [1])
