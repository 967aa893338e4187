"""Reference tangents for tests: each channel family composed from checked parts.

The package builds the quantum-illumination families' input state as one
array and each transform as one matrix, checked once, and the bi-frequency
families' moments in closed form. This is the composition both are checked
against: the input from the one-mode and two-mode states by ``tensor`` (and
``permute_modes``), the transform as a ``direct_sum`` of checked
``SymplecticTransform`` blocks, ``apply`` and ``partial_trace`` for the
state, and dS Sigma S^T + S Sigma dS^T and dS d for the derivatives.
The parts the package does not keep are defined here, with the
physicality test ``min_physical_eigenvalue``.
"""

import numpy as np

from bifrost import gaussian as g


def identity_transform(n_modes):
    return g.SymplecticTransform(np.eye(2 * n_modes))


def direct_sum(s1, s2):
    """Block-diagonal composition acting on the concatenated mode sets."""
    return g.SymplecticTransform(g.block_diag(s1.matrix, s2.matrix))


def permute_modes(state, order):
    """Reorder modes so that new mode k is old mode ``order[k]``."""
    idx = [q for m in order for q in (2 * m, 2 * m + 1)]
    return g.GaussianState(state.cov[np.ix_(idx, idx)], state.disp[idx])


def min_physical_eigenvalue(state):
    """The least eigenvalue of cov + i Omega; a physical state has none below
    -1e-9, the uncertainty relation up to round-off."""
    return float(np.linalg.eigvalsh(state.cov + 1j * g.omega(state.n_modes)).min())


def reference_tangent(state, s, ds, keep):
    """The state partial_trace(apply(s, state), keep) and its derivatives
    along ``ds``, restricted to the kept modes."""
    out = g.partial_trace(g.apply(s, state), keep)
    x = s.matrix @ state.cov @ ds.T
    idx = [q for m in keep for q in (2 * m, 2 * m + 1)]
    return out, (x + x.T)[np.ix_(idx, idx)], (ds @ state.disp)[idx]


def beam_splitter_derivative(eta):
    """d/d eta of the matrix of ``beam_splitter(eta)``, for 0 < eta < 1."""
    if not 0.0 < eta < 1.0:
        raise ValueError(f"reflectivity must lie strictly in (0, 1) to differentiate, got {eta}")
    return g._mode_pair(0.5 / np.sqrt(eta), -0.5 / np.sqrt(1.0 - eta))


def _embedded(block, size, start):
    d = np.zeros((size, size))
    d[start:start + 4, start:start + 4] = block
    return d


def bifrequency_tangent(eta1, lam, n_s, n_th, probe):
    """Received (signal 1, signal 2) state of the bi-frequency protocol."""
    if probe == "tmsv":
        raw = g.tensor(g.tensor(g.thermal(n_th), g.thermal(n_th)), g.tmsv(n_s))
        state = permute_modes(raw, [0, 2, 1, 3])
    else:
        arm = g.tensor(g.thermal(n_th), g.coherent(np.sqrt(n_s)))
        state = g.tensor(arm, arm)
    s = direct_sum(g.beam_splitter(eta1), g.beam_splitter(eta1 + lam))
    ds = _embedded(beam_splitter_derivative(eta1 + lam), 8, 4)
    return reference_tangent(state, s, ds, [1, 3])


def qi_quantum_tangent(amp, n_s, n_th):
    """Received (reflection, idler) state of quantum illumination."""
    state = g.tensor(g.thermal(n_th), g.two_mode_squeezed(np.arcsinh(np.sqrt(n_s))))
    s = direct_sum(g.beam_splitter(amp**2), identity_transform(1))
    ds = _embedded(g.beam_splitter_amplitude_derivative(amp), 6, 0)
    return reference_tangent(state, s, ds, [1, 2])


def qi_classical_tangent(amp, n_s, n_th):
    """Received single mode of the coherent quantum-illumination probe."""
    state = g.tensor(g.thermal(n_th), g.coherent(np.sqrt(n_s)))
    ds = g.beam_splitter_amplitude_derivative(amp)
    return reference_tangent(state, g.beam_splitter(amp**2), ds, [1])
