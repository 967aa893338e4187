"""Truncated Fock-space oracle: brute-force states, channels and QFI.

Everything here exists to validate the Gaussian pipeline by a route that
shares none of its machinery: density matrices on a photon-number cutoff,
beam-splitter unitaries by matrix exponential, partial traces by index
contraction, and the basis-dependent QFI

    H = 2 sum_{m,n} |<m| drho |n>|^2 / (p_m + p_n)

over the eigenpairs of the received state.

The oracle works sector by sector, and the sectors are exact, not an
approximation. The beam splitter conserves the total photon number, so its
unitary is one block per total n, built from a tridiagonal generator. The
bath is diagonal in the number basis, so a thermal-loss channel is
phase-covariant: it maps |k><l| only into coherences |k'><l'| with
k' - l' = k - l, and its superoperator is one real block per offset k - l
(``ThermalLossChannel.blocks``). A state whose modes pass through such
channels keeps the zero pattern those offsets impose: the received
two-mode squeezed state and its derivative vanish outside the sectors of
fixed n1 - n2, exactly 0.0 and not merely small. ``qfi_eq1`` therefore
diagonalises each connected component of the nonzero pattern on its own;
it reads the pattern off the matrices and needs no knowledge of the probe,
so a dense state is simply one component.

The four-mode bi-frequency pipeline is never materialised: the interaction
does not mix frequencies, so each frequency sees an independent thermal-loss
channel acting on its signal mode, and the received two-mode state is the
probe pushed through the two channels mode by mode. That keeps every matrix
at cutoff^2 x cutoff^2.

Beam-splitter convention: ``fock_beam_splitter(eta)`` realises exactly the
quadrature rotation of :func:`bifrost.gaussian.beam_splitter`, i.e. the
second output slot is sqrt(eta) x (second input) - sqrt(1-eta) x (first
input). Full reflection (eta = 1) is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import expm
from scipy.special import pdtrc

from .errors import CutoffTooSmallError

# tail-mass target when the cutoff is chosen automatically
AUTO_TAIL_TOL = 1e-10
# hard gate for explicitly requested cutoffs
HARD_TAIL_TOL = 1e-6
# extra levels on top of the auto choice, headroom for beam-splitter mixing
GUARD_LEVELS = 5
# working point and central-difference step of every Fock-family derivative
LAMBDA0 = 0.0
FD_STEP = 1e-4


@dataclass(frozen=True, eq=False)
class FockState:
    """Density matrix on a photon-number-truncated space.

    The trace may fall short of one by the truncation leak of the
    construction; it is never renormalised away.
    """

    rho: np.ndarray
    dim: int
    n_modes: int

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        size = self.dim**self.n_modes
        if rho.shape != (size, size):
            raise ValueError(f"density matrix shape {rho.shape} != ({size}, {size})")
        herm = np.max(np.abs(rho - rho.conj().T))
        if herm > 1e-12:
            raise ValueError(f"density matrix non-hermitian by {herm:.3e}")
        object.__setattr__(self, "rho", rho)

    @property
    def trace(self) -> float:
        return float(self.rho.trace().real)


def annihilation(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1)


def _thermal_probs(n_th: float, dim: int) -> np.ndarray:
    if n_th == 0.0:
        p = np.zeros(dim)
        p[0] = 1.0
        return p
    q = n_th / (1.0 + n_th)
    return (1.0 - q) * q ** np.arange(dim)


def _thermal_tail(n_th: float, dim: int) -> float:
    if n_th == 0.0:
        return 0.0
    return float((n_th / (1.0 + n_th)) ** dim)


def _tmsv_tail(n_s: float, dim: int) -> float:
    if n_s == 0.0:
        return 0.0
    tanh2 = 2.0 * n_s / (2.0 * n_s + 1.0)  # tanh^2 r with sinh^2 r = 2 n_s
    return float(tanh2**dim)


def _auto_cutoff(tail: Callable[[int], float], tol: float = AUTO_TAIL_TOL) -> int:
    dim = 2
    while tail(dim) >= tol:
        dim += 1
        if dim > 4000:
            raise CutoffTooSmallError("cannot reach the requested tail mass below cutoff 4000")
    return dim + GUARD_LEVELS


def _gate_cutoff(tail_mass: float, cutoff: int, label: str):
    if tail_mass >= HARD_TAIL_TOL:
        raise CutoffTooSmallError(
            f"cutoff {cutoff} leaves {label} tail mass {tail_mass:.3e} >= {HARD_TAIL_TOL}"
        )


def fock_thermal(n_th: float, cutoff: int | None = None) -> FockState:
    """Thermal mode as a truncated geometric mixture of number states."""
    if n_th < 0:
        raise ValueError("thermal occupation must be nonnegative")
    if cutoff is None:
        cutoff = _auto_cutoff(lambda d: _thermal_tail(n_th, d))
    _gate_cutoff(_thermal_tail(n_th, cutoff), cutoff, "thermal")
    return FockState(np.diag(_thermal_probs(n_th, cutoff)).astype(complex), cutoff, 1)


def fock_tmsv(n_s: float, cutoff: int | None = None) -> FockState:
    """Two-mode squeezed vacuum with the protocol photon-number label.

    sinh^2 r = 2 n_s, matching :func:`bifrost.gaussian.tmsv`; the relative
    phase is chosen so the x quadratures are positively correlated, again
    matching the covariance convention.
    """
    if n_s < 0:
        raise ValueError("signal photon number must be nonnegative")
    if cutoff is None:
        cutoff = _auto_cutoff(lambda d: _tmsv_tail(n_s, d))
    _gate_cutoff(_tmsv_tail(n_s, cutoff), cutoff, "two-mode squeezed")
    tanh_r = np.sqrt(2.0 * n_s / (2.0 * n_s + 1.0))
    amps = tanh_r ** np.arange(cutoff) * np.sqrt(1.0 - tanh_r**2)
    psi = np.zeros(cutoff * cutoff)
    psi[np.arange(cutoff) * cutoff + np.arange(cutoff)] = amps
    return FockState(np.outer(psi, psi).astype(complex), cutoff, 2)


def fock_coherent(alpha: complex, cutoff: int | None = None) -> FockState:
    """Coherent state |alpha> truncated at the cutoff."""
    if cutoff is None:
        mean = abs(alpha) ** 2
        cutoff = _auto_cutoff(lambda d: float(pdtrc(d - 1, mean)) if mean else 0.0)
    n = np.arange(cutoff)
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, cutoff)))])
    amps = np.exp(-0.5 * abs(alpha) ** 2) * alpha**n / np.exp(0.5 * log_fact)
    leak = max(1.0 - float(np.vdot(amps, amps).real), 0.0)
    _gate_cutoff(leak, cutoff, "coherent")
    return FockState(np.outer(amps, amps.conj()), cutoff, 1)


def _beam_splitter_sectors(eta: float, cutoff: int):
    """The beam-splitter unitary one total photon number n at a time.

    Yields ``(n, m, block)``: the first-mode counts m of the states
    |m, n - m> inside the cutoff, ascending, and the unitary on them, the
    exponential of theta times the tridiagonal generator
    a_0^dag a_1 - a_1^dag a_0, whose entries are +-sqrt((m + 1)(n - m)).
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("reflectivity must lie in [0, 1]")
    theta = float(np.arccos(np.sqrt(eta)))
    for n in range(2 * cutoff - 1):
        m = np.arange(max(0, n - cutoff + 1), min(n, cutoff - 1) + 1)
        hop = np.sqrt((m[:-1] + 1.0) * (n - m[:-1]))
        yield n, m, expm(theta * (np.diag(hop, -1) - np.diag(hop, 1)))


def fock_beam_splitter(eta: float, cutoff: int) -> np.ndarray:
    """Two-mode beam-splitter unitary matching the Gaussian convention.

    Exponential of theta (a_0^dag a_1 - a_1^dag a_0) with theta = arccos(sqrt(eta)),
    assembled from the total-photon-number sectors the generator preserves.
    """
    u = np.zeros((cutoff * cutoff, cutoff * cutoff))
    for n, m, block in _beam_splitter_sectors(eta, cutoff):
        idx = m * cutoff + (n - m)
        u[np.ix_(idx, idx)] = block
    return u


def fock_partial_trace(state: FockState, keep: Sequence[int]) -> FockState:
    """Trace out all modes not listed in ``keep``."""
    keep = list(keep)
    if not keep or any(k < 0 or k >= state.n_modes for k in keep):
        raise ValueError(f"invalid mode selection {keep} for {state.n_modes} modes")
    if any(b <= a for a, b in zip(keep, keep[1:])):
        raise ValueError("kept modes must be strictly increasing")
    n, d = state.n_modes, state.dim
    tensor = state.rho.reshape([d] * (2 * n))
    traced = [m for m in range(n) if m not in keep]
    for m in sorted(traced, reverse=True):
        tensor = np.trace(tensor, axis1=m, axis2=m + tensor.ndim // 2)
    size = d ** len(keep)
    return FockState(tensor.reshape(size, size), d, len(keep))


def quadrature_moments(state: FockState) -> tuple[np.ndarray, np.ndarray]:
    """Interleaved covariance and displacement extracted from number-basis moments.

    Each moment is read off the smallest marginal that holds it: the
    one-mode marginals give the displacement and the same-mode second
    moments, the two-mode marginals the cross-mode ones, by contraction.
    No operator on the full space is formed.
    """
    d, n = state.dim, state.n_modes
    a = annihilation(d)
    quads = ((a + a.T) / np.sqrt(2.0), (a - a.T) / (1j * np.sqrt(2.0)))

    def marginal(keep: list[int]) -> np.ndarray:
        return state.rho if len(keep) == n else fock_partial_trace(state, keep).rho

    disp = np.empty(2 * n)
    cov = np.empty((2 * n, 2 * n))
    for m in range(n):
        rho = marginal([m])
        for u, qu in enumerate(quads):
            disp[2 * m + u] = np.trace(rho @ qu).real
        for u, qu in enumerate(quads):
            for v, qv in enumerate(quads):
                sym = np.trace(rho @ (qu @ qv + qv @ qu)).real
                cov[2 * m + u, 2 * m + v] = sym - 2.0 * disp[2 * m + u] * disp[2 * m + v]
    for m1 in range(n):
        for m2 in range(m1 + 1, n):
            # rho[k1, k2, l1, l2]; Tr(rho (qu x qv)) = sum rho qu[l1, k1] qv[l2, k2]
            rho = marginal([m1, m2]).reshape(d, d, d, d)
            for u, qu in enumerate(quads):
                reduced = np.tensordot(rho, qu, axes=([0, 2], [1, 0]))
                for v, qv in enumerate(quads):
                    i, j = 2 * m1 + u, 2 * m2 + v
                    second = np.sum(reduced * qv.T).real
                    cov[i, j] = cov[j, i] = 2.0 * second - 2.0 * disp[i] * disp[j]
    return cov, disp


class ThermalLossChannel:
    """Single-mode channel: mix with a thermal bath on a beam splitter.

    The superoperator is kept as its sectors: ``blocks[k]`` maps the
    coherences rho[i + k, i] of offset k to those of the output, indexed by
    i in both. The channel preserves hermiticity and is real, so offset -k,
    the coherences rho[i, i + k], has the same block. ``apply_channel_pair``
    pushes a two-mode state through two independent copies, one reflectivity
    per mode.
    """

    def __init__(self, eta: float, n_th: float, cutoff: int):
        self.eta = eta
        self.n_th = n_th
        self.cutoff = cutoff
        _gate_cutoff(_thermal_tail(n_th, cutoff), cutoff, "thermal bath")
        probs = _thermal_probs(n_th, cutoff)
        # amp[t, j, s] = <j + s - t, t| U |j, s>: j bath photons enter the
        # first port, s signal photons the second, t leave the kept second port
        amp = np.zeros((cutoff, cutoff, cutoff))
        for n, m, block in _beam_splitter_sectors(eta, cutoff):
            amp[n - m[:, None], m[None, :], n - m[None, :]] = block
        # output coherence |t><t'| from input |s><s'| with t - t' = s - s' = k,
        # summed over the bath photons j and the traced output j + s - t
        self.blocks = [
            np.einsum("tjs,j,tjs->ts", amp[k:, :, k:], probs, amp[: cutoff - k, :, : cutoff - k])
            for k in range(cutoff)
        ]


def _apply_sectors(blocks: list[np.ndarray], tensor: np.ndarray) -> np.ndarray:
    """Apply a one-mode superoperator, kept as sector blocks, to the first two
    axes (the row and column index of that mode) of a complex ``tensor``.

    The real block multiplies the real and imaginary parts alike, so each
    product runs on the slab viewed as real numbers.
    """
    out = np.empty_like(tensor)
    size = len(blocks)
    for k, block in enumerate(blocks):
        i = np.arange(size - k)
        for rows, cols in ((i + k, i), (i, i + k)) if k else ((i, i),):
            out[rows, cols] = (block @ tensor[rows, cols].view(float)).view(complex)
    return out


def apply_channel_pair(
    ch1: ThermalLossChannel, ch2: ThermalLossChannel, rho: np.ndarray
) -> np.ndarray:
    d = ch1.cutoff
    tensor = np.asarray(rho, dtype=complex).reshape(d, d, d, d).transpose(0, 2, 1, 3)
    tensor = _apply_sectors(ch1.blocks, tensor.reshape(d, d, d * d))  # axes k1, l1, (k2 l2)
    # copied: the sector gathers of a strided view are several times slower
    tensor = np.ascontiguousarray(tensor.reshape(d, d, d, d).transpose(2, 3, 0, 1))
    tensor = _apply_sectors(ch2.blocks, tensor.reshape(d, d, d * d))  # axes k2, l2, (k1 l1)
    return tensor.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)


def bifrequency_fock_family(
    eta1: float, n_s: float, n_th: float, probe: str, cutoff: int
) -> Callable[[float], FockState]:
    """Received-state family of the bi-frequency protocol, in Fock space."""
    if probe == "tmsv":
        probe_state = fock_tmsv(n_s, cutoff)
    elif probe == "coherent":
        alpha = np.sqrt(n_s)
        single = fock_coherent(alpha, cutoff)
        probe_state = FockState(np.kron(single.rho, single.rho), cutoff, 2)
    else:
        raise ValueError(f"unknown probe {probe!r}")
    channels: dict[float, ThermalLossChannel] = {}

    def channel(eta: float) -> ThermalLossChannel:
        if eta not in channels:
            channels[eta] = ThermalLossChannel(eta, n_th, cutoff)
        return channels[eta]

    def family(lam: float) -> FockState:
        rho = apply_channel_pair(channel(eta1), channel(eta1 + lam), probe_state.rho)
        return FockState(rho, cutoff, 2)

    return family


def family_derivative(family: Callable[[float], FockState]) -> tuple[np.ndarray, np.ndarray]:
    """The density matrix at LAMBDA0 and its central difference with step FD_STEP."""
    rho = family(LAMBDA0).rho
    drho = (family(LAMBDA0 + FD_STEP).rho - family(LAMBDA0 - FD_STEP).rho) / (2.0 * FD_STEP)
    return rho, drho


def _components(*mats: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected components of the joint nonzero pattern."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    pattern = np.zeros(mats[0].shape, dtype=bool)
    for mat in mats:
        pattern |= mat != 0
    count, labels = connected_components(csr_matrix(pattern), directed=False)
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels, minlength=count))[:-1])


def qfi_eq1(family: Callable[[float], FockState], drop_threshold: float = 1e-12) -> float:
    """Basis-dependent QFI from the eigendecomposition of the received state.

    The parameter derivative of the density matrix is one central difference
    (``family_derivative``). The basis splits into the connected components
    of the nonzero pattern of the state and its derivative; both vanish
    between components, so each is diagonalised on its own and the sum runs
    over pairs within a component. A pair of matrices whose imaginary parts
    are exactly zero, as for real probe amplitudes, is decomposed in real
    arithmetic. Eigenvalue pairs whose sum falls below ``drop_threshold``
    contribute nothing and are skipped.
    """
    rho0, drho = family_derivative(family)
    if not (rho0.imag.any() or drho.imag.any()):
        rho0, drho = rho0.real, drho.real
    total = 0.0
    for idx in _components(rho0, drho):
        block = np.ix_(idx, idx)
        evals, evecs = np.linalg.eigh(rho0[block])
        mat = evecs.conj().T @ drho[block] @ evecs
        sums = evals[:, None] + evals[None, :]
        mask = sums > drop_threshold
        total += np.sum(np.abs(mat[mask]) ** 2 / sums[mask])
    return float(2.0 * total)
