"""Reference received states for tests: the dense two-mode probe pushed
through both channels mode by mode.

The package builds each received state from its probe's structure; this is
the general path it replaced, which applies each channel's sector blocks to
the full probe density matrix, one mode after the other, and knows nothing
of the probe. The partial trace of a dense state, by index contraction,
is kept here too: the package reads every moment off a state's structure
and no longer takes marginals. So is the central difference of a family,
which the package replaced by the exact tangent each state carries, and so
are the dense thermal and two-mode squeezed states, which the package never
forms.
"""

import numpy as np

from bifrost import fock
from bifrost.errors import check_photon_numbers


def fock_thermal(n_th, cutoff):
    """Thermal mode as a truncated geometric mixture of number states."""
    check_photon_numbers(n_th)
    fock._gate_cutoff(fock._thermal_tail(n_th, cutoff), cutoff, "thermal")
    return fock.FockState(np.diag(fock._thermal_probs(n_th, cutoff)), cutoff, 1)


def fock_tmsv(n_s, cutoff):
    """Two-mode squeezed vacuum sum_n a_n |n, n> with the protocol
    photon-number label, as a dense two-mode state."""
    amps = fock._tmsv_amplitudes(n_s, cutoff)
    psi = np.zeros(cutoff * cutoff)
    psi[np.arange(cutoff) * cutoff + np.arange(cutoff)] = amps
    return fock.FockState(np.outer(psi, psi), cutoff, 2)

# step of the test-side central difference
FD_STEP = 1e-5


def central_difference(family):
    """The dense central difference of ``family`` at lam = 0, step FD_STEP."""
    return (family(FD_STEP).rho - family(-FD_STEP).rho) / (2.0 * FD_STEP)


def dense_tangent(state):
    """A state's tangent as one dense matrix: A x dB for a product A x B,
    else its blocks placed at their basis index sets."""
    if state.factors is not None:
        return np.kron(state.factors[0], state.tangent)
    size = state.dim**state.n_modes
    out = np.zeros((size, size), state.tangent.dtype)
    for (idx, _), dstack in zip(state.blocks, state.tangent):
        out[np.ix_(idx, idx)] = dstack[: len(idx), : len(idx)]
    return out


def _apply_sectors(blocks, tensor):
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


def apply_channel_pair(ch1, ch2, rho):
    """``ch1`` on the first mode and ``ch2`` on the second of the two-mode
    density matrix ``rho``; a complex matrix."""
    d = ch1.cutoff
    tensor = np.asarray(rho, dtype=complex).reshape(d, d, d, d).transpose(0, 2, 1, 3)
    tensor = _apply_sectors(ch1.blocks, tensor.reshape(d, d, d * d))  # axes k1, l1, (k2 l2)
    # copied: the sector gathers of a strided view are several times slower
    tensor = np.ascontiguousarray(tensor.reshape(d, d, d, d).transpose(2, 3, 0, 1))
    tensor = _apply_sectors(ch2.blocks, tensor.reshape(d, d, d * d))  # axes k2, l2, (k1 l1)
    return tensor.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)


def probe_density(n_s, probe, cutoff):
    """The two-mode probe of the bi-frequency family as a dense matrix."""
    if probe == "tmsv":
        return fock_tmsv(n_s, cutoff).rho
    single = fock.fock_coherent(np.sqrt(n_s), cutoff).rho
    return np.kron(single, single)


def reference_family(eta1, n_s, n_th, probe, cutoff):
    """The received-state family through ``apply_channel_pair``, as a
    function of lam returning the complex density matrix."""
    probe_rho = probe_density(n_s, probe, cutoff)

    def family(lam):
        ch1 = fock.ThermalLossChannel(eta1, n_th, cutoff)
        ch2 = fock.ThermalLossChannel(eta1 + lam, n_th, cutoff)
        return apply_channel_pair(ch1, ch2, probe_rho)

    return family


def fock_beam_splitter(eta, cutoff):
    """Two-mode beam-splitter unitary matching the Gaussian convention.

    Exponential of theta (a_0^dag a_1 - a_1^dag a_0) with theta = arccos(sqrt(eta)),
    assembled from the total-photon-number sectors the generator preserves.
    The second output slot is sqrt(eta) x (second input) - sqrt(1-eta) x
    (first input), as in :func:`bifrost.gaussian.beam_splitter`; full
    reflection (eta = 1) is the identity.
    """
    u = np.zeros((cutoff * cutoff, cutoff * cutoff))
    for n, m, block, _ in fock._beam_splitter_sectors(eta, cutoff):
        idx = m * cutoff + (n - m)
        u[np.ix_(idx, idx)] = block
    return u


def fock_partial_trace(state, keep):
    """Trace out all modes of a ``fock.FockState`` not listed in ``keep``,
    by index contraction of its dense matrix."""
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
    return fock.FockState(tensor.reshape(size, size), d, len(keep))


def sparse_sld_operator(form, cutoff):
    """A two-mode quadratic-form observable as a sparse CSR matrix on the
    truncated space, built from the two-mode ladder operators; real when
    every coefficient of the form is."""
    from scipy import sparse

    coeffs = [form.quad, form.linear, form.center, form.scalar]
    if not any(np.any(np.imag(c)) for c in coeffs):
        coeffs = [np.real(c) for c in coeffs]
    quad, linear, center, scalar = coeffs
    dtype = np.result_type(*coeffs, float)
    a = sparse.csr_matrix(fock.annihilation(cutoff))
    eye = sparse.identity(cutoff)
    one = sparse.identity(cutoff * cutoff, dtype=dtype, format="csr")
    basis = [sparse.kron(a, eye), sparse.kron(eye, a)]
    basis += [op.conj().T for op in basis]
    delta = [(op - c * one).tocsr() for op, c in zip(basis, center)]
    op = scalar * one
    for i in range(4):
        di_dag = delta[i].conj().T
        op = op + linear[i] * di_dag
        for j in range(4):
            if quad[i, j] != 0.0:
                op = op + quad[i, j] * (di_dag @ delta[j])
    return op.tocsr()


def dense_sld_report(eta1, n_s, n_th, probe, cutoff):
    """The SLD report of ``validate.sld_fock_report`` on dense matrices: the
    sparse operator against the dense received state and its tangent."""
    from bifrost.protocols import BiFrequencyParams, bifrequency_received_state
    from bifrost.sld import _solve

    solution = _solve(bifrequency_received_state(BiFrequencyParams(eta1, 0.0, n_s, n_th), probe))
    h = solution.result().value
    ell = sparse_sld_operator(solution.form(), cutoff).tocoo()
    state = fock.bifrequency_fock_family(eta1, n_s, n_th, probe, cutoff)(fock.LAMBDA0)
    rho, drho = state.rho, dense_tangent(state)
    ell_rho = ell @ rho
    anticommutator = ell_rho + ell_rho.conj().T
    anticommutator -= 2.0 * drho
    residual = np.linalg.norm(anticommutator) / np.linalg.norm(drho)
    mean = float(np.trace(ell_rho).real)
    second_moment = float(np.sum(ell.data * ell_rho[ell.col, ell.row]).real)
    return {
        "residual": float(residual),
        "mean": mean,
        "second_moment": second_moment,
        "qfi": h,
        "variance_rel_error": abs(second_moment - h) / h,
    }
