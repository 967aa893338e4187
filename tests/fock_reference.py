"""Reference states and quantities for tests, on dense matrices.

The package keeps each two-mode state as its one-mode factors or its
sectors and never forms its dense matrix. ``dense`` and ``dense_tangent``
form it here, and the references below work on dense matrices: the Eq. 1
QFI over the eigenpairs of the whole matrix, the moments as traces against
full-space operators, the partial trace by index contraction, the central
difference of a family that the exact tangent replaced, and the general
path the structured received states replaced, which applies each channel's
sector blocks to the full probe density matrix, one mode after the other,
and knows nothing of the probe. The dense thermal and two-mode squeezed
states, which the package never forms, are kept here too.
"""

import functools

import numpy as np

from bifrost import fock
from bifrost.errors import check_photon_numbers


def fock_thermal(n_th, cutoff):
    """Thermal mode as a truncated geometric mixture of number states."""
    check_photon_numbers(n_th)
    fock._gate_cutoff(fock._thermal_tail(n_th, cutoff), cutoff, "thermal")
    return np.diag(fock._thermal_probs(n_th, cutoff))


def fock_tmsv(n_s, cutoff):
    """Two-mode squeezed vacuum sum_n a_n |n, n> with the protocol
    photon-number label, as a dense two-mode matrix."""
    amps = fock._tmsv_amplitudes(n_s, cutoff)
    psi = np.zeros(cutoff * cutoff)
    psi[np.arange(cutoff) * cutoff + np.arange(cutoff)] = amps
    return np.outer(psi, psi)


def _scatter(stack, dim):
    """The dense matrix of a padded sector stack: each sector at its basis
    states, 0 elsewhere."""
    layout = fock._sector_layout(dim)
    inside = ~layout.padding
    rows = np.broadcast_to(layout.indices[:, :, None], stack.shape)[inside]
    cols = np.broadcast_to(layout.indices[:, None, :], stack.shape)[inside]
    out = np.zeros((dim * dim, dim * dim), stack.dtype)
    out[rows, cols] = stack[inside]
    return out


def dense(state):
    """A state's dense matrix: A x B for a product A x B, else its sectors
    placed at their basis states."""
    if state.factors is not None:
        return np.kron(*state.factors)
    return _scatter(state.stack, state.dim)


def dense_tangent(state):
    """A state's tangent as one dense matrix: A x dB for a product A x B,
    else its sectors placed at their basis states."""
    if state.factors is not None:
        return np.kron(state.factors[0], state.tangent)
    return _scatter(state.tangent, state.dim)


def dense_qfi(rho, drho):
    """The Eq. 1 QFI over the eigenpairs of the whole dense ``rho``, with
    the package's DROP_THRESHOLD."""
    evals, evecs = np.linalg.eigh(rho)
    return 2.0 * float(fock._pair_sum(evals[:, None] + evals, evecs.conj().T @ drho @ evecs))


def dense_moments(rho, dim, n_modes):
    """Interleaved covariance and displacement of the dense ``n_modes``-mode
    ``rho``, each moment Tr(rho O) with O the full-space operator."""
    a = fock.annihilation(dim)
    quads = ((a + a.T) / np.sqrt(2.0), (a - a.T) / (1j * np.sqrt(2.0)))

    def expect(ops):
        """Tr(rho O) for O = ops[m] on each listed mode m, I elsewhere."""
        full = functools.reduce(np.kron, [ops.get(m, np.eye(dim)) for m in range(n_modes)])
        return np.sum(rho * full.T).real

    disp = np.array([expect({m: q}) for m in range(n_modes) for q in quads])
    cov = np.empty((2 * n_modes, 2 * n_modes))
    for i in range(2 * n_modes):
        for j in range(i, 2 * n_modes):
            (m1, u), (m2, v) = divmod(i, 2), divmod(j, 2)
            if m1 == m2:
                sym = expect({m1: quads[u] @ quads[v] + quads[v] @ quads[u]})
            else:
                sym = 2.0 * expect({m1: quads[u], m2: quads[v]})
            cov[i, j] = cov[j, i] = sym - 2.0 * disp[i] * disp[j]
    return cov, disp


# step of the test-side central difference
FD_STEP = 1e-5


def central_difference(family):
    """The dense central difference of ``family`` at lam = 0, step FD_STEP."""
    return (dense(family(FD_STEP)) - dense(family(-FD_STEP))) / (2.0 * FD_STEP)


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
        return fock_tmsv(n_s, cutoff)
    single = fock.fock_coherent(np.sqrt(n_s), cutoff)
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


def fock_partial_trace(rho, dim, n_modes, keep):
    """Trace out all modes of the dense ``n_modes``-mode ``rho`` not listed
    in ``keep``, by index contraction; the reduced dense matrix."""
    keep = list(keep)
    if not keep or any(k < 0 or k >= n_modes for k in keep):
        raise ValueError(f"invalid mode selection {keep} for {n_modes} modes")
    if any(b <= a for a, b in zip(keep, keep[1:])):
        raise ValueError("kept modes must be strictly increasing")
    tensor = rho.reshape([dim] * (2 * n_modes))
    for m in sorted(set(range(n_modes)) - set(keep), reverse=True):
        tensor = np.trace(tensor, axis1=m, axis2=m + tensor.ndim // 2)
    size = dim ** len(keep)
    return tensor.reshape(size, size)


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
    rho, drho = dense(state), dense_tangent(state)
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
