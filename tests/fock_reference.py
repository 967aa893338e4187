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
states, which the package never forms, are kept here too, and so are two
references for the thermal-loss channel that share none of its code: the
untruncated Kraus sums of the amplifier after loss at 40 digits, and the
beam-splitter dilation with a thermal bath, on unitaries from
scipy.linalg.expm.
"""

import functools

import mpmath
import numpy as np

from bifrost import fock
from bifrost.errors import check_photon_numbers


def fock_thermal(n_th, cutoff):
    """Thermal mode as a truncated geometric mixture of number states."""
    check_photon_numbers(n_th)
    q = n_th / (1.0 + n_th)
    fock._gate_cutoff(q**cutoff, cutoff, "thermal")
    return np.diag((1.0 - q) * q ** np.arange(cutoff))


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
    by scipy.linalg.expm on each set of states |m, n - m> of one total
    photon number n that the generator preserves, where it is tridiagonal
    with entries +-sqrt((m + 1)(n - m)). The second output slot is
    sqrt(eta) x (second input) - sqrt(1-eta) x (first input), as in
    :func:`bifrost.gaussian.beam_splitter`; full reflection (eta = 1) is the
    identity.
    """
    from scipy.linalg import expm

    theta = float(np.arccos(np.sqrt(eta)))
    u = np.zeros((cutoff * cutoff, cutoff * cutoff))
    for n in range(2 * cutoff - 1):
        m = np.arange(max(0, n - cutoff + 1), min(n, cutoff - 1) + 1)
        hop = np.sqrt((m[:-1] + 1.0) * (n - m[:-1]))
        idx = m * cutoff + (n - m)
        u[np.ix_(idx, idx)] = expm(theta * (np.diag(hop, -1) - np.diag(hop, 1)))
    return u


def dilation_blocks(eta, n_th, cutoff, levels):
    """The thermal-loss channel's blocks on the levels below ``levels``, for
    the offsets k < ``levels``, from its dilation: a thermal bath enters the
    first port of ``fock_beam_splitter(eta, cutoff)``, the signal the
    second, and the first output port is traced out. The bath and the
    sectors of total photon number at least ``cutoff`` are truncated, which
    a large cutoff makes negligible on the low levels."""
    d = cutoff
    probs = fock_thermal(n_th, d).diagonal()
    # u[e, t, j, s] = <e, t| U |j, s>
    u = fock_beam_splitter(eta, d).reshape(d, d, d, d)
    blocks = []
    for k in range(levels):
        size = levels - k
        upper, lower = u[:, k : k + size, :, k : k + size], u[:, :size, :, :size]
        blocks.append(np.einsum("etjs,j,etjs->ts", upper, probs, lower))
    return blocks


# working precision of the Kraus-sum reference, in decimal digits
KRAUS_DPS = 40


@functools.lru_cache(maxsize=None)
def kraus_blocks(eta, n_th, cutoff):
    """The thermal-loss channel's blocks on the cutoff, as float64, summed
    over the Kraus operators A_l' B_l of a quantum-limited amplifier of gain
    G = 1 + (1 - eta) n_th after pure loss of transmissivity tau = eta / G,
    at KRAUS_DPS digits.

    B_l maps |n> to sqrt(C(n, l) tau^(n - l) (1 - tau)^l) |n - l> and A_l
    maps |n> to sqrt(C(n + l, l) G^-(n + 1) (1 - 1/G)^l) |n + l>. Loss never
    raises a photon number, so on input and output levels below the cutoff
    every Kraus operator that contributes is kept: the sums are not
    truncated.
    """
    with mpmath.workdps(KRAUS_DPS):
        return [np.array(b.tolist(), dtype=float) for b in _kraus_blocks(eta, n_th, cutoff)]


def kraus_dblocks(eta, n_th, cutoff):
    """The eta-derivatives of ``kraus_blocks``, as float64: a central
    difference with step 1e-15 at KRAUS_DPS digits, whose truncation there
    is far below float64 round-off."""
    with mpmath.workdps(KRAUS_DPS):
        step = mpmath.mpf("1e-15")
        up, down = (_kraus_blocks(mpmath.mpf(eta) + h, n_th, cutoff) for h in (step, -step))
        return [np.array(((u - d) / (2 * step)).tolist(), dtype=float) for u, d in zip(up, down)]


def _kraus_blocks(eta, n_th, cutoff):
    """The per-offset blocks of the Kraus sum of ``kraus_blocks``, as mpmath
    matrices, at the working precision."""
    eta, n_th = mpmath.mpf(eta), mpmath.mpf(n_th)
    gain = 1 + (1 - eta) * n_th
    tau = eta / gain
    loss = [[mpmath.sqrt(mpmath.binomial(n, l) * tau ** (n - l) * (1 - tau) ** l) for n in range(cutoff)]
            for l in range(cutoff)]
    amp = [[mpmath.sqrt(mpmath.binomial(n + l, l) * gain ** -(n + 1) * (1 - 1 / gain) ** l)
            for n in range(cutoff)] for l in range(cutoff)]
    blocks = []
    for k in range(cutoff):
        size = cutoff - k
        block = mpmath.zeros(size, size)
        # K = A_l' B_l takes |s + k><s| to |s + k - l + l'><s - l + l'|
        for s in range(size):
            for l in range(s + 1):
                lost = loss[l][s + k] * loss[l][s]
                for t in range(size):
                    if t - s + l >= 0:
                        gained = amp[t - s + l][s + k - l] * amp[t - s + l][s - l]
                        block[t, s] += lost * gained
        blocks.append(block)
    return blocks


def superoperator(blocks):
    """The dense cutoff^2 x cutoff^2 superoperator of a channel kept as its
    per-offset blocks, acting on the row-major flattened density matrix."""
    d = len(blocks)
    dense = np.zeros((d * d, d * d))
    for k, block in enumerate(blocks):
        i = np.arange(d - k)
        for rows, cols in ((i + k, i), (i, i + k)):
            flat = rows * d + cols
            dense[np.ix_(flat, flat)] = block
    return dense


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
