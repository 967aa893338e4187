"""Truncated Fock-space oracle: brute-force states, channels and QFI.

Everything here exists to validate the Gaussian pipeline by a route that
shares none of its machinery: density matrices on a photon-number cutoff,
channels from closed-form Kraus operators, moments as traces against
number-basis operators, and the basis-dependent QFI

    H = 2 sum_{m,n} |<m| drho |n>|^2 / (p_m + p_n)

over the eigenpairs of the received state.

The channel. A thermal-loss channel of reflectivity eta and bath n_th is a
quantum-limited amplifier of gain G = 1 + (1 - eta) n_th after pure loss of
transmissivity tau = eta / G (Caruso, Giovannetti and Holevo, NJP 8, 310
(2006)). Both map |k><l| only into coherences |k'><l'| with k' - l' = k - l,
so the channel is one real block per offset k (``ThermalLossChannel.blocks``),
the triangular product A_k L_k of their Kraus sums, in closed form (Ivan,
Sabapathy and Simon, PRA 84, 042311 (2011)):

    L_k[j, n] = sqrt(C(n + k, n - j) C(n, n - j)) tau^(j + k/2) (1 - tau)^(n - j),  n >= j
    A_k[m, j] = sqrt(C(m + k, m - j) C(m, m - j)) ((G - 1)/G)^(m - j) G^-(1 + j + k/2),  m >= j

each entry formed in log space from cumulative log-factorials. Loss never
raises a photon number, so the product is exact on the cutoff: there is no
bath and no matrix exponential, and the one truncation, the output's, leaks
trace that a family gates on its received state. An entry's eta-derivative
is the entry times its exponents against the logarithmic derivatives of
tau, 1 - tau, (G - 1)/G and G, all finite for eta in (0, 1); a block's is
dA_k L_k + A_k dL_k (``ThermalLossChannel.dblocks``). A channel depends
only on (eta, n_th, cutoff), so it is built once per process for each such
key, through one bounded memo (``_channel``) that every family shares, and
its blocks are read-only. A state whose modes pass through such channels
keeps the zero pattern those offsets impose: the received two-mode squeezed
state and its derivative vanish outside the sectors of fixed n1 - n2,
exactly 0.0 and not merely small.

The sector structure. Sector delta = n1 - n2, for delta = 1 - cutoff, ...,
cutoff - 1, holds the cutoff - |delta| basis states n1 cutoff + n2 with
that difference, ascending in n1. A state block-diagonal in n1 - n2 is kept
as its 2 cutoff - 1 sectors (``FockState.sectors``), about 2 cutoff^3 / 3
entries, in one zero-padded (2 cutoff - 1, cutoff, cutoff) stack: sector
delta at row delta + cutoff - 1, in the leading corner of its size, and 0
elsewhere. So the state is gathered in one index and checked in one pass;
``_sector_layout`` holds the indices, the padding mask and the gather index
of each cutoff. A product state is kept as its one-mode factors
(``FockState.product``). ``qfi_eq1`` diagonalises the factors or the
sectors, never a cutoff^2 x cutoff^2 matrix, and reads which off the
states, never off the probe; ``quadrature_moments`` sums over the factors'
or the stack's entries.

The four-mode bi-frequency pipeline is never materialised: the interaction
does not mix frequencies, so each frequency sees an independent thermal-loss
channel acting on its signal mode. The received two-mode state is built from
the structure of the probe, never by passing a dense two-mode probe through
the channels. The coherent probe is a product state, so its output is the
product of the two one-mode outputs, kept as those two factors. The
two-mode squeezed probe sum_n a_n |n, n> holds only the coherences
|n><m| x |n><m|, with the same offset k = n - m in both modes, and each
channel keeps that offset; so its output is nonzero only where both modes
share an offset, and for each k >= 0 it is the one product
B1_k diag(a_{i+k} a_i) B2_k^T of the two channels' blocks, the entry at
|i + k, j + k><i, j| for row i and column j, and its transpose at offset -k.
One fancy index (``_sector_layout``) gathers the sector stack from these
products. Real probes give real states, which keep a real dtype throughout.

The tangent rule: each state a family returns carries drho/dlam, exact, in
its own structure (``FockState.tangent``): the eta-derivative of the second
channel, the only one that moves with lam. So the two-mode squeezed tangent
is B1_k diag(a_{i+k} a_i) dB2_k^T per offset, in the state's sector stack.
The first factor of the coherent product does not move, so the product
tangent is dB alone, read as A x dB.

The products stay one BLAS call per offset, at the offset's own size. A
product padded to the full cutoff, batched over the offsets, gives the same
numbers only up to round-off: OpenBLAS orders its sums by the length of the
reduction, and the zero padding changes that length. The padded batch moves
the coherent QFI by about 5e-12 relative and the cutoff-45 and cutoff-80
sectors in their last bits, so it is not used.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import CutoffTooSmallError, check_photon_numbers

# gate on the tail mass a cutoff leaves
HARD_TAIL_TOL = 1e-6
# working point of every Fock-family tangent
LAMBDA0 = 0.0
# eigenvalue pairs of the QFI sum whose sum is at most this are skipped
DROP_THRESHOLD = 1e-12


def _hermitian(rho, shape: tuple[int, ...]) -> np.ndarray:
    """``rho`` as float64, or complex128 if complex, after checking that its
    shape is ``shape`` and that each matrix on its last two axes is hermitian
    to 1e-12; NaN fails too."""
    rho = np.asarray(rho)
    rho = rho.astype(complex if np.iscomplexobj(rho) else float, copy=False)
    if rho.shape != shape:
        raise ValueError(f"density matrix shape {rho.shape} != {shape}")
    herm = np.max(np.abs(rho - rho.conj().swapaxes(-1, -2)))
    if not herm <= 1e-12:  # NaN fails too
        raise ValueError(f"density matrix non-hermitian by {herm:.3e}")
    return rho


class FockState:
    """A two-mode density matrix on a photon-number-truncated space, kept in
    one of the two forms the probes give and never as one cutoff^2 x
    cutoff^2 matrix: a product A x B as its one-mode ``factors``
    (``FockState.product``), or a state block-diagonal in n1 - n2 as the
    padded ``stack`` of its sectors (``FockState.sectors``, the sector
    structure of the module docstring). The other of the two is None.
    ``tangent`` (the tangent rule) is a stack like ``stack`` or a product's
    dB, checked alike; or None.

    The trace may fall short of one by the truncation leak of the
    construction; it is never renormalised away. A real matrix is kept real
    (float64) and a complex one complex; hermiticity is checked in the
    matrix's own dtype.
    """

    __slots__ = ("factors", "stack", "dim", "tangent")

    @classmethod
    def product(cls, first: np.ndarray, second: np.ndarray, tangent=None) -> "FockState":
        """The two-mode product of one-mode density matrices of one cutoff,
        each checked on its own; ``tangent`` is the second factor's
        derivative dB, the first factor being fixed (the tangent rule)."""
        state = cls.__new__(cls)
        state.dim = len(first)
        shape = (state.dim, state.dim)
        state.factors = (_hermitian(first, shape), _hermitian(second, shape))
        state.stack = None
        state.tangent = None if tangent is None else _hermitian(tangent, shape)
        return state

    @classmethod
    def sectors(cls, stack: np.ndarray, tangent: np.ndarray | None = None) -> "FockState":
        """The two-mode state whose only nonzero blocks are its sectors of
        n1 - n2, given as their padded stack. Hermiticity is checked once
        over the stack, and a nonzero padding entry is rejected, since no
        sector would see it; the same holds for the tangent's stack."""
        state = cls.__new__(cls)
        state.dim = dim = np.shape(stack)[-1]
        state.factors = None
        state.stack = _hermitian(stack, (2 * dim - 1, dim, dim))
        state.tangent = None if tangent is None else _hermitian(tangent, state.stack.shape)
        padding = _sector_layout(dim).padding
        for part in (state.stack, state.tangent):
            if part is not None and np.any((part != 0) & padding):  # NaN fails too
                raise ValueError("sector stack nonzero in its padding")
        return state


class _SectorLayout(NamedTuple):
    """Where the sectors of a two-mode cutoff lie in their stack (the sector
    structure of the module docstring): ``indices``, the basis indices of
    each sector, padded with 0; ``padding``, the mask of the stack's
    padding; ``gather``, the flat indices into the coherences of
    ``_tmsv_sectors`` that fill the stack."""

    indices: np.ndarray
    padding: np.ndarray
    gather: np.ndarray


@functools.lru_cache(maxsize=16)
def _sector_layout(dim: int) -> _SectorLayout:
    """The layout of the sectors at cutoff ``dim``; read-only, since it is
    shared. Padding entries gather coherences[dim - 1, dim - 1, dim - 1],
    which lies in their zero padding."""
    t = np.arange(dim)
    delta = np.arange(1 - dim, dim)[:, None]
    up, down = np.maximum(delta, 0), np.maximum(-delta, 0)
    inside = t < dim - np.abs(delta)
    indices = np.where(inside, (t + up) * dim + t + down, 0)
    padding = ~(inside[:, :, None] & inside[:, None, :])
    offset, low = np.abs(t[:, None] - t[None, :]), np.minimum(t[:, None], t[None, :])
    gather = (offset * dim + low + up[:, :, None]) * dim + low + down[:, :, None]
    # int32 halves the shared memo; it holds dim^3 up to cutoff 1290, whose
    # coherences alone would take 17 GB
    gather = np.where(padding, dim**3 - 1, gather).astype(np.int32)
    layout = _SectorLayout(indices, padding, gather)
    for array in layout:
        array.setflags(write=False)
    return layout


@functools.lru_cache(maxsize=16)
def _offset_order(dim: int) -> np.ndarray:
    """The flat indices of a dim x dim matrix grouped by coherence offset:
    rho[i, i] for i < dim, then for each k = 1, ..., dim - 1 the entries
    rho[i + k, i] and then rho[i, i + k], each ascending in i. A permutation,
    read-only since it is shared."""
    groups = [np.arange(dim) * (dim + 1)]
    for k in range(1, dim):
        i = np.arange(dim - k)
        groups += [(i + k) * dim + i, i * dim + i + k]
    order = np.concatenate(groups)
    order.setflags(write=False)
    return order


def annihilation(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1)


def _gate_cutoff(tail_mass: float, cutoff: int, label: str):
    if not tail_mass < HARD_TAIL_TOL:  # a NaN tail fails too
        raise CutoffTooSmallError(
            f"cutoff {cutoff} leaves {label} tail mass {tail_mass:.3e} >= {HARD_TAIL_TOL}"
        )


def _tmsv_amplitudes(n_s: float, cutoff: int) -> np.ndarray:
    """The amplitudes a_n of the two-mode squeezed vacuum sum_n a_n |n, n>,
    one per level of the cutoff, after the domain check and the tail gate.
    sinh^2 r = 2 n_s, matching :func:`bifrost.gaussian.tmsv`, with the
    relative phase that correlates the x quadratures positively, again
    matching the covariance convention."""
    check_photon_numbers(n_s)
    tanh2 = 2.0 * n_s / (2.0 * n_s + 1.0)  # tanh^2 r with sinh^2 r = 2 n_s
    _gate_cutoff(float(tanh2**cutoff), cutoff, "two-mode squeezed")
    tanh_r = np.sqrt(tanh2)
    return tanh_r ** np.arange(cutoff) * np.sqrt(1.0 - tanh_r**2)


def _log_factorials(size: int) -> np.ndarray:
    """log n! for n < size, as cumulative sums of logarithms."""
    return np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, size)))])[:size]


def _log_weights(x: float, powers: np.ndarray, log_fact: np.ndarray) -> np.ndarray:
    """log(x^l / l!) at each l of ``powers``, and -inf where l < 0. At x = 0
    it is 0 at l = 0 and -inf elsewhere, with no log(0) taken."""
    l = np.maximum(powers, 0)
    if x > 0.0:
        logs = l * np.log(x) - log_fact[l]
    else:
        logs = np.where(l == 0, 0.0, -np.inf)
    return np.where(powers >= 0, logs, -np.inf)


def fock_coherent(alpha: complex, cutoff: int) -> np.ndarray:
    """The one-mode density matrix of the coherent state |alpha> truncated
    at the cutoff. Each amplitude's modulus is exp of its logarithm, so no
    power or factorial leaves the float range at a large cutoff."""
    if not np.isfinite(alpha):
        raise ValueError("coherent amplitude must be finite")
    n = np.arange(cutoff)
    modulus = abs(alpha)
    amps = np.exp(0.5 * (_log_weights(modulus**2, n, _log_factorials(cutoff)) - modulus**2))
    if modulus > 0.0:
        amps = amps * (alpha / modulus) ** n
    leak = max(1.0 - float(np.vdot(amps, amps).real), 0.0)
    _gate_cutoff(leak, cutoff, "coherent")
    return np.outer(amps, amps.conj())


def _check_reflectivity(eta: float):
    """ValueError unless eta lies in (0, 1), where the channel's eta-derivative is finite."""
    if not 0.0 < eta < 1.0:  # NaN fails too
        raise ValueError(f"reflectivity must lie in (0, 1), got {eta!r}")


def quadrature_moments(state: FockState) -> tuple[np.ndarray, np.ndarray]:
    """Interleaved covariance and displacement of a two-mode state, from
    number-basis moments.

    Each moment is Tr(rho O) = sum rho[r, s] O[s, r], with O a product of
    one-mode operators: the identity, a quadrature, or the anticommutator of
    two. Each of them moves a photon number by at most 2, so the sum runs
    over the nonzero entries of rho within that band on both modes, and each
    one-mode operator is gathered at their photon numbers. The entries are
    read off the state's form: the stack at the sectors' basis indices
    (``_sector_layout``), or for a product A x B the products
    A[i1, j1] B[i2, j2] inside the band. They are summed in the order of the
    dense matrix, which is never formed.
    """
    d = state.dim
    if state.factors is not None:
        # rows (i1, i2), columns (j1, j2) = (i1 + e1, i2 + e2), for |e| <= 2
        t, e = np.arange(d)[:, None], np.arange(-2, 3)
        near = np.clip(t + e, 0, d - 1)
        first, second = (np.where(t + e == near, f[t, near], 0) for f in state.factors)
        values = first[:, None, :, None] * second[None, :, None, :]
        rows = (t * d + t.T)[:, :, None, None]
        cols = near[:, None, :, None] * d + near[None, :, None, :]
    else:
        indices = _sector_layout(d).indices
        values, rows, cols = state.stack, indices[:, :, None], indices[:, None, :]
    places = (d, 1)
    keep = values != 0
    for place in places:
        keep &= np.abs(rows // place % d - cols // place % d) <= 2
    rows, cols = (np.broadcast_to(i, keep.shape)[keep] for i in (rows, cols))
    order = np.argsort(rows * d**2 + cols)
    values, rows, cols = values[keep][order], rows[order], cols[order]

    a = annihilation(d)
    x, p = (a + a.T) / np.sqrt(2.0), (a - a.T) / (1j * np.sqrt(2.0))
    # ops[0] = I, ops[1 + u] = q_u and ops[3 + u + v] = q_u q_v + q_v q_u
    ops = np.stack([np.eye(d), x, p, x @ x + x @ x, x @ p + p @ x, p @ p + p @ p])
    gathered = [ops.reshape(len(ops), -1)[:, cols // p % d * d + rows // p % d] for p in places]

    def expect(terms: dict[int, int]) -> float:
        """Tr(rho O) for O = ops[terms[m]] on each listed mode m, I elsewhere."""
        factors = [g[terms.get(m, 0)] for m, g in enumerate(gathered)]
        return np.sum(values * np.prod(factors, axis=0)).real

    disp = np.array([expect({m: 1 + u}) for m in range(2) for u in range(2)])
    cov = np.empty((4, 4))
    for i in range(4):
        for j in range(i, 4):
            (m1, u), (m2, v) = divmod(i, 2), divmod(j, 2)
            if m1 == m2:
                sym = expect({m1: 3 + u + v})
            else:
                sym = 2.0 * expect({m1: 1 + u, m2: 1 + v})
            cov[i, j] = cov[j, i] = sym - 2.0 * disp[i] * disp[j]
    return cov, disp


class ThermalLossChannel:
    """Single-mode thermal-loss channel, an amplifier after pure loss.

    The superoperator is kept as its sectors: ``blocks[k]`` maps the
    coherences rho[i + k, i] of offset k to those of the output, indexed by
    i in both. The channel preserves hermiticity and is real, so offset -k,
    the coherences rho[i, i + k], has the same block; ``dblocks`` are their
    eta-derivatives (module docstring). ``apply`` runs the channel on one
    mode, with every offset's coherences gathered in one index and scattered
    back in one (``_by_offset``, which also applies ``dblocks``);
    ``bifrequency_fock_family`` combines the blocks of two channels. Each
    block multiplies at its own size, and the blocks are read-only, since
    ``_channel`` shares them (module docstring).
    """

    def __init__(self, eta: float, n_th: float, cutoff: int):
        self.eta = eta
        self.n_th = n_th
        self.cutoff = cutoff
        _check_reflectivity(eta)
        check_photon_numbers(n_th)
        gain = 1.0 + (1.0 - eta) * n_th
        log_tau, log_gain = np.log(eta / gain), np.log(gain)
        # d log/deta of tau, of 1 - tau and (G - 1)/G alike, and of G
        dlog_tau, dlog_rest = (1.0 + n_th) / (gain * eta), -1.0 / (gain * (1.0 - eta))
        dlog_gain = -n_th / gain
        log_fact = _log_factorials(cutoff)
        levels = np.arange(cutoff)
        steps = levels[:, None] - levels  # m - j at row m, column j
        # log(x^(n - j) / (n - j)!) at [j, n] for x = 1 - tau, and at [m, j] for x = (G - 1)/G
        loss = _log_weights((1.0 - eta) * (1.0 + n_th) / gain, steps, log_fact).T
        amplify = _log_weights((1.0 - eta) * n_th / gain, steps, log_fact)
        blocks, dblocks = [], []
        for k in range(cutoff):
            size = cutoff - k
            up = steps[:size, :size]
            half = levels[:size] + 0.5 * k  # j + k/2
            root = 0.5 * (log_fact[k:] + log_fact[:size])  # log sqrt((j + k)! j!)
            ratio = root[:, None] - root
            loss_k = np.exp(loss[:size, :size] - ratio + (half * log_tau)[:, None])
            amp_k = np.exp(amplify[:size, :size] + ratio - (1.0 + half) * log_gain)
            dloss_k = loss_k * ((half * dlog_tau)[:, None] + up.T * dlog_rest)
            damp_k = amp_k * (up * dlog_rest - (1.0 + half) * dlog_gain)
            blocks.append(amp_k @ loss_k)
            dblocks.append(damp_k @ loss_k + amp_k @ dloss_k)
        self.blocks, self.dblocks = tuple(blocks), tuple(dblocks)
        for block in self.blocks + self.dblocks:
            block.setflags(write=False)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """The channel's output for a one-mode matrix ``rho``, in its dtype (``_by_offset``)."""
        return _by_offset(self.blocks, rho)


def _by_offset(blocks: Sequence[np.ndarray], rho: np.ndarray) -> np.ndarray:
    """A channel's ``blocks`` or ``dblocks`` applied to ``rho``: its entries
    gathered by offset in one index (``_offset_order``), one product per
    offset and side, and one scatter back."""
    order = _offset_order(len(blocks))
    coherences = np.take(rho, order)
    out = np.empty_like(coherences)
    start = 0
    for k, block in enumerate(blocks):
        for _ in range(1 if k == 0 else 2):  # the diagonal, else both sides
            stop = start + len(blocks) - k
            out[start:stop] = block @ coherences[start:stop]
            start = stop
    result = np.empty(rho.shape, out.dtype)
    result.reshape(-1)[order] = out
    return result


# The channel of one (eta, n_th, cutoff), built on its first request and
# shared by every family. typed, so that cutoff 30.0 meets the constructor's
# TypeError instead of the channel of cutoff 30; a call that raises is not
# memoised, so a rejected argument is rejected on every call. A family is
# read only at LAMBDA0, so a cutoff of ``full_validation`` needs 4 of 16 keys.
_channel = functools.lru_cache(maxsize=16, typed=True)(ThermalLossChannel)


def _tmsv_sectors(ch1: ThermalLossChannel, ch2: ThermalLossChannel, amps: np.ndarray) -> np.ndarray:
    """The two-mode squeezed probe sum_n amps[n] |n, n> through ``ch1`` on the
    first mode and ``ch2`` on the second, and its eta-derivative in ``ch2``,
    as the padded stacks of their sectors of fixed n1 - n2 (module
    docstring, ``FockState.sectors``); each sector is real and symmetric."""
    d = len(amps)
    # coherences[:, k, i, j]: the entry at |i + k, j + k><i, j| of the state
    # and of its derivative, one product per k, and 0 outside i, j < d - k
    coherences = np.zeros((2, d, d, d))
    for k, (b1, b2, db2) in enumerate(zip(ch1.blocks, ch2.blocks, ch2.dblocks)):
        weighted = b1 * (amps[k:] * amps[: d - k])
        coherences[:, k, : d - k, : d - k] = weighted @ b2.T, weighted @ db2.T
    return coherences.reshape(2, -1)[:, _sector_layout(d).gather]


def _trace(state: FockState) -> float:
    """Tr A Tr B of a product A x B, else the sum of the sector traces."""
    if state.factors is not None:
        return float(np.trace(state.factors[0]).real * np.trace(state.factors[1]).real)
    return float(np.trace(state.stack, axis1=1, axis2=2).sum())


def bifrequency_fock_family(
    eta1: float, n_s: float, n_th: float, probe: str, cutoff: int
) -> Callable[[float], FockState]:
    """Received-state family of the bi-frequency protocol, in Fock space.

    Each evaluation at lam builds the received state from the probe's
    structure (module docstring), with the channel at eta1 on the first
    mode and at eta1 + lam on the second, with its tangent (the tangent
    rule), so both must lie in (0, 1), else ValueError. A state whose trace
    leak 1 - Tr rho reaches HARD_TAIL_TOL raises CutoffTooSmallError.
    """
    check_photon_numbers(n_s, n_th)
    _check_reflectivity(eta1)
    if probe == "tmsv":
        amps = _tmsv_amplitudes(n_s, cutoff)

        def received(ch1: ThermalLossChannel, ch2: ThermalLossChannel) -> FockState:
            return FockState.sectors(*_tmsv_sectors(ch1, ch2, amps))

    elif probe == "coherent":
        single = fock_coherent(np.sqrt(n_s), cutoff)
        # the first channel does not move with lam: its output, shared by
        # every state of the family, is computed once and read-only
        first = _channel(eta1, n_th, cutoff).apply(single)
        first.setflags(write=False)

        def received(ch1: ThermalLossChannel, ch2: ThermalLossChannel) -> FockState:
            return FockState.product(first, ch2.apply(single), _by_offset(ch2.dblocks, single))

    else:
        raise ValueError(f"unknown probe {probe!r}")

    def family(lam: float) -> FockState:
        state = received(_channel(eta1, n_th, cutoff), _channel(eta1 + lam, n_th, cutoff))
        _gate_cutoff(1.0 - _trace(state), cutoff, "received")
        return state

    return family


def _blockwise(state: FockState) -> list[tuple[np.ndarray, ...]]:
    """(basis index set, block of the state, block of its tangent) per
    sector of a state kept as sectors, each at the sector's own size."""
    d = state.dim
    sizes = (d - abs(delta) for delta in range(1 - d, d))
    parts = zip(_sector_layout(d).indices, state.stack, state.tangent, sizes)
    return [(idx[:m], block[:m, :m], dblock[:m, :m]) for idx, block, dblock, m in parts]


def _pair_sum(sums: np.ndarray, mat: np.ndarray) -> float:
    """sum |mat|^2 / sums over the pairs whose eigenvalue sum exceeds DROP_THRESHOLD."""
    mask = sums > DROP_THRESHOLD
    return np.sum(np.abs(mat[mask]) ** 2 / sums[mask])


def _product_qfi(state: FockState) -> float:
    """The Eq. 1 sum for a product A x B with tangent A x dB, in the product
    of the factors' eigenbases, where p[i1, i2] = a[i1] b[i2]. There A x dB
    couples (i1, i2) only to (i1, j2), by a[i1] dB'[i2, j2], so the sum runs
    over [i1, i2, j2] with pair sums a[i1] (b[i2] + b[j2])."""
    a = np.linalg.eigvalsh(state.factors[0])
    b, v = np.linalg.eigh(state.factors[1])
    db = v.conj().T @ state.tangent @ v
    return _pair_sum(a[:, None, None] * (b[:, None] + b), a[:, None, None] * db)


def qfi_eq1(family: Callable[[float], FockState]) -> float:
    """Basis-dependent QFI from the eigendecomposition of the received state.

    The family is evaluated once, at LAMBDA0, and drho is the tangent that
    state carries (the tangent rule, module docstring), else ValueError. The
    sum runs in the factors' eigenbases (``_product_qfi``) or over the
    sectors (``_blockwise``), each decomposed in its own dtype. Eigenvalue pairs whose
    sum is at most DROP_THRESHOLD are skipped.
    """
    state = family(LAMBDA0)
    if state.tangent is None:
        raise ValueError("the family's state carries no tangent")
    if state.factors is not None:
        return float(2.0 * _product_qfi(state))
    total = 0.0
    for _, block, dblock in _blockwise(state):
        evals, evecs = np.linalg.eigh(block)
        total += _pair_sum(evals[:, None] + evals, evecs.conj().T @ dblock @ evecs)
    return float(2.0 * total)
