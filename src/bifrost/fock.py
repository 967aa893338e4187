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
dA_k L_k + A_k dL_k (``ThermalLossChannel.dblocks``). A channel is built
once per (eta, n_th, cutoff), through one bounded memo (``_channel``), and
its blocks are read-only. A state whose modes pass through such channels
keeps the zero pattern those offsets impose: the received two-mode squeezed
state and its derivative vanish outside the sectors of fixed n1 - n2,
exactly 0.0 and not merely small.

The sector structure. Sector delta = n1 - n2, for |delta| < cutoff,
holds the cutoff - |delta| basis states n1 cutoff + n2 with that
difference, ascending in n1. The two-mode squeezed state, block diagonal in
n1 - n2, is kept as its coherences (``FockState.sectors``): the products
P_k, k = 0, ..., cutoff - 1, flat one after the other, about cutoff^3 / 3
entries. P_k[i, j] is the entry at |i + k, j + k><i, j| and at
|i, j><i + k, j + k|, so the state is real and symmetric by construction.
In sector delta the entries between states a >= b and between b and a are
P_{a - b}[b + max(delta, 0), b + max(-delta, 0)], so sector -delta reads
each P_k transposed where sector delta reads it: the two are a mirror
pair, equal wherever every P_k is symmetric, as at LAMBDA0 (the tangent
rule). A product state is kept as its one-mode factors
(``FockState.product``).

The probes. The four-mode pipeline is never materialised: the interaction
does not mix frequencies, so each signal mode sees its own thermal-loss
channel, and the received state is built from the probe's structure. The
coherent probe's output is the product of the two one-mode outputs. The
two-mode squeezed probe sum_n a_n |n, n> holds only the coherences
|n><m| x |n><m|, with one offset k = n - m in both modes, which each
channel keeps; so for each k >= 0 its output is the one product
X1 X2^T, Xm = Bm_k diag(sqrt(a_{i+k} a_i)), of the two channels' blocks:
P_k, written into its slice of the coherences.

The views. This module alone reads a state's form and layout; the SLD
check of ``validate`` reads a state through two views. ``_blockwise``
gives a weight and the stacks of blocks that a sum over the state runs
over: per |delta| its mirror pair of sectors, delta and then -delta, or
the lone sector 0, one ``np.take`` of the state's buffer (``rows``) at
the pair's index (``_sector_layout``), reached one pair at a time; or a
product's one block. ``_laid_out`` gives an observable's stacks in step
with them, from its terms, each a coefficient and one ladder word per
mode. Every word of at most two ladder operators is one diagonal in
closed form (``_ladder_diagonals``), which ``quadrature_moments`` reads
too. So no sum diagonalises more than two sectors or the moving factor,
never a cutoff^2 x cutoff^2 matrix. A channel reads a one-mode matrix's
offsets as strided views of its diagonals, with no index
(``_by_offset``).

The shared state. ``qfi_eq1``, ``validate.sld_fock_report`` and
``quadrature_moments`` read a family at LAMBDA0, so the state there is
built once per configuration (eta1, n_s, n_th, probe, cutoff), shared by
every family of it and read-only (``_received``). One configuration is
held at a time, dropped before the next is built: callers that read one
configuration's checks back to back build its state once, and no two
states are held together.

The tangent rule: each state a family returns carries drho/dlam, exact, in
its own structure (``FockState.tangent``): the eta-derivative of the second
channel, the only one that moves with lam. So the two-mode squeezed tangent
is X1 (dB2_k diag(sqrt(a_{i+k} a_i)))^T per offset, in the coherences'
format, at every lam. At LAMBDA0 the two channels have one (eta, n_th,
cutoff), so X2 is X1 itself and P_k = X1 X1^T, a product of one buffer
that numpy hands to BLAS syrk: symmetric bit for bit at every size, so
every mirror pair of sectors is equal and decomposed once.
The first factor of the coherent product does not move, so the product
tangent is dB alone, read as A x dB. In the factors' eigenbases, where
p[i1, i2] = a[i1] b[i2], A x dB couples (i1, i2) only to (i1, j2), with
pair sum a[i1] (b[i2] + b[j2]); each a[i1] factors out of Eq. 1, so the
product's sum is Tr A times that of the one block (B, dB) on the states
|0, n2>.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import CutoffTooSmallError, check_photon_numbers, check_scalars

# gate on the tail mass a cutoff leaves
HARD_TAIL_TOL = 1e-6
# working point of every Fock-family tangent
LAMBDA0 = 0.0
_FLOAT_MAX = float(np.finfo(float).max)


def _hermitian(rho, shape: tuple[int, int]) -> np.ndarray:
    """``rho`` as float64, after checking that it is real, that its shape is
    ``shape`` and that it is symmetric to 1e-12; NaN fails too."""
    if np.iscomplexobj(rho):
        raise ValueError(f"density matrix must be real, not {np.asarray(rho).dtype}")
    rho = np.asarray(rho, dtype=float)
    if rho.shape != shape:
        raise ValueError(f"density matrix shape {rho.shape} != {shape}")
    herm = np.max(np.abs(rho - rho.T))
    if not herm <= 1e-12:  # NaN fails too
        raise ValueError(f"density matrix non-hermitian by {herm:.3e}")
    return rho


class FockState:
    """A two-mode density matrix on a photon-number-truncated space, kept in
    one of the two forms the probes give and never as one cutoff^2 x
    cutoff^2 matrix: a product A x B as its one-mode ``factors``
    (``FockState.product``), or a state block-diagonal in n1 - n2 as the
    ``rows`` of one buffer, its ``coherences`` and its tangent's
    (``FockState.sectors``, the sector structure of the module docstring).
    The slots of the other form are None. Every state carries its
    ``tangent`` (the tangent rule), in the state's form, the second row or
    a product's dB, checked alike.

    The trace may fall short of one by the truncation leak of the
    construction; it is never renormalised away. Every array is real,
    float64: a complex one is refused.
    """

    __slots__ = ("factors", "coherences", "dim", "tangent", "rows")

    @classmethod
    def product(cls, first: np.ndarray, second: np.ndarray, tangent: np.ndarray) -> "FockState":
        """The two-mode product of one-mode density matrices of one cutoff,
        each checked on its own; ``tangent`` is the second factor's
        derivative dB, the first factor being fixed (the tangent rule)."""
        state = cls.__new__(cls)
        state.dim = len(first)
        shape = (state.dim, state.dim)
        state.factors = (_hermitian(first, shape), _hermitian(second, shape))
        state.coherences = state.rows = None
        state.tangent = _hermitian(tangent, shape)
        return state

    @classmethod
    def sectors(cls, rows: np.ndarray) -> "FockState":
        """The two-mode state block-diagonal in n1 - n2 whose coherences are
        the first of the two ``rows`` and its tangent's the second. The
        format makes both real and symmetric, so the (2, N) array is only
        checked, where it lies, to be real, of the size N of one cutoff's
        coherences and finite, and kept as the state's buffer, ``rows`` (the
        views)."""
        state = cls.__new__(cls)
        rows = np.asarray(rows)
        state.dim = dim = round((3 * rows.shape[-1]) ** (1 / 3) - 0.5) if rows.ndim == 2 else 0
        shape = (2, _start(dim, dim))
        if np.iscomplexobj(rows):
            raise ValueError(f"coherences must be real, not {rows.dtype}")
        # row by row, so that no mask of the whole buffer is made
        if rows.shape != shape or not all(np.isfinite(row).all() for row in rows):
            raise ValueError(f"coherences must be finite, of shape {shape}, not {rows.shape}")
        state.factors, state.rows = None, rows.astype(float, copy=False)
        state.coherences, state.tangent = state.rows
        return state


def _start(dim: int, k):
    """Where P_k begins in the coherences of cutoff ``dim``, the sizes
    (dim - l)^2 of the P_l before it summed; at k = dim, their total size."""
    rest = dim - k
    return (dim * (dim + 1) * (2 * dim + 1) - rest * (rest + 1) * (2 * rest + 1)) // 6


@functools.lru_cache(maxsize=1)
def _sector_layout(dim: int) -> tuple[np.ndarray, ...]:
    """Where the sectors of cutoff ``dim`` lie in its coherences (the sector
    structure of the module docstring): per |n1 - n2| = 0, 1, ..., dim - 1,
    the (n, m, m) index of its mirror pair of blocks into the coherences,
    for ``np.take``: n = 1 at 0, else 2, n1 - n2 = delta and then -delta,
    each block's index symmetric. Read-only, since it is shared, and held
    for one cutoff at a time, as the shared state is."""
    layout = []
    for step in range(dim):
        t = np.arange(dim - step)
        low, k = np.minimum.outer(t, t), np.abs(np.subtract.outer(t, t))
        at = _start(dim, k) + low * (dim - k + 1)
        layout.append(np.stack((at + step * (dim - k), at + step)[: 1 + (step > 0)]))
        layout[-1].setflags(write=False)
    return tuple(layout)


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


def fock_coherent(alpha: float, cutoff: int) -> np.ndarray:
    """The one-mode density matrix of the coherent state |alpha>, alpha real
    and nonnegative, truncated at the cutoff. Each amplitude is exp of its
    logarithm: no power or factorial leaves the float range at any cutoff."""
    if np.iscomplexobj(alpha) or not 0.0 <= alpha < np.inf:  # NaN fails too
        raise ValueError(f"coherent amplitude must be real, finite and nonnegative, not {alpha!r}")
    amps = np.exp(0.5 * (_log_weights(alpha**2, np.arange(cutoff), _log_factorials(cutoff)) - alpha**2))
    _gate_cutoff(1.0 - float(np.vdot(amps, amps)), cutoff, "coherent")
    return np.outer(amps, amps)


def _check_reflectivity(eta: float):
    """ValueError unless eta lies in (0, 1), where the channel's eta-derivative is finite."""
    if not 0.0 < eta < 1.0:  # NaN fails too
        raise ValueError(f"reflectivity must lie in (0, 1), got {eta!r}")


def _ladder_diagonals(dim: int) -> dict[str, tuple[int, np.ndarray]]:
    """Each product of at most two ladder operators, a ("a") and a^dag ("A"),
    "" the identity, on the cutoff as its one nonzero diagonal: the offset k
    of ``np.diagonal`` (+1 for a) and the entries, each the product of square
    roots sqrt(n) that the matrix product forms, so equal to it bit for bit."""
    root = np.sqrt(np.arange(1.0, dim))
    hop, number, zero = root[:-1] * root[1:], root * root, np.zeros(min(dim, 1))
    return {
        "": (0, np.ones(dim)), "a": (1, root), "A": (-1, root), "aa": (2, hop),
        "AA": (-2, hop), "aA": (0, np.append(number, zero)), "Aa": (0, np.append(zero, number)),
    }


def quadrature_moments(state: FockState) -> tuple[np.ndarray, np.ndarray]:
    """Interleaved covariance and displacement of a two-mode state, from
    number-basis moments.

    Each moment is read off one table E[o1, o2] = Tr(rho O_o1 x O_o2) over
    the one-mode operators I, x, p, {x, x}, {x, p}, {p, p}, each a sum of
    ladder words with x = (a + a^dag) / sqrt(2) and p = -i (a - a^dag) /
    sqrt(2). None moves a photon number by more than 2, so only their
    diagonals u_k[o, i] = O_o[i, i + k], |k| <= 2, enter, each the sum of
    its words' diagonals (``_ladder_diagonals``) on the truncation. For a
    product A x B, E is the outer product of the one-mode traces Tr(A O),
    each the sum over k of u_k times A's -k-th diagonal. For coherences,
    P_k[i, j] at |i + k, j + k><i, j| meets O1[i, i + k] O2[j, j + k], and
    its transpose at offset -k meets O1[i + k, i] O2[j + k, j], so E is
    u_k P_|k| u_k^T summed over k.
    """
    d = state.dim
    r = np.sqrt(0.5)
    # each word's coefficient in I, x, p, {x, x}, {x, p}, {p, p}
    words = {
        "": (1, 0, 0, 0, 0, 0), "a": (0, r, -1j * r, 0, 0, 0), "A": (0, r, 1j * r, 0, 0, 0),
        "aa": (0, 0, 0, 1, -1j, -1), "AA": (0, 0, 0, 1, 1j, -1),
        "aA": (0, 0, 0, 1, 0, 1), "Aa": (0, 0, 0, 1, 0, 1),
    }
    diagonals = {}
    for word, (k, line) in _ladder_diagonals(d).items():
        if abs(k) < d:  # a word past the cutoff has no diagonal
            diagonals[k] = diagonals.get(k, 0.0) + np.multiply.outer(words[word], line)
    if state.factors is not None:
        traces = [sum(u @ np.diagonal(f, -k) for k, u in diagonals.items()) for f in state.factors]
        table = np.outer(*traces)
    else:
        table = 0.0
        for k, u in diagonals.items():
            size = d - abs(k)
            block = state.coherences[_start(d, abs(k)) :][: size * size].reshape(size, size)
            table = table + u @ block @ u.T
    table = table.real
    # per mode, its row of table: (x, p) and ({x, x}, {x, p}; {x, p}, {p, p})
    disp = np.concatenate([table[1:3, 0], table[0, 1:3]])
    cov, pairs = np.empty((4, 4)), [[3, 4], [4, 5]]
    cov[:2, :2], cov[2:, 2:] = table[pairs, 0], table[0, pairs]
    cov[:2, 2:] = 2.0 * table[1:3, 1:3]
    cov[2:, :2] = cov[:2, 2:].T
    return cov - 2.0 * np.outer(disp, disp), disp


class ThermalLossChannel:
    """Single-mode thermal-loss channel, an amplifier after pure loss.

    The superoperator is kept as its sectors: ``blocks[k]`` maps the
    coherences rho[i + k, i] of offset k to those of the output, indexed by
    i in both. The channel preserves hermiticity and is real, so offset -k,
    the coherences rho[i, i + k], has the same block; ``dblocks`` are their
    eta-derivatives (module docstring). ``_by_offset`` runs either on one
    mode, one product per offset and side on the strided views of the
    matrix's diagonals. Besides
    eta in (0, 1), the derivative needs eta G > 2 (cutoff - 1) (1 + n_th) /
    1.8e308, about 3e-307 at cutoff 30 and n_th = 0, else ValueError: below
    that, d log tau/deta = (1 + n_th) / (G eta) times the exponent
    cutoff - 1 of tau leaves the float range, and at a subnormal eta even
    exponent 0 meets an infinite rate. This is checked before any array
    arithmetic.
    """

    def __init__(self, eta: float, n_th: float, cutoff: int):
        self.eta = eta
        self.n_th = n_th
        self.cutoff = cutoff
        _check_reflectivity(eta)
        check_photon_numbers(n_th)
        gain = 1.0 + (1.0 - eta) * n_th
        if not eta * gain > 2.0 * max(cutoff - 1, 1) * ((1.0 + n_th) / _FLOAT_MAX):
            raise ValueError(
                f"reflectivity {eta} too small for cutoff {cutoff}: "
                "the channel's eta-derivative leaves the float range"
            )
        tau = eta / gain
        log_tau, log_gain = np.log(tau), np.log(gain)
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


def _by_offset(blocks: Sequence[np.ndarray], rho: np.ndarray) -> np.ndarray:
    """A channel's ``blocks`` or ``dblocks`` applied to ``rho``: one product
    per offset k and side, on the strided view of the k-th diagonal below
    (start k d) and above (start k) the main one, written into the same
    view of the output."""
    d = len(blocks)
    result = np.empty(rho.shape, rho.dtype)
    source, target = rho.reshape(-1), result.reshape(-1)
    for k, block in enumerate(blocks):
        for start in {k * d, k}:  # below and above, once on the diagonal
            target[start :: d + 1][: d - k] = block @ source[start :: d + 1][: d - k]
    return result


# The channel of one (eta, n_th, cutoff), built on its first request and
# shared by every family. typed, so that cutoff 30.0 meets the constructor's
# TypeError instead of the channel of cutoff 30; a call that raises is not
# memoised, so a rejected argument is rejected on every call. A family is
# read only at LAMBDA0, so a cutoff of ``full_validation`` needs 4 keys, and
# an oracle pass 1.
_channel = functools.lru_cache(maxsize=4, typed=True)(ThermalLossChannel)


def _tmsv_sectors(ch1: ThermalLossChannel, ch2: ThermalLossChannel, amps: np.ndarray) -> np.ndarray:
    """The two-mode squeezed probe sum_n amps[n] |n, n> through ``ch1`` on the
    first mode and ``ch2`` on the second, and its eta-derivative in ``ch2``,
    as the two rows of their coherences (module docstring, the tangent rule)."""
    d = len(amps)
    coherences = np.empty((2, _start(d, d)))
    same = (ch1.eta, ch1.n_th, ch1.cutoff) == (ch2.eta, ch2.n_th, ch2.cutoff)
    # one product per offset at its own size: padded to the cutoff and batched,
    # OpenBLAS would order the sums by the padded length and move the bits
    for k, (b1, b2, db2) in enumerate(zip(ch1.blocks, ch2.blocks, ch2.dblocks)):
        root = np.sqrt(amps[k:] * amps[: d - k])
        x1 = b1 * root
        product, tangent = coherences[:, _start(d, k) : _start(d, k + 1)].reshape(2, d - k, d - k)
        np.matmul(x1, (x1 if same else b2 * root).T, out=product)
        np.matmul(x1, (db2 * root).T, out=tangent)
    return coherences


def _trace(state: FockState) -> float:
    """Tr A Tr B of a product A x B, else the sum of P_0, the diagonal."""
    if state.factors is not None:
        return float(np.trace(state.factors[0]) * np.trace(state.factors[1]))
    return float(np.sum(state.coherences[: state.dim**2]))


def bifrequency_fock_family(
    eta1: float, n_s: float, n_th: float, probe: str, cutoff: int
) -> Callable[[float], FockState]:
    """Received-state family of the bi-frequency protocol, in Fock space.

    Each evaluation at lam builds the received state from the probe's
    structure (module docstring), with the channel at eta1 on the first
    mode and at eta1 + lam on the second, with its tangent (the tangent
    rule), so both must lie in (0, 1), else ValueError. A probe or state
    whose trace leak 1 - Tr rho reaches HARD_TAIL_TOL raises
    CutoffTooSmallError, the probe's when the family is made. Each number
    must be a real scalar, else ValueError.

    The state at LAMBDA0 is one read-only state per configuration, shared
    and held one at a time (the shared state, module docstring).
    """
    check_scalars(eta1=eta1, n_s=n_s, n_th=n_th, cutoff=cutoff)
    check_photon_numbers(n_s, n_th)
    _check_reflectivity(eta1)
    if probe == "tmsv":
        _tmsv_amplitudes(n_s, cutoff)
    elif probe == "coherent":
        fock_coherent(np.sqrt(n_s), cutoff)
    else:
        raise ValueError(f"unknown probe {probe!r}")

    def family(lam: float) -> FockState:
        key = (eta1, n_s, n_th, probe, cutoff)
        return _received(*key) if lam == LAMBDA0 else _evaluate(*key, lam)

    return family


def _evaluate(
    eta1: float, n_s: float, n_th: float, probe: str, cutoff: int, lam: float
) -> FockState:
    """The state of ``bifrequency_fock_family`` at lam, built anew."""
    ch2 = _channel(eta1 + lam, n_th, cutoff)
    if probe == "tmsv":
        amps = _tmsv_amplitudes(n_s, cutoff)
        state = FockState.sectors(_tmsv_sectors(_channel(eta1, n_th, cutoff), ch2, amps))
    else:
        single = fock_coherent(np.sqrt(n_s), cutoff)
        second = _by_offset(ch2.blocks, single)
        # the first channel does not move with lam, and at LAMBDA0 it is the
        # second, so there one output serves both factors
        first = second if lam == LAMBDA0 else _by_offset(_channel(eta1, n_th, cutoff).blocks, single)
        state = FockState.product(first, second, _by_offset(ch2.dblocks, single))
    _gate_cutoff(1.0 - _trace(state), cutoff, "received")
    return state


@functools.lru_cache(maxsize=1, typed=True)
def _received(eta1: float, n_s: float, n_th: float, probe: str, cutoff: int) -> FockState:
    """The state at LAMBDA0 of one configuration, read-only; one entry,
    dropped before the next is built (the shared state, module docstring).
    typed, as ``_channel``; a call that raises is not memoised."""
    _received.cache_clear()
    state = _evaluate(eta1, n_s, n_th, probe, cutoff, LAMBDA0)
    for array in (*(state.factors or (state.rows, state.coherences)), state.tangent):
        array.setflags(write=False)
    return state


def _blockwise(state: FockState) -> tuple[float, Iterable[Sequence[np.ndarray]]]:
    """The weight and the stacks, each (blocks of the state, blocks of its
    tangent) of one shape (n, m, m), that Eq. 1 and the SLD sums run over:
    for a state kept as sectors, weight 1 and per |n1 - n2| its mirror pair
    of sectors, state and tangent one gather of the state's buffer as they
    are reached (``_sector_layout``); for a product, Tr A and the one
    (1, cutoff, cutoff) stack of (B, dB) on the states |0, n2> (the tangent
    rule)."""
    if state.factors is not None:
        first, second = state.factors
        return float(np.trace(first)), [(second[None], state.tangent[None])]
    return 1.0, (np.take(state.rows, at, axis=1) for at in _sector_layout(state.dim))


def _laid_out(terms: Sequence[tuple[float, str, str]], state: FockState) -> Iterable[np.ndarray]:
    """The observable sum c u x v over ``terms`` (c, mode-1 word u, mode-2
    word v), each word one of ``_ladder_diagonals``, laid out like ``state``:
    its stacks of blocks, each of the shape of, and in step with, the
    state's stacks of ``_blockwise``. Every c must be real, as the states
    are. On a product every term must act on mode 1 as the identity, and
    the one stack is ell_2, the sum of c times each term's mode-2 diagonal.
    On sectors every term must keep n1 - n2, its words on one diagonal; ell
    at |i + k, j + k><i, j| and the mirror is E_k[i, j], E_k the sum of
    c u v^T over the terms on diagonal -k, 0 past k = 2: E_0, E_1, E_2 and
    one zero lie as the coherences do, and a mirror pair's blocks are one
    ``np.take`` at its index, clipped onto the zero. Else ValueError."""
    d, lines = state.dim, _ladder_diagonals(state.dim)
    if np.result_type(*(c for c, _, _ in terms), float) != float:
        raise ValueError("the SLD form is complex, and the oracle's states are real")
    if state.factors is not None:
        if any(u for _, u, _ in terms):
            raise ValueError("the SLD form acts on mode 1 of a product state")
        ell_2 = np.zeros((d, d))
        for c, _, v in terms:
            k, line = lines[v]  # a strided view of the k-th diagonal, as in ``_by_offset``
            ell_2.reshape(-1)[max(k, -k * d) :: d + 1][: len(line)] += c * line
        return [ell_2[None]]
    if any(lines[u][0] != lines[v][0] for _, u, v in terms):
        raise ValueError("the SLD form changes n1 - n2 on a state kept as sectors")
    compact = np.zeros(_start(d, min(d, 3)) + 1)
    for c, u, v in terms:
        k = -lines[u][0]
        if 0 <= k < d:
            block = compact[_start(d, k) : _start(d, k + 1)].reshape(d - k, d - k)
            block += c * np.outer(lines[u][1], lines[v][1])
    return (np.take(compact, at, mode="clip") for at in _sector_layout(d))


def qfi_eq1(family: Callable[[float], FockState]) -> float:
    """Basis-dependent QFI from the eigendecomposition of the received state.

    The family is evaluated once, at LAMBDA0, and drho is the tangent that
    state carries (the tangent rule, module docstring). The sum runs over
    the stacks of ``_blockwise``, times their weight: a stack whose state
    blocks are equal bit for bit, as every mirror pair is at LAMBDA0
    (cutoff ``eigh`` calls), is decomposed once, any other as a stack; then
    one batched product and one masked sum over the eigenvalue pairs of
    positive sum.
    """
    weight, stacks = _blockwise(family(LAMBDA0))
    total = 0.0
    for blocks, dblocks in stacks:
        evals, evecs = np.linalg.eigh(blocks[0] if (blocks[0] == blocks[-1]).all() else blocks)
        weights = (evecs.mT @ dblocks @ evecs) ** 2
        sums = evals[..., None] + evals[..., None, :]
        total += np.divide(weights, sums, out=np.zeros(weights.shape), where=sums > 0.0).sum()
    return float(2.0 * weight * total)
