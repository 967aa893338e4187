"""End-to-end sensing scenarios built from the Gaussian core and QFI engine.

Three pipelines are assembled here:

* bi-frequency illumination, where a two-frequency probe (entangled pair or two
  coherent states) reflects off a target whose reflectivity differs by a
  small gap between the two frequencies; the gap is the estimated parameter.
  Both probes cross the same lossy channel, BS(eta1) on the first frequency
  and BS(eta1 + gap) on the second: it is built and checked symplectic once
  per operating point and shared by both probes' families,
* the quantum-illumination regression: single-frequency target detection with
  a retained idler, reproduced both as closed forms and as a numeric
  three-mode pipeline,
* the equal-bath-occupation bound quantifying when two thermal baths at
  nearby frequencies may be treated as equally populated.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import gaussian as g
from .errors import check_photon_numbers, check_scalars
from .qfi import StateFamily, hc_closed_form, hq_closed_form
from .sld import qfi_complex_form

PROBE_TMSV = "tmsv"
PROBE_COHERENT = "coherent"

# exact SI values, as in scipy.constants
HBAR = 6.62607015e-34 / (2.0 * np.pi)
K_B = 1.380649e-23


@dataclass(frozen=True)
class BiFrequencyParams:
    """Operating point of the bi-frequency protocol.

    Attributes:
        eta1: target reflectivity at the reference frequency.
        lam: reflectivity difference between the two frequencies.
        n_s: probe photon-number label per mode.
        n_th: thermal occupation of each bath mode.
    """

    eta1: float
    lam: float = 0.0
    n_s: float = 1.0
    n_th: float = 0.0

    def __post_init__(self):
        check_scalars(eta1=self.eta1, lam=self.lam, n_s=self.n_s, n_th=self.n_th)
        if not 0.0 <= self.eta1 <= 1.0:
            raise ValueError(f"eta1 must lie in [0, 1], got {self.eta1}")
        if not 0.0 <= self.eta1 + self.lam <= 1.0:
            raise ValueError(f"eta1 + lambda = {self.eta1 + self.lam} outside [0, 1]")
        check_photon_numbers(self.n_s, self.n_th)


def _bifrequency_input(p: BiFrequencyParams, probe: str) -> g.GaussianState:
    """Four-mode input ordered (bath 1, signal 1, bath 2, signal 2), built as
    one array: thermal baths, (1 + 2 n_th) I, and as signals either the two
    modes of ``tmsv(n_s)`` or two coherent states of amplitude sqrt(n_s)."""
    bath = 1.0 + 2.0 * float(p.n_th)
    cov = np.eye(8)
    disp = np.zeros(8)
    cov[[0, 1, 4, 5], [0, 1, 4, 5]] = bath
    if probe == PROBE_TMSV:
        # as (half, quadrature, half, quadrature): the signals are the last two
        # quadratures of each half
        cov.reshape(2, 4, 2, 4)[:, 2:, :, 2:] = g.tmsv_cov(p.n_s).reshape(2, 2, 2, 2)
    elif probe == PROBE_COHERENT:
        disp[[2, 6]] = np.sqrt(2.0) * np.sqrt(p.n_s)
    else:
        raise ValueError(f"unknown probe {probe!r}")
    return g.GaussianState(cov, disp)


def _channel_family(
    state: g.GaussianState,
    transform: Callable[[float], g.SymplecticTransform],
    dtransform: Callable[[float], np.ndarray],
    keep: list[int],
    lambda0: float,
) -> StateFamily:
    """The family l -> modes ``keep`` of S(l) = transform(l) acting on a fixed
    input state, differentiated through ``dtransform`` = dS/dl."""
    return StateFamily(
        eval=lambda lam: g.partial_trace(g.apply(transform(lam), state), keep),
        tangent=lambda lam: g.propagate(state, transform(lam), dtransform(lam), keep),
        lambda0=lambda0,
    )


@functools.lru_cache(maxsize=16, typed=True)
def _bifrequency_channel(eta1: float, eta2: float) -> g.SymplecticTransform:
    """BS(eta1) + BS(eta2) on (bath 1, signal 1, bath 2, signal 2), checked
    symplectic once. Both probes' families share it, so it is read-only. Keys
    are typed and callers add 0.0, which turns -0.0 into 0.0 and keeps every
    other value, so that keys sharing an entry give the same bits."""
    bs = g.beam_splitter_matrix
    s = g.SymplecticTransform(g.block_diag(bs(eta1), bs(eta2)))
    s.matrix.setflags(write=False)
    return s


@functools.lru_cache(maxsize=16, typed=True)
def _bifrequency_channel_derivative(eta1: float, eta2: float) -> np.ndarray:
    """d/d eta2 of ``_bifrequency_channel(eta1, eta2)``, read-only. It needs
    both reflectivities strictly inside (0, 1), so no key is a signed zero."""
    if not 0.0 < eta1 < 1.0:
        raise ValueError(f"eta1 must lie strictly in (0, 1) to differentiate, got {eta1}")
    d = np.zeros((8, 8))
    d[4:, 4:] = g.beam_splitter_derivative(eta2)
    d.setflags(write=False)
    return d


def bifrequency_received_state(p: BiFrequencyParams, probe: str) -> StateFamily:
    """Family of received two-mode states parametrised by the reflectivity gap.

    The family evaluates wherever eta1 and eta1 + lambda lie in [0, 1]. Its
    tangent needs both strictly inside (0, 1), where the beam splitter is
    differentiable, and raises ValueError elsewhere.
    """
    return _channel_family(
        _bifrequency_input(p, probe),
        lambda lam: _bifrequency_channel(p.eta1 + 0.0, p.eta1 + lam + 0.0),
        lambda lam: _bifrequency_channel_derivative(p.eta1, p.eta1 + lam),
        [1, 3],
        p.lam,
    )


def bifrequency_advantage(p: BiFrequencyParams) -> tuple[float, float, float]:
    """Closed-form (h_q, h_c, ratio) at zero reflectivity gap."""
    if p.lam != 0.0:
        raise ValueError("the closed forms hold at zero reflectivity gap")
    h_q = hq_closed_form(p.eta1, p.n_s, p.n_th)
    h_c = hc_closed_form(p.eta1, p.n_s, p.n_th)
    return h_q, h_c, h_q / h_c


def advantage_map(etas, n_ss, n_ths) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """h_q, h_c and their ratio over the grid etas x n_ss x n_ths, each of
    shape (E, S, T).

    The closed forms run once on the broadcast axes. If a point lies outside
    their domain, or its arithmetic overflows, divides by zero or makes a
    NaN, the error raised is that of the first such point in etas-major
    order, through the same scalar ``bifrequency_advantage`` a point-by-point
    loop calls: the domain's ValueError, or an ArithmeticError that names the
    point's axis values.
    """
    eta, n_s, n_th = etas[:, None, None], n_ss[None, :, None], n_ths[None, None, :]
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            h_q = hq_closed_form(eta, n_s, n_th)
            h_c = hc_closed_form(eta, n_s, n_th)
            return h_q, h_c, h_q / h_c
        except (ValueError, ArithmeticError):
            for e, s, t in itertools.product(etas, n_ss, n_ths):
                try:
                    bifrequency_advantage(BiFrequencyParams(e, 0.0, s, t))
                except ArithmeticError:
                    raise ArithmeticError(
                        f"the closed forms leave the float range at eta1 = {e}, n_s = {s}, n_th = {t}"
                    ) from None
            raise


def noise_factor_ratio(beta: float, eta1: float, n_s: float) -> float:
    """Advantage ratio at fixed noise factor beta = n_s / n_th; beta is a
    real scalar with 0 < beta, else ValueError, and beta = inf means
    n_th = 0."""
    check_scalars(beta=beta)
    if not beta > 0.0:  # NaN fails too
        raise ValueError(f"noise factor beta must be positive, not {beta!r}")
    return bifrequency_advantage(BiFrequencyParams(eta1, 0.0, n_s, n_s / beta))[2]


# --- quantum illumination regression -------------------------------------

def qi_quantum_qfi(n_s: float, n_th: float) -> float:
    """Entangled-probe QFI of quantum illumination in the dim-target limit."""
    check_photon_numbers(n_s, n_th)
    return 4.0 * n_s * (n_s + 1.0) / (2.0 * n_s * n_th + n_s + n_th + 1.0)


def qi_classical_qfi(eta: float, n_s: float, n_th: float) -> float:
    """Coherent-probe QFI of quantum illumination at amplitude reflectivity eta.

    The target reflects eta^2 in power, as in the numeric family: the received
    mode is displaced thermal with occupation N = n_th (1 - eta^2), and
    H = 4 n_s / (1 + 2 N) + N'^2 / (N (N + 1)), N' = -2 eta n_th.
    """
    _check_qi_point(eta, n_s, n_th)
    first = 4.0 * n_s / (1.0 - 2.0 * n_th * (eta**2 - 1.0))
    if eta == 0.0:
        return first
    second = 4.0 * n_th * eta**2 / ((eta**2 - 1.0) * (n_th * (eta**2 - 1.0) - 1.0))
    return first + second


def _check_qi_point(eta: float, n_s: float, n_th: float):
    """Raise ValueError unless the amplitude reflectivity lies in [0, 1) and
    both photon numbers in their domain, each a real scalar."""
    check_scalars(eta=eta, n_s=n_s, n_th=n_th)
    if not 0.0 <= eta < 1.0:
        raise ValueError("amplitude reflectivity must lie in [0, 1)")
    check_photon_numbers(n_s, n_th)


def qi_ratio(n_s: float, n_th: float) -> float:
    """Quantum-illumination advantage (N_S+1)(2N_th+1) / (2N_S N_th+N_S+N_th+1)."""
    check_photon_numbers(n_s, n_th)
    return (n_s + 1.0) * (2.0 * n_th + 1.0) / (2.0 * n_s * n_th + n_s + n_th + 1.0)


def _qi_quantum_received(eta: float, n_s: float, n_th: float) -> StateFamily:
    """Received (reflection, idler) states over the amplitude reflectivity
    eta; the target reflects eta^2 in power."""
    probe = g.two_mode_squeezed(np.arcsinh(np.sqrt(n_s)))

    def dtransform(e: float) -> np.ndarray:
        d = np.zeros((6, 6))
        d[:4, :4] = g.beam_splitter_amplitude_derivative(e)
        return d

    return _channel_family(
        g.tensor(g.thermal(n_th), probe),
        lambda e: g.SymplecticTransform(
            g.block_diag(g.beam_splitter_matrix(e**2), np.eye(2))
        ),
        dtransform,
        [1, 2],
        eta,
    )


def qi_quantum_qfi_numeric(eta: float, n_s: float, n_th: float) -> float:
    """Entangled-probe QFI from the three-mode pipeline at finite reflectivity."""
    _check_qi_point(eta, n_s, n_th)
    return qfi_complex_form(_qi_quantum_received(eta, n_s, n_th))


def _qi_classical_received(eta: float, n_s: float, n_th: float) -> StateFamily:
    """Received single-mode states over the amplitude reflectivity eta."""
    return _channel_family(
        g.tensor(g.thermal(n_th), g.coherent(np.sqrt(n_s))),
        lambda e: g.beam_splitter(e**2),
        g.beam_splitter_amplitude_derivative,
        [1],
        eta,
    )


def qi_classical_qfi_numeric(eta: float, n_s: float, n_th: float) -> float:
    """Coherent-probe QFI from the two-mode pipeline (single received mode)."""
    _check_qi_point(eta, n_s, n_th)
    return qfi_complex_form(_qi_classical_received(eta, n_s, n_th))


# --- equal thermal occupation approximation ------------------------------

@dataclass(frozen=True)
class ThermalApproxReport:
    """Accuracy of assuming equal bath occupation at two nearby frequencies."""

    omega1: float
    delta_omega: float
    temperature: float
    occupation: float
    ratio: float
    first_order: float
    rel_error: float


def thermal_equal_occupation(
    omega1: float, delta_omega: float, temperature: float
) -> ThermalApproxReport:
    """Occupation ratio N(omega1)/N(omega1 + delta_omega) and its linearisation.

    Frequencies are angular (rad/s); beta = hbar / (k_B T). The first-order
    value 1 - delta_omega/omega1 is accurate in the high-temperature regime
    beta*omega1 << 1 relevant to microwave sensing. Every value is finite
    where it returns; where one would leave the float range (beta*omega1
    rounding to 0, or a ratio too small to divide by) it raises
    ArithmeticError.
    """
    check_scalars(omega1=omega1, delta_omega=delta_omega, temperature=temperature)
    if not (0.0 < omega1 < np.inf and 0.0 < temperature < np.inf):  # NaN fails too
        raise ValueError("frequency and temperature must be positive and finite")
    if not 0.0 <= delta_omega < np.inf:
        raise ValueError("frequency gap must be nonnegative and finite")
    first_order = 1.0 - delta_omega / omega1
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            beta = HBAR / (K_B * temperature)
            x = beta * omega1
            # 1 / (e^x - 1) and e^x / (e^x - 1) through e^-x, which cannot overflow
            one_minus = -np.expm1(-x)
            occupation = np.exp(-x) / one_minus
            ratio = float(1.0 / (1.0 + beta * delta_omega * (1.0 / one_minus)))
            rel_error = abs(ratio - first_order) / ratio
        except ArithmeticError:
            rel_error = np.inf
    if not rel_error < np.inf:  # NaN fails too
        raise ArithmeticError(
            f"the occupation ratio leaves the float range at omega1 = {omega1}, T = {temperature}"
        )
    return ThermalApproxReport(
        omega1=omega1,
        delta_omega=delta_omega,
        temperature=temperature,
        occupation=occupation,
        ratio=ratio,
        first_order=first_order,
        rel_error=rel_error,
    )
