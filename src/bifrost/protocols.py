"""End-to-end sensing scenarios built from the Gaussian core and QFI engine.

Three pipelines are assembled here:

* bi-frequency illumination, where a two-frequency probe (entangled pair or two
  coherent states) reflects off a target whose reflectivity differs by a
  small gap between the two frequencies; the gap is the estimated parameter.
  The received moments and their derivatives are closed forms: no channel
  is built per point,
* the quantum-illumination regression: single-frequency target detection with
  a retained idler, reproduced both as closed-form QFIs and as the
  Williamson solve of the received moments, which are closed forms too,
* the equal-bath-occupation bound quantifying when two thermal baths at
  nearby frequencies may be treated as equally populated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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


def _reflectivities(p: BiFrequencyParams, lam: float, tangent: bool) -> tuple[float, float]:
    """(eta1, eta1 + lam), in [0, 1], and for a tangent in (0, 1); else ValueError."""
    eta1, eta2 = p.eta1, p.eta1 + lam
    if not 0.0 <= eta2 <= 1.0:  # NaN fails too
        raise ValueError("reflectivity must lie in [0, 1]")
    if tangent and not (0.0 < eta1 < 1.0 and 0.0 < eta2 < 1.0):
        raise ValueError(f"reflectivities {eta1}, {eta2} must lie strictly in (0, 1) to differentiate")
    return eta1, eta2


def _tmsv_received(p: BiFrequencyParams) -> StateFamily:
    """The entangled probe's received pair, its tangent in the normal modes:
    ``_pattern(u, v, w)`` with B = 1 + 2 n_th, g = sqrt(eta1 eta2) and
    h = (sqrt(eta1) - sqrt(eta2))^2 / 2, sums of positive terms but w,

        u, v = (1 - (eta1 + eta2) / 2) B + g e^{+-2r} + h cosh 2r,    w = (eta1 - eta2) (2 n_s - n_th).

    In eta2, with k = sqrt(eta1 / eta2), du = (4 n_s + k sinh 2r - 2 n_th) / 2,
    dv = (e^{-2r} - B + (1 - k) sinh 2r) / 2 and dw = n_th - 2 n_s. At zero
    gap w = 0, both normal modes have nu^2 = u v, with tau = 1 - eta1,

        nu^2 - 1 = tau (4 tau n_th (1 + n_th) + 2 eta1 (2 n_th cosh 2r + 4 n_s)),

    and S^-1 = diag(sqrt(nu / u), sqrt(nu / v), sqrt(nu / v), sqrt(nu / u))."""
    n_s, n_th = p.n_s, p.n_th
    sinh = 2.0 * math.sqrt(2.0 * n_s * (2.0 * n_s + 1.0))
    grow = 4.0 * n_s + sinh  # e^{2r} - 1, and e^{-2r} - 1 = -grow / (1 + grow)

    def moments(eta1: float, eta2: float) -> tuple[float, float, float]:
        root1, root2 = math.sqrt(eta1), math.sqrt(eta2)
        h = 0.5 * ((eta1 - eta2) / (root1 + root2)) ** 2 if eta1 != eta2 else 0.0
        rest = 0.5 * ((1.0 - eta1) + (1.0 - eta2)) * (1.0 + 2.0 * n_th) + h * (1.0 + 4.0 * n_s)
        u, v = rest + root1 * root2 * (1.0 + grow), rest + root1 * root2 / (1.0 + grow)
        return u, v, 0.5 * (eta1 - eta2) * (4.0 * n_s - 2.0 * n_th)

    def tangent(lam: float):
        eta1, eta2 = _reflectivities(p, lam, True)
        root1, root2 = math.sqrt(eta1), math.sqrt(eta2)
        shift = (eta2 - eta1) / (root2 * (root1 + root2)) * sinh  # (1 - k) sinh 2r
        du = 0.5 * (4.0 * n_s + root1 / root2 * sinh - 2.0 * n_th)
        dv = -0.5 * (grow / (1.0 + grow) + 2.0 * n_th - shift)
        dcov = _pattern(du, dv, n_th - 2.0 * n_s)
        return g.GaussianState(_pattern(*moments(eta1, eta2)), np.zeros(4)), dcov, np.zeros(4)

    def williamson(lam: float):
        if lam != 0.0:
            return None
        eta1, tau = p.eta1, 1.0 - p.eta1
        u, v, _ = moments(eta1, eta1)
        square = 4.0 * tau * (tau * n_th * (1.0 + n_th) + eta1 * (n_th * (1.0 + 4.0 * n_s) + 2.0 * n_s))
        nu = math.sqrt(1.0 + square)
        a, b, e = math.sqrt(nu / u), math.sqrt(nu / v), square / (nu + 1.0)
        return np.diag([a, b, b, a]), np.array([nu, nu]), np.array([e, e])

    def evaluate(lam: float) -> g.GaussianState:
        cov = _pattern(*moments(*_reflectivities(p, lam, False)))
        return g.GaussianState(g.normal_modes(cov), np.zeros(4))

    return StateFamily(evaluate, tangent, p.lam, in_normal_modes=True, williamson=williamson)


def _pattern(u: float, v: float, w: float) -> np.ndarray:
    """[[u, 0, w, 0], [0, v, 0, w], [w, 0, v, 0], [0, w, 0, u]]."""
    return np.array([[u, 0.0, w, 0.0], [0.0, v, 0.0, w], [w, 0.0, v, 0.0], [0.0, w, 0.0, u]])


def _coherent_received(p: BiFrequencyParams) -> StateFamily:
    """The coherent probe's received pair: mode i is thermal with covariance
    (1 + 2 n_th (1 - eta_i)) I, displaced by sqrt(2 n_s eta_i) in x; each
    mode is its own normal mode, with S = I and nu_i - 1 = 2 n_th (1 - eta_i)."""
    n_th, amp = p.n_th, math.sqrt(2.0 * p.n_s)

    def state(eta1: float, eta2: float) -> g.GaussianState:
        b1, b2 = 1.0 + 2.0 * n_th * (1.0 - eta1), 1.0 + 2.0 * n_th * (1.0 - eta2)
        return g.GaussianState(np.diag([b1, b1, b2, b2]), amp * np.sqrt([eta1, 0.0, eta2, 0.0]))

    def tangent(lam: float):
        eta1, eta2 = _reflectivities(p, lam, True)
        ddisp = np.array([0.0, 0.0, 0.5 * amp / math.sqrt(eta2), 0.0])
        return state(eta1, eta2), np.diag([0.0, 0.0, -2.0 * n_th, -2.0 * n_th]), ddisp

    def williamson(lam: float):
        e = np.array([2.0 * n_th * (1.0 - eta) for eta in _reflectivities(p, lam, True)])
        return np.eye(4), 1.0 + e, e

    return StateFamily(
        lambda lam: state(*_reflectivities(p, lam, False)), tangent, p.lam, williamson=williamson
    )


def bifrequency_received_state(p: BiFrequencyParams, probe: str) -> StateFamily:
    """Family of received two-mode states parametrised by the reflectivity gap.

    The family evaluates wherever eta1 and eta1 + lambda lie in [0, 1]. Its
    tangent needs both strictly inside (0, 1), where the channel is
    differentiable, and raises ValueError elsewhere.
    """
    if probe == PROBE_TMSV:
        return _tmsv_received(p)
    if probe == PROBE_COHERENT:
        return _coherent_received(p)
    raise ValueError(f"unknown probe {probe!r}")


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
    """The entangled probe's received (reflection, idler) pair over the
    amplitude reflectivity eta, in closed form (Weedbrook et al., Rev. Mod.
    Phys. 84, 621, 2012): with sinh^2 r = n_s and c = sinh 2r =
    2 sqrt(n_s (n_s + 1)), the reflection has variance
    a = eta^2 (1 + 2 n_s) + (1 - eta)(1 + eta)(1 + 2 n_th), the idler
    1 + 2 n_s, and their correlation is eta c sigma_z. In eta,
    da = 4 eta (n_s - n_th), the correlation moves by c sigma_z and the idler
    stays."""
    idler, c = 1.0 + 2.0 * n_s, 2.0 * math.sqrt(n_s * (n_s + 1.0))

    def state(e: float) -> g.GaussianState:
        a = e * e * idler + (1.0 - e) * (1.0 + e) * (1.0 + 2.0 * n_th)
        return g.GaussianState(_correlated(a, idler, e * c), np.zeros(4))

    def tangent(e: float):
        return state(_amplitude(e, True)), _correlated(4.0 * e * (n_s - n_th), 0.0, c), np.zeros(4)

    return StateFamily(lambda e: state(_amplitude(e, False)), tangent, eta)


def _correlated(a: float, b: float, x: float) -> np.ndarray:
    """[[a I, x sigma_z], [x sigma_z, b I]]."""
    return np.array([[a, 0.0, x, 0.0], [0.0, a, 0.0, -x], [x, 0.0, b, 0.0], [0.0, -x, 0.0, b]])


def _amplitude(e: float, tangent: bool) -> float:
    """``e`` if it lies in [0, 1], and for a tangent in [0, 1); else ValueError."""
    if not 0.0 <= e <= 1.0:  # NaN fails too
        raise ValueError(f"amplitude reflectivity must lie in [0, 1], got {e}")
    if tangent and e == 1.0:
        raise ValueError("amplitude reflectivity must lie in [0, 1) to differentiate, got 1.0")
    return e


def qi_quantum_qfi_numeric(eta: float, n_s: float, n_th: float) -> float:
    """Entangled-probe QFI at finite reflectivity, from the Williamson solve
    of the closed-form received pair."""
    _check_qi_point(eta, n_s, n_th)
    return qfi_complex_form(_qi_quantum_received(eta, n_s, n_th))


def _qi_classical_received(eta: float, n_s: float, n_th: float) -> StateFamily:
    """The coherent probe's received mode over the amplitude reflectivity
    eta: thermal with covariance (1 + 2 n_th (1 - eta)(1 + eta)) I, displaced
    by eta sqrt(2 n_s) in x. In eta, the covariance moves by -4 eta n_th I and
    the displacement by sqrt(2 n_s)."""
    amp = math.sqrt(2.0 * n_s)

    def state(e: float) -> g.GaussianState:
        cov = (1.0 + 2.0 * n_th * (1.0 - e) * (1.0 + e)) * np.eye(2)
        return g.GaussianState(cov, np.array([e * amp, 0.0]))

    def tangent(e: float):
        return state(_amplitude(e, True)), -4.0 * e * n_th * np.eye(2), np.array([amp, 0.0])

    def williamson(e: float):
        occupation = 2.0 * n_th * (1.0 - e) * (1.0 + e)  # nu - 1, with S = I
        return np.eye(2), np.array([1.0 + occupation]), np.array([occupation])

    return StateFamily(lambda e: state(_amplitude(e, False)), tangent, eta, williamson=williamson)


def qi_classical_qfi_numeric(eta: float, n_s: float, n_th: float) -> float:
    """Coherent-probe QFI at finite reflectivity, from the Williamson solve
    of the closed-form received mode."""
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
