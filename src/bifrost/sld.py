"""Symmetric logarithmic derivatives and optimal observables in the complex basis.

For a Gaussian family (Sigma(l), d(l)) written in the complex operator basis
A = (a_1, .., a_n, a_1^dag, .., a_n^dag), the symmetric logarithmic derivative
solving {L, rho} = 2 drho is the quadratic form

    L = dA^dag G dA - Tr[Sigma G] / 2 + 2 dA^dag Sigma^-1 d'   (dA = A - d),

where vec(G) = M^-1 vec(Sigma') with M = conj(Sigma) (x) Sigma - K (x) K and
K = diag(I_n, -I_n). The QFI is read off the same solved form,

    H = vec(Sigma')^dag M^-1 vec(Sigma') / 2 + 2 d'^dag Sigma^-1 d'
      = Re Tr(Sigma'^dag G) / 2 + Re(d'^dag linear),    linear = 2 Sigma^-1 d',

so one solve with M gives both L and H; it is a route independent of
the symplectic-invariant expression in :mod:`bifrost.qfi`. The observable
saturating the Cramer-Rao bound at working point l0 is O = l0 + L / H.

Moments enter in the interleaved real order of :mod:`bifrost.gaussian`; the
complex basis exists only inside this module.

For the entangled bi-frequency probe the observable reduces to
l11 n_1 + l22 n_2 + l12 (a_1^dag a_2^dag + a_1 a_2) + l0; the coefficients are
also available in closed form, together with a solver for the beam splitter /
single-mode squeezer / beam splitter circuit that realises the photon-counted
mode in the noiseless high-reflectivity limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError, NoInformationError, check_photon_numbers
from .gaussian import GaussianState
from .qfi import StateFamily

_SINGULAR_COND = 1e12
_STRUCTURE_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class ComplexGaussian:
    """Gaussian moments in the complex basis (a_1..a_n, a_1^dag..a_n^dag)."""

    cov_c: np.ndarray
    disp_c: np.ndarray
    n_modes: int


def complex_basis_matrix(n_modes: int) -> np.ndarray:
    """Unitary W mapping interleaved quadratures to the complex basis."""
    w = np.zeros((2 * n_modes, 2 * n_modes), dtype=complex)
    for k in range(n_modes):
        w[k, 2 * k] = 1.0 / np.sqrt(2.0)
        w[k, 2 * k + 1] = 1j / np.sqrt(2.0)
        w[n_modes + k, 2 * k] = 1.0 / np.sqrt(2.0)
        w[n_modes + k, 2 * k + 1] = -1j / np.sqrt(2.0)
    return w


def to_complex(state: GaussianState) -> ComplexGaussian:
    """Convert a real interleaved state to the complex basis: W cov W^dag, W disp."""
    w = complex_basis_matrix(state.n_modes)
    return ComplexGaussian(w @ state.cov @ w.conj().T, w @ state.disp, state.n_modes)


def _k_matrix(n_modes: int) -> np.ndarray:
    return np.diag([1.0] * n_modes + [-1.0] * n_modes).astype(complex)


def _sld_superoperator(cov_c: np.ndarray, n_modes: int) -> np.ndarray:
    k = _k_matrix(n_modes)
    return np.kron(cov_c.conj(), cov_c) - np.kron(k, k)


def _solve_quad_form(cov_c, dcov, n_modes) -> np.ndarray:
    """vec(G) = M^-1 vec(dSigma), returned as the Hermitian part of G."""
    m = _sld_superoperator(cov_c, n_modes)
    cond = np.linalg.cond(m)
    if cond > _SINGULAR_COND:
        raise DegenerateStateError(
            f"logarithmic-derivative superoperator is ill-conditioned: "
            f"cond(M) = {cond:.3e} > {_SINGULAR_COND:.0e}"
        )
    vec = np.linalg.solve(m, dcov.flatten(order="F"))
    quad = vec.reshape((2 * n_modes, 2 * n_modes), order="F")
    return 0.5 * (quad + quad.conj().T)


@dataclass(frozen=True, eq=False)
class SldForm:
    """Quadratic-form description of the logarithmic derivative.

    Represents L = (A - center)^dag quad (A - center) + (A - center)^dag linear
    + scalar, with A the complex basis vector.
    """

    quad: np.ndarray
    linear: np.ndarray
    scalar: float
    center: np.ndarray


def _solved_form(family: StateFamily) -> tuple[SldForm, float]:
    """The logarithmic derivative of a family and the QFI read off it,
    H = Re Tr(dSigma^dag G) / 2 + Re(dd^dag linear) (module docstring).

    The real moment derivatives map to the complex basis by the same unitary
    W as the moments: dSigma_c = W dSigma W^dag and dd_c = W dd.
    """
    state, dcov, ddisp = family.derivative()
    c0 = to_complex(state)
    w = complex_basis_matrix(c0.n_modes)
    dcov_c, ddisp_c = w @ dcov @ w.conj().T, w @ ddisp
    quad = _solve_quad_form(c0.cov_c, dcov_c, c0.n_modes)
    linear = 2.0 * np.linalg.solve(c0.cov_c, ddisp_c)
    scalar = -0.5 * float(np.trace(c0.cov_c @ quad).real)
    h = 0.5 * float(np.vdot(dcov_c, quad).real) + float((ddisp_c.conj() @ linear).real)
    return SldForm(quad=quad, linear=linear, scalar=scalar, center=c0.disp_c), h


def sld(family: StateFamily) -> SldForm:
    """Logarithmic derivative of a Gaussian family at its working point."""
    return _solved_form(family)[0]


def qfi_complex_form(family: StateFamily) -> float:
    """QFI from the complex-basis superoperator; valid for any mode count."""
    return _solved_form(family)[1]


@dataclass(frozen=True)
class SldCoefficients:
    """Coefficients of l11 n_1 + l22 n_2 + l12 (a_1^dag a_2^dag + a_1 a_2) + l0."""

    l11: float
    l22: float
    l12: float
    l0: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.l11, self.l22, self.l12, self.l0)


def _coefficients_from_form(form: SldForm) -> SldCoefficients:
    """Extract number/pair coefficients from a two-mode displacement-free form."""
    q = form.quad
    if q.shape != (4, 4):
        raise ValueError("coefficient extraction needs a two-mode form")
    if np.max(np.abs(form.center)) > _STRUCTURE_TOL or np.max(np.abs(form.linear)) > _STRUCTURE_TOL:
        raise ValueError("coefficient extraction needs a displacement-free family")
    structure = np.zeros((4, 4), dtype=bool)
    for i, j in [(0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (1, 2), (2, 1), (3, 0)]:
        structure[i, j] = True
    stray = np.max(np.abs(q[~structure]))
    scale = max(np.max(np.abs(q)), 1.0)
    if stray > _STRUCTURE_TOL * scale:
        raise ValueError(
            f"quadratic form has beam-splitter/single-mode terms of size {stray:.3e}; "
            "not a pair-correlated observable"
        )
    l11 = float((q[0, 0] + q[2, 2]).real)
    l22 = float((q[1, 1] + q[3, 3]).real)
    l12 = float((q[0, 3] + q[1, 2]).real)
    l0 = float((q[2, 2] + q[3, 3]).real) + form.scalar
    return SldCoefficients(l11=l11, l22=l22, l12=l12, l0=l0)


def optimal_observable(family: StateFamily) -> SldCoefficients:
    """Coefficients of the Cramer-Rao-saturating observable L/H at lambda0 = 0."""
    form, h = _solved_form(family)
    if h <= 0.0 or not np.isfinite(h):
        raise NoInformationError(f"QFI is {h}; cannot normalise the observable")
    raw = _coefficients_from_form(form)
    return SldCoefficients(raw.l11 / h, raw.l22 / h, raw.l12 / h, raw.l0 / h)


def sld_coeffs_closed_form(eta1: float, n_s: float, n_th: float) -> SldCoefficients:
    """Closed-form coefficients of the optimal entangled-probe observable.

    The quadratic coefficients are rational functions of the operating point;
    the constant is fixed by the zero-mean condition at the working point,
    <O> = 0, which any normalised logarithmic derivative satisfies exactly.
    """
    if not 0.0 < eta1 < 1.0:
        raise ValueError(f"reference reflectivity must lie strictly in (0, 1), got {eta1}")
    check_photon_numbers(n_s, n_th)
    e, s, t = eta1, n_s, n_th
    a = 8.0 * (e - 1.0) * e * s**3 * (2.0 * t + 1.0)
    b = 4.0 * s**2 * (
        -e + (e + 3.0 * e * t) ** 2 - e * t * (10.0 * t + 7.0) + 3.0 * t * (t + 1.0) + 1.0
    )
    c = 2.0 * s * t * (
        -e + t * (e * (3.0 * e - 8.0) + 4.0 * (e - 1.0) * (2.0 * e - 1.0) * t + 3.0) + 1.0
    )
    d = t**2 * (2.0 * (e - 1.0) * t * ((e - 1.0) * t - 1.0) + 1.0)
    main_den = a - b + c - d

    l11 = -2.0 * e * s * (2.0 * s + 1.0) * (2.0 * t + 1.0) / (-main_den)
    l22 = (
        4.0 * e * (2.0 * e - 1.0) * s**2 * (2.0 * t + 1.0)
        + 2.0 * s * (e - 2.0 * t * ((e - 3.0) * e + (e - 1.0) * (3.0 * e - 1.0) * t + 1.0) - 1.0)
        + t * (2.0 * (e - 1.0) * t * ((e - 1.0) * t - 1.0) + 1.0)
    ) / main_den
    l12 = (
        -np.sqrt(2.0)
        * np.sqrt(s * (2.0 * s + 1.0))
        * (e**2 * (s * (4.0 * t + 2.0) - t**2) + t * (t + 1.0))
        / main_den
    )
    # received-state moments at zero gap fix the constant through <O> = 0
    occupation = 0.5 * (2.0 * e * (2.0 * s - t) + 2.0 * t)  # (C(eta1) - 1) / 2
    pair_mean = 2.0 * np.sqrt(2.0 * s * (2.0 * s + 1.0)) * e
    l0 = -(l11 + l22) * occupation - l12 * pair_mean
    return SldCoefficients(l11=l11, l22=l22, l12=l12, l0=l0)


@dataclass(frozen=True)
class CoherentObservable:
    """Displaced photon counting on the second received mode.

    The observable is 2 * prefactor * [(a_2^dag - center)(a_2 - center) + 1/2]
    with the first mode left unmeasured.
    """

    prefactor: float
    center: float

    def expansion(self) -> tuple[float, float, float]:
        """Coefficients of (n_2, a_2 + a_2^dag, identity) in the expanded form."""
        a, c = self.prefactor, self.center
        return (2.0 * a, -2.0 * a * c, a * (2.0 * c**2 + 1.0))


def coherent_observable(eta1: float, n_th: float, alpha: float) -> CoherentObservable:
    """Optimal observable for the coherent probe: local displacement plus counting."""
    if not 0.0 < eta1 < 1.0:
        raise ValueError(f"reference reflectivity must lie strictly in (0, 1), got {eta1}")
    prefactor = 0.5 * (eta1 - 1.0) * (1.0 - n_th * (eta1 - 1.0))
    return CoherentObservable(prefactor=prefactor, center=eta1 * np.sqrt(alpha))


# --- circuit realisation of the noiseless high-reflectivity observable ----

@dataclass(frozen=True)
class JpaCircuitParams:
    """Beam splitter / squeezer / beam splitter / phase-shift circuit angles."""

    varphi: float
    theta: float
    r1: float
    r2: float
    theta1: float
    theta2: float
    phi: float


@dataclass(frozen=True)
class JpaCircuitSolution:
    params: JpaCircuitParams
    mu: float
    scale: float
    commutator: float
    residuals: dict
    converged: bool


def _circuit_coefficients(p: np.ndarray) -> np.ndarray:
    """(a_1, a_2, a_1^dag, a_2^dag) coefficients of the first circuit output."""
    varphi, theta, r1, r2, th1, th2 = p[:6]
    ct, st = np.cos(theta), np.sin(theta)
    cv, sv = np.cos(varphi), np.sin(varphi)
    return np.array(
        [
            ct * cv * np.cosh(r1) - st * sv * np.cosh(r2),
            ct * sv * np.cosh(r1) + st * cv * np.cosh(r2),
            -np.exp(1j * th1) * ct * cv * np.sinh(r1) + np.exp(1j * th2) * st * sv * np.sinh(r2),
            -np.exp(1j * th1) * ct * sv * np.sinh(r1) - np.exp(1j * th2) * st * cv * np.sinh(r2),
        ],
        dtype=complex,
    )


def jpa_circuit_solve(n_s: float, tol: float = 1e-12) -> JpaCircuitSolution:
    """Circuit parameters realising the pair-counting mode -i(a_2^dag - mu a_1).

    The target mode has commutator mu^2 - 1 = 1/(2 n_s) with itself-dagger, so
    a passive+squeezing circuit (whose outputs are canonical) can only produce
    it up to the normalisation scale sqrt(2 n_s); photon counts on the circuit
    output relate to counts of the target mode by that fixed factor. The
    symmetric two-squeezer ansatz solves both identifications exactly; the
    residuals, in target-mode units, report its floating-point error, and the
    solution counts as converged when their norm is at most ``tol``.
    """
    if n_s <= 0:
        raise ValueError("signal photon number must be positive")
    mu = np.sqrt(1.0 + 0.5 / n_s)
    scale = np.sqrt(2.0 * n_s)
    target = np.array([1j * mu * scale, 0.0, 0.0, -1j * scale], dtype=complex)

    r = np.arcsinh(np.sqrt(2.0 * n_s))
    p = np.array([np.pi / 4, -np.pi / 4, r, r, 0.0, np.pi, -np.pi / 2])
    coeffs = _circuit_coefficients(p)
    norm = np.linalg.norm(coeffs - np.exp(1j * p[6]) * target)
    rotated = np.exp(-1j * p[6]) * coeffs
    residuals = {
        "signal_coefficient": float(abs(rotated[0] / scale - 1j * mu)),
        "pair_coefficient": float(abs(-rotated[3] / scale - 1j)),
        "cross_coefficient": float(abs(coeffs[1])),
        "conjugate_coefficient": float(abs(coeffs[2])),
        "norm": float(norm),
    }
    params = JpaCircuitParams(*(float(v) for v in p))
    return JpaCircuitSolution(
        params=params,
        mu=float(mu),
        scale=float(scale),
        commutator=float(mu**2 - 1.0),
        residuals=residuals,
        converged=bool(norm <= tol),
    )
