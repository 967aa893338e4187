"""Symmetric logarithmic derivatives and optimal observables.

For a Gaussian family (Sigma(l), d(l)) in real quadratures R, the symmetric
logarithmic derivative solving {L, rho} = 2 drho is the quadratic form

    L = dR^T Phi dR - Tr[Sigma Phi] / 2 + 2 dR^T Sigma^-1 d'   (dR = R - d),

where Phi solves Sigma Phi Sigma + Omega Phi Omega = Sigma', in real
arithmetic in the Williamson basis Sigma = S D S^T, D = diag(nu_1, nu_1, ..)
(Monras, arXiv:1303.3682; Safranek, J. Phys. A 52, 035304, 2019,
arXiv:1801.00299). With X = S^-1 Sigma' S^-T, X+- = X +- Omega X Omega and
N_ij = nu_k nu_l for the modes k, l of quadratures i, j,

    Phi = S^-T Phi' S^-1,    Phi' = [X- / (N - 1) + X+ / (N + 1)] / 2,
    H = sum [X-^2 / (N - 1) + X+^2 / (N + 1)] / 8 + 2 |D^-1/2 S^-1 d'|^2,
    Tr[Sigma Phi] = Tr(D Phi') = sum_i nu_i Phi'_ii.

The first denominator is exact, N - 1 = e_k + e_l + e_k e_l with e = nu - 1,
where the family supplies (S^-1, nu, e) with e to its own relative precision
(``StateFamily.williamson``), as the bi-frequency probes at zero gap and the
coherent quantum-illumination family do: the QFI keeps its digits up to the
pure corner, where the stored covariance 1 + e has lost those of e. Other
families get the data from the Cholesky factor Sigma = C C^T (Demmel and
Veselic, SIAM J. Matrix Anal. Appl. 13, 1204, 1992) and the eigenvectors u_k
of +1/nu_k of i C^-1 Omega C^-T: S^-1 = D^1/2 O^T C^-1, O of columns
(sqrt 2 Im u_k, sqrt 2 Re u_k). It is the QFI route every caller reads
(:func:`qfi_result`); the symplectic-invariant expression of
:mod:`bifrost.qfi` is its check. The observable saturating the Cramer-Rao
bound at working point l0 is O = l0 + L / H.

The first quotient is singular only where two normal modes are both pure
(N = 1). Where the family keeps them pure, X- vanishes there and the term is
taken as 0; elsewhere the QFI diverges, and the solve raises
DegenerateStateError.

The solve runs in the family's frame (``StateFamily.in_normal_modes``); the
form is mapped to the physical modes and written in the complex basis
A = (a_1, .., a_n, a_1^dag, .., a_n^dag) = W R, G = W Phi W^dag. Decided on
the physical moments, it keeps two exact symmetries: without x-p
correlations its arrays are real, and a paired family's form is 0 exactly
where it would change n_1 - n_2.

For the entangled bi-frequency probe the observable reduces to
l11 n_1 + l22 n_2 + l12 (a_1^dag a_2^dag + a_1 a_2) + l0; the coefficients are
also available in closed form, together with a solver for the beam splitter /
single-mode squeezer / beam splitter circuit that realises the photon-counted
mode in the noiseless high-reflectivity limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateStateError,
    NoInformationError,
    NumericalInstabilityError,
    check_photon_numbers,
    check_scalars,
)
from .gaussian import normal_modes, omega
from .qfi import STATIC_COV_TOL, QfiResult, StateFamily, _check_domain, _check_some_photons

# a pair of normal modes counts as pure when nu_k nu_l - 1 is at most this:
# derived data leave a few 1e-16 on a pure state, and the families supply
# 4.0e-12 (coherent) and 1.2e-11 (tmsv) at the least mixed point of the domain
_PURE_TOL = 1e-13
# the circuit solve counts as converged when its residual norm is at most this
_CIRCUIT_TOL = 1e-12


@cache
def complex_basis_matrix(n_modes: int) -> np.ndarray:
    """Unitary W mapping interleaved quadratures to the complex basis; a
    shared read-only array."""
    w = np.zeros((2 * n_modes, 2 * n_modes), dtype=complex)
    for k in range(n_modes):
        w[k, 2 * k] = 1.0 / np.sqrt(2.0)
        w[k, 2 * k + 1] = 1j / np.sqrt(2.0)
        w[n_modes + k, 2 * k] = 1.0 / np.sqrt(2.0)
        w[n_modes + k, 2 * k + 1] = -1j / np.sqrt(2.0)
    w.setflags(write=False)
    return w


def _in_complex_basis(m: np.ndarray) -> np.ndarray:
    """W m W^dag for a real matrix m, or W m for a real vector, computed in
    real arithmetic from W = W_re + i W_im. The result is a real array when its
    imaginary part is exactly 0: for a matrix without x-p correlations every
    term of that part is a product with an exact zero."""
    w = complex_basis_matrix(m.shape[0] // 2)
    w_re, w_im = w.real, w.imag
    if m.ndim == 1:
        re, im = w_re @ m, w_im @ m
    else:
        a, b = w_re @ m, w_im @ m
        re, im = a @ w_re.T + b @ w_im.T, b @ w_re.T - a @ w_im.T
    return re + 1j * im if im.any() else re


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


def _terms(form: SldForm) -> list[tuple[complex, str, str]]:
    """A two-mode form's terms (c, mode-1 word, mode-2 word): each A_i -
    center_i expanded into ladder words, one per mode ("a" for a, "A" for
    a^dag, "" the identity, the words of ``fock._ladder_diagonals``), and
    the terms whose coefficient is exactly 0 dropped, except the scalar's."""
    basis = (("a", ""), ("", "a"), ("A", ""), ("", "A"))  # a1, a2, a1^dag, a2^dag
    delta = [((1.0, *words), (-c, "", "")) for words, c in zip(basis, form.center)]
    terms = []
    for i in range(4):
        dagger = [(np.conj(c), u[::-1].swapcase(), v[::-1].swapcase()) for c, u, v in delta[i]]
        terms += [(form.linear[i] * c, u, v) for c, u, v in dagger]
        for j in range(4):
            terms += [
                (form.quad[i, j] * c1 * c2, u1 + u2, v1 + v2)
                for c1, u1, v1 in dagger
                for c2, u2, v2 in delta[j]
            ]
    return [(form.scalar, "", "")] + [term for term in terms if term[0] != 0]


# J, the generator of exp(i phi (n_1 - n_2)) on (x1, p1, x2, p2), omega + (-omega):
# a signed permutation, so its products with a matrix are exact
_PAIR = np.array([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float)
_PAIR.setflags(write=False)


class _Solution(NamedTuple):
    """The Williamson-basis solve of a family at its working point, in its
    frame: S^-1, nu per quadrature, Phi', D^-1 S^-1 d', H's two terms, and
    the family, whose moments decide the form's symmetries."""

    s_inv: np.ndarray
    nu: np.ndarray
    phi_w: np.ndarray
    disp_w: np.ndarray
    term_cov: float
    term_disp: float
    family: StateFamily

    def result(self) -> QfiResult:
        """H, its terms and nu; ArithmeticError where H leaves the float range."""
        value = self.term_cov + self.term_disp
        if not math.isfinite(value):
            raise ArithmeticError(f"the QFI leaves the float range: {value}")
        nu = self.nu.tolist()
        return QfiResult(value, max(nu), min(nu), self.term_cov, self.term_disp)

    def _physical(self, *arrays: np.ndarray) -> list[np.ndarray]:
        """Moments of the family's frame in the physical modes."""
        return [normal_modes(a) for a in arrays] if self.family.in_normal_modes else list(arrays)

    def phi(self) -> np.ndarray:
        """Phi = S^-T Phi' S^-1 in the physical modes: a new array."""
        phi = self.s_inv.T @ self.phi_w @ self.s_inv
        return normal_modes(phi) if self.family.in_normal_modes else 0.5 * (phi + phi.T)

    def scalar(self) -> float:
        """-Tr(Sigma Phi) / 2 = -sum_i nu_i Phi'_ii / 2."""
        return -0.5 * float(np.dot(self.nu, np.diagonal(self.phi_w)))

    def paired(self) -> bool:
        """Whether the family has two modes, no displacement or displacement
        derivative, and physical moments that commute with J exactly: then it
        and its logarithmic derivative are invariant under exp(i phi (n_1 - n_2))."""
        state, dcov, ddisp = self.family.derivative()
        if len(ddisp) != 4 or state.disp.any() or ddisp.any():
            return False
        return all(np.array_equal(_PAIR @ m, m @ _PAIR) for m in self._physical(state.cov, dcov))

    def form(self) -> SldForm:
        """The logarithmic derivative in the physical modes and the complex
        basis: G = W Phi W^dag, linear = 2 W Sigma^-1 d', the scalar and
        center = W d. Phi is 0 exactly at the x-p entries where the moments
        are, and a paired family's is averaged with J Phi J^T, which makes G
        0 exactly where it would change n_1 - n_2."""
        state, dcov, _ = self.family.derivative()
        phi = self.phi()
        if not any(m[::2, 1::2].any() or m[1::2, ::2].any() for m in (state.cov, dcov)):
            phi[::2, 1::2] = phi[1::2, ::2] = 0.0
        if self.paired():
            phi = 0.5 * (phi + _PAIR @ phi @ _PAIR.T)
        linear, center = self._physical(2.0 * (self.s_inv.T @ self.disp_w), state.disp)
        return SldForm(
            quad=_in_complex_basis(phi),
            linear=_in_complex_basis(linear),
            scalar=self.scalar(),
            center=_in_complex_basis(center),
        )


def _derived_williamson(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S^-1, nu, nu - 1) of cov from its Cholesky factor C and the
    eigenvectors of i C^-1 Omega C^-T (module docstring)."""
    try:
        inv_chol = np.linalg.inv(np.linalg.cholesky(cov))
    except np.linalg.LinAlgError:
        raise NumericalInstabilityError(
            "the covariance is not positive definite within float64 round-off: "
            "its Cholesky factorisation fails, so float64 cannot resolve the state"
        ) from None
    n = cov.shape[0] // 2
    lam, u = np.linalg.eigh(1j * (inv_chol @ omega(n) @ inv_chol.T))
    o = np.sqrt(2.0) * np.stack([u[:, n:].imag, u[:, n:].real], axis=2).reshape(2 * n, 2 * n)
    nu = 1.0 / lam[n:]
    return np.sqrt(np.repeat(nu, 2))[:, None] * (o.T @ inv_chol), nu, nu - 1.0


@lru_cache(maxsize=16)
def _solve(family: StateFamily) -> _Solution:
    """Solve Sigma Phi Sigma + Omega Phi Omega = dSigma in the Williamson
    basis of Sigma, from the family's Williamson data or, where it gives
    none, from data derived from its covariance.

    Memoised per family, so every kernel on one family shares one solve; its
    arrays are read-only, and an error is raised again on every call. A
    covariance whose Cholesky factorisation fails in float64 raises
    NumericalInstabilityError; no family of the package reaches that inside
    the photon-number domain.
    """
    state, dcov, ddisp = family.derivative()
    data = family.williamson(family.lambda0) if family.williamson else None
    s_inv, nu, e = data if data is not None else _derived_williamson(state.cov)
    nu, e = nu.repeat(2), e.repeat(2)
    x = s_inv @ dcov @ s_inv.T
    turned = omega(state.n_modes) @ x @ omega(state.n_modes)
    x_minus, x_plus = x - turned, x + turned
    gap = nu[:, None] * e + e[:, None]  # nu_k nu_l - 1 = e_k + nu_k e_l
    plus = x_plus / (gap + 2.0)
    if gap.min() <= _PURE_TOL:
        pure = gap <= _PURE_TOL
        stray = float(np.max(np.abs(x_minus[pure])))
        if stray > STATIC_COV_TOL:
            raise DegenerateStateError(
                f"a pure normal mode changes its purity: transported covariance "
                f"derivative {stray:.3e} where nu_k nu_l - 1 <= {_PURE_TOL:.0e}; "
                "the logarithmic derivative does not exist"
            )
        gap = np.where(pure, np.inf, gap)
    minus = x_minus / gap
    proj = s_inv @ ddisp
    disp_w = proj / nu
    term_cov = 0.125 * float(np.vdot(x_minus, minus) + np.vdot(x_plus, plus))
    term_disp = 2.0 * float(np.vdot(proj, disp_w))
    solution = _Solution(s_inv, nu, 0.5 * (minus + plus), disp_w, term_cov, term_disp, family)
    for array in solution[:4]:
        array.setflags(write=False)
    return solution


def sld(family: StateFamily) -> SldForm:
    """Logarithmic derivative of a Gaussian family at its working point.

    Raises DegenerateStateError where the family changes the purity of a pure
    normal mode, and ValueError where the family has no tangent.
    """
    return _solve(family).form()


def qfi_result(family: StateFamily) -> QfiResult:
    """QFI of a Gaussian family at its working point, with its terms and
    symplectic eigenvalues, from the Williamson-basis solve; any mode count."""
    return _solve(family).result()


def qfi_complex_form(family: StateFamily) -> float:
    """The value of :func:`qfi_result`."""
    return qfi_result(family).value


@dataclass(frozen=True)
class SldCoefficients:
    """Coefficients of l11 n_1 + l22 n_2 + l12 (a_1^dag a_2^dag + a_1 a_2) + l0."""

    l11: float
    l22: float
    l12: float
    l0: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.l11, self.l22, self.l12, self.l0)


def optimal_observable(family: StateFamily) -> SldCoefficients:
    """Coefficients of the Cramer-Rao-saturating observable L/H at lambda0 = 0,
    for a family that the solve finds number/pair-structured (``paired``),
    else ValueError."""
    solution = _solve(family)
    h = solution.result().value
    if h <= 0.0:
        raise NoInformationError(f"QFI is {h}; cannot normalise the observable")
    if not solution.paired():
        raise ValueError(
            "the optimal observable needs a number/pair-structured family: two modes, "
            "no displacement, and moments that keep n1 - n2"
        )
    # with G = W Phi W^dag: the real parts of G_00 + G_22 (n_1), G_11 + G_33
    # (n_2), G_03 + G_12 (the pairs) and G_22 + G_33 (the constant's share)
    phi = solution.phi()
    l11 = float(phi[0, 0] + phi[1, 1])
    l22 = float(phi[2, 2] + phi[3, 3])
    l12 = float(phi[0, 2] - phi[1, 3])
    l0 = 0.5 * (l11 + l22) + solution.scalar()
    return SldCoefficients(l11 / h, l22 / h, l12 / h, l0 / h)


def sld_coeffs_closed_form(eta1: float, n_s: float, n_th: float) -> SldCoefficients:
    """Closed-form coefficients of the optimal entangled-probe observable.

    The quadratic coefficients are rational functions of the operating point;
    the constant is fixed by the zero-mean condition at the working point,
    <O> = 0, which any normalised logarithmic derivative satisfies exactly.
    Where n_s = n_th = 0 there is no information to normalise by, and it
    raises ValueError, as :func:`bifrost.qfi.hq_closed_form` does. Every
    argument is a real scalar, else ValueError.
    """
    check_scalars(eta1=eta1, n_s=n_s, n_th=n_th)
    _check_domain(eta1, n_s, n_th)
    _check_some_photons(n_s, n_th)
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
    """Optimal observable for the coherent probe: local displacement plus
    counting. Every argument is a real scalar; ``n_th`` and ``alpha``, which
    enters as sqrt(alpha), take the photon-number check."""
    check_scalars(eta1=eta1, n_th=n_th, alpha=alpha)
    _check_domain(eta1, n_th, alpha)
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


def jpa_circuit_solve(n_s: float) -> JpaCircuitSolution:
    """Circuit parameters realising the pair-counting mode -i(a_2^dag - mu a_1).

    The target mode has commutator mu^2 - 1 = 1/(2 n_s) with itself-dagger, so
    a passive+squeezing circuit (whose outputs are canonical) can only produce
    it up to the normalisation scale sqrt(2 n_s); photon counts on the circuit
    output relate to counts of the target mode by that fixed factor. The
    symmetric two-squeezer ansatz solves both identifications exactly; the
    residuals, in target-mode units, report its floating-point error, and the
    solution counts as converged when their norm is at most ``_CIRCUIT_TOL``.
    """
    check_scalars(n_s=n_s)
    check_photon_numbers(n_s)
    if n_s == 0.0:
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
        converged=bool(norm <= _CIRCUIT_TOL),
    )
