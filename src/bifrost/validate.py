"""Cross-validation suites: Gaussian pipeline against the Fock oracle.

Each check returns a small record (name, measured deviation, tolerance,
pass flag) so callers can print per-check reports and aggregate exit codes.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fock
from .protocols import (
    BiFrequencyParams,
    bifrequency_received_state,
    qi_classical_qfi,
    qi_classical_qfi_numeric,
    qi_quantum_qfi,
    qi_quantum_qfi_numeric,
    qi_ratio,
)
from .qfi import hc_closed_form, hq_closed_form, qfi_gaussian
from .sld import _MIXING, SldForm, _solve, qfi_complex_form

ORACLE_CONFIGS = [
    (eta1, n_s, n_th)
    for eta1 in (0.5, 0.8)
    for n_s in (0.2, 0.5)
    for n_th in (0.1, 0.3)
]
# the cutoff of every check on ORACLE_CONFIGS, quick or full
CUTOFF = 30
# Where the paper's advantage is large; not run by --quick. The gate bounds
# only the received state's trace leak (fock.HARD_TAIL_TOL): it admits the
# entangled probe at n_s = 2 from cutoff 63, but the SLD variance, which weighs
# the photon-number tail by ell^2, meets its 1e-4 tolerance at n_th = 1 from 77.
# Both probes of one n_s share its cutoff, and so its channels.
WIDE_CONFIGS = [(0.8, n_s, n_th) for n_s in (1.0, 2.0) for n_th in (1.0, 2.0)]
WIDE_CUTOFFS = {1.0: 45, 2.0: 80}


@dataclass(frozen=True)
class Check:
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.deviation <= self.tolerance)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: deviation {self.deviation:.3e} (tol {self.tolerance:.1e})"


def oracle_checks(
    configs=ORACLE_CONFIGS, cutoff: int = CUTOFF, probes=("tmsv", "coherent")
) -> list[Check]:
    """The Fock-oracle QFI against the Gaussian pipeline, then the SLD's
    anticommutator, variance and zero mean on the oracle, for each probe and
    configuration. Both checks of one (probe, configuration) run back to
    back, so they read one shared received state (``fock``); the oracle
    checks are listed first."""
    oracle, sld = [], []
    for probe in probes:
        for eta1, n_s, n_th in configs:
            tag = f"{probe} eta1={eta1} n_s={n_s} n_th={n_th}"
            h_fock = fock.qfi_eq1(fock.bifrequency_fock_family(eta1, n_s, n_th, probe, cutoff))
            gauss = qfi_complex_form(
                bifrequency_received_state(BiFrequencyParams(eta1, 0.0, n_s, n_th), probe)
            )
            oracle.append(Check(f"oracle {tag}", abs(h_fock - gauss) / abs(gauss), 1e-6))
            rep = sld_fock_report(eta1, n_s, n_th, probe, cutoff)
            sld.append(Check(f"sld anticommutator {tag}", rep["residual"], 1e-4))
            sld.append(Check(f"sld variance {tag}", rep["variance_rel_error"], 1e-4))
            sld.append(Check(f"sld zero mean {tag}", abs(rep["mean"]), 1e-5))
    return oracle + sld


class LadderOperator(NamedTuple):
    """A two-mode operator sum_t first[t] x second[t], each (terms, cutoff, cutoff)."""

    first: np.ndarray
    second: np.ndarray


@functools.lru_cache(maxsize=64)
def _ladder_word(word: str, cutoff: int) -> np.ndarray:
    """The product of a ("a") and a^dag ("A") in the order of ``word`` on
    the cutoff, the identity for ""; read-only, since it is shared. Like
    ``fock._sector_layout`` it depends on the cutoff alone, never on an
    operating point."""
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    matrix = functools.reduce(np.matmul, [a if x == "a" else a.T for x in word], np.eye(cutoff))
    matrix.setflags(write=False)
    return matrix


def fock_sld_operator(form: SldForm, cutoff: int) -> LadderOperator:
    """A two-mode quadratic-form observable on the truncated space.

    Each A_i - center_i is expanded into pairs of ladder words, one per mode
    ("a" for a, "A" for a^dag, "" the identity); terms whose coefficient is
    exactly 0 are dropped, except the identity, and the rest are grouped by
    their mode-2 word: term t is first[t] x second[t], second[t] that word
    and first[t] the sum of its mode-1 words times their coefficients, each
    a one-mode matrix, so no two-mode matrix is formed. Real coefficients,
    as every probe gives, yield a real operator.
    """
    coeffs = [form.quad, form.linear, form.center, form.scalar]
    if not any(np.any(np.imag(c)) for c in coeffs):
        coeffs = [np.real(c) for c in coeffs]
    quad, linear, center, scalar = coeffs
    basis = (("a", ""), ("", "a"), ("A", ""), ("", "A"))  # a1, a2, a1^dag, a2^dag
    delta = [((1.0, *words), (-c, "", "")) for words, c in zip(basis, center)]
    terms = []
    for i in range(4):
        dagger = [(np.conj(c), u[::-1].swapcase(), v[::-1].swapcase()) for c, u, v in delta[i]]
        terms += [(linear[i] * c, u, v) for c, u, v in dagger]
        for j in range(4):
            terms += [
                (quad[i, j] * c1 * c2, u1 + u2, v1 + v2)
                for (c1, u1, v1), (c2, u2, v2) in itertools.product(dagger, delta[j])
            ]
    terms = [(scalar, "", "")] + [term for term in terms if term[0] != 0]
    words = sorted({v for _, _, v in terms})
    dtype = np.result_type(*(c for c, _, _ in terms), float)
    first = np.zeros((len(words), cutoff, cutoff), dtype)
    for c, u, v in terms:
        first[words.index(v)] += c * _ladder_word(u, cutoff)
    return LadderOperator(first, np.stack([_ladder_word(v, cutoff) for v in words]))


def _changes_n1_minus_n2(form: SldForm) -> bool:
    """Whether a term of the form's expansion in ``fock_sld_operator`` with a
    nonzero coefficient changes n1 - n2: a linear term A_i^dag, an entry of
    the quadratic part at the entries ``sld._MIXING``, or a quadratic entry
    times the center, which leaves one ladder operator."""
    quad, center = form.quad, form.center
    return bool(
        np.any(form.linear) or np.any(quad.take(_MIXING))
        or np.any(quad * center) or np.any(center.conj()[:, None] * quad)
    )


def _laid_out(form: SldForm, state: fock.FockState):
    """ell of ``form`` laid out like ``state``: Tr(ell rho) before the
    weight, ||drho||^2 and ell's blocks on the stacks of ``fock._blockwise``.
    On a product A x B ell must read as I x ell_2, else ValueError, and is
    ell_2 = sum_t first_t[0, 0] second_t, one block for the one stack. On
    sectors it must keep n1 - n2 and be real, else ValueError, so at
    |i + k, j + k><i, j| and the mirror it is E_k[i, j] =
    sum_t first_t[i + k, i] second_t[j + k, j], 0 past k = 2: E_0, E_1, E_2
    and one zero lie as the coherences do, and a mirror pair's blocks are
    one ``np.take`` at the pair's index, clipped onto the zero."""
    d, ell = state.dim, fock_sld_operator(form, state.dim)
    if state.factors is not None:
        if not np.array_equal(ell.first, ell.first[:, :1, :1] * np.eye(d)):
            raise ValueError("the SLD form acts on mode 1 of a product state")
        ell_2 = np.tensordot(ell.first[:, 0, 0], ell.second, 1)
        return np.vdot(ell_2, state.factors[1]), np.vdot(state.tangent, state.tangent).real, [ell_2]
    if _changes_n1_minus_n2(form):
        raise ValueError("the SLD form changes n1 - n2 on a state kept as sectors")
    if np.iscomplexobj(ell.first):
        raise ValueError("the SLD form is complex on a state kept as sectors")
    compact = np.concatenate(
        [(np.diagonal(ell.first, -k, 1, 2).T @ np.diagonal(ell.second, -k, 1, 2)).ravel()
         for k in range(min(d, 3))] + [[0.0]]
    )
    # sums over the whole state: offset 0 once, each offset k > 0 twice
    n, rho, drho = d * d, state.coherences[: len(compact) - 1], state.tangent
    mean = compact[:n] @ rho[:n] + 2.0 * (compact[n:-1] @ rho[n:])
    blocks = (np.take(compact, at, mode="clip") for at in fock._sector_layout(d))
    return mean, drho[:n] @ drho[:n] + 2.0 * (drho[n:] @ drho[n:]), blocks


def sld_fock_report(
    eta1: float, n_s: float, n_th: float, probe: str, cutoff: int = CUTOFF
) -> dict:
    """Anticommutator residual, mean and variance of the SLD on the oracle.

    The form and its QFI come from one Williamson-basis solve; ell is laid
    out like the family's shared state at the working point (``_laid_out``),
    whose form it must keep, else ValueError. The residual of
    ell rho + (ell rho)^dag = 2 drho and the second moment Tr(ell ell rho)
    are sums over the stacks of ``fock._blockwise``, a mirror pair of
    sectors or a product's one block: one batched product and
    anticommutator per stack, each sum one ``np.vdot``; the mean Tr(ell rho)
    and ||drho|| are read once off the state's form. The weight scales the
    mean and the second moment. A cutoff that passes the tail gate may
    still be too small for the second moment (see ``WIDE_CONFIGS``).
    """
    solution = _solve(bifrequency_received_state(BiFrequencyParams(eta1, 0.0, n_s, n_th), probe))
    h = solution.result().value
    state = fock.bifrequency_fock_family(eta1, n_s, n_th, probe, cutoff)(fock.LAMBDA0)
    mean, tangent_sq, ell_blocks = _laid_out(solution.form(), state)
    weight, blocks = fock._blockwise(state)
    residual_sq = second_moment = 0.0
    for ell_block, (block, dblock) in zip(ell_blocks, blocks):
        product = ell_block @ block
        anticommutator = product + product.conj().mT - 2.0 * dblock
        residual_sq += np.vdot(anticommutator, anticommutator).real
        second_moment += np.vdot(ell_block, product)
    second_moment = float(np.real(weight * second_moment))
    return {
        "residual": float(np.sqrt(residual_sq / tangent_sq)),
        "mean": float(np.real(weight * mean)),
        "second_moment": second_moment,
        "qfi": h,
        "variance_rel_error": abs(second_moment - h) / h,
    }


def wide_box_checks() -> list[Check]:
    """The oracle and SLD checks on WIDE_CONFIGS, each probe at the cutoff
    of its n_s in WIDE_CUTOFFS."""
    checks = []
    for probe in ("tmsv", "coherent"):
        for n_s, cutoff in WIDE_CUTOFFS.items():
            configs = [config for config in WIDE_CONFIGS if config[1] == n_s]
            checks += oracle_checks(configs, cutoff, (probe,))
    return checks


def qi_regression_checks() -> list[Check]:
    """Closed-form identities and the numeric pipeline of quantum illumination."""
    checks = []
    for n_s in (0.1, 0.5, 1.0):
        for n_th in (0.5, 2.0, 10.0):
            ratio = qi_ratio(n_s, n_th)
            direct = qi_quantum_qfi(n_s, n_th) / qi_classical_qfi(0.0, n_s, n_th)
            checks.append(
                Check(
                    f"qi ratio identity n_s={n_s} n_th={n_th}",
                    abs(ratio - direct) / direct,
                    1e-12,
                )
            )
            hq_num = qi_quantum_qfi_numeric(1e-4, n_s, n_th)
            checks.append(
                Check(
                    f"qi quantum pipeline n_s={n_s} n_th={n_th}",
                    abs(hq_num - qi_quantum_qfi(n_s, n_th)) / qi_quantum_qfi(n_s, n_th),
                    1e-4,
                )
            )
            hc_num = qi_classical_qfi_numeric(1e-4, n_s, n_th)
            hc_closed = qi_classical_qfi(1e-4, n_s, n_th)
            checks.append(
                Check(
                    f"qi classical pipeline n_s={n_s} n_th={n_th}",
                    abs(hc_num - hc_closed) / hc_closed,
                    1e-9,
                )
            )
    checks.append(
        Check("qi noiseless ratio = 1", abs(qi_ratio(0.7, 0.0) - 1.0), 1e-12)
    )
    checks.append(
        Check("qi dim-noisy asymptote -> 2", abs(qi_ratio(1e-4, 1e4) - 2.0), 1e-3)
    )
    return checks


def closed_form_checks() -> list[Check]:
    """Both numeric two-mode QFI routes, the Williamson solve every caller
    reads and the symplectic-invariant check, against the protocol closed
    forms on a small grid inside the check's accuracy domain."""
    routes = (("williamson", qfi_complex_form), ("invariant", lambda f: qfi_gaussian(f).value))
    checks = []
    for eta1 in (0.3, 0.7):
        for n_s, n_th in ((0.5, 0.2), (1.0, 1.0)):
            p = BiFrequencyParams(eta1, 0.0, n_s, n_th)
            for probe, label, closed in (
                ("tmsv", "quantum", hq_closed_form), ("coherent", "coherent", hc_closed_form)
            ):
                ref = closed(eta1, n_s, n_th)
                for route, kernel in routes:
                    h = kernel(bifrequency_received_state(p, probe))
                    checks.append(
                        Check(
                            f"closed-form {label} {route} eta1={eta1} n_s={n_s} n_th={n_th}",
                            abs(h - ref) / h,
                            1e-6,
                        )
                    )
    return checks


def full_validation(quick: bool = False) -> list[Check]:
    if quick:
        configs = [(0.5, 0.2, 0.1), (0.8, 0.5, 0.3)]
        return closed_form_checks() + oracle_checks(configs)
    return closed_form_checks() + oracle_checks() + wide_box_checks()
