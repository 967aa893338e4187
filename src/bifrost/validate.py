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
from .sld import SldForm, _solve, qfi_complex_form

ORACLE_CONFIGS = [
    (eta1, n_s, n_th)
    for eta1 in (0.5, 0.8)
    for n_s in (0.2, 0.5)
    for n_th in (0.1, 0.3)
]
ORACLE_CUTOFF = 30
SLD_CUTOFF = 25
# Where the paper's advantage is large; not run by --quick. The gate bounds
# only the received state's trace leak (fock.HARD_TAIL_TOL): it admits the
# entangled probe at n_s = 2 from cutoff 63, but the SLD variance, which weighs
# the photon-number tail by ell^2, meets its 1e-3 tolerance at n_th = 1 from 65.
WIDE_CONFIGS = [(0.8, n_s, n_th) for n_s in (1.0, 2.0) for n_th in (1.0, 2.0)]
WIDE_CUTOFFS = {("tmsv", 1.0): 45, ("tmsv", 2.0): 80, ("coherent", 1.0): 60, ("coherent", 2.0): 60}


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


def oracle_equivalence_checks(
    configs=ORACLE_CONFIGS, cutoff: int = ORACLE_CUTOFF, probes=("tmsv", "coherent")
) -> list[Check]:
    """Fock-oracle QFI against the Gaussian pipeline, both probes."""
    checks = []
    for probe in probes:
        for eta1, n_s, n_th in configs:
            family = fock.bifrequency_fock_family(eta1, n_s, n_th, probe, cutoff)
            h_fock = fock.qfi_eq1(family)
            gauss = qfi_complex_form(
                bifrequency_received_state(BiFrequencyParams(eta1, 0.0, n_s, n_th), probe)
            )
            rel = abs(h_fock - gauss) / abs(gauss)
            checks.append(
                Check(f"oracle {probe} eta1={eta1} n_s={n_s} n_th={n_th}", rel, 1e-5)
            )
    return checks


class LadderOperator(NamedTuple):
    """A two-mode operator sum_t first[t] x second[t] on the truncated space,
    with ``charges`` the changes of n1 - n2 its terms make."""

    first: np.ndarray
    second: np.ndarray
    charges: frozenset

    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The block between basis states ``rows`` and ``cols``."""
        (r1, r2), (c1, c2) = (divmod(idx, self.first.shape[-1]) for idx in (rows, cols))
        first, second = self.first[:, r1[:, None], c1], self.second[:, r2[:, None], c2]
        return np.einsum("tij,tij->ij", first, second)


def fock_sld_operator(form: SldForm, cutoff: int) -> LadderOperator:
    """A two-mode quadratic-form observable on the truncated space.

    Each A_i - center_i is expanded into pairs of ladder words, one per mode
    ("a" for a, "A" for a^dag, "" the identity); terms whose coefficient is
    exactly 0 are dropped, except the identity, and the rest are grouped by
    their mode-2 word. Products are taken one mode at a time, so each
    gathered block equals that of the two-mode product. Real coefficients,
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
    a = fock.annihilation(cutoff)

    def matrix(word: str) -> np.ndarray:
        return functools.reduce(np.matmul, [a if x == "a" else a.T for x in word], np.eye(cutoff))

    def shift(word: str) -> int:
        return word.count("A") - word.count("a")

    words = sorted({v for _, _, v in terms})
    first = np.zeros((len(words), cutoff, cutoff), np.result_type(*(c for c, _, _ in terms), float))
    for c, u, v in terms:
        first[words.index(v)] += c * matrix(u)
    charges = {shift(u) - shift(v) for _, u, v in terms}
    return LadderOperator(
        first, np.stack([matrix(v) for v in words]), frozenset(charges | {-q for q in charges})
    )


def sld_fock_report(
    eta1: float, n_s: float, n_th: float, probe: str, cutoff: int = SLD_CUTOFF
) -> dict:
    """Anticommutator residual, mean and variance of the SLD on the oracle.

    The form and its QFI come from one Williamson-basis solve. The residual
    of ell rho + (ell rho)^dag = 2 drho, the mean Tr(ell rho) and the second
    moment Tr(ell ell rho) are sums over blocks, read off the form and one
    family evaluation, the state and its tangent drho (the tangent rule of
    the ``fock`` module docstring), never the probe. A product A x B (tangent
    A x dB) needs a form with no mode-1 term, else ValueError: then
    ell = I x ell_2 is ell_2 on the states |0, n2>, one block B with tangent
    dB, and the mean and second moment are scaled by Tr A. For sectors the
    blocks are those of ``fock._blockwise``, and ell is gathered between the
    sectors whose n1 - n2 differ by a charge of the form. Neither route
    forms a cutoff^2 x cutoff^2 matrix. A cutoff that passes the tail gate
    may still be too small for the second moment (see ``WIDE_CONFIGS``).
    """
    solution = _solve(bifrequency_received_state(BiFrequencyParams(eta1, 0.0, n_s, n_th), probe))
    h = solution.result().value
    ell = fock_sld_operator(solution.form(), cutoff)
    state = fock.bifrequency_fock_family(eta1, n_s, n_th, probe, cutoff)(fock.LAMBDA0)
    scale = 1.0
    if state.factors is None:
        blocks = fock._blockwise(state)
    elif np.array_equal(ell.first, ell.first[:, :1, :1] * np.eye(cutoff)):
        scale = state.factors[0].trace()
        blocks = [(np.arange(cutoff), state.factors[1], state.tangent)]
    else:
        raise ValueError("the SLD form acts on mode 1 of a product state")
    count = len(blocks)
    # sectors ascend in n1 - n2, so charge c pairs block q with block q + c
    pairs = [(q + c, q) for q in range(count) for c in ell.charges if 0 <= q + c < count]
    ell_blocks = {(p, q): ell.block(blocks[p][0], blocks[q][0]) for p, q in pairs}
    products = {(p, q): ell_blocks[p, q] @ blocks[q][1] for p, q in pairs}
    residual_sq = mean = second_moment = 0.0
    for (p, q), product in products.items():
        anticommutator = product + products[q, p].conj().T
        if p == q:
            anticommutator -= 2.0 * blocks[p][2]
            mean += product.trace()
        residual_sq += np.linalg.norm(anticommutator) ** 2
        second_moment += np.sum(ell_blocks[p, q] * products[q, p].T)
    residual = np.sqrt(residual_sq) / np.linalg.norm([np.linalg.norm(b[2]) for b in blocks])
    second_moment = float(np.real(scale * second_moment))
    return {
        "residual": float(residual),
        "mean": float(np.real(scale * mean)),
        "second_moment": second_moment,
        "qfi": h,
        "variance_rel_error": abs(second_moment - h) / h,
    }


def sld_checks(
    configs=ORACLE_CONFIGS, cutoff: int = SLD_CUTOFF, probes=("tmsv", "coherent")
) -> list[Check]:
    checks = []
    for probe in probes:
        for eta1, n_s, n_th in configs:
            rep = sld_fock_report(eta1, n_s, n_th, probe, cutoff)
            tag = f"{probe} eta1={eta1} n_s={n_s} n_th={n_th}"
            checks.append(Check(f"sld anticommutator {tag}", rep["residual"], 1e-3))
            checks.append(Check(f"sld variance {tag}", rep["variance_rel_error"], 1e-3))
            checks.append(Check(f"sld zero mean {tag}", abs(rep["mean"]), 1e-4))
    return checks


def wide_box_checks() -> list[Check]:
    """The oracle and SLD checks on WIDE_CONFIGS, each probe and n_s at its
    cutoff in WIDE_CUTOFFS."""
    checks = []
    for (probe, n_s), cutoff in WIDE_CUTOFFS.items():
        configs = [config for config in WIDE_CONFIGS if config[1] == n_s]
        checks += oracle_equivalence_checks(configs, cutoff, (probe,))
        checks += sld_checks(configs, cutoff, (probe,))
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
        return (
            closed_form_checks()
            + oracle_equivalence_checks(configs, cutoff=24)
            + sld_checks(configs, cutoff=24)
        )
    return closed_form_checks() + oracle_equivalence_checks() + sld_checks() + wide_box_checks()
