"""Cross-validation suites: Gaussian pipeline against the Fock oracle.

Each check returns a small record (name, measured deviation, tolerance,
pass flag) so callers can print per-check reports and aggregate exit codes.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .sld import SldForm, sld

ORACLE_CONFIGS = [
    (eta1, n_s, n_th)
    for eta1 in (0.5, 0.8)
    for n_s in (0.2, 0.5)
    for n_th in (0.1, 0.3)
]
ORACLE_CUTOFF = 30
SLD_CUTOFF = 25


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
            gauss = qfi_gaussian(
                bifrequency_received_state(BiFrequencyParams(eta1, 0.0, n_s, n_th), probe)
            ).value
            rel = abs(h_fock - gauss) / abs(gauss)
            checks.append(
                Check(f"oracle {probe} eta1={eta1} n_s={n_s} n_th={n_th}", rel, 1e-3)
            )
    return checks


def fock_sld_operator(form: SldForm, cutoff: int):
    """Materialise a two-mode quadratic-form observable on the truncated space.

    Returned as a sparse CSR matrix: every term is a product of at most two
    ladder operators, so the operator is banded, with its nonzero entries
    within 2 * cutoff of the diagonal.
    """
    from scipy import sparse

    a = sparse.csr_matrix(fock.annihilation(cutoff))
    eye = sparse.identity(cutoff)
    one = sparse.identity(cutoff * cutoff, dtype=complex, format="csr")
    basis = [sparse.kron(a, eye), sparse.kron(eye, a)]
    basis += [op.conj().T for op in basis]
    delta = [(op - c * one).tocsr() for op, c in zip(basis, form.center)]
    op = form.scalar * one
    for i in range(4):
        di_dag = delta[i].conj().T
        op = op + form.linear[i] * di_dag
        for j in range(4):
            if form.quad[i, j] != 0.0:
                op = op + form.quad[i, j] * (di_dag @ delta[j])
    return op.tocsr()


def sld_fock_report(
    eta1: float, n_s: float, n_th: float, probe: str, cutoff: int = SLD_CUTOFF
) -> dict:
    """Anticommutator residual, mean and variance of the SLD on the oracle.

    Everything is read off the one dense product ell rho: the anticommutator
    is ell rho + (ell rho)^dag, the mean Tr(ell rho) and the second moment
    Tr(ell rho ell), the sum of (ell rho) * ell^T over the nonzero entries
    of the sparse ell.
    """
    gauss_family = bifrequency_received_state(BiFrequencyParams(eta1, 0.0, n_s, n_th), probe)
    form = sld(gauss_family)
    h = qfi_gaussian(gauss_family).value
    ell = fock_sld_operator(form, cutoff).tocoo()

    rho, drho = fock.family_derivative(
        fock.bifrequency_fock_family(eta1, n_s, n_th, probe, cutoff)
    )
    ell_rho = ell @ rho
    residual = np.linalg.norm(ell_rho + ell_rho.conj().T - 2.0 * drho) / np.linalg.norm(drho)
    mean = float(np.trace(ell_rho).real)
    second_moment = float(np.sum(ell.data * ell_rho[ell.col, ell.row]).real)
    return {
        "residual": float(residual),
        "mean": mean,
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
                    1e-4,
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
    """Numeric two-mode QFI against the protocol closed forms on a small grid."""
    checks = []
    for eta1 in (0.3, 0.7):
        for n_s, n_th in ((0.5, 0.2), (1.0, 1.0)):
            p = BiFrequencyParams(eta1, 0.0, n_s, n_th)
            hq = qfi_gaussian(bifrequency_received_state(p, "tmsv")).value
            hc = qfi_gaussian(bifrequency_received_state(p, "coherent")).value
            checks.append(
                Check(
                    f"closed-form quantum eta1={eta1} n_s={n_s} n_th={n_th}",
                    abs(hq - hq_closed_form(eta1, n_s, n_th)) / hq,
                    1e-6,
                )
            )
            checks.append(
                Check(
                    f"closed-form coherent eta1={eta1} n_s={n_s} n_th={n_th}",
                    abs(hc - hc_closed_form(eta1, n_s, n_th)) / hc,
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
    return closed_form_checks() + oracle_equivalence_checks() + sld_checks()
