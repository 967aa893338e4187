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
from .sld import _solve, _terms, qfi_complex_form

ORACLE_CONFIGS = [
    (eta1, n_s, n_th)
    for eta1 in (0.5, 0.8)
    for n_s in (0.2, 0.5)
    for n_th in (0.1, 0.3)
]
# the cutoff of every check on ORACLE_CONFIGS
CUTOFF = 30
# Where the paper's advantage is large. The gate bounds
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
    """The Fock-oracle QFI against the Gaussian pipeline's, the Williamson
    solve's value that ``sld_fock_report`` returns, then the SLD's
    anticommutator, variance and zero mean on the oracle, for each probe and
    configuration. Both checks of one (probe, configuration) run back to
    back, so they read one shared received state (``fock``) and one solve;
    the oracle checks are listed first."""
    oracle, sld = [], []
    for probe in probes:
        for eta1, n_s, n_th in configs:
            tag = f"{probe} eta1={eta1} n_s={n_s} n_th={n_th}"
            h_fock = fock.qfi_eq1(fock.bifrequency_fock_family(eta1, n_s, n_th, probe, cutoff))
            rep = sld_fock_report(eta1, n_s, n_th, probe, cutoff)
            gauss = rep["qfi"]
            oracle.append(Check(f"oracle {tag}", abs(h_fock - gauss) / abs(gauss), 1e-6))
            sld.append(Check(f"sld anticommutator {tag}", rep["residual"], 1e-4))
            sld.append(Check(f"sld variance {tag}", rep["variance_rel_error"], 1e-4))
            sld.append(Check(f"sld zero mean {tag}", abs(rep["mean"]), 1e-5))
    return oracle + sld


def sld_fock_report(
    eta1: float, n_s: float, n_th: float, probe: str, cutoff: int = CUTOFF
) -> dict:
    """Anticommutator residual, mean and variance of the SLD on the oracle.

    The form and its QFI come from one Williamson-basis solve. ell is the
    form's terms (``sld._terms``) laid out like the family's shared state
    at the working point (``fock._laid_out``); a form that does not suit the
    state's form raises ValueError. One walk over the stacks of
    ``fock._blockwise``, a mirror pair of sectors or a product's one block,
    sums the mean Tr(ell rho), ||drho||^2, the residual of
    ell rho + (ell rho)^dag = 2 drho and the second moment Tr(ell ell rho):
    one batched product and anticommutator per stack, each sum one
    ``np.vdot``. The weight scales the mean and the second moment. A cutoff
    that passes the tail gate may still be too small for the second moment
    (see ``WIDE_CONFIGS``).
    """
    solution = _solve(bifrequency_received_state(BiFrequencyParams(eta1, 0.0, n_s, n_th), probe))
    h = solution.result().value
    state = fock.bifrequency_fock_family(eta1, n_s, n_th, probe, cutoff)(fock.LAMBDA0)
    ell_blocks = fock._laid_out(_terms(solution.form()), state)
    weight, blocks = fock._blockwise(state)
    mean = tangent_sq = residual_sq = second_moment = 0.0
    for ell_block, (block, dblock) in zip(ell_blocks, blocks):
        product = ell_block @ block
        anticommutator = product + product.mT - 2.0 * dblock
        mean += np.vdot(ell_block, block)
        tangent_sq += np.vdot(dblock, dblock)
        residual_sq += np.vdot(anticommutator, anticommutator)
        second_moment += np.vdot(ell_block, product)
    second_moment = float(weight * second_moment)
    return {
        "residual": float(np.sqrt(residual_sq / tangent_sq)),
        "mean": float(weight * mean),
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


def full_validation() -> list[Check]:
    return closed_form_checks() + oracle_checks() + wide_box_checks()
