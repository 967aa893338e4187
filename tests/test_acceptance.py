"""Acceptance criteria, one test per criterion, each printing a verdict line.

Tolerances are pinned to the numbers stated in the project contract; nothing
here is calibrated after the fact.
"""

import subprocess
import sys
import time

import numpy as np

import bifrost as bf
import tangent_reference as tr
from bifrost import fock, validate
from bifrost.protocols import (
    BiFrequencyParams,
    bifrequency_received_state,
    qi_classical_qfi,
    qi_classical_qfi_numeric,
    qi_quantum_qfi,
    qi_quantum_qfi_numeric,
    qi_ratio,
    thermal_equal_occupation,
)
from bifrost.qfi import qfi_gaussian
from tangent_reference import min_physical_eigenvalue

# the Williamson solve every caller reads, and the symplectic-invariant check
QFI_ROUTES = (bf.qfi_complex_form, lambda family: qfi_gaussian(family).value)
GRID_ETA = (0.1, 0.3, 0.5, 0.7, 0.9)
GRID_NS = (0.1, 1.0, 5.0)
GRID_NTH = (0.0, 0.5, 5.0)
ORACLE_SET = [
    (eta1, n_s, n_th)
    for eta1 in (0.5, 0.8)
    for n_s in (0.2, 0.5)
    for n_th in (0.1, 0.3)
]


def verdict(number, label, passed):
    print(f"ACCEPTANCE {number} ({label}): {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {number} ({label}) failed"


def test_criterion_1_closed_form_consistency():
    start = time.perf_counter()
    worst = 0.0
    for eta1 in GRID_ETA:
        for n_s in GRID_NS:
            for n_th in GRID_NTH:
                p = BiFrequencyParams(eta1, 0.0, n_s, n_th)
                for kernel in QFI_ROUTES:
                    hq = kernel(bifrequency_received_state(p, "tmsv"))
                    hc = kernel(bifrequency_received_state(p, "coherent"))
                    worst = max(
                        worst,
                        abs(hq - bf.hq_closed_form(eta1, n_s, n_th)) / hq,
                        abs(hc - bf.hc_closed_form(eta1, n_s, n_th)) / hc,
                    )
    elapsed = time.perf_counter() - start
    print(f"criterion 1: max relative deviation {worst:.3e}, runtime {elapsed:.2f}s")
    verdict(1, "closed-form consistency", worst <= 1e-6 and elapsed < 1.0)


def test_criterion_2_fock_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for probe, closed in (("tmsv", bf.hq_closed_form), ("coherent", bf.hc_closed_form)):
        for eta1, n_s, n_th in ORACLE_SET:
            family = fock.bifrequency_fock_family(eta1, n_s, n_th, probe, validate.CUTOFF)
            h_fock = fock.qfi_eq1(family)
            gauss_family = bifrequency_received_state(BiFrequencyParams(eta1, 0.0, n_s, n_th), probe)
            for kernel in QFI_ROUTES:
                gauss = kernel(gauss_family)
                worst = max(worst, abs(h_fock - gauss) / gauss)
    elapsed = time.perf_counter() - start
    print(f"criterion 2: max relative deviation {worst:.3e}, runtime {elapsed:.1f}s")
    verdict(2, "Fock-oracle equivalence", worst <= 1e-3 and elapsed < 120.0)


def test_criterion_3_high_reflectivity_limit():
    eta1 = 1.0 - 1e-6
    worst = 0.0
    for n_s, n_th in ((1.0, 1.0), (0.76, 5.0), (5.0, 0.5)):
        ratio = bf.hq_closed_form(eta1, n_s, n_th) / bf.hc_closed_form(eta1, n_s, n_th)
        limit = bf.ratio_high_reflectivity(n_s, n_th)
        worst = max(worst, abs(ratio - limit) / limit)
    print(f"criterion 3: max relative deviation {worst:.3e}")
    verdict(3, "high-reflectivity limit", worst <= 1e-4)


def test_criterion_4_noisy_limit():
    """Strong-noise limit of the perfect-reflection advantage.

    The limits do not commute: at eta1 = 1 - 1e-6 the product tau1 * n_th is
    already 0.01 at n_th = 1e4, which shifts the finite-reflectivity ratio by
    several percent (29% at n_s = 5). The noisy-limit formula approximates the
    reflectivity limit taken first, so that is the quantity checked here, as
    in the asymptotic-consistency contract of ratio_noisy_limit.
    """
    n_th = 1e4
    worst = 0.0
    for n_s in (0.5, 1.0, 5.0):
        ratio = bf.ratio_high_reflectivity(n_s, n_th)
        target = bf.ratio_noisy_limit(n_s)
        worst = max(worst, abs(ratio - target) / target)
    exact_formula = bf.ratio_noisy_limit(1.0) == 1.0 + 8.0 / 5.0
    print(f"criterion 4: max relative deviation {worst:.3e}")
    verdict(4, "noisy limit", worst <= 0.01 and exact_formula)


def test_criterion_5_quantum_illumination_regression():
    identity_ok = True
    for n_s in (0.1, 0.5, 1.0, 3.0):
        for n_th in (0.2, 1.0, 5.0):
            formula = (n_s + 1.0) * (2.0 * n_th + 1.0) / (
                2.0 * n_s * n_th + n_s + n_th + 1.0
            )
            identity_ok &= abs(qi_ratio(n_s, n_th) - formula) <= 1e-12 * formula
    numeric_worst = 0.0
    for n_s in (0.1, 0.5, 1.0):
        for n_th in (0.5, 2.0, 10.0):
            hq = qi_quantum_qfi_numeric(1e-4, n_s, n_th)
            hc = qi_classical_qfi_numeric(1e-4, n_s, n_th)
            numeric_worst = max(
                numeric_worst,
                abs(hq - qi_quantum_qfi(n_s, n_th)) / qi_quantum_qfi(n_s, n_th),
                abs(hc - qi_classical_qfi(1e-4, n_s, n_th)) / qi_classical_qfi(1e-4, n_s, n_th),
            )
    asymptote = abs(qi_ratio(1e-4, 1e4) - 2.0)
    print(
        f"criterion 5: numeric deviation {numeric_worst:.3e}, asymptote gap {asymptote:.3e}"
    )
    verdict(
        5,
        "quantum illumination regression",
        identity_ok and numeric_worst <= 1e-4 and asymptote <= 1e-3,
    )


def test_criterion_6_sld_correctness():
    worst_residual = 0.0
    worst_variance = 0.0
    for probe in ("tmsv", "coherent"):
        for eta1, n_s, n_th in ORACLE_SET:
            rep = validate.sld_fock_report(eta1, n_s, n_th, probe, validate.CUTOFF)
            worst_residual = max(worst_residual, rep["residual"])
            worst_variance = max(worst_variance, rep["variance_rel_error"])
    closed = bf.sld_coeffs_closed_form(1.0 - 1e-9, 1.0, 0.0)
    mu_sq = -closed.l11
    nu = 0.5 * (-closed.l11 - closed.l22)  # nu = (mu^2 + 1) / 2 in this limit
    limits_ok = abs(mu_sq - 1.5) <= 1e-6 and abs(nu - 1.25) <= 1e-6
    print(
        f"criterion 6: residual {worst_residual:.3e}, variance {worst_variance:.3e}, "
        f"mu^2 {mu_sq:.8f}, nu {nu:.8f}"
    )
    verdict(
        6,
        "SLD correctness",
        worst_residual <= 1e-3 and worst_variance <= 1e-3 and limits_ok,
    )


def test_wide_oracle_box():
    """Criteria 2 and 6 where the paper's advantage is large: the oracle and
    SLD checks at eta1 = 0.8, n_s and n_th in {1, 2}, both probes, at their
    tolerances, in a process of its own whose peak RSS stays under 64 MB.
    The peak is the process's VmHWM: ru_maxrss would carry over the high
    mark of the test process that starts it."""
    code = (
        "from bifrost import validate\n"
        "for check in validate.wide_box_checks():\n"
        "    print(check.line())\n"
        "status = dict(line.split(':', 1) for line in open('/proc/self/status'))\n"
        "print(int(status['VmHWM'].split()[0]) / 1024.0)"
    )
    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    assert result.returncode == 0, result.stderr
    *lines, peak_mb = result.stdout.splitlines()
    failed = [line for line in lines if not line.startswith("[PASS]")]
    print("\n".join(failed))
    print(f"wide box: {len(lines)} checks, peak RSS {float(peak_mb):.1f} MB, runtime {elapsed:.1f}s")
    verdict("2, 6", "wide oracle box", len(lines) == 32 and not failed and float(peak_mb) < 64.0)


def test_criterion_7_advantage_map_reproduction(tmp_path):
    grids = {}
    for eta1 in (0.75, 0.90, 0.95):
        out = tmp_path / f"grid_{eta1}.csv"
        result = subprocess.run(
            [
                sys.executable, "-m", "bifrost.cli", "ratio-grid",
                "--eta1", str(eta1),
                "--ns", "0.01:2:20",
                "--nth", "0.01:100:20", "--log-nth",
                "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        grids[eta1] = np.array([[float(v) for v in row] for row in rows])
        assert np.all(np.isfinite(grids[eta1]))

    # (a) zero-signal limit carries no spurious advantage and is reached
    # continuously from the grid edge
    shadow_ok = True
    for eta1, grid in grids.items():
        for n_th in np.unique(grid[:, 2]):
            at_zero = bf.hq_closed_form(eta1, 0.0, n_th) / bf.hc_closed_form(eta1, 0.0, n_th)
            shadow_ok &= abs(at_zero - 1.0) <= 1e-9
            near_zero = bf.hq_closed_form(eta1, 1e-6, n_th) / bf.hc_closed_form(eta1, 1e-6, n_th)
            shadow_ok &= abs(near_zero - 1.0) <= 1e-3

    maxima = [grids[e][:, 5].max() for e in (0.75, 0.90, 0.95)]
    max_increasing = maxima[0] < maxima[1] < maxima[2]
    areas = [int((grids[e][:, 5] > 1.0 + 1e-9).sum()) for e in (0.75, 0.90, 0.95)]
    area_nondecreasing = areas[0] <= areas[1] <= areas[2]
    print(f"criterion 7: maxima {maxima}, enhancement cells {areas}")
    verdict(
        7,
        "advantage-map qualitative reproduction",
        shadow_ok and max_increasing and area_nondecreasing,
    )


def test_criterion_8_thermal_approximation():
    omega1 = 2.0 * np.pi * 5e9
    report = thermal_equal_occupation(omega1, 0.2 * omega1, 300.0)
    occupation_ok = abs(report.occupation - 1250.0) / 1250.0 <= 0.01
    error_ok = abs(report.rel_error - 0.04) <= 0.005
    print(
        f"criterion 8: occupation {report.occupation:.1f}, rel error {report.rel_error:.4f}"
    )
    verdict(8, "thermal approximation", occupation_ok and error_ok)


def test_criterion_9_property_suites(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(20240809)

    def embedded_beam_splitter(eta, first, n_modes):
        """Beam splitter on modes (first, first + 1) of an n-mode register."""
        block = np.eye(2 * n_modes)
        block[2 * first : 2 * first + 4, 2 * first : 2 * first + 4] = tr.beam_splitter(eta).matrix
        return tr.SymplecticTransform(block)

    def random_symplectic(n_modes):
        s = tr.SymplecticTransform(np.eye(2 * n_modes))
        for _ in range(3):
            first = int(rng.integers(0, n_modes - 1))
            mixer = embedded_beam_splitter(rng.uniform(0.0, 1.0), first, n_modes)
            s = tr.SymplecticTransform(mixer.matrix @ s.matrix)
        return s

    ok = True
    for draw in range(1000):
        n_modes = 2 + (draw % 2)
        factors = [tr.thermal(rng.uniform(0.0, 3.0)) for _ in range(n_modes)]
        state = factors[0]
        for f in factors[1:]:
            state = tr.tensor(state, f)
        s = random_symplectic(n_modes)
        omg = bf.omega(n_modes)
        ok &= np.max(np.abs(s.matrix @ omg @ s.matrix.T - omg)) < 1e-10
        moved = tr.apply(s, state)
        ok &= min_physical_eigenvalue(moved) >= -1e-9
        keep = sorted(rng.choice(n_modes, size=rng.integers(1, n_modes + 1), replace=False))
        reduced = tr.partial_trace(moved, keep)
        ok &= min_physical_eigenvalue(reduced) >= -1e-9
        # tensor/trace consistency on the untransformed product
        lead = tr.partial_trace(state, [0])
        ok &= np.array_equal(lead.cov, factors[0].cov)
        if not ok:
            break

    args = [
        sys.executable, "-m", "bifrost.cli", "ratio-grid",
        "--eta1", "0.7:0.9:3", "--ns", "0.2:1.5:4", "--nth", "0.05:20:4", "--log-nth",
    ]
    first = subprocess.run(args + ["--out", str(tmp_path / "a.csv")], capture_output=True)
    second = subprocess.run(args + ["--out", str(tmp_path / "b.csv")], capture_output=True)
    ok &= first.returncode == 0 and second.returncode == 0
    ok &= (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    elapsed = time.perf_counter() - start
    print(f"criterion 9: 1000 randomized draws plus determinism in {elapsed:.1f}s")
    verdict(9, "property suites", ok and elapsed < 30.0)
