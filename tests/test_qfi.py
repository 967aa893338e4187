"""QFI engine: symplectic eigenvalues, the numeric pipeline and closed forms."""

import dataclasses
import pathlib
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bifrost as bf
from bifrost.errors import PureStateError, check_photon_numbers
from bifrost.gaussian import normal_modes
from bifrost.protocols import (
    BiFrequencyParams,
    _qi_classical_received,
    _qi_quantum_received,
    bifrequency_received_state,
    qi_classical_qfi_numeric,
)
from bifrost.qfi import qfi_gaussian
from bifrost.sld import sld

# the one message of the photon-number domain check
DOMAIN_ERROR = re.escape("photon numbers must be 0 or lie in [1e-06, 1e+06]")
from closed_form_reference import mp_closed_form, rounding_bound
from family_difference import central_difference, difference_family

SZ = np.diag([1.0, -1.0])


def received_cov(eta1, lam, n_s, n_th):
    """Received two-mode covariance assembled from its entry formulas."""
    def c(x):
        return 2.0 * x * (2.0 * n_s - n_th) + 2.0 * n_th + 1.0

    f = 2.0 * np.sqrt(2.0) * np.sqrt(eta1) * np.sqrt(n_s * (2.0 * n_s + 1.0)) * np.sqrt(eta1 + lam)
    return np.block([[c(eta1) * np.eye(2), f * SZ], [f * SZ, c(eta1 + lam) * np.eye(2)]])


def nu_oracle(eta1, lam, n_s, n_th):
    """Symplectic eigenvalues of the received state by direct 2x2 algebra.

    For cov = [[c1 I, f sz], [f sz, c2 I]] the invariants give
    nu_pm^2 = (c1^2 + c2^2 - 2 f^2 +- |c1 - c2| sqrt((c1 + c2)^2 - 4 f^2)) / 2.
    """
    def c(x):
        return 2.0 * x * (2.0 * n_s - n_th) + 2.0 * n_th + 1.0

    c1, c2 = c(eta1), c(eta1 + lam)
    f2 = 8.0 * n_s * (2.0 * n_s + 1.0) * eta1 * (eta1 + lam)
    split = abs(c1 - c2) * np.sqrt((c1 + c2) ** 2 - 4.0 * f2)
    base = c1 * c1 + c2 * c2 - 2.0 * f2
    return np.sqrt((base + split) / 2.0), np.sqrt((base - split) / 2.0)


def tmsv_family(eta1, n_s, n_th, lam0=0.0):
    return bifrequency_received_state(BiFrequencyParams(eta1, lam0, n_s, n_th), "tmsv")


def coherent_family(eta1, n_s, n_th, lam0=0.0):
    return bifrequency_received_state(BiFrequencyParams(eta1, lam0, n_s, n_th), "coherent")


# --- received covariance ----------------------------------------------------

def test_received_covariance_entries():
    """The received state at gap lam: blocks c(eta1) I and c(eta1 + lam) I on
    the diagonal and f sigma_z off it."""
    eta1, lam, n_s, n_th = 0.6, 0.05, 0.8, 0.4
    cov = tmsv_family(eta1, n_s, n_th, lam).eval(lam).cov

    def c(x):
        return 2.0 * x * (2.0 * n_s - n_th) + 2.0 * n_th + 1.0

    f = 2.0 * np.sqrt(2.0 * n_s * (2.0 * n_s + 1.0) * eta1 * (eta1 + lam))
    assert np.allclose(cov[:2, :2], c(eta1) * np.eye(2))
    assert np.allclose(cov[2:, 2:], c(eta1 + lam) * np.eye(2))
    assert np.allclose(cov[:2, 2:], f * SZ)
    assert np.allclose(cov[2:, :2], f * SZ)


# --- symplectic eigenvalues -------------------------------------------------

def williamson_nu(state):
    """(nu_plus, nu_minus) of ``state``, read off the Williamson solve of a
    family that stays at it."""
    result = bf.qfi_result(difference_family(lambda lam: state))
    return result.nu_plus, result.nu_minus


def test_symplectic_eigenvalues_vacuum_and_thermal():
    assert np.allclose(williamson_nu(bf.vacuum(2)), (1.0, 1.0))
    pair = bf.tensor(bf.thermal(0.7), bf.thermal(0.7))
    assert np.allclose(williamson_nu(pair), (2.4, 2.4))


@pytest.mark.parametrize(
    "eta1, lam, n_s, n_th",
    [(0.5, 0.1, 1.0, 0.3), (0.8, -0.05, 0.4, 1.1)],
)
def test_symplectic_eigenvalues_received(eta1, lam, n_s, n_th):
    state = bf.GaussianState(received_cov(eta1, lam, n_s, n_th), np.zeros(4))
    got = williamson_nu(state)
    assert np.allclose(got, nu_oracle(eta1, lam, n_s, n_th), rtol=1e-12, atol=1e-12)


def _exact_symplectic_eigenvalues(cov):
    """(nu_plus, nu_minus) of the stored ``cov`` from its 60-digit eigenvalues."""
    with mpmath.workdps(60):
        form = mpmath.matrix((1j * bf.omega(2)).tolist()) * mpmath.matrix(cov.tolist())
        moduli = sorted(abs(e) for e in mpmath.eig(form, left=False, right=False))
        return float(moduli[3]), float(moduli[0])


def test_symplectic_eigenvalues_degenerate_point():
    # 2 n_s = n_th makes both covariance blocks equal for every gap, and the
    # two symplectic eigenvalues coincide
    nu_p, nu_m = williamson_nu(bf.GaussianState(received_cov(0.5, 0.1, 1.0, 2.0), np.zeros(4)))
    assert np.isclose(nu_p, nu_m, rtol=1e-12, atol=0.0)
    assert np.isclose(nu_p, np.sqrt(17.8), rtol=1e-12, atol=0.0)
    # at tmsv (0.9857, 8.0e5, 1.32) the exact eigenvalues of the stored
    # covariance are degenerate near 573; the invariant discriminant split
    # them by 3.8e-5 relative
    family = tmsv_family(0.9857, 8.0e5, 1.32)
    result = bf.qfi_result(family)
    exact = _exact_symplectic_eigenvalues(family.eval(0.0).cov)
    assert np.allclose((result.nu_plus, result.nu_minus), exact, rtol=1e-8, atol=0.0)


# --- numeric QFI ------------------------------------------------------------

def test_qfi_coherent_noiseless_point():
    """Both routes' records: the pure state's covariance is static, so all of
    the QFI is in the displacement term."""
    family = coherent_family(0.5, 1.0, 0.0)
    for result in (qfi_gaussian(family), bf.qfi_result(family)):
        assert np.isclose(result.value, 2.0, rtol=1e-9)
        assert result.term_covariance == 0.0
        assert result.term_displacement == result.value
        assert np.isclose(result.nu_plus, 1.0) and np.isclose(result.nu_minus, 1.0)


def test_qfi_tmsv_matches_closed_form():
    result = qfi_gaussian(tmsv_family(0.75, 1.0, 1.0))
    assert np.isclose(result.value, bf.hq_closed_form(0.75, 1.0, 1.0), rtol=1e-6)


def test_qfi_constant_family_is_zero():
    pair = bf.tensor(bf.thermal(1.0), bf.thermal(1.0))
    family = difference_family(lambda lam: pair)
    assert abs(qfi_gaussian(family).value) < 1e-12


def test_qfi_term_sum_identity():
    for family in (tmsv_family(0.6, 0.8, 0.7), coherent_family(0.6, 0.8, 0.7)):
        for r in (qfi_gaussian(family), bf.qfi_result(family)):
            total = r.term_covariance + r.term_displacement
            assert np.isclose(r.value, total, rtol=1e-10)
            assert r.nu_plus >= r.nu_minus >= 1.0 - 1e-9


def test_only_the_check_reads_the_invariant_kernel():
    """Every caller in the package reads the Williamson solve: qfi_gaussian
    appears only in qfi.py, where it is defined, and in validate.py, where it
    is the check."""
    package = pathlib.Path(bf.__file__).parent
    readers = {
        path.name
        for path in package.glob("*.py")
        if re.search(r"\bqfi_gaussian\b", path.read_text(encoding="utf-8"))
    }
    assert readers == {"qfi.py", "validate.py"}


def test_qfi_rejects_wrong_mode_count():
    family = difference_family(lambda lam: bf.thermal(0.5))
    with pytest.raises(ValueError):
        qfi_gaussian(family)


def test_qfi_pure_varying_family_raises():
    family = difference_family(lambda lam: bf.two_mode_squeezed(0.3 + lam))
    with pytest.raises(PureStateError):
        qfi_gaussian(family)


@pytest.mark.parametrize(
    "point, probe", [((1e-6, 1e-3, 0.0), "tmsv"), ((0.999999, 0.0, 1e-3), "coherent")]
)
def test_qfi_where_d_rounds_to_zero_raises_pure_state_error(point, probe):
    """Inside the domain D = p ((p + 1)^2 - s^2) can round to 0 while nu_-
    still reads above 1: the check raises PureStateError, not a bare
    ZeroDivisionError, and the solve still gives its value."""
    family = bifrequency_received_state(BiFrequencyParams(point[0], 0.0, *point[1:]), probe)
    with pytest.raises(PureStateError, match="rounds to 0"):
        qfi_gaussian(family)
    assert np.isfinite(bf.qfi_result(family).value)


def test_qfi_beyond_the_float_range_is_an_arithmetic_error():
    """At eta1 = 5e-324 the coherent probe's displacement term leaves the
    float range: the check raises the ArithmeticError the solve raises,
    with no overflow warning on the way."""
    family = coherent_family(5e-324, 1e-6, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kernel in (qfi_gaussian, bf.qfi_result):
            with pytest.raises(ArithmeticError, match="^the QFI leaves the float range: inf$"):
                kernel(family)


def built_families(rng, n):
    """Every state family the package builds, at n seeded points each:
    both bi-frequency probes at a working point lam0 near zero and both
    quantum-illumination families at an amplitude reflectivity in (0, 0.9)."""
    for _ in range(n):
        eta1 = rng.uniform(0.05, 0.95)
        lam0 = rng.uniform(-0.01, 0.01)
        n_s, n_th = np.exp(rng.uniform(np.log(1e-3), np.log(1e2), 2))
        for probe in ("tmsv", "coherent"):
            yield bifrequency_received_state(BiFrequencyParams(eta1, lam0, n_s, n_th), probe)
        amp = rng.uniform(0.01, 0.9)
        yield _qi_quantum_received(amp, n_s, n_th)
        yield _qi_classical_received(amp, n_s, n_th)


def test_tangents_match_central_differences():
    """The analytic tangent returns the evaluated state bit for bit and the
    moment derivatives of the central difference to 1e-7 relative, each
    taken to the physical modes where the tangent is in the normal modes."""
    for family in built_families(np.random.default_rng(1801), 50):
        lam = family.lambda0
        state, dcov, ddisp = family.tangent(lam)
        if family.in_normal_modes:
            state = bf.GaussianState(normal_modes(state.cov), normal_modes(state.disp))
            dcov, ddisp = normal_modes(dcov), normal_modes(ddisp)
        ref = family.eval(lam)
        assert np.array_equal(state.cov, ref.cov) and np.array_equal(state.disp, ref.disp)
        _, fd_cov, fd_disp = central_difference(family.eval)(lam)
        scale = max(np.max(np.abs(fd_cov)), np.max(np.abs(fd_disp)))
        err = max(np.max(np.abs(dcov - fd_cov)), np.max(np.abs(ddisp - fd_disp)))
        assert err <= 1e-7 * scale, (lam, err, scale)


@pytest.mark.parametrize(
    "eta1, lam0", [(0.0, 0.0), (1.0, 0.0), (0.0, 0.3), (0.5, 0.5), (0.5, -0.5)]
)
def test_tangent_outside_open_reflectivity_interval_raises(eta1, lam0):
    """eta1 or eta1 + lambda on the edge of [0, 1]: the family evaluates but
    has no derivative, and every kernel raises the domain error."""
    for probe in ("tmsv", "coherent"):
        family = bifrequency_received_state(BiFrequencyParams(eta1, lam0, 1.0, 1.0), probe)
        family.eval(lam0)
        for kernel in (qfi_gaussian, bf.qfi_complex_form, sld):
            with pytest.raises(ValueError, match="strictly in"):
                kernel(family)


@pytest.mark.parametrize(
    "eta1, n_s, n_th",
    [(0.5, 1e-6, 1e-6), (1e-6, 1.0, 1.0), (0.999999, 1.0, 1.0), (0.99, 1e-3, 1e-6)],
)
def test_complex_form_at_domain_edges(eta1, n_s, n_th):
    """Near the edges of the domain, where a difference step would leave
    [0, 1] or drown in round-off, the complex-form QFI keeps 2e-9; the
    worst of these points reads 8.5e-10, the coherent probe at
    (0.99, 1e-3, 1e-6)."""
    for probe, closed in (("tmsv", bf.hq_closed_form), ("coherent", bf.hc_closed_form)):
        family = bifrequency_received_state(BiFrequencyParams(eta1, 0.0, n_s, n_th), probe)
        ref = mp_closed_form(closed, eta1, n_s, n_th)
        value = bf.qfi_complex_form(family)
        assert float(abs(value - ref) / ref) < 2e-9, (probe, value, ref)


# the worst deviations of the seeded domain sweep, and the corner where the
# points above 1e-9 lie: 1 - eta1 and n_th small, where the stored covariance
# is 1 plus a small number whose digits it cannot keep
SWEEP_WORST = {"tmsv": 3.3e-7, "coherent": 4.2e-6}
SWEEP_CORNER = {"tmsv": (4e-4, 1e-2, 1e-3), "coherent": (4e-4, 200.0, 1e-2)}


def test_domain_sweep_matches_the_50_digit_closed_forms():
    """300 seeded points (seed 16), 1 - eta1 log-uniform in [1e-6, 0.98] and
    n_s, n_th log-uniform in [1e-6, 1e6]: both probes' QFI is within 1e-9 of
    the 50-digit closed forms except near the pure corner, where each point
    above 1e-9 has 1 - eta1, n_s and n_th below the probe's ``SWEEP_CORNER``
    and none exceeds 1.5 times the measured worst, ``SWEEP_WORST``: 3.2e-7
    for the entangled probe at (0.999993, 1.7e-5, 5.1e-6) and 4.2e-6 for the
    coherent probe at (0.999999, 1.8, 2.2e-5)."""
    rng = np.random.default_rng(16)
    tau = np.exp(rng.uniform(np.log(1e-6), np.log(0.98), 300))
    n_ss, n_ths = (np.exp(rng.uniform(np.log(1e-6), np.log(1e6), 300)) for _ in range(2))
    for t, n_s, n_th in zip(tau.tolist(), n_ss.tolist(), n_ths.tolist()):
        p = BiFrequencyParams(1.0 - t, 0.0, n_s, n_th)
        for probe, closed in (("tmsv", bf.hq_closed_form), ("coherent", bf.hc_closed_form)):
            ref = mp_closed_form(closed, p.eta1, n_s, n_th)
            deviation = float(abs(bf.qfi_complex_form(bifrequency_received_state(p, probe)) - ref) / ref)
            if deviation > 1e-9:
                corner = SWEEP_CORNER[probe]
                assert t < corner[0] and n_s < corner[1] and n_th < corner[2], (probe, p, deviation)
                assert deviation < 1.5 * SWEEP_WORST[probe], (probe, p, deviation)


def log_uniform(lo, hi):
    return st.floats(np.log(lo), np.log(hi)).map(lambda u: float(np.exp(u)))


def displaced_thermal_qfi(amp, n_s, n_th):
    """QFI over the amplitude reflectivity of the coherent quantum-illumination
    family: a displaced thermal mode of amplitude amp sqrt(n_s) and occupation
    N = n_th (1 - amp^2), so H = 4 n_s / (1 + 2 N) + N'^2 / (N (N + 1))."""
    occupation = n_th * (1 - amp**2)
    return 4 * n_s / (1 + 2 * occupation) + 4 * amp**2 * n_th**2 / (occupation * (occupation + 1))


@pytest.mark.parametrize("eta", [1e-4, 0.1, 0.37, 0.7, 0.95, 0.99])
def test_qi_classical_closed_form_at_finite_reflectivity(eta):
    """The closed form, with eta^2 reflected in power, matches the exact QFI
    of the displaced thermal state and the numeric family to 1e-9 over the
    qi-check photon numbers."""
    for n_s in (0.1, 0.5, 1.0):
        for n_th in (0.5, 2.0, 10.0):
            closed = bf.qi_classical_qfi(eta, n_s, n_th)
            ref = mp_closed_form(displaced_thermal_qfi, eta, n_s, n_th)
            assert float(abs(closed - ref) / ref) < 1e-9, (eta, n_s, n_th, closed, ref)
            numeric = qi_classical_qfi_numeric(eta, n_s, n_th)
            assert abs(numeric - closed) / closed < 1e-9, (eta, n_s, n_th, numeric, closed)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@example(eta1=1.0 - 1e-6, n_s=1e6, n_th=1e-6)
@example(eta1=1.0 - 1e-6, n_s=1e-6, n_th=1e-6)
@given(
    eta1=log_uniform(1e-6, 1.0 - 1e-6),
    n_s=log_uniform(1e-6, 1e6),
    n_th=log_uniform(1e-6, 1e6),
)
def test_complex_form_matches_closed_forms_over_the_domain(eta1, n_s, n_th):
    """Over the whole domain both probes' complex-form QFI match the 50-digit
    closed forms to 1e-6, or, where the stored moments cannot resolve that,
    to a few times their rounding bound; the tmsv observable is solved
    everywhere, and so is the single-mode coherent quantum-illumination
    family at amplitude reflectivity eta1.

    The two explicit examples are such corners for the coherent probe: at
    both its QFI is 1.1e-4 from the closed form (n_s = 1e-6) or 1.1e-10
    (n_s = 1e6), as is its rounding bound. The entangled probe reads 8.8e-17
    at n_s = 1e6 and 3.3e-5 at n_s = 1e-6, against a rounding bound of
    3.7e-5 there."""
    p = BiFrequencyParams(eta1, 0.0, n_s, n_th)
    for probe, closed in (("tmsv", bf.hq_closed_form), ("coherent", bf.hc_closed_form)):
        family = bifrequency_received_state(p, probe)
        ref = mp_closed_form(closed, eta1, n_s, n_th)
        value = bf.qfi_complex_form(family)
        tol = 1e-6 + 8.0 * rounding_bound(family)
        assert float(abs(value - ref) / ref) < tol, (probe, value, ref, tol)
    bf.optimal_observable(bifrequency_received_state(p, "tmsv"))
    ref = mp_closed_form(displaced_thermal_qfi, eta1, n_s, n_th)
    value = qi_classical_qfi_numeric(eta1, n_s, n_th)
    tol = 1e-6 + 8.0 * rounding_bound(_qi_classical_received(eta1, n_s, n_th))
    assert float(abs(value - ref) / ref) < tol, ("qi classical", value, ref, tol)


def test_two_sided_limit_consistency():
    """Evaluating at the working point agrees with extrapolating from +-eps."""
    eps = 2e-4
    for probe in ("tmsv", "coherent"):
        center = qfi_gaussian(
            bifrequency_received_state(BiFrequencyParams(0.6, 0.0, 1.0, 0.8), probe)
        ).value
        plus = qfi_gaussian(
            bifrequency_received_state(BiFrequencyParams(0.6, eps, 1.0, 0.8), probe)
        ).value
        minus = qfi_gaussian(
            bifrequency_received_state(BiFrequencyParams(0.6, -eps, 1.0, 0.8), probe)
        ).value
        assert abs(0.5 * (plus + minus) - center) / center < 1e-6


@pytest.mark.parametrize("eta1, n_s, n_th", [(0.85, 1.8995, 43.29), (0.5, 100.0, 0.001)])
def test_qfi_where_discriminant_rounds_negative(eta1, n_s, n_th):
    """The symplectic discriminant rounds to about -1e-8 here; only a bound that
    scales with the covariance tells that round-off from an unphysical state."""
    hq = qfi_gaussian(tmsv_family(eta1, n_s, n_th)).value
    hc = qfi_gaussian(coherent_family(eta1, n_s, n_th)).value
    assert abs(hq - bf.hq_closed_form(eta1, n_s, n_th)) / bf.hq_closed_form(eta1, n_s, n_th) < 1e-6
    assert abs(hc - bf.hc_closed_form(eta1, n_s, n_th)) / bf.hc_closed_form(eta1, n_s, n_th) < 1e-6


def counted(family):
    """The family with call counters: (family, {"eval": [...], "tangent": [...]}),
    each list holding the parameters it was called at."""
    calls = {"eval": [], "tangent": []}

    def counter(name):
        def call(lam):
            calls[name].append(lam)
            return getattr(family, name)(lam)

        return call

    return dataclasses.replace(family, eval=counter("eval"), tangent=counter("tangent")), calls


def test_log_uniform_sweep_matches_closed_forms():
    """Both numeric routes agree with the closed forms over a seeded box.

    eta1 ~ U[0.02, 0.98], n_s ~ logU[1e-3, 1e2], n_th ~ logU[1e-3, 316]; all
    public kernels on one family together ask for exactly one tangent and no
    evaluation.
    """
    rng = np.random.default_rng(20150716)
    n = 120
    etas = rng.uniform(0.02, 0.98, n)
    n_ss = np.exp(rng.uniform(np.log(1e-3), np.log(1e2), n))
    n_ths = np.exp(rng.uniform(np.log(1e-3), np.log(316.0), n))
    kernels = {
        "qfi_gaussian": lambda f: qfi_gaussian(f).value,
        "qfi_complex_form": bf.qfi_complex_form,
        "sld": sld,
        "optimal_observable": bf.optimal_observable,
    }
    for eta1, n_s, n_th in zip(etas, n_ss, n_ths):
        p = BiFrequencyParams(eta1, 0.0, n_s, n_th)
        refs = {"tmsv": bf.hq_closed_form(eta1, n_s, n_th), "coherent": bf.hc_closed_form(eta1, n_s, n_th)}
        for probe, ref in refs.items():
            family, calls = counted(bifrequency_received_state(p, probe))
            for name, kernel in kernels.items():
                if name == "optimal_observable" and probe != "tmsv":
                    continue  # the coherent probe's observable is not pair-correlated
                value = kernel(family)
                if name.startswith("qfi"):
                    assert abs(value - ref) / ref < 1e-6, (name, probe, eta1, n_s, n_th, value, ref)
            assert calls == {"eval": [], "tangent": [0.0]}, (probe, eta1, n_s, n_th, calls)


# --- the per-family memo ------------------------------------------------------

def _kernel_outputs(family, order):
    """The repr of every kernel's result on ``family``, run in ``order``; the
    form's arrays as bytes, so that equal reprs mean equal bits."""
    kernels = {
        "qfi_gaussian": lambda f: dataclasses.astuple(qfi_gaussian(f)),
        "qfi_result": lambda f: dataclasses.astuple(bf.qfi_result(f)),
        "qfi_complex_form": bf.qfi_complex_form,
        "sld": lambda f: [
            a.tobytes() if isinstance(a, np.ndarray) else a
            for a in dataclasses.astuple(sld(f))
        ],
        "optimal_observable": lambda f: bf.optimal_observable(f).as_tuple(),
    }
    return {name: repr(kernels[name](family)) for name in order}


def test_kernels_on_a_shared_family_match_fresh_families():
    """One family read by every kernel, in either order, gives bit for bit what
    a fresh family per kernel gives."""
    rng = np.random.default_rng(4242)
    forward = ["qfi_gaussian", "qfi_result", "qfi_complex_form", "sld", "optimal_observable"]
    for eta1, n_s, n_th in zip(rng.uniform(0.05, 0.95, 12), 10.0 ** rng.uniform(-2, 1, 12),
                               10.0 ** rng.uniform(-2, 0.7, 12)):
        p = BiFrequencyParams(eta1, 0.0, n_s, n_th)
        for probe in ("tmsv", "coherent"):
            order = forward if probe == "tmsv" else forward[:-1]
            fresh = {
                name: _kernel_outputs(bifrequency_received_state(p, probe), [name])[name]
                for name in order
            }
            for run in (order, order[::-1]):
                assert _kernel_outputs(bifrequency_received_state(p, probe), run) == fresh


def test_memoised_arrays_are_read_only():
    from bifrost.sld import _solve

    family = bifrequency_received_state(BiFrequencyParams(0.7, 0.0, 0.5, 0.3), "coherent")
    state, dcov, ddisp = family.derivative()
    assert family.derivative()[1] is dcov
    arrays = [field for field in _solve(family) if isinstance(field, np.ndarray)]
    for array in (state.cov, state.disp, dcov, ddisp, *arrays):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    form = sld(family)
    expected = form.quad.copy()
    form.quad[:] = 0.0
    form.center[:] = 0.0
    assert np.array_equal(sld(family).quad, expected)
    assert sld(family).center.any()
    assert bf.qfi_complex_form(family) == bf.qfi_complex_form(
        bifrequency_received_state(BiFrequencyParams(0.7, 0.0, 0.5, 0.3), "coherent")
    )


def test_a_failed_tangent_is_asked_for_again():
    family, calls = counted(bifrequency_received_state(BiFrequencyParams(1.0, 0.0, 1.0, 1.0), "tmsv"))
    for _ in range(2):
        with pytest.raises(ValueError, match="strictly in"):
            family.derivative()
    assert calls["tangent"] == [0.0, 0.0]


def test_replace_starts_a_fresh_memo():
    """The memo is no field: equality and hashing ignore it, and a replaced
    family asks its own tangent."""
    family = bifrequency_received_state(BiFrequencyParams(0.6, 0.0, 1.0, 1.0), "tmsv")
    plain = dataclasses.replace(family)
    family.derivative()
    assert family == plain and hash(family) == hash(plain)
    counted_family, calls = counted(family)
    moved = dataclasses.replace(counted_family, lambda0=0.01)
    counted_family.derivative()
    moved.derivative()
    moved.derivative()
    assert calls["tangent"] == [0.0, 0.01]
    assert not np.array_equal(moved.derivative()[0].cov, family.derivative()[0].cov)


# --- closed forms -----------------------------------------------------------

def test_hc_values():
    assert np.isclose(bf.hc_closed_form(0.5, 1.0, 0.0), 2.0, rtol=1e-12)
    assert np.isclose(bf.hc_closed_form(0.5, 0.0, 1.0), 4.0 / 3.0, rtol=1e-12)


def test_hc_equivalent_form():
    """The thermal part equals n_th / (tau (tau n_th + 1))."""
    for eta1, n_th in [(0.3, 0.6), (0.8, 4.0)]:
        tau = 1.0 - eta1
        expected = n_th / (tau * (tau * n_th + 1.0)) + 2.0 / (eta1 * (1.0 + 2.0 * n_th * tau))
        assert np.isclose(bf.hc_closed_form(eta1, 2.0, n_th), expected, rtol=1e-12)


def test_hc_matches_numeric():
    value = qfi_gaussian(coherent_family(0.3, 2.0, 1.5)).value
    assert np.isclose(value, bf.hc_closed_form(0.3, 2.0, 1.5), rtol=1e-6)


def test_hq_zero_signal_limit():
    eta1, n_th = 0.4, 1.3
    tau = 1.0 - eta1
    expected = (
        n_th**2
        * (2.0 * tau * n_th * (tau * n_th + 1.0) + 1.0)
        / (
            tau
            * n_th
            * (n_th * tau + 1.0)
            * (2.0 * n_th * tau + 2.0 * n_th**2 * tau**2 + 1.0)
        )
    )
    assert np.isclose(bf.hq_closed_form(eta1, 0.0, n_th), expected, rtol=1e-12)
    # numeric cross-check slightly away from zero signal
    numeric = qfi_gaussian(tmsv_family(eta1, 1e-6, n_th)).value
    assert np.isclose(numeric, expected, rtol=1e-4)


def test_hq_positive_on_grid():
    for eta1 in np.linspace(0.1, 0.9, 5):
        for n_s in np.linspace(0.1, 5.0, 5):
            for n_th in np.linspace(0.0, 5.0, 5):
                assert bf.hq_closed_form(eta1, n_s, n_th) > 0.0


def test_closed_form_domain_errors():
    with pytest.raises(ValueError):
        bf.hq_closed_form(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        bf.hq_closed_form(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        bf.hc_closed_form(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        bf.hq_closed_form(0.5, 0.0, 0.0)
    for closed_form in (bf.hq_closed_form, bf.hc_closed_form):
        for bad in (np.nan, np.inf, 1e300):
            with pytest.raises(ValueError, match=DOMAIN_ERROR):
                closed_form(0.5, bad, 1.0)
            with pytest.raises(ValueError, match=DOMAIN_ERROR):
                closed_form(0.5, 1.0, bad)
            with pytest.raises(ValueError, match=DOMAIN_ERROR):
                closed_form(0.5, 1.0, np.array([1.0, bad]))
        with pytest.raises(ValueError):
            closed_form(np.array([0.5, 1.0]), 1.0, 1.0)
    with pytest.raises(ValueError, match="no photons anywhere"):
        bf.hq_closed_form(0.5, np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))


def test_hc_rejects_thermal_occupation_below_resolution():
    """Where 1 + 2 n_th (1 - eta1) rounds to 1 for n_th > 0 the thermal part
    would be 0 / 0; the domain error names the occupation instead. Inside
    the photon-number domain this takes eta1 within about 5.5e-11 of 1."""
    for eta1, n_th in ((1.0 - 1e-11, 1e-6), (1.0 - 1e-12, 5e-5), (1.0 - 2.0**-53, 0.25)):
        with pytest.raises(ValueError, match=f"thermal occupation {n_th!r} too small"):
            bf.hc_closed_form(eta1, 1.0, n_th)
    with pytest.raises(ValueError, match="thermal occupation 1e-06 too small"):
        bf.hc_closed_form(np.array([[0.5], [1.0 - 1e-11]]), 1.0, np.array([0.0, 1e-6, 1.0]))
    # occupations that do resolve there, and zero, still evaluate
    assert bf.hc_closed_form(0.5, 1.0, 0.0) == 2.0
    assert np.isfinite(bf.hc_closed_form(1.0 - 1e-11, 1.0, 1e-5))
    assert np.isfinite(bf.hc_closed_form(1.0 - 2.0**-53, 1.0, 1e6))
    # the occupations that could not resolve at smaller eta1 leave the domain
    for n_th in (1e-300, 1e-16, 5e-14):
        with pytest.raises(ValueError, match=DOMAIN_ERROR):
            bf.hc_closed_form(0.5, 1.0, n_th)


def _photon_number_calls():
    """Each public function that takes a photon number, as a function of it."""
    from bifrost import fock
    from bifrost.sld import coherent_observable, sld_coeffs_closed_form

    return [
        bf.thermal,
        bf.tmsv,
        bf.jpa_circuit_solve,
        lambda n: bf.ratio_high_reflectivity(n, 1.0),
        lambda n: bf.ratio_high_reflectivity(1.0, n),
        bf.ratio_noisy_limit,
        lambda n: bf.qi_quantum_qfi(n, 1.0),
        lambda n: bf.qi_quantum_qfi(1.0, n),
        lambda n: bf.qi_classical_qfi(0.1, n, 1.0),
        lambda n: bf.qi_classical_qfi(0.1, 1.0, n),
        lambda n: bf.qi_ratio(n, 1.0),
        lambda n: bf.qi_ratio(1.0, n),
        lambda n: sld_coeffs_closed_form(0.5, n, 1.0),
        lambda n: sld_coeffs_closed_form(0.5, 1.0, n),
        lambda n: coherent_observable(0.5, n, 1.0),
        lambda n: coherent_observable(0.5, 1.0, n),
        lambda n: fock.ThermalLossChannel(0.5, n, 10),
        lambda n: fock.bifrequency_fock_family(0.5, n, 0.1, "tmsv", 10),
        lambda n: fock.bifrequency_fock_family(0.5, n, 0.1, "coherent", 10),
        lambda n: fock.bifrequency_fock_family(0.5, 0.1, n, "coherent", 10),
        lambda n: bf.qi_quantum_qfi_numeric(0.1, n, 1.0),
        lambda n: bf.qi_quantum_qfi_numeric(0.1, 1.0, n),
        lambda n: bf.qi_classical_qfi_numeric(0.1, n, 1.0),
        lambda n: bf.qi_classical_qfi_numeric(0.1, 1.0, n),
        lambda n: BiFrequencyParams(0.5, 0.0, n, 1.0),
        lambda n: BiFrequencyParams(0.5, 0.0, 1.0, n),
    ]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_photon_number_checks_reject_non_finite_values(bad):
    """Every function that takes a photon number rejects NaN, inf and
    negative values with the one domain message."""
    for call in _photon_number_calls():
        with pytest.raises(ValueError, match=f"^{DOMAIN_ERROR}$"):
            call(bad)


@pytest.mark.parametrize("bad", [5e-324, np.nextafter(1e-6, 0.0), np.nextafter(1e6, np.inf), 1e300])
def test_photon_number_checks_reject_values_outside_the_domain(bad):
    """The domain is 0 or [1e-6, 1e6]: every function that takes a photon
    number rejects a finite value just outside it, or far outside it, with
    the one domain message, and accepts both bounds."""
    for call in _photon_number_calls():
        with pytest.raises(ValueError, match=f"^{DOMAIN_ERROR}$"):
            call(bad)
    for bound in (1e-6, 1e6):
        check_photon_numbers(bound, np.array([0.0, bound]))


EDGE_ETA = [1e-6, 0.5, 0.999999]
EDGE_PHOTONS = [1e-6, 1e-3, 1.0, 1e3, 1e6]


@pytest.mark.parametrize(
    "etas, n_ss, n_ths",
    [
        (np.linspace(0.75, 0.95, 3), np.linspace(0.01, 2.0, 100), np.geomspace(0.01, 100.0, 100)),
        (np.linspace(0.05, 0.95, 7), np.linspace(0.1, 5.0, 40), np.linspace(0.0, 50.0, 60)),
        (EDGE_ETA, [0.0] + EDGE_PHOTONS, EDGE_PHOTONS),
        (EDGE_ETA, EDGE_PHOTONS, [0.0] + EDGE_PHOTONS),
    ],
    ids=["benchmark-grid", "linear-nth", "edge-zero-signal", "edge-zero-thermal"],
)
def test_array_closed_forms_match_scalar_calls_bit_for_bit(etas, n_ss, n_ths):
    """On broadcast axes the closed forms give, bit for bit and without a
    warning, what one scalar call per grid point gives."""
    etas, n_ss, n_ths = (np.asarray(a, dtype=float) for a in (etas, n_ss, n_ths))
    eta, n_s, n_th = etas[:, None, None], n_ss[None, :, None], n_ths[None, None, :]
    points = [(e, s, t) for e in etas.tolist() for s in n_ss.tolist() for t in n_ths.tolist()]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for closed_form in (bf.hq_closed_form, bf.hc_closed_form):
            grid = closed_form(eta, n_s, n_th)
            rows = np.array([closed_form(e, s, t) for e, s, t in points])
            assert grid.shape == (len(etas), len(n_ss), len(n_ths))
            assert np.array_equal(grid.ravel(), rows), closed_form.__name__


def test_ratio_high_reflectivity_values():
    assert np.isclose(bf.ratio_high_reflectivity(0.0, 2.0), 1.0, rtol=1e-12)
    assert np.isclose(bf.ratio_high_reflectivity(1.0, 1e6), 2.6, rtol=1e-6)
    with pytest.raises(ValueError):
        bf.ratio_high_reflectivity(1.0, 0.0)


def test_ratio_high_reflectivity_consistent_with_closed_forms():
    eta1 = 1.0 - 1e-6
    n_s, n_th = 1.0, 2.0
    ratio = bf.hq_closed_form(eta1, n_s, n_th) / bf.hc_closed_form(eta1, n_s, n_th)
    assert np.isclose(ratio, bf.ratio_high_reflectivity(n_s, n_th), rtol=1e-4)


def test_ratio_noisy_limit_values():
    assert bf.ratio_noisy_limit(0.0) == 1.0
    assert np.isclose(bf.ratio_noisy_limit(1.0), 2.6, rtol=1e-15)
    for n_s in (0.5, 1.0, 5.0):
        assert np.isclose(
            bf.ratio_high_reflectivity(n_s, 1e4), bf.ratio_noisy_limit(n_s), rtol=1e-2
        )


def test_advantage_monotone_in_reflectivity():
    ratios = []
    for eta1 in (0.5, 0.75, 0.9, 0.95):
        ratios.append(bf.hq_closed_form(eta1, 1.0, 1.0) / bf.hc_closed_form(eta1, 1.0, 1.0))
    assert all(b >= a for a, b in zip(ratios, ratios[1:]))
