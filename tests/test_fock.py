"""Truncated Fock-space oracle against the Gaussian machinery."""

import ast
import importlib
import pathlib
import re
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bifrost as bf
from bifrost import fock, validate
from bifrost.errors import CutoffTooSmallError

import fock_reference


def mean_photon(rho: np.ndarray) -> float:
    return float(np.trace(rho @ np.diag(np.arange(len(rho)))).real)


# --- states -------------------------------------------------------------

def test_fock_state_keeps_its_dtype():
    """Real matrices stay float64 and complex ones complex; the hermiticity
    check runs in either dtype with its tolerance of 1e-12."""
    assert fock.fock_coherent(0.5, 10).dtype == np.float64
    assert fock.fock_coherent(0.5j, 10).dtype == np.complex128
    integer = fock.FockState.product(np.eye(2, dtype=int), np.eye(2, dtype=int))
    assert all(factor.dtype == np.float64 for factor in integer.factors)
    family = fock.bifrequency_fock_family(0.6, 0.1, 0.1, "tmsv", 10)
    assert family(0.0).stack.dtype == family(0.0).tangent.dtype == np.float64
    coherent = fock.bifrequency_fock_family(0.6, 0.1, 0.1, "coherent", 10)(0.0)
    assert all(m.dtype == np.float64 for m in (*coherent.factors, coherent.tangent))

    real = np.diag([0.5, 0.25, 0.25, 0.0])
    assert fock.FockState.product(real, real).factors[1] is real
    complex_rho = real.astype(complex)
    complex_rho[0, 1], complex_rho[1, 0] = 0.1j, -0.1j
    assert fock.FockState.product(real, complex_rho).factors[1].dtype == np.complex128

    with pytest.raises(ValueError, match="non-hermitian"):
        fock.FockState.product(real, np.full((4, 4), np.nan))
    for size in (5e-13, 2e-12):
        asymmetric = real.copy()
        asymmetric[0, 1] = size
        non_hermitian = complex_rho.copy()
        non_hermitian[0, 1] += size * 1j
        for rho in (asymmetric, non_hermitian):
            if size < 1e-12:
                fock.FockState.product(real, rho)
            else:
                with pytest.raises(ValueError, match="non-hermitian"):
                    fock.FockState.product(real, rho)


def test_hermiticity_check_is_the_dense_maximum():
    """On several sizes the check reports the dense maximum of
    |rho - rho^dag|, and a NaN anywhere fails it."""
    rng = np.random.default_rng(11)
    for size in (128, 257, 300):
        for dtype in (float, complex):
            m = rng.standard_normal((size, size))
            if dtype is complex:
                m = m + 1j * rng.standard_normal((size, size))
            rho = (m + m.conj().T) / 2.0
            assert fock.FockState.product(rho, rho).factors[0] is rho
            skew = rho.copy()
            skew[size - 2, 3] += 3e-9  # below the diagonal, in the last tile row
            skew[1, 2] += 1e-9
            dense = np.max(np.abs(skew - skew.conj().T))
            with pytest.raises(ValueError, match=f"^density matrix non-hermitian by {dense:.3e}$"):
                fock.FockState.product(rho, skew)
            rho[5, size - 1] = np.nan
            with pytest.raises(ValueError, match="non-hermitian by nan"):
                fock.FockState.product(rho, rho)


def test_product_state_keeps_its_factors():
    """The coherent received state is kept as its two one-mode factors, each
    checked on its own, and no stack."""
    cutoff = 12
    family = fock.bifrequency_fock_family(0.6, 0.1, 0.2, "coherent", cutoff)
    state = family(0.01)
    first, second = state.factors
    assert first.shape == second.shape == state.tangent.shape == (cutoff, cutoff)
    assert state.dim == cutoff and state.stack is None
    assert fock.bifrequency_fock_family(0.6, 0.1, 0.2, "tmsv", cutoff)(0.0).factors is None

    skew = second.copy()
    skew[0, 1] += 2e-12
    with pytest.raises(ValueError, match="non-hermitian"):
        fock.FockState.product(first, skew)
    with pytest.raises(ValueError, match="shape"):
        fock.FockState.product(first, second[:-1, :-1])


def test_entangled_state_keeps_its_sectors():
    """The received two-mode squeezed state is kept as its 2 cutoff - 1
    blocks of fixed n1 - n2 in one zero-padded stack, checked at once: the
    sector at row q holds the states of n1 - n2 = q + 1 - cutoff, ascending
    in n1, in its leading corner. A skew sector, a wrong sector count and a
    nonzero padding entry are each rejected."""
    cutoff = 12
    state = fock.bifrequency_fock_family(0.6, 0.1, 0.2, "tmsv", cutoff)(0.01)
    assert state.factors is None
    stack = state.stack
    assert stack.shape == (2 * cutoff - 1, cutoff, cutoff)
    layout = fock._sector_layout(cutoff)
    shifts = []
    for q, (idx, block, dblock) in enumerate(fock._blockwise(state)):
        n1, n2 = np.divmod(idx, cutoff)
        assert len(set(n1 - n2)) == 1 and np.all(np.diff(n1) == 1)
        assert block.shape == dblock.shape == (len(idx), len(idx)) and block.dtype == np.float64
        assert np.shares_memory(block, stack) and np.shares_memory(dblock, state.tangent)
        assert np.array_equal(layout.indices[q, : len(idx)], idx)
        assert not stack[q][layout.padding[q]].any()
        shifts.append(int(n1[0] - n2[0]))
    assert shifts == list(range(1 - cutoff, cutoff))

    rebuilt = fock.FockState.sectors(stack.copy())
    assert np.array_equal(rebuilt.stack, stack) and rebuilt.tangent is None
    skew = stack.copy()
    skew[cutoff][0, 1] += 2e-12
    with pytest.raises(ValueError, match="non-hermitian"):
        fock.FockState.sectors(skew)
    with pytest.raises(ValueError):
        fock.FockState.sectors(stack[:-1])
    # sector n1 - n2 = 1 - cutoff holds the one state |0, cutoff - 1>
    padded = stack.copy()
    padded[0][2, 3] = padded[0][3, 2] = 0.1
    with pytest.raises(ValueError, match="padding"):
        fock.FockState.sectors(padded)
    padded[0][2, 3] = padded[0][3, 2] = np.nan
    with pytest.raises(ValueError):
        fock.FockState.sectors(padded)


@pytest.mark.parametrize("probe", ["tmsv", "coherent"])
def test_trace_is_read_off_the_structure(probe):
    """Tr A Tr B for a product, the sum of the sector traces for a state
    kept as sectors: both equal the trace of the dense matrix to 1e-15."""
    family = fock.bifrequency_fock_family(0.8, 0.5, 0.3, probe, 30)
    for lam in (0.0, 0.03):
        state = family(lam)
        if probe == "coherent":
            trace = state.factors[0].trace() * state.factors[1].trace()
        else:
            trace = np.trace(state.stack, axis1=1, axis2=2).sum()
        assert abs(trace - np.trace(fock_reference.dense(state))) < 1e-15
        assert abs(trace - 1.0) < 1e-6


def test_package_keeps_no_dense_two_mode_state():
    """No module of the package calls ``np.kron``, and a Fock state has
    exactly the slots of its two forms: a new dense route fails here."""
    package = pathlib.Path(fock.__file__).parent
    callers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if getattr(node, "attr", getattr(node, "id", None)) == "kron":
                callers.add(path.name)
    assert callers == set()
    assert fock.FockState.__slots__ == ("factors", "stack", "dim", "tangent")
    constructors = {
        name for name, value in vars(fock.FockState).items() if isinstance(value, classmethod)
    }
    assert constructors == {"product", "sectors"} and "__init__" not in vars(fock.FockState)


def test_fock_constructors_reject_non_finite_inputs():
    """NaN photon numbers, amplitudes and tail masses raise domain errors
    instead of building NaN blocks or failing later as non-hermitian."""
    for n_th in (np.nan, np.inf, -0.1):
        with pytest.raises(ValueError, match="^photon numbers must be finite and nonnegative$"):
            fock.ThermalLossChannel(0.5, n_th, 10)
    for alpha in (np.nan, np.inf, complex(0.3, np.nan), complex(np.inf, 0.0)):
        with pytest.raises(ValueError, match="^coherent amplitude must be finite$"):
            fock.fock_coherent(alpha, 10)
    with pytest.raises(CutoffTooSmallError):
        fock._gate_cutoff(np.nan, 10, "thermal")
    fock._gate_cutoff(0.0, 10, "thermal")


def test_coherent_state_holds_at_large_photon_numbers():
    """Each amplitude is formed in log space, so the cutoffs that hold mean
    photon numbers 144 and 900 pass the gate, with no power or factorial
    leaving the float range. Their trace and mean photon number are off by
    4.6e-12 relative at worst, the round-off of logarithms near 6,000. The
    amplitudes of a complex alpha match 30-digit ones to 1e-15, and
    alpha = 0 gives the vacuum."""
    for alpha, cutoff in ((12.0, 400), (30.0, 1200)):
        populations = np.diagonal(fock.fock_coherent(alpha, cutoff))
        assert abs(populations.sum() - 1.0) < 1e-11
        assert abs(populations @ np.arange(cutoff) - alpha**2) < 1e-11 * alpha**2
    alpha, cutoff = 1.5 - 0.5j, 20
    with mpmath.workdps(30):
        a = mpmath.mpc(alpha)
        amps = [mpmath.exp(-abs(a) ** 2 / 2) * a**n / mpmath.sqrt(mpmath.factorial(n)) for n in range(cutoff)]
        expected = np.array([complex(x * mpmath.conj(y)) for x in amps for y in amps]).reshape(cutoff, cutoff)
    assert np.max(np.abs(fock.fock_coherent(alpha, cutoff) - expected)) < 1e-15
    vacuum = np.zeros((cutoff, cutoff))
    vacuum[0, 0] = 1.0
    assert np.array_equal(fock.fock_coherent(0.0, cutoff), vacuum)


def test_thermal_vacuum_limit():
    rho = fock_reference.fock_thermal(0.0, 10)
    expected = np.zeros((10, 10))
    expected[0, 0] = 1.0
    assert np.allclose(rho, expected)


def test_thermal_mean_and_trace():
    rho = fock_reference.fock_thermal(0.5, 40)
    assert abs(mean_photon(rho) - 0.5) < 1e-10
    assert abs(np.trace(rho) - 1.0) < 1e-10


def test_thermal_cutoff_gate():
    """The gate refuses a cutoff that leaves too much tail; an empty cutoff
    leaves all of it, a vacuum probe included."""
    with pytest.raises(CutoffTooSmallError):
        fock_reference.fock_thermal(5.0, 30)
    with pytest.raises(CutoffTooSmallError, match="two-mode squeezed"):
        fock.bifrequency_fock_family(0.5, 0.0, 0.0, "tmsv", 0)


def test_tmsv_vacuum_limit():
    rho = fock_reference.fock_tmsv(0.0, 5)
    assert np.isclose(rho[0, 0], 1.0)
    assert np.isclose(np.abs(rho).sum(), 1.0)


def test_tmsv_purity_and_reduced_covariance():
    rho = fock_reference.fock_tmsv(0.5, 39)
    purity = float(np.trace(rho @ rho))
    assert abs(purity - 1.0) < 1e-9
    reduced = fock_reference.fock_partial_trace(rho, 39, 2, [0])
    assert abs(mean_photon(reduced) - 1.0) < 1e-6  # per-mode photon number 2 n_s
    cov, disp = fock_reference.dense_moments(rho, 39, 2)
    assert np.max(np.abs(cov - bf.tmsv(0.5).cov)) < 1e-6
    assert np.max(np.abs(disp)) < 1e-12


def test_coherent_family_with_given_cutoff_loads_no_scipy():
    """A whole oracle pass at a given cutoff, as the benchmark makes it (the
    QFI and the SLD report of both probes, the moments of both received
    states), loads no scipy module."""
    code = (
        "import sys\n"
        "from bifrost import fock, validate\n"
        "for probe in ('tmsv', 'coherent'):\n"
        "    family = fock.bifrequency_fock_family(0.8, 0.5, 0.3, probe, 22)\n"
        "    fock.qfi_eq1(family)\n"
        "    validate.sld_fock_report(0.8, 0.5, 0.3, probe, 22)\n"
        "    fock.quadrature_moments(family(0.0))\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_quadrature_moments_three_mode_product():
    """Moments of a three-mode state come from its one- and two-mode marginals."""
    cutoff = 10
    pair, single = fock_reference.fock_tmsv(0.05, cutoff), fock.fock_coherent(0.5, cutoff)
    cov, disp = fock_reference.dense_moments(np.kron(pair, single), cutoff, 3)
    expected = bf.tensor(bf.tmsv(0.05), bf.coherent(0.5))
    assert np.max(np.abs(cov - expected.cov)) < 1e-8
    assert np.max(np.abs(disp - expected.disp)) < 1e-8


def test_coherent_moments():
    cov, disp = fock_reference.dense_moments(fock.fock_coherent(0.9, 17), 17, 1)
    assert np.max(np.abs(cov - np.eye(2))) < 1e-8
    assert np.allclose(disp, [0.9 * np.sqrt(2.0), 0.0], atol=1e-9)


# largest deviation measured at the oracle configurations, cutoff 30, was
# 1.3e-15 on moments of order 1: a few ulps of summation order
MOMENTS_ROUNDOFF = 2e-15


@pytest.mark.parametrize("probe", ["tmsv", "coherent"])
def test_moments_read_off_the_structure(probe):
    """At every oracle configuration the moments read off the factors or the
    sectors equal, to MOMENTS_ROUNDOFF, the traces of the same state made
    dense against full-space operators."""
    cutoff = 30
    for config in validate.ORACLE_CONFIGS:
        state = fock.bifrequency_fock_family(*config, probe, cutoff)(0.0)
        cov, disp = fock.quadrature_moments(state)
        cov_dense, disp_dense = fock_reference.dense_moments(fock_reference.dense(state), cutoff, 2)
        assert np.max(np.abs(cov - cov_dense)) <= MOMENTS_ROUNDOFF, config
        assert np.max(np.abs(disp - disp_dense)) <= MOMENTS_ROUNDOFF, config


# --- beam splitter --------------------------------------------------------

def test_beam_splitter_full_reflection_is_identity():
    u = fock_reference.fock_beam_splitter(1.0, 12)
    assert np.allclose(u, np.eye(144))


def test_beam_splitter_zero_reflectivity_swaps():
    """At eta = 0 the kept slot carries the other input (mode swap with sign)."""
    u = fock_reference.fock_beam_splitter(0.0, 18)
    joint = np.kron(fock_reference.fock_thermal(0.3, 18), fock.fock_coherent(0.5, 18))
    kept = fock_reference.fock_partial_trace(u @ joint @ u.conj().T, 18, 2, [1])
    cov, disp = fock_reference.dense_moments(kept, 18, 1)
    assert np.max(np.abs(cov - bf.thermal(0.3).cov)) < 1e-8
    assert np.max(np.abs(disp)) < 1e-9


def test_beam_splitter_unitary_interior():
    cutoff = 20
    u = fock_reference.fock_beam_splitter(0.42, cutoff)
    defect = u.conj().T @ u - np.eye(cutoff * cutoff)
    totals = (np.arange(cutoff)[:, None] + np.arange(cutoff)[None, :]).ravel()
    interior = totals < cutoff - 5
    assert np.max(np.abs(defect[np.ix_(interior, interior)])) < 1e-9


def test_beam_splitter_moments_match_gaussian():
    cutoff = 30
    joint = np.kron(fock_reference.fock_thermal(0.4, cutoff), fock.fock_coherent(0.8, cutoff))
    u = fock_reference.fock_beam_splitter(0.3, cutoff)
    cov_f, disp_f = fock_reference.dense_moments(u @ joint @ u.conj().T, cutoff, 2)
    expected = bf.apply(bf.beam_splitter(0.3), bf.tensor(bf.thermal(0.4), bf.coherent(0.8)))
    assert np.max(np.abs(cov_f - expected.cov)) < 1e-6
    assert np.max(np.abs(disp_f - expected.disp)) < 1e-6


# --- channels -------------------------------------------------------------

def test_loss_channel_matches_gaussian_received_state():
    eta1, lam, n_s, n_th, cutoff = 0.7, 0.03, 0.4, 0.3, 25
    family = fock.bifrequency_fock_family(eta1, n_s, n_th, "tmsv", cutoff)
    cov, disp = fock.quadrature_moments(family(lam))
    from bifrost.protocols import BiFrequencyParams, bifrequency_received_state

    expected = bifrequency_received_state(
        BiFrequencyParams(eta1, 0.0, n_s, n_th), "tmsv"
    ).eval(lam)
    assert np.max(np.abs(cov - expected.cov)) < 1e-5
    assert np.max(np.abs(disp)) < 1e-9


def test_loss_channel_coherent_displacement():
    eta1, n_s, n_th, cutoff = 0.6, 0.5, 0.2, 25
    family = fock.bifrequency_fock_family(eta1, n_s, n_th, "coherent", cutoff)
    cov, disp = fock.quadrature_moments(family(0.0))
    alpha = np.sqrt(n_s)
    expected = alpha * np.array([np.sqrt(2 * eta1), 0.0, np.sqrt(2 * eta1), 0.0])
    assert np.allclose(disp, expected, atol=1e-7)


# reflectivities and baths of the reference checks of the channel blocks
CHANNEL_POINTS = [(0.8, 0.3), (0.37, 0.15), (0.5, 1.0), (0.8, 0.0), (0.05, 2.0)]


def test_channel_blocks_match_kraus_superoperator():
    """Blocks and their eta-derivatives against the untruncated 40-digit
    Kraus sums of ``fock_reference.kraus_blocks``, to 1e-14 (measured
    2.7e-15 at worst), on a cutoff-10 channel and on the low levels of a
    cutoff-60 one. A vacuum bath given as -0.0 gives the blocks of +0.0,
    signed zeros aside."""
    levels = 10
    for eta, n_th in CHANNEL_POINTS:
        blocks = fock_reference.kraus_blocks(eta, n_th, levels)
        dblocks = fock_reference.kraus_dblocks(eta, n_th, levels)
        for cutoff in (levels, 60):
            channel = fock.ThermalLossChannel(eta, n_th, cutoff)
            for k in range(levels):
                size = levels - k
                assert np.max(np.abs(channel.blocks[k][:size, :size] - blocks[k])) < 1e-14, (eta, n_th, k)
                assert np.max(np.abs(channel.dblocks[k][:size, :size] - dblocks[k])) < 1e-14, (eta, n_th, k)
    vacuum, signed = (fock.ThermalLossChannel(0.37, n_th, levels) for n_th in (0.0, -0.0))
    for block, same in zip(vacuum.blocks + vacuum.dblocks, signed.blocks + signed.dblocks):
        assert np.all(block == same)


@pytest.mark.parametrize("eta, n_th", [(0.8, 0.3), (0.37, 0.15), (0.8, 0.0)])
def test_channel_blocks_match_beam_splitter_dilation(eta, n_th):
    """The amplifier after loss is the thermal-loss channel: on the levels
    below 10, its blocks are within 1e-14 (measured 4.9e-15 at worst) of
    the beam-splitter dilation with a thermal bath, both truncated at 40,
    where the bath's tail is below 1e-25."""
    reference = fock_reference.dilation_blocks(eta, n_th, 40, 10)
    channel = fock.ThermalLossChannel(eta, n_th, 10)
    for block, expected in zip(channel.blocks, reference):
        assert np.max(np.abs(block - expected)) < 1e-14


@pytest.mark.parametrize("eta, n_th", [(0.8, 0.3), (0.5, 1.0), (0.37, 0.0), (0.9, 2.0)])
def test_channel_dblocks_match_central_difference(eta, n_th):
    """Every block of a cutoff-60 channel, the levels near the cutoff
    included, has as its eta-derivative the central difference of the
    channels at eta +- 1e-6, to 1e-8 (measured 7.5e-10 at worst)."""
    cutoff, step = 60, 1e-6
    channel = fock.ThermalLossChannel(eta, n_th, cutoff)
    up, down = (fock.ThermalLossChannel(eta + h, n_th, cutoff) for h in (step, -step))
    for k, dblock in enumerate(channel.dblocks):
        difference = (up.blocks[k] - down.blocks[k]) / (2.0 * step)
        assert np.max(np.abs(dblock - difference)) < 1e-8, k


def test_package_imports_no_scipy_linalg():
    """The Fock oracle and the Gaussian engine run on numpy alone: scipy
    ships its own BLAS, whose thread pool contends with numpy's, and numpy
    is the one runtime dependency. No module of the package imports any
    part of scipy."""
    package = pathlib.Path(fock.__file__).parent
    pattern = re.compile(r"^\s*(from\s+scipy\b|import\s+.*\bscipy\b)", re.M)
    readers = [p.name for p in package.glob("*.py") if pattern.search(p.read_text(encoding="utf-8"))]
    assert readers == []


def _dense_channel_pair(
    eta1: float, eta2: float, n_th: float, rho: np.ndarray, cutoff: int
) -> np.ndarray:
    """Both channels' untruncated Kraus superoperators applied to a dense
    two-mode ``rho``: the first mode's coherence index (k1, l1) meets the
    first channel, (k2, l2) the second."""
    s1, s2 = (fock_reference.superoperator(fock_reference.kraus_blocks(eta, n_th, cutoff))
              for eta in (eta1, eta2))
    d = cutoff
    pairs = rho.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    out = (s1 @ pairs @ s2.T).reshape(d, d, d, d).transpose(0, 2, 1, 3)
    return out.reshape(d * d, d * d)


@pytest.mark.parametrize("probe", ["tmsv", "coherent"])
def test_received_states_match_dense_kraus_channels(probe):
    """Each received state built from the probe's structure equals the dense
    probe through the untruncated 40-digit Kraus superoperators of both
    channels."""
    n_th = 0.2
    for cutoff, n_s in ((8, 0.05), (12, 0.2)):
        probe_rho = fock_reference.probe_density(n_s, probe, cutoff)
        for eta1 in (0.1, 0.37, 0.8, 0.95):
            family = fock.bifrequency_fock_family(eta1, n_s, n_th, probe, cutoff)
            for lam in (0.0, 1e-4, -0.05, 0.04):
                rho = fock_reference.dense(family(lam))
                expected = _dense_channel_pair(eta1, eta1 + lam, n_th, probe_rho, cutoff)
                assert rho.dtype == np.float64
                assert np.max(np.abs(rho - expected)) < 1e-13, (cutoff, eta1, lam)


@pytest.mark.parametrize("probe", ["tmsv", "coherent"])
def test_received_states_match_dense_channel_pair(probe):
    """Against the dense probe pushed through both channels mode by mode
    (``fock_reference``): the two-mode squeezed states are equal bit for bit
    at cutoff 30, the coherent ones, products in another order, to 1e-15."""
    cutoff, n_s, n_th = 30, 0.5, 0.3
    for eta1 in (0.5, 0.8):
        family = fock.bifrequency_fock_family(eta1, n_s, n_th, probe, cutoff)
        reference = fock_reference.reference_family(eta1, n_s, n_th, probe, cutoff)
        for lam in (0.0, 1e-4, -1e-4):
            rho, expected = fock_reference.dense(family(lam)), reference(lam)
            assert not expected.imag.any()
            if probe == "tmsv":
                assert np.array_equal(rho, expected.real), (eta1, lam)
            else:
                assert np.max(np.abs(rho - expected.real)) < 1e-15, (eta1, lam)


def test_channel_apply_matches_kraus_superoperator():
    """Against the untruncated 40-digit Kraus superoperator the outputs are
    within 1e-14. They equal, bit for bit, one product per offset and side
    of each block with that offset's coherences."""
    eta, n_th, cutoff = 0.63, 0.25, 10
    channel = fock.ThermalLossChannel(eta, n_th, cutoff)
    dense = fock_reference.superoperator(fock_reference.kraus_blocks(eta, n_th, cutoff))
    rng = np.random.default_rng(3)
    for rho in (rng.standard_normal((cutoff, cutoff)),
                rng.standard_normal((cutoff, cutoff)) + 1j * rng.standard_normal((cutoff, cutoff))):
        out = channel.apply(rho)
        assert out.dtype == rho.dtype
        expected = (dense @ rho.ravel()).reshape(cutoff, cutoff)
        assert np.max(np.abs(out - expected)) < 1e-14
        per_offset = np.zeros_like(rho)
        for k, block in enumerate(channel.blocks):
            i = np.arange(cutoff - k)
            per_offset[i + k, i] = block @ rho[i + k, i]
            per_offset[i, i + k] = block @ rho[i, i + k]
        assert np.array_equal(out, per_offset)


def test_channel_trace_preserving():
    family = fock.bifrequency_fock_family(0.5, 0.3, 0.2, "tmsv", 22)
    assert abs(np.trace(fock_reference.dense(family(0.0))) - 1.0) < 1e-6


# --- channel memo -----------------------------------------------------------

def _count_builds(monkeypatch) -> list:
    """Empty the channel memo and record the arguments of every channel built
    from here on."""
    fock._channel.cache_clear()
    built = []
    init = fock.ThermalLossChannel.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(fock.ThermalLossChannel, "__init__", counting_init)
    return built


def _oracle_pass(cutoff: int = 30):
    """One pass of the benchmark's oracle workload at (0.8, 0.5, 0.3)."""
    for probe in ("tmsv", "coherent"):
        family = fock.bifrequency_fock_family(0.8, 0.5, 0.3, probe, cutoff)
        fock.qfi_eq1(family)
        validate.sld_fock_report(0.8, 0.5, 0.3, probe, cutoff)


def test_oracle_pass_builds_each_channel_once(monkeypatch):
    """Both probes, their QFI and their SLD reports share one channel, at
    eta1, since each reads its family only at the working point; a second
    pass builds none."""
    built = _count_builds(monkeypatch)
    _oracle_pass()
    assert built == [(0.8, 0.3, 30)]
    _oracle_pass()
    assert len(built) == 1


def test_quick_validation_builds_each_channel_once(monkeypatch):
    """Two configurations at one cutoff and one n_th each: two channels for
    the oracle and SLD checks of both probes."""
    built = _count_builds(monkeypatch)
    assert all(check.passed for check in validate.full_validation(quick=True))
    assert len(built) == len(set(built)) == 2


@pytest.mark.parametrize("probe", ["tmsv", "coherent"])
def test_qfi_and_sld_report_evaluate_the_family_once(probe, monkeypatch):
    """``qfi_eq1`` and ``sld_fock_report`` each evaluate their family once,
    at the working point."""
    calls = []
    build = fock.bifrequency_fock_family

    def counting_build(*args):
        family = build(*args)
        return lambda lam: calls.append(lam) or family(lam)

    monkeypatch.setattr(fock, "bifrequency_fock_family", counting_build)
    fock.qfi_eq1(fock.bifrequency_fock_family(0.8, 0.5, 0.3, probe, 22))
    assert calls == [fock.LAMBDA0]
    validate.sld_fock_report(0.8, 0.5, 0.3, probe, 22)
    assert calls == [fock.LAMBDA0] * 2


def test_memoised_channel_is_read_only():
    """A memoised channel is shared, so neither its tuples of blocks and of
    their derivatives nor any block can be written; nor can the memoised
    per-cutoff layouts of the coherence offsets and of the sector stack, nor
    the sector index sets that slice the layout, nor the first factor that
    every state of a coherent family shares."""
    channel = fock._channel(0.8, 0.3, 12)
    assert fock._channel(0.8, 0.3, 12) is channel
    assert isinstance(channel.blocks, tuple) and isinstance(channel.dblocks, tuple)
    for block in channel.blocks + channel.dblocks:
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0] = 1.0
    with pytest.raises(TypeError):
        channel.blocks[0] = np.zeros((12, 12))
    assert fock._offset_order(12) is fock._offset_order(12)
    assert fock._sector_layout(12) is fock._sector_layout(12)
    sectors = fock.bifrequency_fock_family(0.8, 0.05, 0.3, "tmsv", 12)(0.0)
    coherent = fock.bifrequency_fock_family(0.8, 0.05, 0.3, "coherent", 12)
    assert coherent(0.0).factors[0] is coherent(1e-4).factors[0]
    shared = [fock._offset_order(12), *fock._sector_layout(12), coherent(0.0).factors[0]]
    shared += [idx for idx, _, _ in fock._blockwise(sectors)]
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 1


def test_memo_rejects_what_the_constructor_rejects():
    """With the cutoff-30 channel memoised, a float cutoff, a NaN or
    out-of-range reflectivity and a bad bath are rejected on every call, by
    the memo and through a family alike."""
    fock._channel(0.8, 0.3, 30)
    bad = [
        ((0.8, 0.3, 30.0), TypeError, None),
        ((np.nan, 0.3, 30), ValueError, "reflectivity"),
        ((1.5, 0.3, 30), ValueError, "reflectivity"),
        ((0.8, -1, 30), ValueError, "photon numbers"),
        ((0.8, np.nan, 30), ValueError, "photon numbers"),
        ((0.8, np.inf, 30), ValueError, "photon numbers"),
    ]
    for args, error, match in bad:
        for _ in range(2):
            with pytest.raises(error, match=match):
                fock._channel(*args)
            with pytest.raises(error, match=match):
                fock.ThermalLossChannel(*args)
    family = fock.bifrequency_fock_family(0.8, 0.5, 0.3, "tmsv", 30.0)
    for _ in range(2):
        with pytest.raises(TypeError):
            family(0.0)


@pytest.mark.parametrize("probe", ["tmsv", "coherent"])
def test_memoised_channels_give_the_states_of_fresh_ones(probe, monkeypatch):
    """States and their tangents from a warm memo equal, bit for bit, those
    from channels built anew for each evaluation."""
    cutoff, lams = 30, (0.0, 1e-4, -1e-4)
    family = fock.bifrequency_fock_family(0.8, 0.5, 0.3, probe, cutoff)
    family(0.0)
    memoised = [family(lam) for lam in lams]
    monkeypatch.setattr(fock, "_channel", fock.ThermalLossChannel)
    fresh_family = fock.bifrequency_fock_family(0.8, 0.5, 0.3, probe, cutoff)
    for lam, state in zip(lams, memoised):
        fresh = fresh_family(lam)
        if probe == "coherent":
            assert all(map(np.array_equal, state.factors, fresh.factors)), lam
        else:
            assert np.array_equal(state.stack, fresh.stack), lam
        assert np.array_equal(state.tangent, fresh.tangent), lam


# --- QFI ------------------------------------------------------------------

def test_qfi_eq1_constant_family():
    """A state with a zero tangent has no QFI, on the sector route and the
    product route."""
    thermal = fock_reference.fock_thermal(0.4, 15)
    stack = fock.bifrequency_fock_family(0.5, 0.2, 0.4, "tmsv", 15)(0.0).stack
    for pair in (fock.FockState.sectors(stack, np.zeros_like(stack)),
                 fock.FockState.product(thermal, thermal, np.zeros((15, 15)))):
        assert fock.qfi_eq1(lambda lam: pair) < 1e-10


def test_qfi_eq1_rejects_a_state_without_tangent():
    """A family whose state carries no tangent gives no QFI: ValueError, on
    the sector route and the product route."""
    thermal = fock_reference.fock_thermal(0.4, 15)
    stack = fock.bifrequency_fock_family(0.5, 0.2, 0.4, "tmsv", 15)(0.0).stack
    for pair in (fock.FockState.sectors(stack), fock.FockState.product(thermal, thermal)):
        with pytest.raises(ValueError, match="tangent"):
            fock.qfi_eq1(lambda lam: pair)


@pytest.mark.parametrize("probe", ["tmsv", "coherent"])
def test_family_tangent_matches_central_difference(probe):
    """At every oracle configuration the tangent each state carries is
    within 1e-10 of the test-side central difference with step 1e-5, whose
    truncation and round-off there are about 3e-11."""
    for config in validate.ORACLE_CONFIGS:
        family = fock.bifrequency_fock_family(*config, probe, 30)
        state = family(0.0)
        tangent = fock_reference.dense_tangent(state)
        assert np.max(np.abs(tangent)) > 0.1
        difference = fock_reference.central_difference(family)
        assert np.max(np.abs(tangent - difference)) < 1e-10, config


@pytest.mark.parametrize("eta1", [0.0, 1.0, np.nan, 1.5, -0.2])
def test_family_needs_reflectivity_inside_the_open_interval(eta1):
    """The channel's eta-derivative is infinite at eta = 0 and 1, so a family
    there is rejected, as are NaN and values outside [0, 1]; so is an
    evaluation that moves eta1 + lam onto an edge."""
    for probe in ("tmsv", "coherent"):
        with pytest.raises(ValueError, match="reflectivity"):
            fock.bifrequency_fock_family(eta1, 0.05, 0.1, probe, 10)
        with pytest.raises(ValueError, match="reflectivity"):
            fock.bifrequency_fock_family(0.75, 0.05, 0.1, probe, 10)(0.25)


def test_tangent_is_checked_as_its_state():
    """A tangent is checked for hermiticity and shape as its state is, and a
    sector tangent's padding must be 0."""
    state = fock.bifrequency_fock_family(0.6, 0.1, 0.2, "tmsv", 10)(0.0)
    skew = state.tangent.copy()
    skew[8][0, 1] += 1e-9
    with pytest.raises(ValueError, match="non-hermitian"):
        fock.FockState.sectors(state.stack, skew)
    padded = state.tangent.copy()
    padded[0][2, 3] = padded[0][3, 2] = 0.1
    with pytest.raises(ValueError, match="padding"):
        fock.FockState.sectors(state.stack, padded)
    with pytest.raises(ValueError, match="shape"):
        fock.FockState.sectors(state.stack, np.zeros((10, 10)))
    single = fock_reference.fock_thermal(0.2, 10)
    with pytest.raises(ValueError, match="shape"):
        fock.FockState.product(single, single, state.tangent)
    with pytest.raises(ValueError, match="non-hermitian"):
        fock.FockState.product(single, single, np.triu(np.ones((10, 10))))


def test_qfi_eq1_matches_coherent_closed_form():
    family = fock.bifrequency_fock_family(0.5, 0.5, 0.2, "coherent", 30)
    h = fock.qfi_eq1(family)
    assert abs(h - bf.hc_closed_form(0.5, 0.5, 0.2)) / h < 1e-3


def test_qfi_eq1_matches_tmsv_closed_form():
    family = fock.bifrequency_fock_family(0.8, 0.5, 0.2, "tmsv", 30)
    h = fock.qfi_eq1(family)
    assert abs(h - bf.hq_closed_form(0.8, 0.5, 0.2)) / h < 1e-3


@pytest.mark.parametrize("probe, closed", [("tmsv", bf.hq_closed_form), ("coherent", bf.hc_closed_form)])
def test_oracle_reaches_a_noisy_bath(probe, closed):
    """At n_th = 10, where a bath truncated at the signal's cutoff needed
    cutoff 145 and still read 5e-5, the oracle QFI at cutoff 100 is within
    1e-7 of the closed form (measured 2.6e-8 for tmsv, 1.9e-8 for coherent;
    DROP_THRESHOLD sets that floor)."""
    h = fock.qfi_eq1(fock.bifrequency_fock_family(0.8, 0.5, 10.0, probe, 100))
    ref = closed(0.8, 0.5, 10.0)
    assert abs(h - ref) / ref < 1e-7


@pytest.mark.parametrize("probe", ["tmsv", "coherent"])
def test_received_state_gates_its_own_leak(probe):
    """A probe that fits the cutoff can still leave its received state a
    trace leak above HARD_TAIL_TOL: a bath of 10 photons at eta1 = 0.5 pushes
    1.4e-3 of the state above cutoff 40, and the family raises there."""
    family = fock.bifrequency_fock_family(0.5, 0.01, 10.0, probe, 40)
    with pytest.raises(CutoffTooSmallError, match="^cutoff 40 leaves received tail mass 1.3"):
        family(0.0)


def test_qfi_eq1_invariant_under_unitary_conjugation():
    """A fixed unitary fills the zero pattern of the received two-mode
    squeezed state; the dense Eq. 1 QFI of the rotated state and tangent
    must equal the sectored one."""
    cutoff = 12
    family = fock.bifrequency_fock_family(0.5, 0.2, 0.1, "tmsv", cutoff)
    rng = np.random.default_rng(7)
    size = cutoff * cutoff
    q, _ = np.linalg.qr(rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))
    state = family(0.0)
    rho, tangent = (
        q @ m @ q.conj().T for m in (fock_reference.dense(state), fock_reference.dense_tangent(state))
    )
    h_dense = fock_reference.dense_qfi((rho + rho.conj().T) / 2.0, (tangent + tangent.conj().T) / 2.0)
    h_sectored = fock.qfi_eq1(family)
    assert abs(h_dense - h_sectored) / h_sectored < 1e-9


def _dense_route(family) -> float:
    """The dense Eq. 1 QFI of the family's state and tangent made dense."""
    state = family(0.0)
    return fock_reference.dense_qfi(fock_reference.dense(state), fock_reference.dense_tangent(state))


@pytest.mark.parametrize("cutoff", [10, 20, 30])
def test_product_qfi_matches_dense_route(cutoff):
    """On every oracle configuration the coherent family's QFI from its
    factors equals the dense Eq. 1 QFI of the same states made dense."""
    from bifrost.validate import ORACLE_CONFIGS

    for eta1, n_s, n_th in ORACLE_CONFIGS:
        family = fock.bifrequency_fock_family(eta1, n_s, n_th, "coherent", cutoff)
        assert family(0.0).factors is not None
        h_product, h_dense = fock.qfi_eq1(family), _dense_route(family)
        assert abs(h_product - h_dense) / h_dense < 1e-10, (eta1, n_s, n_th)


@pytest.mark.parametrize("cutoff", [21, 25, 30])
def test_sector_qfi_matches_dense_route(cutoff):
    """On every oracle configuration the two-mode squeezed family's QFI from
    its sectors equals the dense Eq. 1 QFI of the same states made dense.
    Below cutoff 21 the gate rejects the received state at
    (0.8, 0.5, 0.3), whose trace leak is 1.07e-6 at cutoff 20."""
    from bifrost.validate import ORACLE_CONFIGS

    for eta1, n_s, n_th in ORACLE_CONFIGS:
        family = fock.bifrequency_fock_family(eta1, n_s, n_th, "tmsv", cutoff)
        assert len(fock._blockwise(family(0.0))) == 2 * cutoff - 1
        h_sectors, h_dense = fock.qfi_eq1(family), _dense_route(family)
        assert abs(h_sectors - h_dense) / h_dense < 1e-10, (eta1, n_s, n_th)


def test_product_qfi_diagonalises_only_factors(monkeypatch):
    """The coherent family never diagonalises a matrix larger than one
    mode's cutoff x cutoff factor: the eigenvalues of the first factor and
    the eigenpairs of the second."""
    shapes = []

    def recording(decompose):
        def recorded(mat, *args, **kwargs):
            shapes.append((decompose.__name__, mat.shape))
            return decompose(mat, *args, **kwargs)

        return recorded

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    cutoff = 30
    family = fock.bifrequency_fock_family(0.8, 0.5, 0.3, "coherent", cutoff)
    fock.qfi_eq1(family)
    assert shapes == [("eigvalsh", (cutoff, cutoff)), ("eigh", (cutoff, cutoff))]


def test_sector_qfi_diagonalises_only_sectors(monkeypatch):
    """The two-mode squeezed family diagonalises each sector once, so no
    matrix larger than cutoff x cutoff."""
    shapes = []
    eigh = np.linalg.eigh

    def recording_eigh(mat, *args, **kwargs):
        shapes.append(mat.shape)
        return eigh(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    cutoff = 30
    fock.qfi_eq1(fock.bifrequency_fock_family(0.8, 0.5, 0.3, "tmsv", cutoff))
    sizes = [cutoff - abs(delta) for delta in range(1 - cutoff, cutoff)]
    assert shapes == [(size, size) for size in sizes]


def test_qfi_eq1_drop_threshold_stable(monkeypatch):
    """The QFI moves by less than 1e-6 relative when DROP_THRESHOLD is
    raised a hundredfold."""
    family = fock.bifrequency_fock_family(0.5, 0.2, 0.1, "tmsv", 24)
    assert fock.DROP_THRESHOLD == 1e-12
    h1 = fock.qfi_eq1(family)
    monkeypatch.setattr(fock, "DROP_THRESHOLD", 1e-10)
    h2 = fock.qfi_eq1(family)
    assert abs(h1 - h2) / h1 < 1e-6


def test_eigenvalue_sum_rule():
    family = fock.bifrequency_fock_family(0.5, 0.2, 0.1, "tmsv", 20)
    rho = fock_reference.dense(family(0.0))
    evals = np.linalg.eigvalsh(rho)
    assert abs(evals.sum() - np.trace(rho)) < 1e-10
    assert evals.min() > -1e-10


def test_explicit_cutoff_leak_allowed_within_gate():
    # the tail 2^-30 ~ 9.3e-10 is a trace leak that the hard gate lets pass
    trace = np.trace(fock_reference.fock_tmsv(0.5, 30))
    assert 1.0 - 1e-6 < trace < 1.0


def test_partial_trace_validation():
    rho = fock_reference.fock_tmsv(0.1, 8)
    with pytest.raises(ValueError):
        fock_reference.fock_partial_trace(rho, 8, 2, [])
    with pytest.raises(ValueError):
        fock_reference.fock_partial_trace(rho, 8, 2, [2])


# --- SLD on the oracle --------------------------------------------------------

REPORT_KEYS = ("residual", "mean", "second_moment", "qfi", "variance_rel_error")


@pytest.mark.parametrize("probe", ["tmsv", "coherent"])
def test_sld_report_matches_dense_computation(probe):
    """On every oracle configuration the report from factors or sectors
    equals the one made of the sparse operator and the dense states, within
    1e-10 per key, and its QFI is the same number."""
    for config in validate.ORACLE_CONFIGS:
        report = validate.sld_fock_report(*config, probe, 25)
        expected = fock_reference.dense_sld_report(*config, probe, 25)
        assert report["qfi"] == expected["qfi"]
        for key in REPORT_KEYS:
            assert abs(report[key] - expected[key]) < 1e-10, (config, key)


def test_sld_report_forms_no_dense_matrix(monkeypatch):
    """Neither route gathers the operator on the whole basis; that no
    two-mode density matrix is formed holds by the package's structure
    (``test_package_keeps_no_dense_two_mode_state``)."""
    cutoff = 22
    gathered = []
    block = validate.LadderOperator.block

    def recording_block(self, rows, cols):
        gathered.append((len(rows), len(cols)))
        return block(self, rows, cols)

    monkeypatch.setattr(validate.LadderOperator, "block", recording_block)
    for probe in ("tmsv", "coherent"):
        validate.sld_fock_report(0.8, 0.5, 0.3, probe, cutoff)
    assert gathered and max(max(shape) for shape in gathered) <= cutoff


def test_oracle_pass_forms_no_dense_matrix(monkeypatch):
    """A whole pass as the benchmark makes it, at cutoff 30 with both
    probes, the QFI, the SLD report and the moments, makes six two-mode
    states, three per probe; each is kept as factors or sectors, since a
    Fock state has no other form (``test_package_keeps_no_dense_two_mode_state``)."""
    made = []

    def recording(build):
        return classmethod(lambda cls, *args: made.append(build(*args)) or made[-1])

    for name in ("product", "sectors"):
        monkeypatch.setattr(fock.FockState, name, recording(getattr(fock.FockState, name)))
    for probe in ("tmsv", "coherent"):
        family = fock.bifrequency_fock_family(0.8, 0.5, 0.3, probe, 30)
        fock.qfi_eq1(family)
        validate.sld_fock_report(0.8, 0.5, 0.3, probe, 30)
        fock.quadrature_moments(family(0.0))
    assert len(made) == 6
    assert [state.factors is None for state in made] == [True] * 3 + [False] * 3


def _fix_form(monkeypatch, form):
    """Make every SLD solve report ``form`` as its form, its QFI unchanged."""
    sld = importlib.import_module("bifrost.sld")  # the package exports a function ``sld``
    solve = sld._solve

    class FixedForm:
        def __init__(self, family):
            self.solution = solve(family)

        def result(self):
            return self.solution.result()

        def form(self):
            return form

    monkeypatch.setattr(validate, "_solve", FixedForm)
    monkeypatch.setattr(sld, "_solve", FixedForm)


def _random_form(seed: int) -> bf.SldForm:
    """A form with terms on both modes, which change n1 - n2 by up to 2."""
    rng = np.random.default_rng(seed)
    quad = rng.standard_normal((4, 4))
    return bf.SldForm(quad=(quad + quad.T).astype(complex), linear=rng.standard_normal(4) + 0j,
                      scalar=0.2, center=np.zeros(4))


def test_sld_report_sums_over_the_sectors_a_form_couples(monkeypatch):
    """A form whose terms change n1 - n2 by 1 and 2 couples the sectors of
    the two-mode squeezed states; the report gathers the operator between
    them and equals the dense computation with the same form."""
    form = _random_form(4)
    _fix_form(monkeypatch, form)
    assert validate.fock_sld_operator(form, 16).charges == {-2, -1, 0, 1, 2}
    report = validate.sld_fock_report(0.8, 0.2, 0.3, "tmsv", 16)
    expected = fock_reference.dense_sld_report(0.8, 0.2, 0.3, "tmsv", 16)
    for key in REPORT_KEYS:
        assert abs(report[key] - expected[key]) <= 1e-12 * max(1.0, abs(expected[key])), key


def test_sld_report_rejects_a_mode_1_form_on_a_product(monkeypatch):
    """On a product state the report takes only the I x ell_2 route, so a
    form with a mode-1 term raises ValueError there."""
    _fix_form(monkeypatch, _random_form(4))
    with pytest.raises(ValueError, match="mode 1 of a product"):
        validate.sld_fock_report(0.8, 0.2, 0.3, "coherent", 16)


def log_uniform(lo, hi):
    return st.floats(np.log(lo), np.log(hi)).map(lambda u: float(np.exp(u)))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@example(eta1=1e-6, n_s=1e-6, n_th=1e-6)
@example(eta1=1e-6, n_s=1e6, n_th=1e6)
@example(eta1=1.0 - 1e-6, n_s=1e6, n_th=1e-6)
@example(eta1=1.0 - 1e-6, n_s=1e-6, n_th=1e6)
@given(
    eta1=st.floats(1e-6, 1.0 - 1e-6),
    n_s=log_uniform(1e-6, 1e6),
    n_th=log_uniform(1e-6, 1e6),
)
def test_coherent_sld_form_acts_on_mode_1_as_identity(eta1, n_s, n_th):
    """Over the whole domain the coherent probe's SLD, gathered in Fock
    space, acts on mode 1 only as a multiple of the identity: the one route
    ``sld_fock_report`` takes for its product states."""
    from bifrost.sld import _solve

    family = bf.bifrequency_received_state(bf.BiFrequencyParams(eta1, 0.0, n_s, n_th), "coherent")
    first = validate.fock_sld_operator(_solve(family).form(), 6).first
    assert np.array_equal(first, first[:, :1, :1] * np.eye(6))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(
    eta1=st.floats(0.05, 0.95),
    n_s=st.floats(1e-3, 0.5),
    n_th=st.floats(1e-3, 0.5),
)
def test_oracle_qfi_matches_closed_forms_over_the_box(eta1, n_s, n_th):
    """Over eta1 in [0.05, 0.95] and n_s, n_th in [1e-3, 0.5], at cutoff 40,
    the oracle QFI of both probes is within 1e-7 of the closed forms."""
    for probe, closed in (("tmsv", bf.hq_closed_form), ("coherent", bf.hc_closed_form)):
        h = fock.qfi_eq1(fock.bifrequency_fock_family(eta1, n_s, n_th, probe, 40))
        ref = closed(eta1, n_s, n_th)
        assert abs(h - ref) / ref < 1e-7, probe
