"""Truncated Fock-space oracle against the Gaussian machinery."""

import ast
import importlib
import pathlib
import re
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bifrost as bf
from bifrost import fock, validate
from bifrost.errors import CutoffTooSmallError, N_MAX

# the one message of the photon-number domain check
DOMAIN_ERROR = re.escape("photon numbers must be 0 or lie in [1e-06, 1e+06]")

import fock_reference


def mean_photon(rho: np.ndarray) -> float:
    return float(np.trace(rho @ np.diag(np.arange(len(rho)))).real)


def log_uniform(lo, hi):
    return st.floats(np.log(lo), np.log(hi)).map(lambda u: float(np.exp(u)))


# --- states -------------------------------------------------------------

def test_fock_state_keeps_its_dtype():
    """Every state is real: float64 matrices are kept as they are and
    integer ones become float64; the hermiticity check runs with its
    tolerance of 1e-12."""
    assert fock.fock_coherent(0.5, 10).dtype == np.float64
    eye = np.eye(2, dtype=int)
    integer = fock.FockState.product(eye, eye, eye)
    assert all(m.dtype == np.float64 for m in (*integer.factors, integer.tangent))
    family = fock.bifrequency_fock_family(0.6, 0.1, 0.1, "tmsv", 10)
    assert family(0.0).coherences.dtype == family(0.0).tangent.dtype == np.float64
    coherent = fock.bifrequency_fock_family(0.6, 0.1, 0.1, "coherent", 10)(0.0)
    assert all(m.dtype == np.float64 for m in (*coherent.factors, coherent.tangent))

    real = np.diag([0.5, 0.25, 0.25, 0.0])
    assert fock.FockState.product(real, real, real).factors[1] is real

    with pytest.raises(ValueError, match="non-hermitian"):
        fock.FockState.product(real, np.full((4, 4), np.nan), real)
    for size in (5e-13, 2e-12):
        asymmetric = real.copy()
        asymmetric[0, 1] = size
        for args in ((real, asymmetric, real), (real, real, asymmetric)):
            if size < 1e-12:
                fock.FockState.product(*args)
            else:
                with pytest.raises(ValueError, match="non-hermitian"):
                    fock.FockState.product(*args)


def test_no_state_is_complex():
    """The oracle's states are real: a complex factor or tangent of a
    product, complex rows of sectors and a complex coherent amplitude each
    raise one ValueError that names the complex input, even where its
    imaginary part is 0."""
    real = np.diag([0.5, 0.25, 0.25, 0.0])
    complex_rho = real.astype(complex)
    complex_rho[0, 1], complex_rho[1, 0] = 0.1j, -0.1j
    for rho in (complex_rho, real.astype(complex)):
        for args in ((rho, real, real), (real, rho, real), (real, real, rho)):
            with pytest.raises(ValueError, match="^density matrix must be real, not complex128$"):
                fock.FockState.product(*args)
    rows = fock.bifrequency_fock_family(0.6, 0.1, 0.2, "tmsv", 10)(0.0).rows
    for bad in (rows.astype(complex), rows + 1e-3j):
        with pytest.raises(ValueError, match="^coherences must be real, not complex128$"):
            fock.FockState.sectors(bad)
    for alpha in (0.5j, 0.5 + 0j, np.complex128(0.5), complex(0.3, np.nan)):
        with pytest.raises(ValueError, match="^coherent amplitude must be real"):
            fock.fock_coherent(alpha, 10)


def test_hermiticity_check_is_the_dense_maximum():
    """On several sizes the check reports the dense maximum of
    |rho - rho^dag|, and a NaN anywhere fails it."""
    rng = np.random.default_rng(11)
    for size in (128, 257, 300):
        m = rng.standard_normal((size, size))
        rho = (m + m.T) / 2.0
        assert fock.FockState.product(rho, rho, rho).factors[0] is rho
        skew = rho.copy()
        skew[size - 2, 3] += 3e-9  # below the diagonal, in the last tile row
        skew[1, 2] += 1e-9
        dense = np.max(np.abs(skew - skew.T))
        with pytest.raises(ValueError, match=f"^density matrix non-hermitian by {dense:.3e}$"):
            fock.FockState.product(rho, skew, rho)
        rho[5, size - 1] = np.nan
        with pytest.raises(ValueError, match="non-hermitian by nan"):
            fock.FockState.product(rho, rho, rho)


def test_product_state_keeps_its_factors():
    """The coherent received state is kept as its two one-mode factors, each
    checked on its own, and no coherences."""
    cutoff = 12
    family = fock.bifrequency_fock_family(0.6, 0.1, 0.2, "coherent", cutoff)
    state = family(0.01)
    first, second = state.factors
    assert first.shape == second.shape == state.tangent.shape == (cutoff, cutoff)
    assert state.dim == cutoff and state.coherences is None
    assert fock.bifrequency_fock_family(0.6, 0.1, 0.2, "tmsv", cutoff)(0.0).factors is None

    skew = second.copy()
    skew[0, 1] += 2e-12
    with pytest.raises(ValueError, match="non-hermitian"):
        fock.FockState.product(first, skew, state.tangent)
    with pytest.raises(ValueError, match="shape"):
        fock.FockState.product(first, second[:-1, :-1], state.tangent)


def test_entangled_state_keeps_its_sectors():
    """The received two-mode squeezed state is kept as its coherences, the
    first of the state's ``rows`` whose second is its tangent's, and read as its
    cutoff mirror pairs of blocks of fixed n1 - n2, one pair at a time, per
    |n1 - n2|: a (1, cutoff, cutoff) stack at 0, then (2, m, m) stacks of
    delta and -delta, so the blocks run n1 - n2 = 0, 1, -1, 2, -2, ...:
    each block equals the dense matrix's block on the states of its
    n1 - n2, ascending in n1 (``fock_reference.sector_indices``), as does
    its tangent's. Each block of the state and of its tangent is exactly
    symmetric, and nothing of the dense matrix lies outside the blocks."""
    cutoff = 12
    size = cutoff * (cutoff + 1) * (2 * cutoff + 1) // 6
    state = fock.bifrequency_fock_family(0.6, 0.1, 0.2, "tmsv", cutoff)(0.01)
    assert state.factors is None
    assert state.coherences.shape == state.tangent.shape == (size,)
    assert state.rows.shape == (2, size)
    assert state.coherences.base is state.tangent.base is state.rows
    rho, tangent = fock_reference.dense(state), fock_reference.dense_tangent(state)
    weight, pairs = fock._blockwise(state)
    assert weight == 1.0 and not isinstance(pairs, (list, tuple))
    blocks = []
    for step, (stack, dstack) in enumerate(pairs):
        assert stack.shape == dstack.shape == (1 + (step > 0), cutoff - step, cutoff - step)
        blocks += zip(stack, dstack)
    assert step == cutoff - 1
    shifts, covered = [], np.zeros(rho.shape, bool)
    for idx, (block, dblock) in zip(fock_reference.sector_indices(cutoff), blocks, strict=True):
        n1, n2 = np.divmod(idx, cutoff)
        assert len(set(n1 - n2)) == 1 and np.all(np.diff(n1) == 1)
        assert block.shape == dblock.shape == (len(idx), len(idx)) and block.dtype == np.float64
        assert np.array_equal(block, block.T) and np.array_equal(dblock, dblock.T)
        assert np.array_equal(block, rho[np.ix_(idx, idx)])
        assert np.array_equal(dblock, tangent[np.ix_(idx, idx)])
        covered[np.ix_(idx, idx)] = True
        shifts.append(int(n1[0] - n2[0]))
    assert shifts == [0] + [sign * step for step in range(1, cutoff) for sign in (1, -1)]
    assert not rho[~covered].any() and not tangent[~covered].any()


def test_every_sector_block_is_exactly_symmetric():
    """At every oracle configuration, at the validation cutoff and at
    lam = 0 and 1e-4, each sector block of each mirror pair, of the state
    and of its tangent, equals its transpose bit for bit."""
    for config in validate.ORACLE_CONFIGS:
        family = fock.bifrequency_fock_family(*config, "tmsv", validate.CUTOFF)
        for lam in (0.0, 1e-4):
            for blocks, dblocks in fock._blockwise(family(lam))[1]:
                assert np.array_equal(blocks, blocks.mT) and np.array_equal(dblocks, dblocks.mT), config


def test_sector_state_checks_size_and_finiteness():
    """``FockState.sectors`` takes the coherences of one cutoff and its
    tangent's as the two rows of one array: a bare vector, rows of another
    size or another shape or a NaN or infinite entry, in the state or its
    tangent, is rejected; the cutoff is read off the size."""
    state = fock.bifrequency_fock_family(0.6, 0.1, 0.2, "tmsv", 10)(0.0)
    coherences = state.coherences
    for dim in (1, 2, 3, 10, 80):
        size = dim * (dim + 1) * (2 * dim + 1) // 6
        assert fock.FockState.sectors(np.zeros((2, size))).dim == dim
    rebuilt = fock.FockState.sectors(state.rows.copy())
    assert rebuilt.dim == 10 and np.array_equal(rebuilt.rows, state.rows)
    for rows in (coherences, np.stack([coherences] * 3)):
        with pytest.raises(ValueError, match="shape"):
            fock.FockState.sectors(rows)
    for bad in (coherences[:-1], np.append(coherences, 0.0), coherences.reshape(5, -1)):
        for rows in (bad[None], np.stack([bad, bad])):
            with pytest.raises(ValueError, match="shape"):
                fock.FockState.sectors(rows)
    for value in (np.nan, np.inf, -np.inf):
        broken = coherences.copy()
        broken[7] = value
        for rows in (np.stack([broken, coherences]), np.stack([coherences, broken])):
            with pytest.raises(ValueError, match="^coherences must be finite, of shape"):
                fock.FockState.sectors(rows)


def test_sector_state_keeps_the_buffer_it_is_given(monkeypatch):
    """The received two-mode squeezed state holds the very array that
    ``_tmsv_sectors`` wrote, its coherences and tangent views of it: no
    second copy of the state is made, at the working point or off it."""
    made = []
    tmsv_sectors = fock._tmsv_sectors

    def recording(*args):
        made.append(tmsv_sectors(*args))
        return made[-1]

    monkeypatch.setattr(fock, "_tmsv_sectors", recording)
    fock._received.cache_clear()
    family = fock.bifrequency_fock_family(0.6, 0.1, 0.2, "tmsv", 10)
    for lam in (fock.LAMBDA0, 0.01):
        state = family(lam)
        assert state.rows is made[-1]
        assert state.coherences.base is state.tangent.base is made[-1]
    fock._received.cache_clear()


@pytest.mark.parametrize("probe", ["tmsv", "coherent"])
def test_trace_is_read_off_the_structure(probe):
    """Tr A Tr B for a product, the sum of P_0 for a state kept as its
    coherences: both equal the trace of the dense matrix to 1e-15."""
    family = fock.bifrequency_fock_family(0.8, 0.5, 0.3, probe, 30)
    for lam in (0.0, 0.03):
        state = family(lam)
        trace = fock._trace(state)
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
    assert fock.FockState.__slots__ == ("factors", "coherences", "dim", "tangent", "rows")
    constructors = {
        name for name, value in vars(fock.FockState).items() if isinstance(value, classmethod)
    }
    assert constructors == {"product", "sectors"} and "__init__" not in vars(fock.FockState)


def _memoised(module) -> set[str]:
    """The names a module binds to a memo: each top-level statement that
    mentions ``cache`` or ``lru_cache``, by the name it defines."""
    prefix = module.__name__.rsplit(".", 1)[1]
    names = set()
    for statement in ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8")).body:
        if any(getattr(node, "attr", getattr(node, "id", None)) in ("cache", "lru_cache")
               for node in ast.walk(statement)):
            for target in getattr(statement, "targets", [statement]):
                names.add(f"{prefix}.{getattr(target, 'id', None) or target.name}")
    return names


def test_oracle_keeps_only_its_three_memos():
    """The oracle memoises the channels, the shared state and the sectors'
    layout, and nothing else: a new per-cutoff table fails here."""
    assert _memoised(fock) | _memoised(validate) == {
        "fock._channel", "fock._received", "fock._sector_layout",
    }


def _tree(module) -> ast.Module:
    return ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))


def _imports(module) -> set[str]:
    """The package modules a module imports, by their last name: ``sld``
    for ``from .sld import x``, ``from . import sld`` or ``import bifrost.sld``."""
    names = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Import):
            names |= {alias.name.rsplit(".", 1)[-1] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module.rsplit(".", 1)[-1])
            if node.level or node.module == "bifrost":
                names |= {alias.name for alias in node.names}
    return names


def test_each_oracle_decision_has_one_owner():
    """``fock`` owns the ladder words and the layout of its states, and
    ``sld`` the form: ``validate`` reads of ``fock``'s private names only
    its two views, ``_blockwise`` and ``_laid_out``, ``fock`` imports none
    of the Gaussian pipeline and ``sld`` does not import ``fock``."""
    private = set()
    for node in ast.walk(_tree(validate)):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "fock":
            private.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("fock"):
            private |= {alias.name for alias in node.names}
    assert {name for name in private if name.startswith("_")} <= {"_blockwise", "_laid_out"}
    assert not _imports(fock) & {"gaussian", "qfi", "sld", "protocols"}
    assert "fock" not in _imports(importlib.import_module("bifrost.sld"))


def test_fock_constructors_reject_non_finite_inputs():
    """NaN photon numbers, amplitudes and tail masses raise domain errors
    instead of building NaN blocks or failing later as non-hermitian."""
    for n_th in (np.nan, np.inf, -0.1):
        with pytest.raises(ValueError, match=f"^{DOMAIN_ERROR}$"):
            fock.ThermalLossChannel(0.5, n_th, 10)
    for alpha in (np.nan, np.inf, -np.inf, -0.5):
        with pytest.raises(ValueError, match="^coherent amplitude must be real, finite and nonnegative"):
            fock.fock_coherent(alpha, 10)
    with pytest.raises(CutoffTooSmallError):
        fock._gate_cutoff(np.nan, 10, "thermal")
    fock._gate_cutoff(0.0, 10, "thermal")


def test_coherent_state_holds_at_large_photon_numbers():
    """Each amplitude is formed in log space, so the cutoffs that hold mean
    photon numbers 144 and 900 pass the gate, with no power or factorial
    leaving the float range. Their trace and mean photon number are off by
    4.6e-12 relative at worst, the round-off of logarithms near 6,000. The
    amplitudes match 30-digit ones to 1e-15, and alpha = 0 gives the
    vacuum."""
    for alpha, cutoff in ((12.0, 400), (30.0, 1200)):
        populations = np.diagonal(fock.fock_coherent(alpha, cutoff))
        assert abs(populations.sum() - 1.0) < 1e-11
        assert abs(populations @ np.arange(cutoff) - alpha**2) < 1e-11 * alpha**2
    alpha, cutoff = 1.5, 20
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        amps = [mpmath.exp(-(a**2) / 2) * a**n / mpmath.sqrt(mpmath.factorial(n)) for n in range(cutoff)]
        expected = np.array([float(x * y) for x in amps for y in amps]).reshape(cutoff, cutoff)
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
    (``fock_reference``), at cutoff 30: the two-mode squeezed states, each
    offset's product split as X1 X2^T with the square roots of the
    amplitudes on both sides, to 2e-16 (1.1e-16 measured), the coherent
    ones, products in another order, to 1e-15."""
    cutoff, n_s, n_th = 30, 0.5, 0.3
    for eta1 in (0.5, 0.8):
        family = fock.bifrequency_fock_family(eta1, n_s, n_th, probe, cutoff)
        reference = fock_reference.reference_family(eta1, n_s, n_th, probe, cutoff)
        for lam in (0.0, 1e-4, -1e-4):
            rho, expected = fock_reference.dense(family(lam)), reference(lam)
            assert not expected.imag.any()
            bound = 2e-16 if probe == "tmsv" else 1e-15
            assert np.max(np.abs(rho - expected.real)) < bound, (eta1, lam)


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
        out = fock._by_offset(channel.blocks, rho)
        assert out.dtype == rho.dtype
        expected = (dense @ rho.ravel()).reshape(cutoff, cutoff)
        assert np.max(np.abs(out - expected)) < 1e-14
        per_offset = np.zeros_like(rho)
        for k, block in enumerate(channel.blocks):
            i = np.arange(cutoff - k)
            per_offset[i + k, i] = block @ rho[i + k, i]
            per_offset[i, i + k] = block @ rho[i, i + k]
        assert np.array_equal(out, per_offset)


@pytest.mark.parametrize("cutoff", [1, 2, 30, 80])
def test_offsets_apply_bit_for_bit_per_offset_and_side(cutoff):
    """``_by_offset`` with a channel's blocks or derivatives equals, bit for
    bit, one product per offset and side of each block with that offset's
    coherences gathered by a fancy index, on real and complex input, and
    keeps the input's dtype."""
    channel = fock.ThermalLossChannel(0.63, 0.25, cutoff)
    rng = np.random.default_rng(cutoff)
    noise = rng.standard_normal((2, cutoff, cutoff))
    for rho in (noise[0], noise[0] + 1j * noise[1]):
        for blocks in (channel.blocks, channel.dblocks):
            expected = np.zeros_like(rho)
            for k, block in enumerate(blocks):
                i = np.arange(cutoff - k)
                expected[i + k, i] = block @ rho[i + k, i]
                expected[i, i + k] = block @ rho[i, i + k]
            assert _same_bits(fock._by_offset(blocks, rho), expected)


def test_channel_trace_preserving():
    family = fock.bifrequency_fock_family(0.5, 0.3, 0.2, "tmsv", 22)
    assert abs(np.trace(fock_reference.dense(family(0.0))) - 1.0) < 1e-6


# --- channel memo -----------------------------------------------------------

def _count_builds(monkeypatch) -> list:
    """Empty the channel and state memos and record the arguments of every
    channel built from here on."""
    fock._channel.cache_clear()
    fock._received.cache_clear()
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


def test_full_validation_builds_each_channel_once(monkeypatch):
    """The oracle checks build the channels that the SLD checks, and the
    wide box's coherent checks, then read: 8 in all, none twice, at
    (eta1, n_th) in {0.5, 0.8} x {0.1, 0.3} at the validation cutoff and at
    (0.8, n_th) in {1, 2} at each cutoff of the wide box."""
    built = _count_builds(monkeypatch)
    assert all(check.passed for check in validate.full_validation())
    expected = {(eta1, n_th, validate.CUTOFF) for eta1 in (0.5, 0.8) for n_th in (0.1, 0.3)}
    expected |= {(0.8, n_th, cutoff) for n_th in (1.0, 2.0) for cutoff in (45, 80)}
    assert sorted(built) == sorted(expected)


def test_full_validation_leaves_small_memos():
    """The memos hold what the next configuration may read, not the sweep:
    at most 4 channels, those of one cutoff, and the layout of one cutoff."""
    validate.full_validation()
    assert fock._channel.cache_info().currsize <= 4
    assert fock._sector_layout.cache_info().currsize <= 1


def _record_states(monkeypatch) -> list:
    """Empty the received-state memo and record every two-mode state made
    from here on, by either constructor."""
    fock._received.cache_clear()
    made = []

    def recording(build):
        return classmethod(lambda cls, *args: made.append(build(*args)) or made[-1])

    for name in ("product", "sectors"):
        monkeypatch.setattr(fock.FockState, name, recording(getattr(fock.FockState, name)))
    return made


def test_full_validation_builds_each_state_once(monkeypatch):
    """The oracle and SLD checks of one probe and configuration run back to
    back and share its received state: 24 states for the 16 validation and
    8 wide-box checks of both probes, none built twice."""
    made = _record_states(monkeypatch)
    assert all(check.passed for check in validate.full_validation())
    validation, wide_box = [True] * 8 + [False] * 8, [True] * 4 + [False] * 4
    assert [state.factors is None for state in made] == validation + wide_box


def test_one_received_state_is_held(monkeypatch):
    """Families of one configuration share its state at the working point;
    another configuration evicts it before its own state is built, so the
    memo never holds two states, and the first is built again, with the
    same bits."""
    first = fock.bifrequency_fock_family(0.8, 0.05, 0.3, "tmsv", 12)
    state = first(fock.LAMBDA0)
    assert fock.bifrequency_fock_family(0.8, 0.05, 0.3, "tmsv", 12)(0.0) is state
    assert first(1e-4) is not first(1e-4)
    held, evaluate = [], fock._evaluate

    def recording(*args):
        held.append(fock._received.cache_info().currsize)
        return evaluate(*args)

    monkeypatch.setattr(fock, "_evaluate", recording)
    other = fock.bifrequency_fock_family(0.8, 0.05, 0.3, "coherent", 12)(fock.LAMBDA0)
    assert held == [0] and fock._received.cache_info().currsize == 1
    assert fock.bifrequency_fock_family(0.8, 0.05, 0.3, "coherent", 12)(0.0) is other
    again = first(fock.LAMBDA0)
    assert again is not state
    assert np.array_equal(again.coherences, state.coherences)
    assert np.array_equal(again.tangent, state.tangent)


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
    per-cutoff layout of the sectors, nor any array of a shared state at the
    working point. A coherent state off the working point takes its first
    factor from the memoised channel, not from the shared state, so it has
    that state's bits and leaves the shared-state memo alone."""
    channel = fock._channel(0.8, 0.3, 12)
    assert fock._channel(0.8, 0.3, 12) is channel
    assert isinstance(channel.blocks, tuple) and isinstance(channel.dblocks, tuple)
    for block in channel.blocks + channel.dblocks:
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0] = 1.0
    with pytest.raises(TypeError):
        channel.blocks[0] = np.zeros((12, 12))
    assert fock._sector_layout(12) is fock._sector_layout(12)
    sectors = fock.bifrequency_fock_family(0.8, 0.05, 0.3, "tmsv", 12)(0.0)
    coherent = fock.bifrequency_fock_family(0.8, 0.05, 0.3, "coherent", 12)
    first = coherent(0.0).factors[0]
    info = fock._received.cache_info()
    assert _same_bits(coherent(1e-4).factors[0], first)
    assert fock._received.cache_info() == info
    shared = list(fock._sector_layout(12))
    shared += [sectors.coherences, sectors.tangent, *coherent(0.0).factors, coherent(0.0).tangent]
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
    fock._received.cache_clear()
    fresh_family = fock.bifrequency_fock_family(0.8, 0.5, 0.3, probe, cutoff)
    for lam, state in zip(lams, memoised):
        fresh = fresh_family(lam)
        if probe == "coherent":
            assert all(map(np.array_equal, state.factors, fresh.factors)), lam
        else:
            assert np.array_equal(state.coherences, fresh.coherences), lam
        assert np.array_equal(state.tangent, fresh.tangent), lam


# --- QFI ------------------------------------------------------------------

def test_qfi_eq1_constant_family():
    """A state with a zero tangent has no QFI, on the sector route and the
    product route."""
    thermal = fock_reference.fock_thermal(0.4, 15)
    coherences = fock.bifrequency_fock_family(0.5, 0.2, 0.4, "tmsv", 15)(0.0).coherences
    for pair in (fock.FockState.sectors(np.stack([coherences, np.zeros_like(coherences)])),
                 fock.FockState.product(thermal, thermal, np.zeros((15, 15)))):
        assert fock.qfi_eq1(lambda lam: pair) < 1e-10


def test_no_state_is_built_without_its_tangent():
    """Every state carries its tangent, so ``qfi_eq1`` always has one: the
    coherences alone, a (1, N) array, raise one ValueError that names the
    shape (2, N) of a state and its tangent, and a product needs its
    tangent as an argument."""
    thermal = fock_reference.fock_thermal(0.4, 15)
    coherences = fock.bifrequency_fock_family(0.5, 0.2, 0.4, "tmsv", 15)(0.0).coherences
    expected = re.escape(f"coherences must be finite, of shape (2, {coherences.size}), not (1, ")
    with pytest.raises(ValueError, match=f"^{expected}"):
        fock.FockState.sectors(coherences[None])
    with pytest.raises(TypeError, match="tangent"):
        fock.FockState.product(thermal, thermal)


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


@pytest.mark.parametrize("eta", [1e-310, 5e-324])
def test_channel_rejects_a_reflectivity_its_derivative_cannot_hold(eta):
    """At a subnormal eta, d log tau/deta = (1 + n_th)/(G eta) is infinite:
    the channel, at every bath of the domain, and a family at that eta1,
    raise ValueError before any arithmetic warns, at every cutoff."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n_th in (0.0, 1e-6, 0.3, 1.0, 1e3, 1e6):
            for cutoff in (1, 2, 30):
                with pytest.raises(ValueError, match="too small for cutoff"):
                    fock.ThermalLossChannel(eta, n_th, cutoff)
        for probe in ("tmsv", "coherent"):
            with pytest.raises(ValueError, match="too small for cutoff"):
                fock.bifrequency_fock_family(eta, 1e-6, 0.0, probe, 2)(0.0)


def test_channel_rejects_a_transmissivity_that_rounds_to_zero():
    """tau = eta / G rounds to 0 only outside the photon-number domain, as
    at eta = 1e-300 with n_th = 1e300, where the channel and a family raise
    the domain error. Inside it, the smallest eta of the form 2^-k that
    passes the derivative's bound, at each bath and cutoff, builds a channel
    with tau > 0 and finite blocks, with no warning: tau = eta G / G^2
    exceeds 2 / (1.8e308 (1 + n_th)) there."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cutoff in (1, 10):
            with pytest.raises(ValueError, match=DOMAIN_ERROR):
                fock.ThermalLossChannel(1e-300, 1e300, cutoff)
        for probe in ("tmsv", "coherent"):
            with pytest.raises(ValueError, match=DOMAIN_ERROR):
                fock.bifrequency_fock_family(1e-300, 1e-6, 1e300, probe, 2)(0.0)
        for n_th in (0.0, 1e-6, 1.0, 1e3, N_MAX):
            for cutoff in (1, 2, 30):
                for k in range(1074, 0, -1):
                    try:
                        channel = fock.ThermalLossChannel(2.0**-k, n_th, cutoff)
                    except ValueError as exc:
                        assert "too small for cutoff" in str(exc)
                        continue
                    assert 2.0**-k / (1.0 + (1.0 - 2.0**-k) * n_th) > 0.0
                    assert all(np.all(np.isfinite(b)) for b in channel.blocks + channel.dblocks)
                    break


def test_channel_at_the_smallest_reflectivities_it_holds_is_finite():
    """Just above the bound, and at 1e-300, every block and derivative is
    finite and no warning is raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eta, cutoff in ((1e-300, 80), (1e-305, 80), (1e-307, 5), (3e-308, 1)):
            channel = fock.ThermalLossChannel(eta, 0.3, cutoff)
            assert all(np.all(np.isfinite(b)) for b in channel.blocks + channel.dblocks)


def test_tangent_is_checked_as_its_state():
    """A tangent is checked as its state is: a product's dB for
    hermiticity and shape, coherences, the second row of the state's array
    and so of its size, for finiteness
    (``test_sector_state_checks_size_and_finiteness``)."""
    state = fock.bifrequency_fock_family(0.6, 0.1, 0.2, "tmsv", 10)(0.0)
    with pytest.raises(ValueError, match="^coherences must be finite"):
        fock.FockState.sectors(np.stack([state.coherences, np.full_like(state.coherences, np.nan)]))
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
    1e-9 of the closed form (measured 3.6e-11 for tmsv, 8.7e-14 for
    coherent): Eq. 1 skips only pairs whose eigenvalue sum is not positive,
    so the cutoff alone sets the floor."""
    h = fock.qfi_eq1(fock.bifrequency_fock_family(0.8, 0.5, 10.0, probe, 100))
    ref = closed(0.8, 0.5, 10.0)
    assert abs(h - ref) / ref < 1e-9


def test_oracle_reads_the_closed_forms_to_round_off():
    """At every ORACLE_CONFIGS point at the validation cutoff, the oracle
    QFI of the coherent probe, and of the two-mode squeezed probe at
    n_s = 0.2, is within 1e-12 of the closed form (measured 4.6e-14 at
    most): no eigenvalue pair with a positive sum is dropped from Eq. 1."""
    for probe, closed in (("tmsv", bf.hq_closed_form), ("coherent", bf.hc_closed_form)):
        for eta1, n_s, n_th in validate.ORACLE_CONFIGS:
            if probe == "tmsv" and n_s != 0.2:
                continue
            family = fock.bifrequency_fock_family(eta1, n_s, n_th, probe, validate.CUTOFF)
            ref = closed(eta1, n_s, n_th)
            assert abs(fock.qfi_eq1(family) - ref) / ref < 1e-12, (probe, eta1, n_s, n_th)


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
    Each walks cutoff mirror pairs and makes one ``eigh`` call per pair: at
    the working point, where mirror sectors are equal, each on one matrix,
    and at lam = 1e-4, where none are, each on the pair's stack of two but
    the lone sector n1 = n2. Below cutoff 21 the gate rejects the received
    state at (0.8, 0.5, 0.3), whose trace leak is 1.07e-6 at cutoff 20."""
    from bifrost.validate import ORACLE_CONFIGS

    shapes = []
    eigh = np.linalg.eigh

    def recording_eigh(mat, *args, **kwargs):
        shapes.append(mat.shape)
        return eigh(mat, *args, **kwargs)

    for eta1, n_s, n_th in ORACLE_CONFIGS:
        family = fock.bifrequency_fock_family(eta1, n_s, n_th, "tmsv", cutoff)
        off = fock._evaluate(eta1, n_s, n_th, "tmsv", cutoff, 1e-4)
        for at, stacked in ((family, 0), (lambda lam: off, cutoff - 1)):
            assert len(list(fock._blockwise(at(0.0))[1])) == cutoff
            shapes.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(np.linalg, "eigh", recording_eigh)
                h_sectors = fock.qfi_eq1(at)
            h_dense = _dense_route(at)
            assert len(shapes) == cutoff, (eta1, n_s, n_th, stacked)
            assert sum(len(shape) == 3 and shape[0] == 2 for shape in shapes) == stacked
            assert abs(h_sectors - h_dense) / h_dense < 1e-10, (eta1, n_s, n_th, stacked)


def test_product_qfi_diagonalises_only_factors(monkeypatch):
    """The coherent family diagonalises only its second factor, the one
    (1, cutoff, cutoff) stack of ``_blockwise``, once: the first factor
    enters as its trace."""
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
    stacks = [(stack.shape, dstack.shape) for stack, dstack in fock._blockwise(family(0.0))[1]]
    assert stacks == [((1, cutoff, cutoff),) * 2]
    fock.qfi_eq1(family)
    assert shapes == [("eigh", (cutoff, cutoff))]


def test_sector_qfi_diagonalises_only_sectors(monkeypatch):
    """At the working point the two-mode squeezed family diagonalises each
    mirror pair of sectors once, as the pairs come, |n1 - n2| = 0, 1, 2,
    ...: cutoff decompositions, the first of size cutoff and then one of
    each smaller size, so no matrix larger than cutoff x cutoff. Above
    cutoff 80 too, where OpenBLAS forms a product X Y^T of two buffers
    asymmetric in its last bits with two threads."""
    shapes = []
    eigh = np.linalg.eigh

    def recording_eigh(mat, *args, **kwargs):
        shapes.append(mat.shape)
        return eigh(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    for cutoff, config in ((30, (0.8, 0.5, 0.3)), (83, (0.8, 1.0, 1.0))):
        shapes.clear()
        fock.qfi_eq1(fock.bifrequency_fock_family(*config, "tmsv", cutoff))
        assert shapes == [(size, size) for size in range(cutoff, 0, -1)], cutoff


def test_each_walk_takes_the_state_once_per_mirror_pair(monkeypatch):
    """``qfi_eq1`` and ``validate.sld_fock_report`` each gather the
    state's buffer, both rows at once, by one ``np.take`` per |n1 - n2|:
    cutoff gathers per walk, at the indices of the mirror pairs."""
    cutoff = 22
    family = fock.bifrequency_fock_family(0.8, 0.5, 0.3, "tmsv", cutoff)
    rows = family(0.0).rows
    taken = []
    take = np.take

    def recording_take(values, indices, *args, **kwargs):
        if values is rows:
            taken.append(np.shape(indices))
        return take(values, indices, *args, **kwargs)

    monkeypatch.setattr(np, "take", recording_take)
    pairs = [(1, cutoff, cutoff)] + [(2, size, size) for size in range(cutoff - 1, 0, -1)]
    for walk in (lambda: fock.qfi_eq1(family), lambda: validate.sld_fock_report(0.8, 0.5, 0.3, "tmsv", cutoff)):
        taken.clear()
        walk()
        assert taken == pairs


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

# the tolerance each oracle check of ``validate`` documents, by the check's name
CHECK_TOLERANCES = {
    "oracle": 1e-6, "sld anticommutator": 1e-4, "sld variance": 1e-4, "sld zero mean": 1e-5,
}


def test_oracle_checks_carry_their_documented_tolerances():
    """Every record of ``oracle_checks`` and ``wide_box_checks`` carries
    exactly the tolerance of its kind, compared as a float: a nudge that
    prints as the same "1.0e-06" fails here."""
    checks = validate.oracle_checks() + validate.wide_box_checks()
    assert len(checks) == 4 * 2 * (len(validate.ORACLE_CONFIGS) + len(validate.WIDE_CONFIGS))
    for check in checks:
        kind = next(kind for kind in CHECK_TOLERANCES if check.name.startswith(kind + " "))
        assert check.tolerance == CHECK_TOLERANCES[kind], check.name

REPORT_KEYS = ("residual", "mean", "second_moment", "qfi", "variance_rel_error")


@pytest.mark.parametrize("probe", ["tmsv", "coherent"])
def test_sld_report_matches_dense_computation(probe):
    """On every oracle configuration, at cutoff 25 and at the validation
    cutoff, the report from factors or sectors equals the one made of the
    sparse operator and the dense states, within 1e-10 per key, and its QFI
    is the same number."""
    for cutoff in (25, validate.CUTOFF):
        for config in validate.ORACLE_CONFIGS:
            report = validate.sld_fock_report(*config, probe, cutoff)
            expected = fock_reference.dense_sld_report(*config, probe, cutoff)
            assert report["qfi"] == expected["qfi"]
            for key in REPORT_KEYS:
                assert abs(report[key] - expected[key]) < 1e-10, (cutoff, config, key)


def test_sld_report_forms_no_dense_matrix(monkeypatch):
    """The report takes ell one stack at a time, laid out as the state's
    stacks: a product's one (1, cutoff, cutoff) stack, or the cutoff mirror
    pairs of sectors, none larger than (2, cutoff, cutoff). That no two-mode
    density matrix is formed holds by the package's structure
    (``test_package_keeps_no_dense_two_mode_state``)."""
    cutoff = 22
    taken = []
    laid_out = fock._laid_out

    def recording(terms, state):
        return (taken.append(stack.shape) or stack for stack in laid_out(terms, state))

    monkeypatch.setattr(fock, "_laid_out", recording)
    validate.sld_fock_report(0.8, 0.5, 0.3, "coherent", cutoff)
    assert taken == [(1, cutoff, cutoff)]
    validate.sld_fock_report(0.8, 0.5, 0.3, "tmsv", cutoff)
    assert taken[1:] == [(1 + (step > 0), cutoff - step, cutoff - step) for step in range(cutoff)]


def test_oracle_pass_forms_no_dense_matrix(monkeypatch):
    """A whole pass as the benchmark makes it, at cutoff 30 with both
    probes, the QFI, the SLD report and the moments, makes two two-mode
    states, one per probe, which all three read; each is kept as factors or
    sectors, since a Fock state has no other form
    (``test_package_keeps_no_dense_two_mode_state``)."""
    made = _record_states(monkeypatch)
    for probe in ("tmsv", "coherent"):
        family = fock.bifrequency_fock_family(0.8, 0.5, 0.3, probe, 30)
        fock.qfi_eq1(family)
        validate.sld_fock_report(0.8, 0.5, 0.3, probe, 30)
        fock.quadrature_moments(family(0.0))
    assert [state.factors is None for state in made] == [True, False]


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
    return bf.SldForm(quad=quad + quad.T, linear=rng.standard_normal(4), scalar=0.2, center=np.zeros(4))


def test_sld_report_rejects_a_charged_form_on_sectors(monkeypatch):
    """A state kept as sectors is read one sector at a time, so a form whose
    terms change n1 - n2 raises ValueError there, as a mode-1 form does on
    a product."""
    _fix_form(monkeypatch, _random_form(4))
    with pytest.raises(ValueError, match="changes n1 - n2 on a state kept as sectors"):
        validate.sld_fock_report(0.8, 0.2, 0.3, "tmsv", 16)


@settings(max_examples=256, derandomize=True, deadline=None, database=None)
@example(eta1=1e-6, n_s=1e-6, n_th=1e-6)
@example(eta1=1e-6, n_s=1e6, n_th=1e6)
@example(eta1=1.0 - 1e-6, n_s=1e6, n_th=1e-6)
@example(eta1=1.0 - 1e-6, n_s=1e-6, n_th=1e6)
@given(
    eta1=st.floats(1e-6, 1.0 - 1e-6),
    n_s=log_uniform(1e-6, 1e6),
    n_th=log_uniform(1e-6, 1e6),
)
def test_tmsv_sld_form_keeps_n1_minus_n2(eta1, n_s, n_th):
    """Over the whole domain the two-mode squeezed probe's SLD keeps
    n1 - n2, the condition under which ``sld_fock_report`` reads a state
    kept as sectors one sector at a time: no linear term, no center, and
    every nonzero quadratic entry A_i^dag A_j has equal charges for A_i and
    A_j, with (a_1, a_2, a_1^dag, a_2^dag) of charges (-1, 1, 1, -1)."""
    from bifrost.sld import _solve

    family = bf.bifrequency_received_state(bf.BiFrequencyParams(eta1, 0.0, n_s, n_th), "tmsv")
    form = _solve(family).form()
    charges = np.array([-1, 1, 1, -1])
    assert not np.any(form.linear) and not np.any(form.center)
    assert not np.any(form.quad[charges[:, None] != charges])


def test_sld_report_rejects_a_complex_form_on_sectors(monkeypatch):
    """ell on a state kept as sectors is read from one offset for both
    triangles, which holds for a real symmetric ell only: a complex form
    that keeps n1 - n2 raises ValueError."""
    quad = np.zeros((4, 4), complex)
    quad[0, 3], quad[3, 0] = 0.5j, -0.5j  # i (a1^dag a2^dag - a2 a1)/2, hermitian
    _fix_form(monkeypatch, bf.SldForm(quad=quad, linear=np.zeros(4), scalar=0.1, center=np.zeros(4)))
    with pytest.raises(ValueError, match="^the SLD form is complex, and the oracle's states are real$"):
        validate.sld_fock_report(0.8, 0.2, 0.3, "tmsv", 16)


def test_sld_report_rejects_a_mode_1_form_on_a_product(monkeypatch):
    """On a product state the report takes only the I x ell_2 route, so a
    form with a mode-1 term raises ValueError there."""
    _fix_form(monkeypatch, _random_form(4))
    with pytest.raises(ValueError, match="mode 1 of a product"):
        validate.sld_fock_report(0.8, 0.2, 0.3, "coherent", 16)


def _same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: -0.0 and 0.0, or two NaNs, tell apart."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype, a.shape) == (b.dtype, b.shape) and (
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


# probe photon number per cutoff, inside the two-mode squeezed gate: at
# cutoff 1 that of the domain's vacuum alone
GATHER_CUTOFFS = {1: 0.0, 2: 1e-4, 30: 0.5, 45: 1.0}


@pytest.mark.parametrize("cutoff", GATHER_CUTOFFS)
def test_take_gathers_match_the_fancy_index_bit_for_bit(cutoff):
    """``_tmsv_sectors``, which writes each product into its slice of the
    coherences, equals the concatenation of the products bit for bit."""
    ch1, ch2 = fock.ThermalLossChannel(0.8, 0.3, cutoff), fock.ThermalLossChannel(0.5, 1.0, cutoff)
    amps = fock._tmsv_amplitudes(GATHER_CUTOFFS[cutoff], cutoff)
    coherences = fock._tmsv_sectors(ch1, ch2, amps)
    assert _same_bits(coherences, fock_reference.concatenated_tmsv_sectors(ch1, ch2, amps))


# a configuration inside the gate at each cutoff of the mirror test
MIRROR_CONFIGS = {
    30: (0.8, 0.5, 0.3), 45: (0.8, 1.0, 1.0), 80: (0.8, 2.0, 1.0),
    81: (0.8, 2.0, 1.0), 83: (0.8, 2.0, 1.0), 121: (0.8, 2.0, 1.0),
}


@pytest.mark.parametrize("cutoff", [1, 2, *MIRROR_CONFIGS])
def test_mirror_sectors_are_equal_bit_for_bit(cutoff):
    """Through one channel on both modes, as at the working point, each
    offset's product X X^T is symmetric bit for bit, so sector -delta equals
    sector delta, its partner in the mirror pair: below the tail gate from
    ``_tmsv_sectors`` itself, else in the working-point state of a family,
    whose two channels are one memoised object. Above cutoff 80 too, where
    a product of two buffers, X @ X.copy().T, is not symmetric at most sizes
    with two BLAS threads."""
    if cutoff in MIRROR_CONFIGS:
        state = fock.bifrequency_fock_family(*MIRROR_CONFIGS[cutoff], "tmsv", cutoff)(fock.LAMBDA0)
    else:
        channel = fock.ThermalLossChannel(0.8, 0.3, cutoff)
        amps = fock._tmsv_amplitudes(GATHER_CUTOFFS[cutoff], cutoff)
        state = fock.FockState.sectors(fock._tmsv_sectors(channel, channel, amps))
    for k in range(cutoff):
        size = cutoff - k
        product = state.coherences[fock._start(cutoff, k) : fock._start(cutoff, k + 1)].reshape(size, size)
        assert _same_bits(product, product.T), k
    pairs = [blocks for blocks, _ in fock._blockwise(state)[1]]
    assert [len(blocks) for blocks in pairs] == [1] + [2] * (cutoff - 1)
    for delta, blocks in enumerate(pairs[1:], 1):
        assert _same_bits(blocks[0], blocks[1]), delta


# largest deviation measured over these states, relative to their largest
# moment, was 9.9e-16 (a product at cutoff 3): a few ulps of
# summation order
RANDOM_MOMENTS_ROUNDOFF = 2e-15


@pytest.mark.parametrize("cutoff", [1, 2, 3, 30])
def test_moments_of_random_states_match_the_dense_reference(cutoff):
    """On random products and random coherences, neither of them
    physical, the moments read off the form equal the traces of the dense
    matrix against full-space operators, to RANDOM_MOMENTS_ROUNDOFF times
    the largest moment."""
    rng = np.random.default_rng(cutoff)
    states = []
    for _ in range(3):
        noise = rng.standard_normal((3, cutoff, cutoff))
        states.append(fock.FockState.product(*(m + m.T for m in noise)))
        states.append(fock.FockState.sectors(rng.standard_normal((2, fock._start(cutoff, cutoff)))))
    for state in states:
        got = np.concatenate([m.ravel() for m in fock.quadrature_moments(state)])
        cov, disp = fock_reference.dense_moments(fock_reference.dense(state), cutoff, 2)
        expected = np.concatenate([cov.ravel(), disp])
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(got - expected)) <= RANDOM_MOMENTS_ROUNDOFF * scale


@pytest.mark.parametrize("cutoff", GATHER_CUTOFFS)
def test_sector_sld_blocks_match_the_reference_gather(cutoff):
    """On a random state kept as sectors, ell laid out as its coherences
    gives, per mirror pair, a stack of the state's shape whose blocks are,
    on each sector, the block of the sparse two-mode reference operator
    (``fock_reference.sparse_sld_operator``), to 1e-13 relative, for real
    forms that keep n1 - n2: the two-mode squeezed probe's SLD and random
    ones. Summed over the zipped stacks, Tr(ell rho) and ||drho||^2 are
    those of the whole dense state and tangent."""
    from bifrost.sld import _solve, _terms

    rng = np.random.default_rng(cutoff)
    size = fock._start(cutoff, cutoff)
    state = fock.FockState.sectors(rng.standard_normal((2, size)))
    rho, drho = fock_reference.dense(state), fock_reference.dense_tangent(state)
    probe = bf.bifrequency_received_state(bf.BiFrequencyParams(0.8, 0.0, 0.5, 0.3), "tmsv")
    forms = [_solve(probe).form()]
    keeps = np.equal.outer(*2 * [np.array([-1, 1, 1, -1])])  # charges of a1, a2, a1^dag, a2^dag
    for _ in range(2):
        quad = rng.standard_normal((4, 4)) * keeps
        forms.append(bf.SldForm(quad=quad + quad.T, linear=np.zeros(4), scalar=0.3, center=np.zeros(4)))
    for form in forms:
        reference = fock_reference.sparse_sld_operator(form, cutoff).tocsr()
        ell_blocks, mean, tangent_sq = [], 0.0, 0.0
        stacks = zip(fock._laid_out(_terms(form), state), fock._blockwise(state)[1], strict=True)
        for ell_stack, (stack, dstack) in stacks:
            assert ell_stack.shape == stack.shape
            ell_blocks += list(ell_stack)
            mean += np.vdot(ell_stack, stack)
            tangent_sq += np.vdot(dstack, dstack)
        for ell_block, idx in zip(ell_blocks, fock_reference.sector_indices(cutoff), strict=True):
            expected = reference[idx][:, idx].toarray()
            assert np.max(np.abs(ell_block - expected)) <= 1e-13 * max(np.max(np.abs(expected)), 1.0)
        expected_mean = reference.multiply(rho.T).sum()
        assert abs(mean - expected_mean) <= 1e-13 * max(abs(expected_mean), 1.0)
        assert abs(tangent_sq - np.vdot(drho, drho)) <= 1e-13 * np.vdot(drho, drho)


def test_ladder_diagonals_match_the_ladder_products():
    """Each ladder word of at most two factors is its one nonzero diagonal,
    the product of ladder matrices bit for bit on that diagonal and 0
    elsewhere, also at cutoffs 1 and 2, where some diagonals are empty."""
    for cutoff in (1, 2, 3, 30):
        lines = fock._ladder_diagonals(cutoff)
        assert sorted(lines) == sorted(("", "a", "A", "aa", "aA", "Aa", "AA"))
        for word, (k, line) in lines.items():
            matrix = fock_reference.ladder_word(word, cutoff)
            assert _same_bits(line, np.diagonal(matrix, k)), (cutoff, word)
            assert not np.any(matrix - np.diagflat(line, k)[:cutoff, :cutoff]), (cutoff, word)


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
    """Over the whole domain every term of the coherent probe's SLD form
    acts on mode 1 as the identity: the condition under which
    ``sld_fock_report`` reads a product state through its one block."""
    from bifrost.sld import _solve, _terms

    family = bf.bifrequency_received_state(bf.BiFrequencyParams(eta1, 0.0, n_s, n_th), "coherent")
    assert all(u == "" for _, u, _ in _terms(_solve(family).form()))


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
