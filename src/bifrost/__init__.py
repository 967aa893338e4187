"""Gaussian quantum-metrology engine for lossy bosonic sensing protocols."""

from .errors import (
    CutoffTooSmallError,
    DegenerateStateError,
    NoInformationError,
    NumericalInstabilityError,
    PureStateError,
)
from .gaussian import (
    GaussianState,
    SymplecticTransform,
    apply,
    beam_splitter,
    coherent,
    omega,
    partial_trace,
    tensor,
    thermal,
    tmsv,
    two_mode_squeezed,
    vacuum,
)
from .qfi import (
    QfiResult,
    StateFamily,
    hc_closed_form,
    hq_closed_form,
    ratio_high_reflectivity,
    ratio_noisy_limit,
)
from .sld import (
    CoherentObservable,
    JpaCircuitParams,
    JpaCircuitSolution,
    SldCoefficients,
    SldForm,
    coherent_observable,
    jpa_circuit_solve,
    optimal_observable,
    qfi_complex_form,
    qfi_result,
    sld,
    sld_coeffs_closed_form,
)
from .protocols import (
    BiFrequencyParams,
    ThermalApproxReport,
    bifrequency_advantage,
    bifrequency_received_state,
    noise_factor_ratio,
    qi_classical_qfi,
    qi_classical_qfi_numeric,
    qi_quantum_qfi,
    qi_quantum_qfi_numeric,
    qi_ratio,
    thermal_equal_occupation,
)

__version__ = "0.1.0"
