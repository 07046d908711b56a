"""Linear-entropy dynamics of a harmonic oscillator in thermal environments.

Three environment models share one question: how fast does an initially
coherent oscillator become mixed?  The package provides the closed-form
entropy curves for a Markovian thermal bath, a single thermal oscillator
coupled by excitation exchange, and a single thermal oscillator coupled by a
cross-Kerr term, together with brute-force truncated-Fock-space engines that
validate every closed form.
"""

__version__ = "0.1.0"

from .errors import (
    CutoffTooSmallError,
    IntegrationFailureError,
    MiniEnvError,
    NumericalContractError,
)
from .fock import (
    FockOperator,
    annihilation,
    identity,
    partial_trace_b,
    purity,
    tensor,
    trace,
    trace_distance,
)
from .joint import (
    AmplitudeEvolver,
    JointConfig,
    build_joint_hamiltonian,
    evolve_kerr_joint,
    evolve_kerr_reduced,
    mean_occupation_exchange,
)
from .master import (
    LindbladConfig,
    closed_form_master_state,
    default_cutoff,
    evolve_master,
    lindblad_rhs,
)
from .models import (
    EntropySeries,
    Model,
    ModelParams,
    PFunctionGaussian,
    amplitude_linear_entropy,
    analytic_plateau,
    decoherence_time_estimate,
    entropy_series,
    heisenberg_coeffs,
    kerr_linear_entropy,
    linear_entropy_of_model,
    master_linear_entropy,
    master_solution_params,
    measured_decoherence_time,
    p_function_gaussian,
)
from .states import (
    CoherentSpec,
    ThermalSpec,
    coherent_overlap,
    coherent_state,
    displaced_thermal_state,
    displacement_operator,
    thermal_state,
)
