"""Square-pulse control schedules for finite-level quantum systems.

Synthesizes two-stage (pulse-on rotation, pulse-off phase accumulation)
schedules driving the ground state to an arbitrary target state, verifies
them by exact piecewise-constant propagation, and checks complete
controllability through the generated Lie algebra.
"""

from .controllability import (
    ChevalleyRecipe,
    LieClosureResult,
    chevalley_witness,
    is_completely_controllable,
    lie_closure,
    system_generators,
)
from .ledger import (
    AmplitudeLedger,
    LedgerMode,
    evaluate_ledger,
    forward_ledger,
    paper_closed_form,
)
from .operators import BlockParams, block_params, coupling_operator, drift_hamiltonian
from .propagator import (
    PulseCycle,
    PulseSchedule,
    Trajectory,
    free_propagator,
    ground_state,
    matrix_exp_oracle,
    pulse_propagator,
    simulate,
    validate_state,
)
from .spectrum import (
    SpectrumClass,
    SystemKind,
    SystemSpec,
    classify_spectrum,
    coupled_gap,
    recenter,
    validate_spectrum,
)
from .synthesis import (
    SynthesisOptions,
    SynthesisReport,
    angles_to_widths,
    fidelity,
    solve_angles,
    solve_free_times,
    synthesize,
)

__all__ = [
    "AmplitudeLedger",
    "BlockParams",
    "ChevalleyRecipe",
    "LedgerMode",
    "LieClosureResult",
    "PulseCycle",
    "PulseSchedule",
    "SpectrumClass",
    "SynthesisOptions",
    "SynthesisReport",
    "SystemKind",
    "SystemSpec",
    "Trajectory",
    "angles_to_widths",
    "block_params",
    "chevalley_witness",
    "classify_spectrum",
    "coupled_gap",
    "coupling_operator",
    "drift_hamiltonian",
    "evaluate_ledger",
    "fidelity",
    "forward_ledger",
    "ground_state",
    "is_completely_controllable",
    "lie_closure",
    "paper_closed_form",
    "recenter",
    "simulate",
    "solve_angles",
    "solve_free_times",
    "synthesize",
    "system_generators",
    "validate_spectrum",
    "validate_state",
]
__version__ = "0.2.0"
