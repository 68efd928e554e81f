"""Desk-scale simulation and analysis suite for a silicon quantum-dot-coupled
nuclear spin qubit: coherent electron-nucleus dynamics under pulsed control,
noisy repetitive readout, shuttling dephasing, hyperfine site statistics over
the silicon lattice, metallic-gate nuclear-bath moment estimates, and the fitting
pipeline that extracts the headline numbers."""

from .core import (
    NoiseBatch,
    NoiseDraw,
    NoiseModel,
    QuantumState,
    SpinSystemParams,
    sample_noise,
    sigma_from_t2,
    transition_frequencies,
)
from .engine import SequenceResult, run_sequence
from .experiments import (
    BellNoiseConfig,
    BellTomographyResult,
    ErrorBudget,
    ExperimentResult,
    calibrate_bell_projection,
    compute_error_budget,
    run_bell_parity_sweep,
    run_bell_tomography,
    run_hahn,
    run_nmr_chevron,
    run_rabi,
    run_ramsey,
    run_shuttle_experiments,
)
from .readout import (
    NuclearReadoutConfig,
    ReadoutFidelities,
    nuclear_fidelity_model,
    optimize_shots,
    repetitive_nuclear_readout,
)
from .sequences import (
    ChargeEvent,
    FreeEvolution,
    Pulse,
    PulseSequence,
    Rotation,
    bell_circuit,
    hahn_sequence,
    ramsey_sequence,
    synchronized_esr_rabi,
)

__all__ = [
    "BellNoiseConfig",
    "BellTomographyResult",
    "ChargeEvent",
    "ErrorBudget",
    "ExperimentResult",
    "FreeEvolution",
    "NoiseBatch",
    "NoiseDraw",
    "NoiseModel",
    "NuclearReadoutConfig",
    "Pulse",
    "PulseSequence",
    "QuantumState",
    "ReadoutFidelities",
    "Rotation",
    "SequenceResult",
    "SpinSystemParams",
    "bell_circuit",
    "calibrate_bell_projection",
    "compute_error_budget",
    "hahn_sequence",
    "nuclear_fidelity_model",
    "optimize_shots",
    "ramsey_sequence",
    "repetitive_nuclear_readout",
    "run_bell_parity_sweep",
    "run_bell_tomography",
    "run_hahn",
    "run_nmr_chevron",
    "run_rabi",
    "run_ramsey",
    "run_sequence",
    "run_shuttle_experiments",
    "sample_noise",
    "sigma_from_t2",
    "synchronized_esr_rabi",
]

__version__ = "0.1.0"
