"""Machine-learning control of chaotic dynamics into complex target states.

Simulates the Lorenz system, trains either a classical echo-state reservoir
or a polynomial next-generation reservoir on a target regime, derives a
feedback force from the trained predictor, and scores the controlled system
by its attractor climate (largest Lyapunov exponent, correlation dimension).
"""

from .control import ControlConfig, ControlRun, compute_force, free_run, run_control
from .dynamics import (
    IntegratorConfig,
    LorenzParams,
    Trajectory,
    lorenz_deriv,
    random_initial_state,
    relax_to_attractor,
    rk4_step,
    simulate,
    step_rk4,
)
from .errors import (
    ChaosControlError,
    ConfigError,
    DivergenceError,
    IllConditionedError,
    InsufficientDataError,
    IntegrationError,
    ReservoirSamplingError,
)
from .esn import EsnConfig, EsnModel, build_reservoir
from .experiments import (
    ExperimentConfig,
    SingleRunReport,
    SweepResult,
    SweepSpec,
    export_training_snapshot,
    run_single,
    run_sweep,
)
from .metrics import (
    ClimateStats,
    GpConfig,
    RosensteinConfig,
    climate_stats,
    correlation_dimension,
    largest_lyapunov,
)
from .modelio import load_model, save_model
from .ngrc import MonomialLibrary, NgrcConfig, NgrcModel, build_library
from .ridge import ridge_fit

__version__ = "0.1.0"
