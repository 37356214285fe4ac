"""Machine-learning control of chaotic dynamics into complex target states.

Simulates the Lorenz system, trains either a classical echo-state reservoir
or a polynomial next-generation reservoir on a target regime, derives a
feedback force from the trained predictor, and scores the controlled system
by its attractor climate (largest Lyapunov exponent, correlation dimension).
"""

import os

# BLAS results (the reservoir's spectral radius, the ridge readouts) change
# in their last bits with OpenBLAS's thread count, so the package runs one
# thread unless the caller has chosen a count.  numpy and scipy each load
# their own OpenBLAS, which reads these variables once, when it loads:
# they are set before the first numpy import.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

from .control import ControlConfig, ControlRun, free_run, run_control
from .dynamics import (
    IntegratorConfig,
    LorenzParams,
    Trajectory,
    random_initial_state,
    relax_to_attractor,
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
