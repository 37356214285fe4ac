# chaoscontrol pins BLAS to one thread before numpy loads, so it comes first
import chaoscontrol  # noqa: F401

import functools
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from chaoscontrol import (
    IntegratorConfig,
    LorenzParams,
    random_initial_state,
    relax_to_attractor,
    simulate,
)
from chaoscontrol.experiments import ExperimentConfig, prepare_trained_model

INTEGRATOR = IntegratorConfig(dt=0.05, substeps=5)
TRAIN_PARAMS = LorenzParams(sigma=10.0, rho=166.15, beta=8.0 / 3.0)
PLANT_PARAMS = LorenzParams(sigma=10.0, rho=167.2, beta=8.0 / 3.0)

# climate bands of the training (X) and plant (Y) regimes
X_LAMBDA = (0.45, 0.80)
X_NU = (1.15, 1.55)
Y_LAMBDA = (0.70, 1.10)
Y_NU = (1.55, 1.80)


def attractor_trajectory(params, n_steps, seed=0):
    rng = np.random.default_rng(seed)
    u0 = relax_to_attractor(random_initial_state(rng), params, INTEGRATOR)
    return simulate(u0, params, INTEGRATOR, n_steps)


def summary_for(result, kind, n):
    """The summary row of one (kind, N) cell of a SweepResult."""
    for row in result.summary:
        if row.kind == kind and row.n == n:
            return row
    raise KeyError((kind, n))


@pytest.fixture(scope="session")
def train_run_short():
    """Intermittent-regime series long enough to fit either predictor."""
    return attractor_trajectory(TRAIN_PARAMS, 999, seed=11)


@pytest.fixture(scope="session")
def train_run_long():
    """Horizon-length intermittent-regime series for climate estimates."""
    return attractor_trajectory(TRAIN_PARAMS, 10_000, seed=11)


@pytest.fixture(scope="session")
def seed0_classic():
    """(training series, trained model) of the default seed-0 classic
    experiment at a given training length, each length built once."""

    @functools.lru_cache(maxsize=None)
    def build(training_steps):
        return prepare_trained_model(ExperimentConfig(training_steps=training_steps))

    return build
