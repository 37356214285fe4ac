"""Exception types shared across the package."""

# magnitude beyond which a predictor or plant state counts as diverged
DIVERGENCE_BOUND = 1e3


class ChaosControlError(Exception):
    """Base class for all errors raised by this package."""


class IntegrationError(ChaosControlError):
    """Integrator produced a non-finite state.

    Attributes:
        step: index of the step at which the state became non-finite.
    """

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class DivergenceError(ChaosControlError):
    """A closed-loop prediction or control run exceeded its magnitude bound.

    Attributes:
        phase: which stage diverged ('train', 'predict' or 'control').
        step: index of the offending step.
    """

    def __init__(self, message, phase=None, step=None):
        super().__init__(message)
        self.phase = phase
        self.step = step


def check_prediction(v, bound: float, step: int) -> None:
    """Raise DivergenceError (phase "predict") unless every |c| <= bound.

    ``v`` is the array a predictor emits at ``step``.  NaN and inf fail the
    comparison, so they count as out of bound.  Plain Python floats make
    this several times cheaper than numpy reductions on the 3-vectors a
    predictor emits each step.
    """
    if not all(abs(c) <= bound for c in v.tolist()):
        raise DivergenceError(
            f"autonomous prediction left |v| <= {bound:g}", phase="predict", step=step
        )


class IllConditionedError(ChaosControlError):
    """The regularized normal-equations solve failed."""


class InsufficientDataError(ChaosControlError):
    """A trajectory is too short for the requested operation."""


class ReservoirSamplingError(ChaosControlError):
    """Repeated reservoir draws all had zero spectral radius."""


class ConfigError(ChaosControlError):
    """Invalid configuration value or unparseable config file."""
