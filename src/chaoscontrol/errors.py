"""Exception types and the one failure declaration shared across the package."""

# magnitude beyond which a predictor or plant state counts as diverged
DIVERGENCE_BOUND = 1e3


class ChaosControlError(Exception):
    """Base class for all errors raised by this package.

    Each class declares its failure's ``chaosctl`` label and exit code and a
    sweep cell's status; ``report`` appends the attributes in ``details``.
    """

    label = "error"
    exit_code = 2
    status = "failed"
    details = ()

    def report(self) -> str:
        where = ", ".join(f"{name} {getattr(self, name)}" for name in self.details)
        head = f"{self.label}: {self}" if str(self) else self.label
        return head + (f" ({where})" if where else "")


# what chaosctl reports as one line and a sweep cell records as a row
FAILURES = (ChaosControlError, MemoryError, OSError)


def as_failure(exc: Exception) -> ChaosControlError:
    """``exc`` as a package error: a MemoryError (an array numpy cannot
    allocate) or an OSError becomes a base error with its message, labelled
    ``out of memory`` or ``error``."""
    if isinstance(exc, ChaosControlError):
        return exc
    failure = ChaosControlError(str(exc))
    failure.label = "out of memory" if isinstance(exc, MemoryError) else "error"
    return failure


class IntegrationError(ChaosControlError):
    """Integrator produced a non-finite state, first at step ``step``."""

    label = "integration error"
    exit_code = 3
    details = ("step",)

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class DivergenceError(ChaosControlError):
    """A closed-loop prediction or control run exceeded its magnitude bound;
    ``phase`` ('predict' or 'control') and ``step`` say where."""

    label = "divergence"
    exit_code = 3
    status = "diverged"
    details = ("phase", "step")

    def __init__(self, message, phase=None, step=None):
        super().__init__(message)
        self.phase = phase
        self.step = step


def check_prediction(v, step: int) -> list:
    """Return ``v`` as Python floats, or raise DivergenceError (phase "predict")
    unless every |c| <= DIVERGENCE_BOUND.

    ``v`` is the array a predictor emits at ``step``.  NaN and inf fail the
    comparison, so they count as out of bound.  Plain Python floats make
    this several times cheaper than numpy reductions on the 3-vectors a
    predictor emits each step, and the stepper's ``step()`` returns them.
    """
    floats = v.tolist()
    if not all(abs(c) <= DIVERGENCE_BOUND for c in floats):
        raise DivergenceError(
            f"autonomous prediction left |v| <= {DIVERGENCE_BOUND:g}",
            phase="predict", step=step,
        )
    return floats


class IllConditionedError(ChaosControlError):
    """The regularized normal-equations solve failed."""
    label = "training failed"


class InsufficientDataError(ChaosControlError):
    """A trajectory is too short for the requested operation."""
    label = "insufficient data"


class ReservoirSamplingError(ChaosControlError):
    """Repeated reservoir draws all had zero spectral radius."""
    label = "training failed"


class ConfigError(ChaosControlError):
    """Invalid configuration value or unparseable config file."""
    label = "config error"
