"""Next-generation reservoir computer.

The feature map is deterministic: the current sample is concatenated with
k-1 earlier samples spaced s steps apart, and all unique monomials of the
configured orders are evaluated on that vector.  The readout is ridge
regression onto one-step increments, so the trained model acts as a
one-step integrator: v(t+dt) = v(t) + W_out r(t).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Optional, Sequence

import numpy as np

from .dynamics import Trajectory
from .errors import DIVERGENCE_BOUND, InsufficientDataError, check_prediction
from .ridge import ridge_fit

__all__ = [
    "NgrcConfig",
    "MonomialLibrary",
    "NgrcModel",
    "build_library",
    "shift_expand",
    "poly_features",
    "build_design",
    "train",
]


@dataclass(frozen=True)
class NgrcConfig:
    """Feature-map and training settings.

    ``k`` counts the total tapped samples (the current one included);
    ``s`` is the spacing between taps in steps.  The first k*s rows of any
    training series are treated as warm-up and excluded from the regression.
    """

    k: int = 1
    s: int = 57
    orders: tuple[int, ...] = (1, 2, 3, 4)
    ridge_beta: float = 1e-4

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.s < 1:
            raise ValueError("s must be >= 1")
        orders = tuple(self.orders)
        if len(orders) == 0:
            raise ValueError("orders must be non-empty")
        if any(int(o) != o or o < 1 for o in orders):
            raise ValueError("orders must be positive integers")
        if len(set(orders)) != len(orders):
            raise ValueError("orders must not repeat")
        object.__setattr__(self, "orders", tuple(int(o) for o in orders))
        if self.ridge_beta < 0:
            raise ValueError("ridge_beta must be >= 0")

    @property
    def warmup(self) -> int:
        return self.k * self.s

    @property
    def tap_span(self) -> int:
        """Samples needed to evaluate one feature vector: (k-1)*s + 1."""
        return (self.k - 1) * self.s + 1


@dataclass(frozen=True)
class MonomialLibrary:
    """Ordered table of unique monomials over a fixed input dimension.

    Each monomial is stored as a sorted tuple of variable indices with
    repetition (x0^2 x2 -> (0, 0, 2)).  Ordering is canonical: by total
    degree, then by the number of distinct variables, then by index tuple,
    which for two variables and orders {1, 2} yields (x, y, x^2, y^2, xy).
    """

    input_dim: int
    monomials: tuple[tuple[int, ...], ...]

    def __len__(self):
        return len(self.monomials)

    @cached_property
    def index_table(self) -> np.ndarray:
        """(width, n_monomials) variable indices, one row per factor position.

        Monomials shorter than the widest are padded with ``input_dim``, the
        index of a 1.0 appended to the input, so every monomial is a product
        of exactly ``width`` gathered columns.
        """
        width = max(len(m) for m in self.monomials)
        table = np.full((width, len(self.monomials)), self.input_dim, dtype=np.intp)
        for j, mono in enumerate(self.monomials):
            table[: len(mono), j] = mono
        return table


def build_library(input_dim: int, orders: Sequence[int]) -> MonomialLibrary:
    """Enumerate the unique monomials of each requested order."""
    if input_dim < 1:
        raise ValueError("input_dim must be >= 1")
    monos = []
    for order in orders:
        monos.extend(
            itertools.combinations_with_replacement(range(input_dim), order)
        )
    monos.sort(key=lambda m: (len(m), len(set(m)), m))
    expected = sum(comb(input_dim + o - 1, o) for o in orders)
    assert len(set(monos)) == len(monos) == expected
    return MonomialLibrary(input_dim=input_dim, monomials=tuple(monos))


@dataclass
class NgrcModel:
    """Trained readout plus the tap buffer needed to restart prediction.

    ``tap_buffer`` holds the trailing (k-1)*s + 1 training samples, so the
    closed loop continues directly from the end of the training data.
    """

    config: NgrcConfig
    library: MonomialLibrary
    W_out: Optional[np.ndarray] = None
    tap_buffer: Optional[np.ndarray] = None

    @property
    def trained(self) -> bool:
        return self.W_out is not None

    def stepper(self, bound: float = DIVERGENCE_BOUND) -> "_NgrcStepper":
        """Autonomous one-step generator continuing from the stored taps."""
        if not self.trained:
            raise ValueError("model must be trained before prediction")
        span = self.config.tap_span
        if self.tap_buffer is None or len(self.tap_buffer) < span:
            raise InsufficientDataError(
                f"prediction needs at least {span} trailing samples"
            )
        return _NgrcStepper(self, self.tap_buffer[-span:], bound)


def shift_expand(history: Trajectory, t: int, k: int, s: int) -> np.ndarray:
    """Concatenate samples at times t, t-s, ..., t-(k-1)s, newest first.

    Raises:
        InsufficientDataError: t < (k-1)*s or t beyond the series.
    """
    samples = history.samples
    if t >= len(samples):
        raise InsufficientDataError(f"index {t} beyond series of {len(samples)}")
    if t - (k - 1) * s < 0:
        raise InsufficientDataError(
            f"index {t} needs {(k - 1) * s} earlier samples"
        )
    taps = [samples[t - i * s] for i in range(k)]
    return np.concatenate(taps)


def _products(padded: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Multiply the gathered factor columns of ``table`` left to right."""
    out = padded[..., table[0]]
    for factor in table[1:]:
        out *= padded[..., factor]
    return out


def poly_features(v: np.ndarray, lib: MonomialLibrary) -> np.ndarray:
    """Evaluate every library monomial at v, in canonical order.

    Works on one vector or on rows of a 2-D array.  The product order is
    the contract: each monomial is its variables multiplied left to right
    in index-tuple order, (x0 * x0) * x2 for (0, 0, 2), and the padding
    factors of shorter monomials multiply by an exact 1.0 afterwards.  Any
    reimplementation must keep that order to stay bitwise equal.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != lib.input_dim:
        raise ValueError(
            f"expected {lib.input_dim} variables, got {v.shape[-1]}"
        )
    padded = np.concatenate([v, np.ones(v.shape[:-1] + (1,))], axis=-1)
    return _products(padded, lib.index_table)


def build_design(
    data: Trajectory, cfg: NgrcConfig, lib: Optional[MonomialLibrary] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Feature rows and one-step-increment targets for the regression.

    Row t (for warm-up <= t <= T-2) holds the features of the taps ending at
    t and the target data(t+1) - data(t): T - k*s - 1 rows in total.

    Raises:
        InsufficientDataError: series shorter than warm-up + 2.
    """
    if lib is None:
        lib = build_library(data.dim * cfg.k, cfg.orders)
    samples = data.samples
    t_total = len(samples)
    if t_total < cfg.warmup + 2:
        raise InsufficientDataError(
            f"need more than {cfg.warmup + 1} samples, got {t_total}"
        )
    # tap i of row t is sample t - i*s, the layout of shift_expand
    taps = np.concatenate(
        [samples[cfg.warmup - i * cfg.s : t_total - 1 - i * cfg.s] for i in range(cfg.k)],
        axis=1,
    )
    design = poly_features(taps, lib)
    targets = samples[cfg.warmup + 1 :] - samples[cfg.warmup : -1]
    return design, targets


def train(data: Trajectory, cfg: NgrcConfig) -> NgrcModel:
    """Fit the one-step-increment readout; deterministic given data+config.

    Raises:
        InsufficientDataError, IllConditionedError: propagated.
    """
    lib = build_library(data.dim * cfg.k, cfg.orders)
    design, targets = build_design(data, cfg, lib)
    w_out = ridge_fit(design, targets, cfg.ridge_beta)
    span = cfg.tap_span
    return NgrcModel(
        config=cfg,
        library=lib,
        W_out=w_out,
        tap_buffer=data.samples[-span:].copy(),
    )


class _NgrcStepper:
    """Closed-loop iterator over v(t+dt) = v(t) + W_out r(t)."""

    def __init__(self, model: NgrcModel, history: np.ndarray, bound: float):
        self._k, self._s = model.config.k, model.config.s
        self._table = model.library.index_table
        self._W = model.W_out
        self._buf = np.array(history, dtype=float)  # ring of tap_span samples
        self.dim = self._buf.shape[1]
        if self._k * self.dim != model.library.input_dim:
            raise ValueError(
                f"{self._k} taps of {self.dim} variables do not match a library "
                f"over {model.library.input_dim}"
            )
        # taps newest first, then the 1.0 the padded index table points at
        self._taps = np.ones(self._k * self.dim + 1)
        self._bound = bound
        self._step = 0

    def step(self) -> np.ndarray:
        d, s = self.dim, self._s
        for i in range(self._k):
            self._taps[i * d : (i + 1) * d] = self._buf[-1 - i * s]
        v = self._buf[-1] + self._W @ _products(self._taps, self._table)
        self._step += 1
        check_prediction(v, self._bound, self._step)
        if len(self._buf) > 1:
            self._buf[:-1] = self._buf[1:]
        self._buf[-1] = v
        return v

