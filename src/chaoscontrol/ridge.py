"""Shared ridge-regression solver for the linear readouts.

Both predictor families train their readout by minimising
``sum ||W x_t - y_t||^2 + beta ||W||_F^2`` over the rows of a design
matrix X.  The minimiser solves the regularized normal equations
``(X^T X + beta I) W^T = X^T Y``; it is computed here from one Householder
QR of the design, which is algebraically identical but does not square the
condition number.  Forming the Gram matrix explicitly loses half the
available precision, and with penalties as small as 1e-11 against feature
columns spanning ten orders of magnitude that loss is fatal: readouts
fitted from the explicit normal equations track the training rows but are
dominated by noise along the weak singular directions and destabilise
closed-loop prediction.

With X = Q R, the SVD of the small factor R = U_R diag(s) V^T is the SVD of
X with U = Q U_R, so the readout ``V diag(s/(s^2 + beta)) U^T Y`` only
needs Q^T Y.  LAPACK's dgeqrf factors the design in place and dormqr
applies its reflectors to Y without ever forming Q; neither Q nor U (as
tall as the design) is built.  These are the two calls, with the same
arguments and workspace sizes, that ``scipy.linalg.qr_multiply`` makes,
but that wrapper also allocates a finiteness mask of the whole design and
a ``triu`` copy of R while the design is alive.  Here the design is
tested through its minimum and maximum, and only R's upper triangle,
packed, outlives it; R is then unpacked into a zeroed column-major array
that scipy's gesdd factors in place.  gesdd returns the arrays it fills;
numpy's SVD fills private ones and copies them out, about 5 MB more at
the peak of a 600-feature fit.  Directions below the ``RIDGE_RCOND``
numerical-rank cutoff are excluded.  No column scaling is applied;
``beta`` acts on the raw feature scale.

LAPACK factors a column-major array in place.  The design is the largest
array of a fit, so it is never copied more than once: a caller that owns
a column-major float64 design (the reservoir harvest) passes
``overwrite_design=True`` and the QR overwrites it, and any other design
is copied once into column-major order.  Either way the factored buffer
is released before R is unpacked, so a caller that keeps no reference of
its own has it freed before the SVD, and the design alone sets the fit's
memory peak.  The layout does not change the arithmetic: C- and F-order
inputs give the same readout bit for bit.  The layout of the SVD factors
does change it: gesdd returns them column-major, on which the readout
products take another BLAS path, so they are copied to row-major order
first.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import lapack, svd

from .errors import IllConditionedError

__all__ = ["ridge_fit", "RIDGE_RCOND"]

# Relative numerical-rank cutoff: singular directions below this fraction of
# the largest singular value are treated as rank-deficient and excluded from
# the solution.  With very small penalties the ridge filter s/(s^2 + beta)
# peaks at 1/(2 sqrt(beta)) near s = sqrt(beta); directions in that band are
# dominated by arithmetic noise for the reservoir designs used here, and
# keeping them makes the trained readout track the data while amplifying any
# off-trajectory perturbation, which destabilises closed-loop prediction.
# 3e-8 (about sqrt(machine epsilon)) removes that band without touching any
# direction that carries signal; well-conditioned designs are unaffected.
RIDGE_RCOND = 3e-8


def ridge_fit(
    design: np.ndarray, targets: np.ndarray, beta: float, *, overwrite_design: bool = False
) -> np.ndarray:
    """Solve the ridge problem, returning the readout in (targets, features) shape.

    Args:
        design: (n_rows, n_features) matrix of regressor rows.
        targets: (n_rows, n_targets) matrix of regression targets.
        beta: non-negative penalty on the squared Frobenius norm of the readout.
        overwrite_design: let the QR overwrite ``design``, which then holds
            no meaningful values.  Honoured only for an F-contiguous,
            writeable float64 array; any other design is copied as usual.

    Raises:
        IllConditionedError: if the design or the targets hold NaN or inf,
            the factorization fails, or the readout is not finite.
    """
    x = np.asarray(design, dtype=float)
    y = np.asarray(targets, dtype=float)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("design and targets must be 2-d with matching row counts")
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError("ridge penalty must be finite and non-negative")
    # min and max propagate NaN and reach +-inf, so the design is tested
    # without a mask of its own size; an empty design has neither
    finite = x.size == 0 or (math.isfinite(x.min()) and math.isfinite(x.max()))
    if not (finite and np.isfinite(y).all()):
        raise IllConditionedError(
            f"design or targets hold NaN or inf (beta={beta:g})"
        )
    if x.size == 0:
        # no rows or no features: nothing to fit, and LAPACK's QR rejects
        # a design without columns
        return np.zeros((y.shape[1], x.shape[1]))

    if not (overwrite_design and x.flags.f_contiguous and x.flags.writeable):
        x = np.array(x, order="F")
    k = min(x.shape)
    try:
        # R above the diagonal and the reflectors below overwrite x
        x, tau = _lapack("dgeqrf", x, overwrite_a=1)
        # (Y^T Q)^T = Q^T Y with Q never formed.  qr_multiply's choice of
        # side: from the left on Y when Y^T is C-contiguous (one target
        # column), else from the right on Y^T
        if y.T.flags.c_contiguous:
            (yt_q,) = _lapack("dormqr", "L", "T", x[:, :k], tau, y)
            yt_q = yt_q.T
        else:
            (yt_q,) = _lapack("dormqr", "R", "N", x[:, :k], tau, y.T)
        yt_q = yt_q[:, :k]
        # only R's upper triangle, packed, outlives the design
        upper = np.arange(x.shape[1]) >= np.arange(k)[:, None]
        packed = x[:k][upper]
        del design, x
        if not np.isfinite(packed).all():
            # a finite design whose column norms overflow: an inf in R has
            # no meaningful SVD, and scipy's raises ValueError on a NaN
            raise np.linalg.LinAlgError("non-finite R")
        # column-major, as gesdd factors it: scipy makes no copy of its own
        r = np.zeros(upper.shape, order="F")
        r[upper] = packed
        del packed
        u_r, s, vt = svd(r, full_matrices=False, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(
            f"QR or SVD of the design matrix failed (beta={beta:g})"
        ) from exc
    # row-major factors, as numpy's SVD returns them: the products below give
    # numpy's readout bit for bit only from this layout
    del r
    u_r, vt = np.ascontiguousarray(u_r), np.ascontiguousarray(vt)
    # filter factors s/(s^2+beta) on the numerically significant directions;
    # beta=0 degenerates to the truncated pseudoinverse.  Overflow in s*s
    # is benign: an inf denominator zeroes the direction's factor.
    with np.errstate(over="ignore"):
        denom = s * s + beta
        significant = s >= RIDGE_RCOND * s[0]
        factors = np.where(
            significant & (denom > 0),
            np.divide(s, np.where(denom > 0, denom, 1.0)),
            0.0,
        )
    w = (vt.T * factors) @ (u_r.T @ yt_q.T)
    if not np.all(np.isfinite(w)):
        raise IllConditionedError(
            f"ridge solve produced non-finite readout (beta={beta:g})"
        )
    # C-order copy: the transpose view picks a different BLAS path than a
    # contiguous array, which breaks bit-for-bit reproducibility of readouts
    # that round-trip through serialization.
    return np.ascontiguousarray(w.T)


def _lapack(name, *args, **kwargs):
    """Call scipy's LAPACK wrapper ``name`` at its queried optimal workspace.

    As in scipy's ``safecall``, the query gets the same arguments as the
    call: an ``overwrite_a`` left out of it would have f2py copy the design
    just to ask for the size.
    """
    routine = getattr(lapack, name)
    *_, work, info = routine(*args, lwork=-1, **kwargs)
    *out, work, info = routine(*args, lwork=int(work[0].real), **kwargs)
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal {name}")
    return out
