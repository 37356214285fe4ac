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
needs Q^T Y.  ``scipy.linalg.qr_multiply`` applies the reflectors to Y
without ever forming Q, and neither Q nor U (as tall as the design) is
built.  R is factored by scipy's gesdd, which returns the arrays it fills;
numpy's SVD fills private ones and copies them out, about 5 MB more at
the peak of a 600-feature fit.  Directions below the ``RIDGE_RCOND``
numerical-rank cutoff are excluded.  No column scaling is applied;
``beta`` acts on the raw feature scale.

LAPACK factors a column-major array in place.  The design is the largest
array of a fit, so it is never copied more than once: a caller that owns
a column-major float64 design (the reservoir harvest) passes
``overwrite_design=True`` and the QR overwrites it, and any other design
is copied once into column-major order.  Either way the factored buffer
is released before the SVD, so a caller that keeps no reference of its
own has it freed before the SVD's workspace is allocated.  The layout
does not change the arithmetic: C- and F-order inputs give the same
readout bit for bit.  The layout of the SVD factors does change it:
gesdd returns them column-major, on which the readout products take
another BLAS path, so they are copied to row-major order first.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import qr_multiply, svd

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
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise IllConditionedError(
            f"design or targets hold NaN or inf (beta={beta:g})"
        )
    if x.size == 0:
        # no rows or no features: nothing to fit, and LAPACK's QR rejects
        # a design without columns
        return np.zeros((y.shape[1], x.shape[1]))

    if not (overwrite_design and x.flags.f_contiguous and x.flags.writeable):
        x = np.array(x, order="F")
    try:
        # (Y^T Q)^T = Q^T Y and R of the economy QR, Q never formed; the
        # reflectors overwrite x, which is dropped before the SVD
        yt_q, r = qr_multiply(x, y.T, mode="right", overwrite_a=True)
        del design, x
        if not np.isfinite(r).all():
            # a finite design whose column norms overflow: an inf in R has
            # no meaningful SVD, and scipy's raises ValueError on a NaN
            raise np.linalg.LinAlgError("non-finite R")
        # qr_multiply returns R row-major and gesdd factors a column-major
        # array, so scipy copies R first: ``overwrite_a`` would save nothing
        u_r, s, vt = svd(r, full_matrices=False, check_finite=False)
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
