"""Dense complex linear algebra kernel and the workbench's tolerance table.

Everything downstream works on plain ``numpy.ndarray`` matrices with
``complex128`` entries.  Composite systems use the object-first tensor
convention: the object space is the first Kronecker factor, and the
composite index flattens as ``(i_obj, i_app) -> i_obj * dim_app + i_app``.

Every verdict is a residual compared against a bound, and every bound is
named once, in the table below, by its role: ``ROUNDOFF_TOL`` holds one
matrix or map against its defining identity (Hermitian, positive, projector,
unitary, trace preserving, completely positive, probability in [0, 1]);
``VERIFY_TOL`` holds two computed maps or routes against each other
(completeness, probe consistency, the Theorem-1 forms, the dual lemma);
``DEGENERACY_TOL`` merges eigenvalues into one outcome; ``UNIT_TOL`` bounds
the unit trace of a state and the unit norm of a vector;
``PROBABILITY_FLOOR`` is the probability at or below which an outcome has
no conditional state.  The bounds are absolute, except that the one
Hermitian test, ``hermitian_stack``, scales with the Frobenius norm of m, or
of m over its largest part where ||m||^2 overflows.  The one PSD test,
``psd_refusal``, accepts by a Cholesky factor shifted by half of
``ROUNDOFF_TOL``, inside the bound; only a matrix whose factor fails is
scanned for non-finite entries, and then decided by its lowest eigenvalue
against the whole bound.  A function takes a tolerance parameter only
where a caller sets its own value: the CLI's ``--tol`` replaces
``VERIFY_TOL`` and a file's ``degeneracy_tol`` replaces ``DEGENERACY_TOL``.
"""

from __future__ import annotations

import functools

import numpy as np

ROUNDOFF_TOL = 1e-10  # far above the roundoff of one product or eigh at unit scale
VERIFY_TOL = 1e-9  # each of two routes carries its own roundoff: 10 x ROUNDOFF_TOL
DEGENERACY_TOL = 1e-9  # eigh splits one degenerate level by roundoff, far below this
UNIT_TOL = 1e-12  # a normalised state or vector is off 1 by a few ulps
# at or below the floor an outcome has no conditional state; between it and
# about 1e-7, T_a(rho)/p of rank below d_s can fail the PSD test by its roundoff
PROBABILITY_FLOOR = 1e-12


def as_complex_matrix(m) -> np.ndarray:
    """Validate and coerce to a square complex128 matrix with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix dimension must be >= 1")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def trace(m: np.ndarray):
    """The trace of a square matrix as a numpy scalar: one ``np.add.reduce``
    over the diagonal view, the reduction ``ndarray.trace`` runs, so the
    same bits without that method's wrapper."""
    return np.add.reduce(m.diagonal())


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def max_abs(m: np.ndarray) -> float:
    a = np.abs(m)
    return float(a.max()) if a.size else 0.0


def hermitian_stack(ms: np.ndarray):
    """``(ok, h, skew_sq)`` for a complex (n, d, d) stack: the verdicts of
    the one Hermitian test (see above; a NaN fails it, an overflow is no
    infinite bound), the parts (m + m^dag)/2 and ||m - m^dag||^2.  Where
    ||m||^2 overflows, the part is m/2 + m^dag/2, whose sum cannot."""
    # real and imaginary parts: an overflowing square sums to inf, not NaN
    ms = np.ascontiguousarray(ms)
    size = (len(ms), 2 * ms.shape[-1] ** 2)
    adj = ms.conj().swapaxes(-1, -2)
    flat = ms.view(np.float64).reshape(size)
    skew = (ms - adj).view(np.float64).reshape(size)
    sq, skew_sq = np.vecdot(flat, flat), np.vecdot(skew, skew)
    ok = skew_sq <= ROUNDOFF_TOL * ROUNDOFF_TOL * np.maximum(sq, 1.0)
    huge = np.isinf(sq)
    if not huge.any():
        return ok, (ms + adj) / 2, skew_sq
    # over its largest part, m has ||m||^2 >= 1
    top = np.abs(flat[huge]).max(axis=1, keepdims=True)
    f, k = flat[huge] / top, skew[huge] / top
    ok[huge] = np.vecdot(k, k) <= ROUNDOFF_TOL * ROUNDOFF_TOL * np.vecdot(f, f)
    h = ms / 2 + adj / 2
    h[~huge] = (ms[~huge] + adj[~huge]) / 2
    return ok, h, skew_sq


def hermitian_eig(m):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as orthonormal columns.  Raises ``ValueError`` on input
    that fails ``hermitian_stack``.
    """
    ok, h, skew_sq = hermitian_stack(as_complex_matrix(m)[None])
    if not ok[0]:
        raise ValueError(
            f"matrix is not Hermitian within tolerance "
            f"(||m - m^dag|| = {np.sqrt(skew_sq[0]):.3e})"
        )
    return np.linalg.eigh(h[0])


@functools.lru_cache(maxsize=8)
def _psd_shift(d: int) -> np.ndarray:
    """The read-only complex d x d matrix (ROUNDOFF_TOL/2) 1, made once per
    dimension for the 8 most recent ones."""
    shift = np.eye(d, dtype=complex) * (ROUNDOFF_TOL / 2)
    shift.flags.writeable = False
    return shift


def psd_refusal(h) -> float | None:
    """None when the exactly Hermitian d x d matrix ``h`` is PSD within
    ``ROUNDOFF_TOL``; else its lowest eigenvalue, for the refusal's message.
    Raises ``ValueError`` when the factor fails on a matrix with a
    non-finite entry.

    The one positivity test.  It accepts when ``np.linalg.cholesky``
    factors h + (ROUNDOFF_TOL/2) 1 with a positive last pivot: Cholesky is
    backward stable, so the factor is exact for h + (ROUNDOFF_TOL/2) 1 + E
    with ||E|| about d eps ||h||, orders below the other half of the bound
    for a unit-trace state or a Choi matrix, and the lowest eigenvalue of
    h is then above -ROUNDOFF_TOL.  The full bound as the shift would
    accept matrices just below -ROUNDOFF_TOL.  The shifted matrix is one
    sum, h plus the read-only (ROUNDOFF_TOL/2) 1 that ``_psd_shift`` keeps
    per dimension, so ``h`` is not written.

    The factor reads only the lower triangle of ``h`` and the real part
    of its diagonal.  It fails, or ends on a NaN last pivot, on every h
    whose non-finite entries come in Hermitian pairs and have non-finite
    real parts on the diagonal, and whose real trace is finite: a NaN on
    the diagonal, or a NaN or an infinity below it, leaves the pivot of
    its row NaN or below zero, and a NaN pivot makes every later one NaN;
    the one infinity the factor can carry to a positive last pivot, an
    infinite real part on the diagonal, makes the real trace infinite.
    ``DensityOperator._normalised`` passes only such matrices, and the
    public constructor scans its input first.  So the finite scan runs
    only when the factor fails, ahead of one ``eigvalsh``, which can give
    finite eigenvalues for a matrix with a NaN entry; its lowest
    eigenvalue decides against -ROUNDOFF_TOL as a Python number,
    fail-closed, so a NaN eigenvalue is refused."""
    try:
        if np.linalg.cholesky(h + _psd_shift(h.shape[0]))[-1, -1].real > 0:
            return None
    except np.linalg.LinAlgError:
        pass
    if not np.isfinite(h).all():
        raise ValueError("matrix has non-finite entries")
    lo = float(np.linalg.eigvalsh(h)[0])
    return None if lo >= -ROUNDOFF_TOL else lo
