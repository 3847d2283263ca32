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
no conditional state; ``ZERO_WEIGHT`` is the weight at or below which a
decomposition slot is empty.  The bounds are absolute, except that the one
Hermitian test, ``hermitian_stack``, scales with the Frobenius norm of m, or
of m over its largest part where ||m||^2 overflows.  A function takes a
tolerance parameter only where a caller sets its own value: the CLI's
``--tol`` replaces ``VERIFY_TOL`` and a file's ``degeneracy_tol`` replaces
``DEGENERACY_TOL``.
"""

from __future__ import annotations

import numpy as np

ROUNDOFF_TOL = 1e-10  # far above the roundoff of one product or eigh at unit scale
VERIFY_TOL = 1e-9  # each of two routes carries its own roundoff: 10 x ROUNDOFF_TOL
DEGENERACY_TOL = 1e-9  # eigh splits one degenerate level by roundoff, far below this
UNIT_TOL = 1e-12  # a normalised state or vector is off 1 by a few ulps
# at or below the floor an outcome has no conditional state; between it and
# about 1e-7, T_a(rho)/p of rank below d_s can fail the PSD test by its roundoff
PROBABILITY_FLOOR = 1e-12
ZERO_WEIGHT = 1e-14  # the trace of an empty eigenspace part is roundoff, below this


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


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def max_abs(m: np.ndarray) -> float:
    a = np.abs(m)
    return float(a.max()) if a.size else 0.0


def spectral_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


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


def tensor(a, b) -> np.ndarray:
    """Kronecker product, object space first."""
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


def partial_trace_apparatus(m, dim_s: int, dim_a: int) -> np.ndarray:
    """Trace out the second (apparatus) tensor factor of a composite matrix."""
    m = as_complex_matrix(m)
    if dim_s < 1 or dim_a < 1:
        raise ValueError("dimensions must be positive")
    if m.shape[0] != dim_s * dim_a:
        raise ValueError(
            f"matrix dim {m.shape[0]} != dim_s * dim_a = {dim_s * dim_a}"
        )
    m4 = m.reshape(dim_s, dim_a, dim_s, dim_a)
    return np.einsum("ikjk->ij", m4)


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


def trace_norm(m) -> float:
    """Sum of singular values."""
    m = as_complex_matrix(m)
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def min_eigenvalue(m) -> float:
    """Smallest eigenvalue of the Hermitian part of ``m``, taken by
    ``hermitian_stack`` so that it does not overflow."""
    h = hermitian_stack(as_complex_matrix(m)[None])[1][0]
    return float(np.linalg.eigvalsh(h)[0])


def is_psd(m) -> bool:
    """True iff ``m`` passes ``hermitian_stack`` and the lowest eigenvalue of
    its Hermitian part is >= -ROUNDOFF_TOL: one Hermitian test, one
    ``eigvalsh``."""
    ok, h, _ = hermitian_stack(as_complex_matrix(m)[None])
    return bool(ok[0]) and float(np.linalg.eigvalsh(h[0])[0]) >= -ROUNDOFF_TOL
