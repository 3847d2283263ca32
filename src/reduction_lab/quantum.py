"""States, discrete observables, and single-measurement statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import matcore
from .errors import NumericalConsistencyError
from .matcore import DEGENERACY_TOL, ROUNDOFF_TOL, UNIT_TOL

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def ket(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def projector_onto(vector: np.ndarray) -> np.ndarray:
    v = np.asarray(vector, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


@dataclass(frozen=True)
class DensityOperator:
    """Positive unit-trace matrix, checked by the Hermitian test of
    ``matcore.hermitian_stack`` on a stack of one and by ``_check_spectrum``
    on its Hermitian part: the PSD test of ``matcore.psd_refusal``, one
    Cholesky factor, and the trace test.

    The constructor scans its input with ``matcore.as_complex_matrix`` and
    then checks it.  Library code reads ``matrix`` as checked: ``superop.apply``
    takes the state itself and does not rescan it, so the matrix must not be
    changed in place.  ``_built`` is the package-private constructor for
    matrices the library computes as exactly Hermitian."""

    matrix: np.ndarray

    def __post_init__(self):
        m = matcore.as_complex_matrix(self.matrix)
        hermitian, h, _ = matcore.hermitian_stack(m[None])
        if not hermitian[0]:
            raise ValueError("density operator must be Hermitian")
        _check_spectrum(m, h[0])
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _built(cls, m: np.ndarray, not_psd=None) -> "DensityOperator":
        """The state of a d x d complex matrix that the library computed as
        exactly Hermitian: x + x^dag over its real trace in
        ``instrument._normalised``, for ``reduce`` and ``nonselective``, the
        identity over d in ``maximally_mixed``.  Such a matrix is its own
        Hermitian part, so only the Hermitian test is skipped: the finite
        scan runs, then ``_check_spectrum`` on the matrix itself, with the
        constructor's PSD test and messages.

        The PSD test stays: T_a(rho)/p is PSD only to its roundoff over p,
        and below p of about 1e-6 it refuses most states whose conditional
        state has low rank.  ``not_psd``, when given, makes the PSD test's
        exception from the min eigenvalue."""
        if not np.isfinite(m).all():
            raise ValueError("matrix has non-finite entries")
        _check_spectrum(m, m, not_psd)
        rho = object.__new__(cls)
        vars(rho)["matrix"] = m
        return rho

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _check_spectrum(m: np.ndarray, h: np.ndarray, not_psd=None) -> None:
    """The PSD and trace tests of one d x d matrix ``m`` with exactly
    Hermitian part ``h``: ``matcore.psd_refusal`` of ``h`` (one Cholesky
    factor; one ``eigvalsh`` only when the factor fails), then the trace of
    ``m`` within ``UNIT_TOL`` of 1, compared as a Python number and
    fail-closed, so a NaN fails it.  A PSD failure raises
    ``not_psd(min eigenvalue)`` when that is given."""
    lo = matcore.psd_refusal(h)
    if lo is not None:
        if not_psd is not None:
            raise not_psd(lo)
        raise ValueError(f"density operator not PSD (min eigenvalue {lo:.3e})")
    tr = complex(matcore.trace(m))
    if not abs(tr - 1.0) <= UNIT_TOL:
        raise ValueError(f"density operator trace {tr} != 1")


@dataclass(frozen=True)
class PureState:
    """Unit vector; ``to_density`` gives the corresponding rank-1 state."""

    vector: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=complex).reshape(-1)
        object.__setattr__(self, "vector", v)
        n = np.linalg.norm(v)
        # written so that a NaN norm fails the check
        if not abs(n - 1.0) <= UNIT_TOL:
            raise ValueError(f"state vector norm {n} != 1")

    @property
    def dim(self) -> int:
        return self.vector.shape[0]

    def to_density(self) -> DensityOperator:
        return DensityOperator(projector_onto(self.vector))


def maximally_mixed(dim: int) -> DensityOperator:
    if dim < 1:
        raise ValueError("matrix dimension must be >= 1")
    return DensityOperator._built(np.eye(dim, dtype=complex) / dim)


@dataclass(frozen=True)
class DiscreteObservable:
    """Eigenvalue list with the associated spectral projection family.

    ``outcomes`` is a tuple of ``(eigenvalue, projector)`` pairs.  The
    eigenvalues must be finite and pairwise distinct, the projectors of one
    dimension, mutually orthogonal and sum to the identity; a value that is
    not in the eigenvalue list carries the zero projector.  ``projectors``
    is the read-only (n, d, d) stack of the projectors in the order of
    ``outcomes``, built once here and read by every caller that needs them
    together.  The n^2 products P_k P_l that the projector and
    orthogonality tests read are the blocks of one (n d x n d) GEMM.
    """

    outcomes: tuple = field()
    projectors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        outs = tuple((float(a), matcore.as_complex_matrix(p)) for a, p in self.outcomes)
        object.__setattr__(self, "outcomes", outs)
        if not outs:
            raise ValueError("observable needs at least one outcome")
        d = outs[0][1].shape[0]
        eigvals = [a for a, _ in outs]
        for a in eigvals:
            if not math.isfinite(a):
                raise ValueError(f"eigenvalue {a} is not finite")
        if len(set(eigvals)) != len(eigvals):
            raise ValueError("eigenvalues must be pairwise distinct")
        if any(p.shape[0] != d for _, p in outs):
            raise ValueError("projector dimensions disagree")
        ps, n = np.stack([p for _, p in outs]), len(outs)
        ps.flags.writeable = False
        object.__setattr__(self, "projectors", ps)
        # the projectors stacked as (n d x d) rows times the same side by
        # side (d x n d): prods[k, :, l] is p_k p_l
        prods = ps.reshape(n * d, d) @ ps.transpose(1, 0, 2).reshape(d, n * d)
        prods, at = prods.reshape(n, d, n, d), np.arange(n)
        idempotent = np.abs(prods[at, :, at] - ps).max(axis=(1, 2)) <= ROUNDOFF_TOL
        bad = ~(matcore.hermitian_stack(ps)[0] & idempotent)
        if bad.any():
            raise ValueError(f"outcome {outs[bad.argmax()][0]}: not an orthogonal projector")
        prods[at, :, at] = 0
        if not matcore.max_abs(prods) <= ROUNDOFF_TOL:
            raise ValueError("projectors are not mutually orthogonal")
        if not matcore.max_abs(ps.sum(axis=0) - np.eye(d)) <= ROUNDOFF_TOL:
            raise ValueError("projectors do not sum to the identity")

    @property
    def dim(self) -> int:
        return self.outcomes[0][1].shape[0]

    @property
    def eigenvalues(self) -> tuple:
        return tuple(a for a, _ in self.outcomes)

    def projector(self, a: float) -> np.ndarray:
        """Spectral projector for eigenvalue ``a``; zero if ``a`` is not one."""
        for val, p in self.outcomes:
            if val == a:
                return p
        return np.zeros((self.dim, self.dim), dtype=complex)


def observable_from_hermitian(
    h, degeneracy_tol: float = DEGENERACY_TOL
) -> DiscreteObservable:
    """Spectrally decompose a Hermitian matrix into a discrete observable.

    Eigenvalues closer than ``degeneracy_tol`` are merged into a single
    outcome; the merged eigenvalue is their mean.
    """
    w, v = matcore.hermitian_eig(h)
    outcomes = []
    i = 0
    n = len(w)
    while i < n:
        j = i + 1
        while j < n and w[j] - w[j - 1] <= degeneracy_tol:
            j += 1
        block = v[:, i:j]
        proj = block @ block.conj().T
        level = np.mean(w[i:j])
        if not np.isfinite(level):
            # the plain mean overflows near the float range; w / n does not
            level = np.sum(w[i:j] / (j - i))
        outcomes.append((float(level), proj))
        i = j
    return DiscreteObservable(tuple(outcomes))


def born_probability(obs: DiscreteObservable, a: float, rho: DensityOperator) -> float:
    """Probability of outcome ``a`` in state ``rho``.

    Zero for any ``a`` outside the eigenvalue list.  Values outside the
    roundoff band around [0, 1] raise ``NumericalConsistencyError``;
    in-band values are clamped.
    """
    if obs.dim != rho.dim:
        raise ValueError(f"dimension mismatch: observable dim {obs.dim}, state dim {rho.dim}")
    return clamp_probability(float(matcore.trace(obs.projector(a) @ rho.matrix).real))


def clamp_probability(p: float) -> float:
    """Clamp a computed probability to [0, 1]; a value outside the roundoff
    band ``ROUNDOFF_TOL`` around it, or NaN, raises
    ``NumericalConsistencyError``."""
    if not -ROUNDOFF_TOL <= p <= 1.0 + ROUNDOFF_TOL:
        raise NumericalConsistencyError(f"probability {p} outside [0, 1] band")
    return min(max(p, 0.0), 1.0)
