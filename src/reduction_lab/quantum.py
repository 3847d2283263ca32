"""States, discrete observables, and single-measurement statistics."""

from __future__ import annotations

import functools
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
    ``matcore.hermitian_stack`` on a stack of one, the PSD test of
    ``matcore.psd_refusal`` on its Hermitian part (one Cholesky factor), and
    the trace test.

    The constructor scans its input with ``matcore.as_complex_matrix`` and
    then checks it.  Library code reads ``matrix`` as checked: ``superop.apply``
    takes the state itself and does not rescan it, so the matrix must not be
    changed in place.  Every state the library computes comes from one
    package-private constructor, ``_normalised``, which runs the PSD test
    alone and scans for non-finite entries only when it refuses."""

    matrix: np.ndarray

    def __post_init__(self):
        m = matcore.as_complex_matrix(self.matrix)
        hermitian, h, _ = matcore.hermitian_stack(m[None])
        if not hermitian[0]:
            raise ValueError("density operator must be Hermitian")
        _check_psd(h[0])
        tr = complex(matcore.trace(m))
        # written so that a NaN trace fails the check
        if not abs(tr - 1.0) <= UNIT_TOL:
            raise ValueError(f"density operator trace {tr} != 1")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _normalised(cls, x: np.ndarray, not_psd=None) -> "DensityOperator":
        """The state of a d x d complex matrix x that the library computed:
        T_a(rho)/p for ``reduce``, T(rho) for ``nonselective``, the identity
        for ``maximally_mixed``.  x + x^dag is divided in place by its real
        trace, which gives the bits of (x + x^dag)/2 over its trace, since
        both halvings are exact and numpy divides a complex array by a real
        number through its reciprocal.  Then the PSD test of the
        constructor runs, with its message; ``not_psd``, when given, makes
        the PSD test's exception from the min eigenvalue.

        The result is exactly Hermitian, so the Hermitian test is skipped.
        So is the trace test: the diagonal of x + x^dag is real, and a
        finite matrix over its own real trace that passes the PSD test is
        off unit trace by a few ulps.  So is the finite scan ahead of the
        PSD test: at a finite trace, the Cholesky factor fails on every
        non-finite matrix the division can leave (see
        ``matcore.psd_refusal``), since x + x^dag keeps its non-finite
        entries in Hermitian pairs, the division gives a diagonal entry
        with a NaN imaginary part a NaN real part, and a diagonal entry
        that it pushes past float's range comes with one far below zero.
        The scan runs only when the factor fails.  A zero trace leaves a
        NaN or an infinity in every entry.  An infinite or NaN trace
        leaves entries of zero, which the factor would accept, or NaN, so
        that matrix goes to the public constructor's checks, which refuse
        it: a finite one by its trace of 0.  The PSD test stays:
        T_a(rho)/p is PSD only to its roundoff over p, and below p of
        about 1e-6 it refuses most states whose conditional state has low
        rank."""
        out = x + x.conj().T
        tr = matcore.trace(out).real
        out /= tr
        if not math.isfinite(tr):
            return cls(out)
        _check_psd(out, not_psd)
        rho = object.__new__(cls)
        vars(rho)["matrix"] = out
        return rho

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _check_psd(h: np.ndarray, not_psd=None) -> None:
    """The PSD test of an exactly Hermitian d x d matrix ``h``:
    ``matcore.psd_refusal`` (one Cholesky factor; one ``eigvalsh`` only
    when the factor fails).  A failure raises ``not_psd(min eigenvalue)``
    when that is given."""
    lo = matcore.psd_refusal(h)
    if lo is not None:
        if not_psd is not None:
            raise not_psd(lo)
        raise ValueError(f"density operator not PSD (min eigenvalue {lo:.3e})")


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
    """The identity over ``dim``, made by ``DensityOperator._normalised``:
    the bits of ``np.eye(dim) / dim``, since 2 over 2 dim is 1 over dim."""
    if dim < 1:
        raise ValueError("matrix dimension must be >= 1")
    return DensityOperator._normalised(np.eye(dim, dtype=complex))


@dataclass(frozen=True, eq=False)
class DiscreteObservable:
    """Eigenvalue list with the associated spectral projection family.

    ``outcomes`` is a tuple of ``(eigenvalue, projector)`` pairs.  The
    eigenvalues must be finite and pairwise distinct, the projectors of one
    dimension, mutually orthogonal and sum to the identity; a value that is
    not in the eigenvalue list carries the zero projector.  ``projectors``
    is the read-only (n, d, d) stack of the projectors in the order of
    ``outcomes``, built once here and read by every caller that needs them
    together, and ``ranges`` their range isometries, computed on first
    read.  The n^2 products P_k P_l that the projector and orthogonality
    tests read are the blocks of one (n d x n d) GEMM.
    Equality is identity, as for ``Superoperator``, so observables hash by
    identity too.
    """

    outcomes: tuple = field()
    projectors: np.ndarray = field(init=False, repr=False)

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

    @functools.cached_property
    def ranges(self) -> tuple:
        """The read-only (d, r_a) range isometries P_a of the projectors,
        P_a P_a^dagger = E_a, in the order of ``outcomes``: the
        eigenvectors of eigenvalue near 1, largest first, of one batched
        ``eigh`` of ``projectors`` (``_ranges``), taken on first read and
        kept."""
        return _ranges(self.projectors)

    def projector(self, a: float) -> np.ndarray:
        """Spectral projector for eigenvalue ``a``; zero if ``a`` is not one."""
        for val, p in self.outcomes:
            if val == a:
                return p
        return np.zeros((self.dim, self.dim), dtype=complex)


def _ranges(projectors: np.ndarray) -> tuple:
    """The range isometries of an (n, d, d) stack of orthogonal projectors
    by one batched ``eigh``: projector k's range is spanned by the
    eigenvectors of its eigenvalues above 1/2, largest first, each
    isometry a read-only (d, r_k) array."""
    w, v = np.linalg.eigh((projectors + projectors.conj().swapaxes(1, 2)) / 2)
    ranks = (w > 0.5).sum(axis=1).tolist()
    out = tuple(v[k, :, ::-1][:, :rank].copy() for k, rank in enumerate(ranks))
    for p in out:
        p.flags.writeable = False
    return out


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
