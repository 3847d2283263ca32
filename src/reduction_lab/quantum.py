"""States, discrete observables, and single-measurement statistics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matcore
from .errors import NumericalConsistencyError

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-10
TRACE_TOL = 1e-12
DEGENERACY_TOL = 1e-9
PROBABILITY_BAND = 1e-10

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
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
    """Positive unit-trace matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = matcore.as_complex_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        if not matcore.is_hermitian(m, HERMITICITY_TOL):
            raise ValueError("density operator must be Hermitian")
        lo = matcore.min_eigenvalue(m)
        if lo < -PSD_TOL:
            raise ValueError(f"density operator not PSD (min eigenvalue {lo:.3e})")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density operator trace {tr} != 1")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def check_density_stack(ms: np.ndarray) -> None:
    """Raise ``ValueError`` unless every matrix of an (n, d, d) stack meets
    the ``DensityOperator`` bounds: Hermitian within ``HERMITICITY_TOL``
    relative to its Frobenius norm, no eigenvalue below ``-PSD_TOL`` and
    trace within ``TRACE_TOL`` of 1."""
    adj = ms.conj().swapaxes(-1, -2)
    scale = np.maximum(np.linalg.norm(ms, axis=(-2, -1)), 1.0)
    if np.any(np.linalg.norm(ms - adj, axis=(-2, -1)) > HERMITICITY_TOL * scale):
        raise ValueError("density operator must be Hermitian")
    lo = np.linalg.eigvalsh((ms + adj) / 2)[:, 0]
    if np.any(lo < -PSD_TOL):
        raise ValueError(f"density operator not PSD (min eigenvalue {lo.min():.3e})")
    tr = np.trace(ms, axis1=-2, axis2=-1)
    off = np.abs(tr - 1.0) > TRACE_TOL
    if np.any(off):
        raise ValueError(f"density operator trace {complex(tr[off][0])} != 1")


@dataclass(frozen=True)
class PureState:
    """Unit vector; ``to_density`` gives the corresponding rank-1 state."""

    vector: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=complex).reshape(-1)
        object.__setattr__(self, "vector", v)
        n = np.linalg.norm(v)
        if abs(n - 1.0) > 1e-12:
            raise ValueError(f"state vector norm {n} != 1")

    @property
    def dim(self) -> int:
        return self.vector.shape[0]

    def to_density(self) -> DensityOperator:
        return DensityOperator(projector_onto(self.vector))


def maximally_mixed(dim: int) -> DensityOperator:
    return DensityOperator(np.eye(dim, dtype=complex) / dim)


@dataclass(frozen=True)
class DiscreteObservable:
    """Eigenvalue list with the associated spectral projection family.

    ``outcomes`` is a tuple of ``(eigenvalue, projector)`` pairs.  The
    projectors must be mutually orthogonal and sum to the identity; a value
    that is not in the eigenvalue list carries the zero projector.
    """

    outcomes: tuple = field()

    def __post_init__(self):
        outs = tuple((float(a), matcore.as_complex_matrix(p)) for a, p in self.outcomes)
        object.__setattr__(self, "outcomes", outs)
        if not outs:
            raise ValueError("observable needs at least one outcome")
        d = outs[0][1].shape[0]
        eigvals = [a for a, _ in outs]
        if len(set(eigvals)) != len(eigvals):
            raise ValueError("eigenvalues must be pairwise distinct")
        total = np.zeros((d, d), dtype=complex)
        for a, p in outs:
            if p.shape[0] != d:
                raise ValueError("projector dimensions disagree")
            if matcore.max_abs(p @ p - p) > 1e-10 or not matcore.is_hermitian(p):
                raise ValueError(f"outcome {a}: not an orthogonal projector")
            total += p
        for i, (_, pi) in enumerate(outs):
            for _, pj in outs[i + 1:]:
                if matcore.max_abs(pi @ pj) > 1e-10:
                    raise ValueError("projectors are not mutually orthogonal")
        if matcore.max_abs(total - np.eye(d)) > 1e-10:
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

    def to_hermitian(self) -> np.ndarray:
        return sum(a * p for a, p in self.outcomes)


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
        outcomes.append((float(np.mean(w[i:j])), proj))
        i = j
    return DiscreteObservable(tuple(outcomes))


def born_probability(obs: DiscreteObservable, a: float, rho: DensityOperator) -> float:
    """Probability of outcome ``a`` in state ``rho``.

    Zero for any ``a`` outside the eigenvalue list.  Values outside the
    roundoff band around [0, 1] raise ``NumericalConsistencyError``;
    in-band values are clamped.
    """
    if obs.dim != rho.dim:
        raise ValueError(f"dimension mismatch: {obs.dim} vs {rho.dim}")
    return clamp_probability(float(np.real(np.trace(obs.projector(a) @ rho.matrix))))


def clamp_probability(p: float) -> float:
    """Clamp a computed probability to [0, 1]; a value outside the roundoff
    band ``PROBABILITY_BAND`` around it raises ``NumericalConsistencyError``."""
    if p < -PROBABILITY_BAND or p > 1.0 + PROBABILITY_BAND:
        raise NumericalConsistencyError(f"probability {p} outside [0, 1] band")
    return min(max(p, 0.0), 1.0)


def mix(alpha: float, rho1: DensityOperator, rho2: DensityOperator) -> DensityOperator:
    """Convex mixture ``alpha * rho1 + (1 - alpha) * rho2``."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"mixture weight {alpha} outside [0, 1]")
    if rho1.dim != rho2.dim:
        raise ValueError("dimension mismatch")
    return DensityOperator(alpha * rho1.matrix + (1.0 - alpha) * rho2.matrix)
