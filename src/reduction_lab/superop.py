"""Linear maps on operators, represented as matrices on vectorized operators.

Column-stacking convention: ``vec(X)[i + j*d] = X[i, j]``, so that
``vec(A X B) = (B^T kron A) vec(X)``.  All maps here act on the d*d
matrices over a single d-dimensional space.

Maps are built from Kraus operators (``Superoperator.from_kraus``) or
closed forms, not by probing with matrix units.  The rep and the Choi
matrix [s(E_ij)]_ij hold the same entries in a different order, so
``choi`` and ``superoperator_from_choi`` are one reshuffle of indices.
``Superoperator.from_function`` probes a user callable with the d^2
matrix units and is kept for callables and tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import NotCompletelyPositiveError
from .quantum import DensityOperator, maximally_mixed

MAP_EQUALITY_TOL = 1e-9


def vec(m: np.ndarray) -> np.ndarray:
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(dim, dim, order="F")


def matrix_unit(dim: int, i: int, j: int) -> np.ndarray:
    e = np.zeros((dim, dim), dtype=complex)
    e[i, j] = 1.0
    return e


@dataclass(frozen=True)
class Superoperator:
    """A linear transformation of d x d matrices, stored as its d^2 x d^2
    matrix over column-vectorized operators."""

    dim: int
    rep: np.ndarray

    def __post_init__(self):
        rep = matcore.as_complex_matrix(self.rep)
        if rep.shape[0] != self.dim * self.dim:
            raise ValueError(
                f"rep shape {rep.shape} does not match dim {self.dim}"
            )
        object.__setattr__(self, "rep", rep)

    @classmethod
    def identity(cls, dim: int) -> "Superoperator":
        return cls(dim, np.eye(dim * dim, dtype=complex))

    @classmethod
    def zero(cls, dim: int) -> "Superoperator":
        return cls(dim, np.zeros((dim * dim, dim * dim), dtype=complex))

    @classmethod
    def sandwich(cls, a: np.ndarray, b: np.ndarray | None = None) -> "Superoperator":
        """The map X -> A X B; B defaults to A^dagger."""
        a = matcore.as_complex_matrix(a)
        b = a.conj().T if b is None else matcore.as_complex_matrix(b)
        return cls(a.shape[0], np.kron(b.T, a))

    @classmethod
    def from_function(cls, dim: int, f) -> "Superoperator":
        """Build the rep of a linear map by applying it to matrix units."""
        rep = np.zeros((dim * dim, dim * dim), dtype=complex)
        for j in range(dim):
            for i in range(dim):
                rep[:, i + j * dim] = vec(f(matrix_unit(dim, i, j)))
        return cls(dim, rep)

    @classmethod
    def from_kraus(cls, kraus) -> "Superoperator":
        """The map X -> sum_k K_k X K_k^dagger from a list or an (n, d, d)
        stack of Kraus operators: rep = sum_k conj(K_k) kron K_k."""
        ks = np.asarray(kraus, dtype=complex)
        if ks.ndim != 3 or ks.shape[1] != ks.shape[2] or 0 in ks.shape:
            raise ValueError(f"expected square Kraus operators, got shape {ks.shape}")
        if not np.all(np.isfinite(ks)):
            raise ValueError("Kraus operators have non-finite entries")
        dim = ks.shape[1]
        rep = np.tensordot(ks.conj(), ks, axes=(0, 0)).transpose(0, 2, 1, 3)
        return cls(dim, rep.reshape(dim * dim, dim * dim))

    def __add__(self, other: "Superoperator") -> "Superoperator":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return Superoperator(self.dim, self.rep + other.rep)

    def __sub__(self, other: "Superoperator") -> "Superoperator":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return Superoperator(self.dim, self.rep - other.rep)

    def __mul__(self, scalar) -> "Superoperator":
        return Superoperator(self.dim, scalar * self.rep)

    __rmul__ = __mul__

    def compose(self, other: "Superoperator") -> "Superoperator":
        """self after other: X -> self(other(X))."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return Superoperator(self.dim, self.rep @ other.rep)

    def equal(self, other: "Superoperator", tol: float = MAP_EQUALITY_TOL) -> bool:
        return self.dim == other.dim and matcore.max_abs(self.rep - other.rep) <= tol


def apply(s: Superoperator, m) -> np.ndarray:
    m = matcore.as_complex_matrix(m)
    if m.shape[0] != s.dim:
        raise ValueError(f"dimension mismatch: map dim {s.dim}, matrix dim {m.shape[0]}")
    return unvec(s.rep @ vec(m), s.dim)


def trace_of_map(s: Superoperator, rho) -> complex:
    """Tr[s(rho)]."""
    return complex(np.trace(apply(s, rho)))


def dual(s: Superoperator) -> Superoperator:
    """The dual map s* with Tr[X s(rho)] = Tr[s*(X) rho] for all X, rho."""
    d = s.dim
    # Derived entrywise from the defining relation applied to matrix units:
    # s*(E_ij)[l, k] = s(E_kl)[j, i].
    sr = s.rep.reshape(d, d, d, d)
    dr = sr.transpose(3, 2, 1, 0)
    return Superoperator(d, np.ascontiguousarray(dr.reshape(d * d, d * d)))


def is_trace_preserving(s: Superoperator, tol: float = 1e-10) -> bool:
    """Tr[s(X)] = Tr[X] on all matrix units, i.e. the dual fixes the identity."""
    one = np.eye(s.dim, dtype=complex)
    return matcore.max_abs(apply(dual(s), one) - one) <= tol


@dataclass(frozen=True)
class ChoiMatrix:
    """Block matrix [s(E_ij)]_ij; PSD exactly when the map is completely
    positive."""

    dim: int
    matrix: np.ndarray

    def is_psd(self, tol: float = 1e-10) -> bool:
        return matcore.is_psd(self.matrix, tol)

    def min_eigenvalue(self) -> float:
        return matcore.min_eigenvalue(self.matrix)


def _reshuffle(m: np.ndarray, d: int) -> np.ndarray:
    # rep[k + l*d, i + j*d] = s(E_ij)[k, l] = choi[i*d + k, j*d + l]; the
    # index swap is its own inverse, so it maps either form to the other
    return m.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)


def choi(s: Superoperator) -> ChoiMatrix:
    return ChoiMatrix(s.dim, _reshuffle(s.rep, s.dim))


def superoperator_from_choi(c: ChoiMatrix) -> Superoperator:
    return Superoperator(c.dim, _reshuffle(c.matrix, c.dim))


def kraus_from_choi(c: ChoiMatrix, rank_tol: float = 1e-10) -> list:
    """Kraus operators of a completely positive map from its Choi matrix.

    Eigenvalues below ``rank_tol`` are dropped; a negative eigenvalue below
    ``-rank_tol`` raises ``NotCompletelyPositiveError``.
    """
    w, v = matcore.hermitian_eig(c.matrix)
    if w[0] < -rank_tol:
        raise NotCompletelyPositiveError(float(w[0]))
    d = c.dim
    kraus = []
    for lam, col in zip(w, v.T):
        if lam <= rank_tol:
            continue
        # col[(i, m)] with composite index i*d + m corresponds to K[m, i]
        kraus.append(np.sqrt(lam) * col.reshape(d, d).T)
    return kraus


def is_positive_sampled(
    s: Superoperator, trials: int = 100, seed: int = 0, tol: float = 1e-10
) -> bool:
    """Sampled necessary check of positivity: s(|psi><psi|) PSD for random psi."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        psi = rng.standard_normal(s.dim) + 1j * rng.standard_normal(s.dim)
        psi /= np.linalg.norm(psi)
        if not matcore.is_psd(apply(s, np.outer(psi, psi.conj())), tol):
            return False
    return True


@dataclass(frozen=True)
class TraceClassDecomposition:
    """Four nonnegative weights and four density operators with
    ``m = l1 s1 - l2 s2 + i l3 s3 - i l4 s4``.  Zero-weight slots carry the
    maximally mixed state as a placeholder."""

    lambdas: tuple
    parts: tuple

    def reassemble(self) -> np.ndarray:
        l1, l2, l3, l4 = self.lambdas
        s1, s2, s3, s4 = (p.matrix for p in self.parts)
        return l1 * s1 - l2 * s2 + 1j * l3 * s3 - 1j * l4 * s4


def _positive_negative_split(h: np.ndarray):
    w, v = matcore.hermitian_eig(h)
    pos = (v * np.clip(w, 0.0, None)) @ v.conj().T
    neg = (v * np.clip(-w, 0.0, None)) @ v.conj().T
    return pos, neg


def decompose_trace_class(m) -> TraceClassDecomposition:
    """Split an arbitrary matrix into four weighted density operators."""
    m = matcore.as_complex_matrix(m)
    d = m.shape[0]
    herm = (m + matcore.dagger(m)) / 2
    anti = (m - matcore.dagger(m)) / (2j)
    lambdas = []
    parts = []
    for piece in _positive_negative_split(herm) + _positive_negative_split(anti):
        lam = float(np.real(np.trace(piece)))
        if lam > 1e-14:
            lambdas.append(lam)
            parts.append(DensityOperator(piece / lam))
        else:
            lambdas.append(0.0)
            parts.append(maximally_mixed(d))
    return TraceClassDecomposition(tuple(lambdas), tuple(parts))
