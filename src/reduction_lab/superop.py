"""Linear maps on operators, represented as matrices on vectorized operators.

Column-stacking convention: ``vec(X)[i + j*d] = X[i, j]``, so that
``vec(A X B) = (B^T kron A) vec(X)``.  All maps here act on the d*d
matrices over a single d-dimensional space.

Maps are built from Kraus operators (``Superoperator.from_kraus``) or
closed forms, not by probing with matrix units.  The rep and the Choi
matrix [s(E_ij)]_ij hold the same entries in a different order, so
``choi`` is one reshuffle of indices.  ``Superoperator.from_function``
probes a user callable with the d^2 matrix units and is kept for callables
and tests.

A map built from Kraus operators keeps them as its read-only ``kraus``
stack, an (n, d, d) array that certifies complete positivity without an
eigendecomposition of the Choi matrix.  Only the builders that compute the
rep from the stack set it: ``from_kraus``, ``sandwich`` (the stack
[a]), ``zero`` (an empty stack) and ``+`` (both stacks concatenated).  The
constructor, ``identity``, ``compose``, ``dual`` and ``from_function``
leave it ``None``.  ``choi`` passes the stack on to the ``ChoiMatrix``, and
``kraus_from_choi`` reads the operators off it.

A rep is scanned for finite entries once, where it enters the library: in
the constructor, which ``from_function`` calls.  The other builders compute
it from checked arrays and skip the scan.  ``unit_image`` reads T*(1) off
the rep, so validation builds no dual map.

``apply_stack`` and ``apply_dual_stack`` apply a map or its dual to an
(n, d, d) stack of matrices at once, so that a check over many samples
costs one matmul instead of a Python loop; ``apply`` is the one-matrix
form, and reads a ``DensityOperator``'s checked matrix without a rescan.
``apply_dual_stack`` applies s* through s's own rep, so the verifiers build
no dual map; ``dual`` copies the rep with its four axes reversed.
``decompose_trace_class`` splits one matrix into four weighted density
operators, the paper's linear extension of a map from states to
trace-class operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matcore
from .errors import NotCompletelyPositiveError
from .matcore import ROUNDOFF_TOL, ZERO_WEIGHT
from .quantum import DensityOperator


def vec(m: np.ndarray) -> np.ndarray:
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def matrix_unit(dim: int, i: int, j: int) -> np.ndarray:
    e = np.zeros((dim, dim), dtype=complex)
    e[i, j] = 1.0
    return e


@dataclass(frozen=True)
class Superoperator:
    """A linear transformation of d x d matrices, stored as its d^2 x d^2
    matrix over column-vectorized operators, with the (n, d, d) stack of
    Kraus operators it was built from when there is one (see the module
    docstring)."""

    dim: int
    rep: np.ndarray
    kraus: np.ndarray | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        rep = matcore.as_complex_matrix(self.rep)
        if rep.shape[0] != self.dim * self.dim:
            raise ValueError(
                f"rep shape {rep.shape} does not match dim {self.dim}"
            )
        object.__setattr__(self, "rep", rep)

    @classmethod
    def _built(cls, dim: int, rep: np.ndarray, kraus: np.ndarray | None = None):
        """A map whose rep and stack were computed from checked arrays: no
        rescan, and the stack is made read-only to keep matching the rep."""
        if kraus is not None:
            kraus.flags.writeable = False
        s = object.__new__(cls)
        vars(s).update(dim=dim, rep=rep, kraus=kraus)
        return s

    @classmethod
    def identity(cls, dim: int) -> "Superoperator":
        return cls._built(dim, np.eye(dim * dim, dtype=complex))

    @classmethod
    def zero(cls, dim: int) -> "Superoperator":
        empty = np.zeros((0, dim, dim), dtype=complex)
        return cls._built(dim, np.zeros((dim * dim, dim * dim), dtype=complex), empty)

    @classmethod
    def sandwich(cls, a: np.ndarray) -> "Superoperator":
        """The map X -> A X A^dagger, with the Kraus stack [A]."""
        a = matcore.as_complex_matrix(a)
        return cls._built(a.shape[0], np.kron(a.conj(), a), a[None].copy())

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
        ks = np.array(kraus, dtype=complex)
        if ks.ndim != 3 or ks.shape[1] != ks.shape[2] or 0 in ks.shape:
            raise ValueError(f"expected square Kraus operators, got shape {ks.shape}")
        if not np.all(np.isfinite(ks)):
            raise ValueError("Kraus operators have non-finite entries")
        n, dim = ks.shape[:2]
        flat = ks.reshape(n, dim * dim)
        rep = (flat.conj().T @ flat).reshape((dim,) * 4).transpose(0, 2, 1, 3)
        return cls._built(dim, rep.reshape(dim * dim, dim * dim), ks)

    def __add__(self, other: "Superoperator") -> "Superoperator":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        both = self.kraus is not None and other.kraus is not None
        ks = np.concatenate([self.kraus, other.kraus]) if both else None
        return Superoperator._built(self.dim, self.rep + other.rep, ks)

    def compose(self, other: "Superoperator") -> "Superoperator":
        """self after other: X -> self(other(X)), with rep ``rep @ rep``."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return Superoperator._built(self.dim, self.rep @ other.rep)


def apply(s: Superoperator, m) -> np.ndarray:
    """s(m), the rep times vec(m), reshaped back to d x d.  ``m`` is a
    matrix, scanned by ``matcore.as_complex_matrix``, or a
    ``DensityOperator``, whose checked matrix is read with no rescan."""
    m = m.matrix if isinstance(m, DensityOperator) else matcore.as_complex_matrix(m)
    if m.shape[0] != s.dim:
        raise ValueError(f"dimension mismatch: map dim {s.dim}, matrix dim {m.shape[0]}")
    return (s.rep @ m.reshape(-1, order="F")).reshape(s.dim, s.dim, order="F")


def _stack_for(s: Superoperator, ms) -> np.ndarray:
    ms = np.asarray(ms, dtype=complex)
    d = s.dim
    if ms.ndim != 3 or ms.shape[1:] != (d, d):
        raise ValueError(f"expected an (n, {d}, {d}) stack, got shape {ms.shape}")
    return ms


def apply_stack(s: Superoperator, ms) -> np.ndarray:
    """s applied to every matrix of an (n, d, d) stack with one matmul: the
    rows of the stack's vecs times rep^T are the vecs of the images."""
    ms = _stack_for(s, ms)
    n, d = ms.shape[0], s.dim
    rows = ms.transpose(0, 2, 1).reshape(n, d * d)
    return (rows @ s.rep.T).reshape(n, d, d).transpose(0, 2, 1)


def apply_dual_stack(s: Superoperator, ms) -> np.ndarray:
    """The dual map s* applied to every matrix of an (n, d, d) stack with one
    matmul on s's own rep, building no dual map:
    s*(X)[j, i] = sum_{a,b} X[b, a] rep[a + b*d, i + j*d], so the rows of
    the stack flattened in C order times rep are the images flattened in C
    order."""
    ms = _stack_for(s, ms)
    n, d = ms.shape[0], s.dim
    return (ms.reshape(n, d * d) @ s.rep).reshape(n, d, d)


def trace_of_map(s: Superoperator, rho) -> complex:
    """Tr[s(rho)], for a matrix or a ``DensityOperator`` as in ``apply``."""
    return complex(np.trace(apply(s, rho)))


def dual(s: Superoperator) -> Superoperator:
    """The dual map s* with Tr[X s(rho)] = Tr[s*(X) rho] for all X, rho."""
    d = s.dim
    # Derived entrywise from the defining relation applied to matrix units:
    # s*(E_ij)[l, k] = s(E_kl)[j, i].
    sr = s.rep.reshape(d, d, d, d)
    dr = sr.transpose(3, 2, 1, 0)
    return Superoperator._built(d, np.ascontiguousarray(dr.reshape(d * d, d * d)))


def unit_image(s: Superoperator) -> np.ndarray:
    """s*(1), the dual map applied to the identity, read off the rep with
    d^3 adds: s*(1)[l, k] = Tr s(E_kl) = sum_i rep[i + i*d, k + l*d]."""
    return s.rep[:: s.dim + 1].sum(axis=0).reshape(s.dim, s.dim)


def is_trace_preserving(s: Superoperator) -> bool:
    """Tr[s(X)] = Tr[X] on all matrix units, i.e. the dual fixes the identity."""
    return matcore.max_abs(unit_image(s) - np.eye(s.dim)) <= ROUNDOFF_TOL


@dataclass(frozen=True)
class ChoiMatrix:
    """Block matrix [s(E_ij)]_ij; PSD exactly when the map is completely
    positive.  ``kraus`` is the Kraus stack of the map it came from, set
    only by ``choi``."""

    dim: int
    matrix: np.ndarray
    kraus: np.ndarray | None = field(default=None, init=False, compare=False, repr=False)

    def is_psd(self) -> bool:
        return matcore.is_psd(self.matrix)

    def min_eigenvalue(self) -> float:
        return matcore.min_eigenvalue(self.matrix)


def choi(s: Superoperator) -> ChoiMatrix:
    d = s.dim
    # rep[k + l*d, i + j*d] = s(E_ij)[k, l] = choi[i*d + k, j*d + l]
    m = s.rep.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)
    c = ChoiMatrix(d, m)
    object.__setattr__(c, "kraus", s.kraus)
    return c


def kraus_from_choi(c: ChoiMatrix) -> list:
    """Kraus operators of a completely positive map from its Choi matrix.

    The eigenpairs (lambda, u) of the Choi matrix give the operators
    sqrt(lambda) vec^-1(u)^T.  When ``c`` carries a Kraus stack of at most
    d^2 operators, they come from one thin SVD of V, whose columns are the
    vec(K^T) in the Choi index order: C = V V^dagger, so the pairs are
    (s^2, u).  Otherwise (no stack, or a larger one, where the ``eigh`` is
    cheaper) they come from an ``eigh`` of C, and a negative eigenvalue below
    ``-ROUNDOFF_TOL`` raises ``NotCompletelyPositiveError``.  On both
    routes weights at or below ``ROUNDOFF_TOL`` are dropped, the operators
    come in ascending weight order, and each is scaled so that its
    largest-modulus entry (the first one in C order) is real and positive.
    """
    d = c.dim
    if c.kraus is not None and len(c.kraus) <= d * d:
        v = c.kraus.transpose(0, 2, 1).reshape(-1, d * d).T
        u, sv, _ = np.linalg.svd(v, full_matrices=False)
        w, vecs = (sv * sv)[::-1], u[:, ::-1]
    else:
        w, vecs = matcore.hermitian_eig(c.matrix)
        if not w[0] >= -ROUNDOFF_TOL:
            raise NotCompletelyPositiveError(float(w[0]))
    keep = w > ROUNDOFF_TOL
    # entry i*d + m of an eigenvector is K[m, i]: transpose each column's
    # vec^-1, then hold one row per K in C order
    cols = (vecs[:, keep] * np.sqrt(w[keep])).T
    flat = cols.reshape(-1, d, d).transpose(0, 2, 1).reshape(-1, d * d)
    rows = np.arange(len(flat))
    at = np.argmax(np.abs(flat), axis=1)
    pivots = flat[rows, at]
    flat = flat * (pivots.conj() / np.abs(pivots))[:, None]
    # the product leaves the pivot's imaginary part at roundoff; make it 0
    flat[rows, at] = np.abs(pivots)
    return list(flat.reshape(-1, d, d))


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


def _split(ms: np.ndarray):
    """Weights (n, 4) and unchecked parts (n, 4, d, d) of an (n, d, d) stack,
    slots ordered as in ``TraceClassDecomposition``."""
    n, d = ms.shape[0], ms.shape[1]
    adj = ms.conj().transpose(0, 2, 1)
    # both halves are Hermitian to the last bit, so eigh needs no check
    w, v = np.linalg.eigh(np.stack([(ms + adj) / 2, (ms - adj) / (2j)], axis=1))
    vh = v.conj().swapaxes(-1, -2)
    pos = (v * np.clip(w, 0.0, None)[..., None, :]) @ vh
    neg = (v * np.clip(-w, 0.0, None)[..., None, :]) @ vh
    pieces = np.stack([pos, neg], axis=2).reshape(n, 4, d, d)
    lambdas = np.real(np.trace(pieces, axis1=-2, axis2=-1))
    nonzero = lambdas > ZERO_WEIGHT
    lambdas = np.where(nonzero, lambdas, 0.0)
    scaled = pieces / np.where(nonzero, lambdas, 1.0)[..., None, None]
    parts = np.where(nonzero[..., None, None], scaled, np.eye(d) / d)
    return lambdas, parts


def decompose_trace_class(m) -> TraceClassDecomposition:
    """Split an arbitrary matrix into four weighted density operators with
    ``m = l1 s1 - l2 s2 + i l3 s3 - i l4 s4``; zero-weight slots carry the
    maximally mixed state, and every part is checked as a
    ``DensityOperator``."""
    m = matcore.as_complex_matrix(m)
    lambdas, parts = _split(m[None])
    return TraceClassDecomposition(
        tuple(float(lam) for lam in lambdas[0]),
        tuple(DensityOperator(p) for p in parts[0]),
    )
