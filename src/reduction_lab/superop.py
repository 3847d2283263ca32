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

A map built from Kraus operators keeps them as its ``kraus`` stack, an
(n, d, d) array that certifies complete positivity without an
eigendecomposition of the Choi matrix.  The stack is never a constructor
argument, so it always matches the rep.  It is set by ``from_kraus``, by
``sandwich(a)`` with ``b`` omitted (the stack [a]), by ``zero`` (an empty
stack), by ``+`` (both stacks concatenated) and by ``compose`` (every
product K_i L_j of n and m operators, kept while 0 < n * m <= max(d^2, n,
m), with the rep read off it).  Every other way of making a map leaves it
``None``: the constructor, ``identity``, ``sandwich(a, b)``, ``-``, ``*``,
``dual``, ``from_function`` and ``superoperator_from_choi``.  ``choi``
passes the stack on to the ``ChoiMatrix``, and ``kraus_from_choi`` reads
the Kraus operators off one thin SVD of a stack of at most d^2 operators,
or else off an ``eigh`` of the Choi matrix.  Either route returns the
operators in ascending weight order, each scaled so that its
largest-modulus entry (the first one in C order) is real and positive.

``apply_stack`` and ``decompose_stack`` work on an (n, d, d) stack of
matrices at once, so that a check over many samples costs one matmul or
one batched ``eigh`` instead of a Python loop; ``apply`` and
``decompose_trace_class`` are their one-matrix forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matcore
from .errors import NotCompletelyPositiveError
from .matcore import ROUNDOFF_TOL, VERIFY_TOL, ZERO_WEIGHT
from .quantum import DensityOperator, check_density_stack


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

    def _with_kraus(self, ks: np.ndarray) -> "Superoperator":
        # only the builders that derive rep from ks call this; read-only, so
        # that the stack keeps matching the rep
        ks.flags.writeable = False
        object.__setattr__(self, "kraus", ks)
        return self

    @classmethod
    def identity(cls, dim: int) -> "Superoperator":
        return cls(dim, np.eye(dim * dim, dtype=complex))

    @classmethod
    def zero(cls, dim: int) -> "Superoperator":
        zero = cls(dim, np.zeros((dim * dim, dim * dim), dtype=complex))
        return zero._with_kraus(np.zeros((0, dim, dim), dtype=complex))

    @classmethod
    def sandwich(cls, a: np.ndarray, b: np.ndarray | None = None) -> "Superoperator":
        """The map X -> A X B; B defaults to A^dagger."""
        a = matcore.as_complex_matrix(a)
        if b is None:
            return cls(a.shape[0], np.kron(a.conj(), a))._with_kraus(a[None].copy())
        return cls(a.shape[0], np.kron(matcore.as_complex_matrix(b).T, a))

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
        dim = ks.shape[1]
        rep = np.tensordot(ks.conj(), ks, axes=(0, 0)).transpose(0, 2, 1, 3)
        return cls(dim, rep.reshape(dim * dim, dim * dim))._with_kraus(ks)

    def __add__(self, other: "Superoperator") -> "Superoperator":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        total = Superoperator(self.dim, self.rep + other.rep)
        if self.kraus is None or other.kraus is None:
            return total
        return total._with_kraus(np.concatenate([self.kraus, other.kraus]))

    def __sub__(self, other: "Superoperator") -> "Superoperator":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return Superoperator(self.dim, self.rep - other.rep)

    def __mul__(self, scalar) -> "Superoperator":
        return Superoperator(self.dim, scalar * self.rep)

    __rmul__ = __mul__

    def compose(self, other: "Superoperator") -> "Superoperator":
        """self after other: X -> self(other(X)).  With Kraus stacks of n
        and m operators and 0 < n * m <= max(d^2, n, m), the product is
        ``from_kraus`` of every K_i L_j (n * m * d^4 work); otherwise its
        rep is ``rep @ rep`` (d^6) and it carries no stack."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        d = self.dim
        if self.kraus is not None and other.kraus is not None:
            n, m = len(self.kraus), len(other.kraus)
            if 0 < n * m <= max(d * d, n, m):
                ks = self.kraus[:, None] @ other.kraus[None]
                return Superoperator.from_kraus(ks.reshape(-1, d, d))
        return Superoperator(d, self.rep @ other.rep)

    def equal(self, other: "Superoperator", tol: float = VERIFY_TOL) -> bool:
        return self.dim == other.dim and matcore.max_abs(self.rep - other.rep) <= tol


def apply(s: Superoperator, m) -> np.ndarray:
    m = matcore.as_complex_matrix(m)
    if m.shape[0] != s.dim:
        raise ValueError(f"dimension mismatch: map dim {s.dim}, matrix dim {m.shape[0]}")
    return unvec(s.rep @ vec(m), s.dim)


def apply_stack(s: Superoperator, ms) -> np.ndarray:
    """s applied to every matrix of an (n, d, d) stack with one matmul: the
    rows of the stack's vecs times rep^T are the vecs of the images."""
    ms = np.asarray(ms, dtype=complex)
    d = s.dim
    if ms.ndim != 3 or ms.shape[1:] != (d, d):
        raise ValueError(f"expected an (n, {d}, {d}) stack, got shape {ms.shape}")
    n = ms.shape[0]
    rows = ms.transpose(0, 2, 1).reshape(n, d * d)
    return (rows @ s.rep.T).reshape(n, d, d).transpose(0, 2, 1)


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


def is_trace_preserving(s: Superoperator) -> bool:
    """Tr[s(X)] = Tr[X] on all matrix units, i.e. the dual fixes the identity."""
    one = np.eye(s.dim, dtype=complex)
    return matcore.max_abs(apply(dual(s), one) - one) <= ROUNDOFF_TOL


@dataclass(frozen=True)
class ChoiMatrix:
    """Block matrix [s(E_ij)]_ij; PSD exactly when the map is completely
    positive.  ``kraus`` is the Kraus stack of the map it came from, set
    only by ``choi``."""

    dim: int
    matrix: np.ndarray
    kraus: np.ndarray | None = field(default=None, init=False, compare=False, repr=False)

    def is_psd(self, tol: float = ROUNDOFF_TOL) -> bool:
        return matcore.is_psd(self.matrix, tol)

    def min_eigenvalue(self) -> float:
        return matcore.min_eigenvalue(self.matrix)


def _reshuffle(m: np.ndarray, d: int) -> np.ndarray:
    # rep[k + l*d, i + j*d] = s(E_ij)[k, l] = choi[i*d + k, j*d + l]; the
    # index swap is its own inverse, so it maps either form to the other
    return m.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)


def choi(s: Superoperator) -> ChoiMatrix:
    c = ChoiMatrix(s.dim, _reshuffle(s.rep, s.dim))
    object.__setattr__(c, "kraus", s.kraus)
    return c


def superoperator_from_choi(c: ChoiMatrix) -> Superoperator:
    return Superoperator(c.dim, _reshuffle(c.matrix, c.dim))


def kraus_from_choi(c: ChoiMatrix) -> list:
    """Kraus operators of a completely positive map from its Choi matrix.

    The eigenpairs (lambda, u) of the Choi matrix give the operators
    sqrt(lambda) unvec(u)^T.  When ``c`` carries a Kraus stack of at most
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
        if w[0] < -ROUNDOFF_TOL:
            raise NotCompletelyPositiveError(float(w[0]))
    keep = w > ROUNDOFF_TOL
    # entry i*d + m of an eigenvector is K[m, i]: transpose each unvec'd
    # column, then hold one row per K in C order
    cols = (vecs[:, keep] * np.sqrt(w[keep])).T
    flat = cols.reshape(-1, d, d).transpose(0, 2, 1).reshape(-1, d * d)
    rows = np.arange(len(flat))
    at = np.argmax(np.abs(flat), axis=1)
    pivots = flat[rows, at]
    flat = flat * (pivots.conj() / np.abs(pivots))[:, None]
    # the product leaves the pivot's imaginary part at roundoff; make it 0
    flat[rows, at] = np.abs(pivots)
    return list(flat.reshape(-1, d, d))


def is_positive_sampled(s: Superoperator, trials: int = 100, seed: int = 0) -> bool:
    """Sampled necessary check of positivity: s(|psi><psi|) PSD for random psi."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        psi = rng.standard_normal(s.dim) + 1j * rng.standard_normal(s.dim)
        psi /= np.linalg.norm(psi)
        if not matcore.is_psd(apply(s, np.outer(psi, psi.conj()))):
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


def decompose_stack(ms) -> tuple:
    """Split every matrix of an (n, d, d) stack into four weighted density
    operators at once: weights (n, 4) and parts (n, 4, d, d) with
    ``m = l1 s1 - l2 s2 + i l3 s3 - i l4 s4``.  Zero-weight slots carry the
    maximally mixed state; every part is checked once against the
    ``DensityOperator`` bounds."""
    ms = np.asarray(ms, dtype=complex)
    if ms.ndim != 3 or ms.shape[1] != ms.shape[2] or ms.shape[1] < 1:
        raise ValueError(f"expected an (n, d, d) stack, got shape {ms.shape}")
    if not np.all(np.isfinite(ms)):
        raise ValueError("matrix has non-finite entries")
    lambdas, parts = _split(ms)
    check_density_stack(parts.reshape(-1, ms.shape[1], ms.shape[1]))
    return lambdas, parts


def decompose_trace_class(m) -> TraceClassDecomposition:
    """Split an arbitrary matrix into four weighted density operators; the
    one-matrix case of ``decompose_stack``."""
    m = matcore.as_complex_matrix(m)
    lambdas, parts = _split(m[None])
    return TraceClassDecomposition(
        tuple(float(lam) for lam in lambdas[0]),
        tuple(DensityOperator(p) for p in parts[0]),
    )
