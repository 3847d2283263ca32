"""Linear maps on operators, represented as matrices on vectorized operators.

Column-stacking convention: ``vec(X)[i + j*d] = X[i, j]``, so that
``vec(A X B) = (B^T kron A) vec(X)``.  All maps here act on the d*d
matrices over a single d-dimensional space.

A map has two ways in: through Kraus operators (``Superoperator.from_kraus``,
``sandwich``, ``zero`` and ``sum_of``), or through a rep that the constructor
scans; ``compose`` computes its rep from reps already held.  No map is
built by probing with matrix units.  The rep and the Choi matrix
[s(E_ij)]_ij hold the same entries in a different order, so ``choi`` is
one reshuffle of indices.

A map built from Kraus operators keeps them as its read-only ``kraus``
stack, an (n, d, d) array that certifies complete positivity without an
eigendecomposition of the Choi matrix.  Only the builders that compute the
rep from the stack set it: ``from_kraus``, ``sandwich`` (the stack [a]),
``zero`` (an empty stack) and ``sum_of`` (the stacks concatenated, when
every operand has one).  The constructor and ``compose`` leave it
``None``.  ``choi`` passes the stack on to the ``ChoiMatrix``, and
``kraus_from_choi`` reads the operators off it.

The d^4 entries of a rep are written only when something reads them, if
``_on_stack`` takes the map through its stack (n operators, d >= 9,
4n <= d): such a map holds only the stack when those four builders make
it, and its rep is computed on the first read of ``rep``, as
sum_k conj(K_k) kron K_k (the ``from_kraus`` formula, in ``_rep_of``),
and then kept.  ``_rep_of`` writes that sum in one of two forms: below
d = ``_BLOCK_REP_MIN_DIM`` as one (d^2 x n)(n x d^2) GEMM regrouped by a
copy of its four axes, and from there straight into its own layout, block
(i, k) being the (d x n)(n x d) product conj(K[:, i, :])^T K[:, k, :] of
one broadcast matmul, so no second d^4 array is made.  Every other map
gets its rep at construction: ``from_kraus`` by the same formula,
``sandwich`` as conj(A) kron A, ``zero`` as zeros, ``sum_of`` as the reps
added to zeros in order; the constructor and ``compose`` always hold one.
``compose`` and ``choi`` read ``rep``, so they build it on demand; the
``apply*`` functions on the stack route and ``unit_image`` never do.  A
stack-route map also keeps the adjoints K_k^dagger as read-only (n d x d)
rows, computed by ``_adjoint_rows`` on the first apply and read by every
later one; computing them builds no rep.

A rep is scanned for finite entries once, where it enters the library: in
the constructor.  The other builders compute it from checked arrays and skip
the scan.  ``unit_image`` gives T*(1) without a dual map: on the stack route
as sum_k K_k^dagger K_k, one (d x nd)(nd x d) product, else read off the
rep.

``apply_stack`` and ``apply_dual_stack`` apply a map or its dual to an
(m, d, d) stack of matrices at once, so that a check over many samples
costs two GEMMs or one instead of a Python loop; ``apply`` is the
one-matrix form, and reads a ``DensityOperator``'s checked matrix without a
rescan.  A map whose Kraus stack of n operators is small against d (the
rule in ``_on_stack``) is applied through that stack, as
sum_k K_k X K_k^dagger in 2n d^3 flops per matrix; any other map, and
every map without a stack, through its rep in d^4.  Both routes give the
same images to roundoff.  ``apply_dual_stack`` applies s* through s's own
stack or rep, so the verifiers build no dual map: on the stack route its
left operand is the kept adjoint rows and its right one the stack's own
rows, a view.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matcore
from .errors import NotCompletelyPositiveError
from .matcore import ROUNDOFF_TOL
from .quantum import DensityOperator


@dataclass(frozen=True, eq=False)
class Superoperator:
    """A linear transformation of d x d matrices, stored as its d^2 x d^2
    matrix over column-vectorized operators, with the (n, d, d) stack of
    Kraus operators it was built from when there is one (see the module
    docstring).  A stack-route map computes its rep on first read.
    Equality is identity, so maps hash by identity too."""

    dim: int
    rep: np.ndarray = field(repr=False)
    kraus: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        rep = matcore.as_complex_matrix(self.rep)
        if rep.shape[0] != self.dim * self.dim:
            raise ValueError(
                f"rep shape {rep.shape} does not match dim {self.dim}"
            )
        object.__setattr__(self, "rep", rep)

    def __getattr__(self, name):
        # reached only when the usual lookup fails: the unbuilt rep of a
        # stack-route map, or the adjoint rows of a map with a stack,
        # computed once and kept
        ks = vars(self).get("kraus")
        if ks is None or name not in ("rep", "_kraus_adjoint"):
            raise AttributeError(f"'Superoperator' object has no attribute {name!r}")
        value = vars(self)[name] = _rep_of(ks) if name == "rep" else _adjoint_rows(ks)
        return value

    @classmethod
    def _built(cls, dim: int, rep: np.ndarray):
        """A map with no stack whose rep was computed from checked arrays:
        no rescan."""
        s = object.__new__(cls)
        vars(s).update(dim=dim, rep=rep, kraus=None)
        return s

    @classmethod
    def _from_stack(cls, ks: np.ndarray, rep=None):
        """The map with the (n, d, d) Kraus stack ``ks``, made read-only to
        keep matching the rep.  On the stack route it holds no rep until
        one is read; any other map gets ``rep()`` now, or ``_rep_of(ks)``
        when ``rep`` is None."""
        ks.flags.writeable = False
        s = object.__new__(cls)
        vars(s).update(dim=ks.shape[1], kraus=ks)
        if not _on_stack(s):
            vars(s)["rep"] = _rep_of(ks) if rep is None else rep()
        return s

    @classmethod
    def zero(cls, dim: int) -> "Superoperator":
        empty = np.zeros((0, dim, dim), dtype=complex)
        return cls._from_stack(empty, lambda: np.zeros((dim * dim,) * 2, dtype=complex))

    @classmethod
    def sandwich(cls, a: np.ndarray) -> "Superoperator":
        """The map X -> A X A^dagger, with the Kraus stack [A]."""
        a = matcore.as_complex_matrix(a)
        return cls._from_stack(a[None].copy(), lambda: np.kron(a.conj(), a))

    @classmethod
    def from_kraus(cls, kraus) -> "Superoperator":
        """The map X -> sum_k K_k X K_k^dagger from a list or an (n, d, d)
        stack of Kraus operators: rep = sum_k conj(K_k) kron K_k."""
        ks = np.array(kraus, dtype=complex)
        if ks.ndim != 3 or ks.shape[1] != ks.shape[2] or 0 in ks.shape:
            raise ValueError(f"expected square Kraus operators, got shape {ks.shape}")
        if not np.all(np.isfinite(ks)):
            raise ValueError("Kraus operators have non-finite entries")
        return cls._from_stack(ks)

    @classmethod
    def sum_of(cls, dim: int, maps: list) -> "Superoperator":
        """The sum of ``maps``, all of dimension ``dim``.  When every map has
        a Kraus stack the sum holds their concatenation, and only the sum is
        put on or off the stack route; its rep, when one is built, is the
        maps' reps added to zeros in order, with no rep of a partial sum."""
        if any(t.dim != dim for t in maps):
            raise ValueError("dimension mismatch")

        def rep():
            out = np.zeros((dim * dim,) * 2, dtype=complex)
            for t in maps:
                out += t.rep
            return out

        if any(t.kraus is None for t in maps):
            return cls._built(dim, rep())
        empty = np.zeros((0, dim, dim), dtype=complex)
        return cls._from_stack(np.concatenate([empty, *(t.kraus for t in maps)]), rep)

    def compose(self, other: "Superoperator") -> "Superoperator":
        """self after other: X -> self(other(X)), with rep ``rep @ rep``."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return Superoperator._built(self.dim, self.rep @ other.rep)


# Below d = 9 per-call overhead outweighs the stack's flop saving: inside
# 4n <= d the rep is faster there in every cell of the stack-against-rep
# table in ROADMAP but (8,1) at 21 and 51 matrices.
KRAUS_ROUTE_MIN_DIM = 9

# From d = 12 writing the rep in place, with no second d^4 array and no
# strided copy, wins at every n of the per-call table in ROADMAP in warm
# loops and wins or ties (within 2%) in fresh processes; at d = 9-11 warm
# loops favour the one GEMM by 1.3-2.4x from n = 2 up.
_BLOCK_REP_MIN_DIM = 12


def _rep_of(ks: np.ndarray) -> np.ndarray:
    """sum_m conj(K_m) kron K_m, the rep of an (n, d, d) Kraus stack, whose
    entry (i d + k, j d + l) is sum_m conj(K_m[i, j]) K_m[k, l].  From
    d = ``_BLOCK_REP_MIN_DIM`` it is written in its own layout by one
    broadcast matmul: block (i, k) is conj(K[:, i, :])^T K[:, k, :], a
    (d x n)(n x d) product, so no second d^4 array is made.  Below, it is one
    (d^2 x n)(n x d^2) product in the order (i, j, k, l), regrouped by a
    copy of its four axes."""
    n, d = ks.shape[:2]
    if d >= _BLOCK_REP_MIN_DIM:
        blocks = ks.conj().transpose(1, 2, 0)[:, None] @ ks.transpose(1, 0, 2)[None]
        return blocks.reshape(d * d, d * d)
    flat = ks.reshape(n, d * d)
    rep = (flat.conj().T @ flat).reshape((d,) * 4).transpose(0, 2, 1, 3)
    return rep.reshape(d * d, d * d)


def _on_stack(s: Superoperator) -> bool:
    """Whether ``apply*`` take s through its Kraus stack of n operators:
    when d >= ``KRAUS_ROUTE_MIN_DIM`` and 4n <= d, where the stack's 2n d^3
    flops per matrix are at most half the rep's d^4."""
    return s.kraus is not None and s.dim >= KRAUS_ROUTE_MIN_DIM and 4 * len(s.kraus) <= s.dim


def _adjoint_rows(ks: np.ndarray) -> np.ndarray:
    """The adjoints K_k^dagger of an (n, d, d) stack as read-only (n d x d)
    rows, the right operand of ``_kraus_sum``."""
    n, d = ks.shape[:2]
    rows = ks.conj().transpose(0, 2, 1).reshape(n * d, d)
    rows.flags.writeable = False
    return rows


def _kraus_sum(ks: np.ndarray, ms: np.ndarray, adj=None) -> np.ndarray:
    """sum_k K_k X K_k^dagger for every X of an (m, d, d) stack, from an
    (n, d, d) stack K in two GEMMs: K stacked as (n d x d) times the X side
    by side (d x m d) gives every K_k X_j; regrouped so that row block j
    holds [K_1 X_j ... K_n X_j], that times ``adj``, the K_k^dagger as
    (n d x d) rows (``_adjoint_rows(ks)`` when None), is the sum over k for
    every j."""
    n, d = ks.shape[:2]
    m = len(ms)
    y = ks.reshape(n * d, d) @ ms.transpose(1, 0, 2).reshape(d, m * d)
    z = y.reshape(n, d, m, d).transpose(2, 1, 0, 3).reshape(m * d, n * d)
    return (z @ (_adjoint_rows(ks) if adj is None else adj)).reshape(m, d, d)


def apply(s: Superoperator, m) -> np.ndarray:
    """s(m): through s's Kraus stack when ``_on_stack`` takes it, else the
    rep times vec(m), reshaped back to d x d.  ``m`` is a matrix, scanned by
    ``matcore.as_complex_matrix``, or a ``DensityOperator``, whose checked
    matrix is read with no rescan."""
    m = m.matrix if isinstance(m, DensityOperator) else matcore.as_complex_matrix(m)
    if m.shape[0] != s.dim:
        raise ValueError(f"dimension mismatch: map dim {s.dim}, matrix dim {m.shape[0]}")
    if _on_stack(s):
        return _kraus_sum(s.kraus, m[None], s._kraus_adjoint)[0]
    return (s.rep @ m.reshape(-1, order="F")).reshape(s.dim, s.dim, order="F")


def _stack_for(s: Superoperator, ms) -> np.ndarray:
    ms = np.asarray(ms, dtype=complex)
    d = s.dim
    if ms.ndim != 3 or ms.shape[1:] != (d, d):
        raise ValueError(f"expected an (n, {d}, {d}) stack, got shape {ms.shape}")
    return ms


def apply_stack(s: Superoperator, ms) -> np.ndarray:
    """s applied to every matrix of an (m, d, d) stack at once: through s's
    Kraus stack when ``_on_stack`` takes it, else with one matmul, the
    rows of the stack's vecs times rep^T being the vecs of the images."""
    ms = _stack_for(s, ms)
    if _on_stack(s):
        return _kraus_sum(s.kraus, ms, s._kraus_adjoint)
    n, d = ms.shape[0], s.dim
    rows = ms.transpose(0, 2, 1).reshape(n, d * d)
    return (rows @ s.rep.T).reshape(n, d, d).transpose(0, 2, 1)


def apply_dual_stack(s: Superoperator, ms) -> np.ndarray:
    """The dual map s* applied to every matrix of an (m, d, d) stack at once,
    building no dual map: through the adjoints of s's Kraus stack,
    s*(X) = sum_k K_k^dagger X K_k, when ``_on_stack`` takes it, else with
    one matmul on s's own rep:
    s*(X)[j, i] = sum_{a,b} X[b, a] rep[a + b*d, i + j*d], so the rows of
    the stack flattened in C order times rep are the images flattened in C
    order."""
    ms = _stack_for(s, ms)
    if _on_stack(s):
        n, d = s.kraus.shape[:2]
        return _kraus_sum(s._kraus_adjoint.reshape(n, d, d), ms, s.kraus.reshape(n * d, d))
    n, d = ms.shape[0], s.dim
    return (ms.reshape(n, d * d) @ s.rep).reshape(n, d, d)


def trace_of_map(s: Superoperator, rho) -> complex:
    """Tr[s(rho)], for a matrix or a ``DensityOperator`` as in ``apply``."""
    return complex(matcore.trace(apply(s, rho)))


def unit_image(s: Superoperator) -> np.ndarray:
    """s*(1), the dual map applied to the identity.  On the stack route it
    is sum_k K_k^dagger K_k, the stack as (n d x d) rows times their
    adjoint; else it is read off the rep with d^3 adds:
    s*(1)[l, k] = Tr s(E_kl) = sum_i rep[i + i*d, k + l*d]."""
    if _on_stack(s):
        rows = s.kraus.reshape(-1, s.dim)
        return rows.conj().T @ rows
    return s.rep[:: s.dim + 1].sum(axis=0).reshape(s.dim, s.dim)


def is_trace_preserving(s: Superoperator) -> bool:
    """Tr[s(X)] = Tr[X] on all matrix units, i.e. the dual fixes the identity."""
    return matcore.max_abs(unit_image(s) - np.eye(s.dim)) <= ROUNDOFF_TOL


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Block matrix [s(E_ij)]_ij; PSD exactly when the map is completely
    positive.  ``kraus`` is the Kraus stack of the map it came from, set
    only by ``choi``.  Equality is identity, as for ``Superoperator``."""

    dim: int
    matrix: np.ndarray
    kraus: np.ndarray | None = field(default=None, init=False, repr=False)


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

