"""Linear maps on operators, represented as matrices on vectorized operators.

Column-stacking convention: ``vec(X)[i + j*d] = X[i, j]``, so that
``vec(A X B) = (B^T kron A) vec(X)``.  All maps here act on the d*d
matrices over a single d-dimensional space.

A map is its Kraus stack: every builder (``Superoperator.from_kraus``,
``sandwich``, ``zero`` and the package-private ``_on_range``) takes Kraus
operators, so every map is completely positive by type, and ``kraus``, a
read-only (n, d, d) array, is never ``None``.  There is no rep constructor
and no map is built by probing with matrix units.  A map given by its Choi
matrix C comes in through ``kraus_from_choi(ChoiMatrix(d, C))``, which
refuses a C that is not completely positive, and then ``from_kraus``.  The
rep and the Choi matrix [s(E_ij)]_ij hold the same entries in a different
order, so ``choi`` is one reshuffle of indices; it passes the square stack
on to the ``ChoiMatrix``, and ``kraus_from_choi`` reads the operators off
it.

A map holds the stack it was built from as ``stack``: the (n, d, d) K of
``from_kraus``, ``sandwich`` and ``zero``, or, for a map on a range, an
(n, d, r) stack B with the read-only (d, r) isometry ``isometry`` P, the
map X -> sum_k B_k (P^dagger X P) B_k^dagger, built by ``_on_range``.
``outcome_maps`` builds each T_a(X) = T(E_a X E_a) of an operation so from
d = ``_RANGE_MIN_DIM``, with B = K P_a, since T_a sees X only through its
outcome block P_a^dagger X P_a; below it, as the square stack K E_a.

A map has one schedule and one rule.  The schedule: a map holds only
``dim``, ``stack`` and, on a range, ``isometry``; everything else is
computed on first read (``functools.cached_property``) and then kept: the
square ``kraus`` B P^dagger of a map on a range, the d^2 x d^2 ``rep``
sum_k conj(K_k) kron K_k of the square stack, the d^2 x r^2 rep of a held
range stack, and the adjoints of the held stack as read-only (n r x d)
rows.  Each rep is written by ``_rep_of`` in one of two forms: below d =
``_BLOCK_REP_MIN_DIM`` as one (d r x n)(n x d r) GEMM regrouped by a copy
of its four axes, and from there straight into its own layout, block
(i, k) being the (r x n)(n x r) product conj(K[:, i, :])^T K[:, k, :] of
one broadcast matmul, so no second array of its size is made.  The rule,
``_on_stack``, is one flop comparison over the held stack's (n, d, r): the
stack, n(d r^2 + d^2 r) flops per matrix, is taken when that is at most
half the d^2 r^2 of its rep, 2n(d + r) <= d r, which is 4n <= d for a
square stack; so the ``apply*`` functions, ``unit_image`` and
``sum_residual`` build no rep for such a map, and every other map is
applied through the rep of its held stack, which it computes on that first
apply.  A map on a range takes P^dagger X P first and P Y P^dagger last,
in two GEMMs each (``_sandwich``), and never reads its square ``rep`` to
apply.  ``choi`` always reads ``rep``.  ``unit_image`` gives T*(1)
without a dual map: on the stack route as sum_k K_k^dagger K_k, one
(r x nd)(nd x r) product, else read off the held stack's rep.

``apply_stack`` and ``apply_dual_stack`` apply a map or its dual to an
(m, d, d) stack of matrices at once, so that a check over many samples
costs a few GEMMs instead of a Python loop; ``apply`` is the one-matrix
form, and reads a ``DensityOperator``'s checked matrix without a rescan.
Both routes give the same images to roundoff.  ``apply_dual_stack``
applies s* through s's own stack or rep, so the verifiers build no dual
map: on the stack route its left operand is the kept adjoint rows and its
right one the stack's own rows, a view.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import matcore
from .errors import NotCompletelyPositiveError
from .matcore import ROUNDOFF_TOL
from .quantum import DensityOperator


@dataclass(frozen=True, eq=False, init=False)
class Superoperator:
    """A linear transformation of d x d matrices, held as the Kraus stack
    it was built from: an (n, d, d) stack K, or, with a (d, r) isometry P,
    an (n, d, r) stack B, the map X -> sum_k B_k (P^dagger X P) B_k^dagger.
    Its square Kraus stack ``kraus`` (K, or B P^dagger) and its d^2 x d^2
    matrix over column-vectorized operators are computed on first read (see
    the module docstring).  There is no public constructor: a map comes
    from ``from_kraus``, ``sandwich``, ``zero`` or ``_on_range``.  Equality
    is identity, so maps hash by identity too."""

    dim: int
    stack: np.ndarray = field(repr=False)
    isometry: np.ndarray | None = field(default=None, repr=False)

    @property
    def kraus(self) -> np.ndarray:
        """The read-only (n, d, d) Kraus stack: the held stack, or B P^dagger
        for a map on a range, computed on first read."""
        return self.stack if self.isometry is None else self._square

    @functools.cached_property
    def _square(self) -> np.ndarray:
        n, d, r = self.stack.shape
        ks = (self.stack.reshape(n * d, r) @ self._coisometry).reshape(n, d, d)
        ks.flags.writeable = False
        return ks

    @functools.cached_property
    def rep(self) -> np.ndarray:
        """The d^2 x d^2 matrix, sum_k conj(K_k) kron K_k."""
        return _rep_of(self.kraus)

    @functools.cached_property
    def _range_rep(self) -> np.ndarray:
        """The d^2 x r^2 rep of a map on a range, sum_k conj(B_k) kron B_k."""
        return _rep_of(self.stack)

    @functools.cached_property
    def _coisometry(self) -> np.ndarray:
        return np.ascontiguousarray(self.isometry.conj().T)

    @functools.cached_property
    def _kraus_adjoint(self) -> np.ndarray:
        return _adjoint_rows(self.stack)

    @classmethod
    def _from_stack(cls, ks: np.ndarray):
        """The map with the (n, d, d) Kraus stack ``ks``, made read-only to
        keep matching the rep, which is computed on first read."""
        ks.flags.writeable = False
        s = object.__new__(cls)
        vars(s).update(dim=ks.shape[1], stack=ks)
        return s

    @classmethod
    def _on_range(cls, ks: np.ndarray, p: np.ndarray):
        """The map X -> sum_k B_k (P^dagger X P) B_k^dagger of an (n, d, r)
        stack B, made read-only, and a read-only (d, r) isometry P."""
        ks.flags.writeable = False
        s = object.__new__(cls)
        vars(s).update(dim=ks.shape[1], stack=ks, isometry=p)
        return s

    @classmethod
    def zero(cls, dim: int) -> "Superoperator":
        return cls._from_stack(np.zeros((0, dim, dim), dtype=complex))

    @classmethod
    def sandwich(cls, a: np.ndarray) -> "Superoperator":
        """The map X -> A X A^dagger, with the Kraus stack [A]."""
        return cls._from_stack(matcore.as_complex_matrix(a)[None].copy())

    @classmethod
    def from_kraus(cls, kraus) -> "Superoperator":
        """The map X -> sum_k K_k X K_k^dagger from a list or an (n, d, d)
        stack of Kraus operators: rep = sum_k conj(K_k) kron K_k.  A
        (0, d, d) stack gives the zero map."""
        ks = np.array(kraus, dtype=complex)
        if ks.ndim != 3 or ks.shape[1] != ks.shape[2] or ks.shape[1] == 0:
            raise ValueError(f"expected square Kraus operators, got shape {ks.shape}")
        if not np.all(np.isfinite(ks)):
            raise ValueError("Kraus operators have non-finite entries")
        return cls._from_stack(ks)


# From d = 12 writing the rep in place, with no second d^4 array and no
# strided copy, wins at every n of the per-call table in ROADMAP in warm
# loops and wins or ties (within 2%) in fresh processes; at d = 9-11 warm
# loops favour the one GEMM by 1.3-2.4x from n = 2 up.
_BLOCK_REP_MIN_DIM = 12
# Below d = 12 projecting onto a range costs more than it saves on a
# one-matrix apply: the square rep wins or ties there at most r and n of the
# per-call table in ROADMAP, and the range rep wins from d = 12 at every r.
_RANGE_MIN_DIM = 12


def outcome_maps(t: Superoperator, obs) -> list:
    """The maps X -> t(E_a X E_a), one per outcome of the observable
    ``obs`` in the order of its outcomes, each from t's Kraus stack K by one
    2-D GEMM, K stacked as (n d x d) rows times a matrix: from d =
    ``_RANGE_MIN_DIM`` the (n, d, r_a) stack K P_a on the range isometry P_a
    of E_a (``obs.ranges``, E_a = P_a P_a^dagger), below it the square
    stack K E_a, so no range is taken there."""
    n, d = t.kraus.shape[:2]
    rows = t.kraus.reshape(n * d, d)
    if d < _RANGE_MIN_DIM:
        return [Superoperator._from_stack((rows @ e).reshape(n, d, d)) for e in obs.projectors]
    return [
        Superoperator._on_range((rows @ p).reshape(n, d, p.shape[1]), p) for p in obs.ranges
    ]


def _rep_of(ks: np.ndarray) -> np.ndarray:
    """sum_m conj(K_m) kron K_m, the d^2 x r^2 rep of an (n, d, r) Kraus
    stack (r = d for a square one), whose entry (i d + k, j r + l) is
    sum_m conj(K_m[i, j]) K_m[k, l].  From d = ``_BLOCK_REP_MIN_DIM`` it is
    written in its own layout by one broadcast matmul: block (i, k) is
    conj(K[:, i, :])^T K[:, k, :], an (r x n)(n x r) product, so no second
    array of its size is made.  Below, it is one (d r x n)(n x d r) product
    in the order (i, j, k, l), regrouped by a copy of its four axes."""
    n, d, r = ks.shape
    if d >= _BLOCK_REP_MIN_DIM:
        blocks = ks.conj().transpose(1, 2, 0)[:, None] @ ks.transpose(1, 0, 2)[None]
        return blocks.reshape(d * d, r * r)
    flat = ks.reshape(n, d * r)
    rep = (flat.conj().T @ flat).reshape(d, r, d, r).transpose(0, 2, 1, 3)
    return rep.reshape(d * d, r * r)


def _on_stack(s: Superoperator) -> bool:
    """Whether s is taken through its held stack of n operators of shape
    d x r, rather than through that stack's rep: when 2n(d + r) <= d r,
    where the stack's n(d r^2 + d^2 r) flops per matrix are at most half
    the rep's d^2 r^2.  For a square stack that is 4n <= d."""
    n, d, r = s.stack.shape
    return 2 * n * (d + r) <= d * r


def _stack_rep(s: Superoperator) -> np.ndarray:
    """The rep of s's held stack: ``rep``, or the d^2 x r^2 ``_range_rep``
    of a map on a range."""
    return s.rep if s.isometry is None else s._range_rep


def _adjoint_rows(ks: np.ndarray) -> np.ndarray:
    """The adjoints K_k^dagger of an (n, d, r) stack as read-only (n r x d)
    rows, the right operand of ``_kraus_sum``."""
    n, d, r = ks.shape
    rows = ks.conj().transpose(0, 2, 1).reshape(n * r, d)
    rows.flags.writeable = False
    return rows


def _kraus_sum(ks: np.ndarray, ms: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """sum_k K_k X K_k^dagger for every X of an (m, r, r) stack, from an
    (n, d, r) stack K in two GEMMs: K stacked as (n d x r) times the X side
    by side (r x m r) gives every K_k X_j; regrouped so that row block j
    holds [K_1 X_j ... K_n X_j], that times ``adj``, the K_k^dagger as
    (n r x d') rows (``_adjoint_rows(ks)`` with d' = d), is the sum over k
    for every j, an (m, d, d') stack."""
    n, d, r = ks.shape
    m = len(ms)
    y = ks.reshape(n * d, r) @ ms.transpose(1, 0, 2).reshape(r, m * r)
    z = y.reshape(n, d, m, r).transpose(2, 1, 0, 3).reshape(m * d, n * r)
    return (z @ adj).reshape(m, d, adj.shape[1])


def _sandwich(a: np.ndarray, ms: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A X B for every X of an (m, q, q') stack in two GEMMs: A times the X
    side by side, regrouped to rows, times B."""
    m, q, t = ms.shape
    p = len(a)
    y = (a @ ms.transpose(1, 0, 2).reshape(q, m * t)).reshape(p, m, t)
    return (y.transpose(1, 0, 2).reshape(m * p, t) @ b).reshape(m, p, b.shape[1])


def apply(s: Superoperator, m) -> np.ndarray:
    """s(m): through s's held stack when ``_on_stack`` takes it, else that
    stack's rep times vec(m), reshaped back to d x d; a map on a range
    first projects m to P^dagger m P.  ``m`` is a matrix, scanned by
    ``matcore.as_complex_matrix``, or a ``DensityOperator``, whose checked
    matrix is read with no rescan."""
    m = m.matrix if isinstance(m, DensityOperator) else matcore.as_complex_matrix(m)
    if m.shape[0] != s.dim:
        raise ValueError(f"dimension mismatch: map dim {s.dim}, matrix dim {m.shape[0]}")
    p = s.isometry
    if p is not None:
        m = s._coisometry @ m @ p
    if _on_stack(s):
        return _kraus_sum(s.stack, m[None], s._kraus_adjoint)[0]
    rep = s.rep if p is None else s._range_rep
    return (rep @ m.reshape(-1, order="F")).reshape(s.dim, s.dim, order="F")


def _stack_for(s: Superoperator, ms) -> np.ndarray:
    ms = np.asarray(ms, dtype=complex)
    d = s.dim
    if ms.ndim != 3 or ms.shape[1:] != (d, d):
        raise ValueError(f"expected an (n, {d}, {d}) stack, got shape {ms.shape}")
    return ms


def apply_stack(s: Superoperator, ms) -> np.ndarray:
    """s applied to every matrix of an (m, d, d) stack at once: a map on a
    range first projects the stack to the P^dagger X P by ``_sandwich``;
    then through s's held stack when ``_on_stack`` takes it, else with one
    matmul, the rows of the stack's vecs times the rep's transpose being
    the vecs of the images."""
    ms = _stack_for(s, ms)
    if s.isometry is not None:
        ms = _sandwich(s._coisometry, ms, s.isometry)
    if _on_stack(s):
        return _kraus_sum(s.stack, ms, s._kraus_adjoint)
    n, r, d = ms.shape[0], ms.shape[1], s.dim
    rows = ms.transpose(0, 2, 1).reshape(n, r * r)
    return (rows @ _stack_rep(s).T).reshape(n, d, d).transpose(0, 2, 1)


def apply_dual_stack(s: Superoperator, ms) -> np.ndarray:
    """The dual map s* applied to every matrix of an (m, d, d) stack at once,
    building no dual map: through the adjoints of s's held stack,
    s*(X) = sum_k K_k^dagger X K_k, when ``_on_stack`` takes it, else with
    one matmul on that stack's own rep:
    s*(X)[j, i] = sum_{a,b} X[b, a] rep[a + b*d, i + j*r], so the rows of
    the stack flattened in C order times rep are the images flattened in C
    order.  A map on a range lifts those r x r images to P Y P^dagger by
    ``_sandwich``."""
    ms = _stack_for(s, ms)
    n, d, r = s.stack.shape
    if _on_stack(s):
        out = _kraus_sum(s._kraus_adjoint.reshape(n, r, d), ms, s.stack.reshape(n * d, r))
    else:
        out = (ms.reshape(len(ms), d * d) @ _stack_rep(s)).reshape(len(ms), r, r)
    if s.isometry is None:
        return out
    return _sandwich(s.isometry, out, s._coisometry)


def unit_image(s: Superoperator) -> np.ndarray:
    """s*(1), the dual map applied to the identity.  On the stack route it
    is sum_k K_k^dagger K_k, the held stack as (n d x r) rows times their
    adjoint; else it is read off the stack's rep with d r^2 adds:
    s*(1)[l, k] = Tr s(E_kl) = sum_i rep[i + i*d, k + l*r].  A map on a
    range lifts it to P s*(1) P^dagger."""
    n, d, r = s.stack.shape
    if _on_stack(s):
        rows = s.stack.reshape(-1, r)
        inner = rows.conj().T @ rows
    else:
        inner = _stack_rep(s)[:: d + 1].sum(axis=0).reshape(r, r)
    if s.isometry is None:
        return inner
    return s.isometry @ inner @ s._coisometry


def sum_residual(total: Superoperator, parts: list) -> float:
    """The largest entry modulus of rep(sum of ``parts``) - rep(``total``).
    When no map is applied through its square rep (each is on the stack
    route or on a range), no rep is read: with V the parts' square Kraus
    stacks and W the total's, flattened to rows of d^2 entries, the one
    product [V; W]^dagger [V; -W] holds the entries of that difference in
    another order.  Otherwise the difference is summed in one fresh
    accumulator, -rep(total) with each part's rep added in place, so no
    input rep is written."""
    d = total.dim
    if all(t.isometry is not None or _on_stack(t) for t in [total, *parts]):
        v = np.concatenate([t.kraus for t in parts]).reshape(-1, d * d)
        w = total.kraus.reshape(-1, d * d)
        diff = np.concatenate([v, w]).conj().T @ np.concatenate([v, -w])
    else:
        diff = -total.rep
        for t in parts:
            diff += t.rep
    return matcore.max_abs(diff)


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Block matrix [s(E_ij)]_ij; PSD exactly when the map is completely
    positive.  ``kraus`` is the Kraus stack of the map it came from, passed
    on by ``choi``; a Choi matrix given as a matrix alone has none, and
    ``kraus_from_choi`` is its way into a map.  Equality is identity, as for
    ``Superoperator``."""

    dim: int
    matrix: np.ndarray
    kraus: np.ndarray | None = field(default=None, repr=False)


def choi(s: Superoperator) -> ChoiMatrix:
    d = s.dim
    # rep[k + l*d, i + j*d] = s(E_ij)[k, l] = choi[i*d + k, j*d + l]
    m = s.rep.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)
    return ChoiMatrix(d, m, s.kraus)


def kraus_from_choi(c: ChoiMatrix) -> list:
    """Kraus operators of a completely positive map from its Choi matrix.

    The eigenpairs (lambda, u) of the Choi matrix give the operators
    sqrt(lambda) vec^-1(u)^T.  When ``c`` carries a Kraus stack of at most
    d^2 operators, they come from one thin SVD of V, whose columns are the
    vec(K^T) in the Choi index order: C = V V^dagger, so the pairs are
    (s^2, u).  Otherwise (no stack, or a larger one, where the ``eigh`` is
    cheaper) they come from an ``eigh`` of C: a C that fails the Hermitian
    test raises ``ValueError`` with ||C - C^dag||, and a negative eigenvalue
    below ``-ROUNDOFF_TOL`` raises ``NotCompletelyPositiveError``, so a
    matrix that is not completely positive gives no operators.  On both
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

