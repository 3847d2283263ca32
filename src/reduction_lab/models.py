"""Unitary object-apparatus measurement models.

A model is a tuple (apparatus state sigma, interaction unitary U, optional
probe observable M) over the composite space with the object as the first
tensor factor.  From it we extract:

- the operation  T(rho)   = Tr_A[U (rho x sigma) U+]
- the instrument T_a(rho) = Tr_A[U (E_a rho E_a x sigma) U+]
- the probe-route instrument
  T'_a(rho) = Tr_A[(1 x Q_a) U (rho x sigma) U+ (1 x Q_a)]

where E_a are the measured observable's spectral projectors and Q_a the
probe's.  For a faithful model the two instrument routes coincide.

All three maps are read off one Kraus stack.  With the apparatus state
sigma = sum_j w_j |v_j><v_j| and an orthonormal apparatus basis |m>,

    K_{m,j} = sqrt(w_j) (1 x <m|) U (1 x |v_j>)

gives T(rho) = sum K rho K+, and T_a uses K E_a.  The probe route acts
with Q_a on the apparatus index alone (Ozawa, J. Math. Phys. 25, 79
(1984)): sum_n (Q_a)_{mn} K_{n,j}, one matrix product per outcome.  Each
call builds the stack once, by one contraction of ``U.reshape(d_s, d_a,
d_s, d_a)``.  Eigenvectors of sigma with weight w_j <= 0 are dropped: a
zero weight contributes nothing, and a roundoff-negative one has no real
square root, so dropping them needs no tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import (
    DegenerateObservableError,
    MissingProbeError,
    NotAMeasurementOfAError,
)
from .instrument import Instrument
from .matcore import ROUNDOFF_TOL, VERIFY_TOL, dagger
from .quantum import DensityOperator, DiscreteObservable, ket
from .superop import Superoperator


@dataclass(frozen=True)
class MeasurementModel:
    dim_s: int
    dim_a: int
    observable: DiscreteObservable
    apparatus_state: DensityOperator
    unitary: np.ndarray
    probe: DiscreteObservable | None = None

    def __post_init__(self):
        u = matcore.as_complex_matrix(self.unitary)
        object.__setattr__(self, "unitary", u)
        d = self.dim_s * self.dim_a
        if u.shape[0] != d:
            raise ValueError(f"unitary dim {u.shape[0]} != dim_s * dim_a = {d}")
        if matcore.max_abs(dagger(u) @ u - np.eye(d)) > ROUNDOFF_TOL:
            raise ValueError("interaction matrix is not unitary")
        if self.observable.dim != self.dim_s:
            raise ValueError("observable dimension != dim_s")
        if self.apparatus_state.dim != self.dim_a:
            raise ValueError("apparatus state dimension != dim_a")
        if self.probe is not None:
            if self.probe.dim != self.dim_a:
                raise ValueError("probe dimension != dim_a")
            if sorted(self.probe.eigenvalues) != sorted(self.observable.eigenvalues):
                raise ValueError(
                    "probe eigenvalue set differs from the measured observable's"
                )


@dataclass(frozen=True)
class ConsistencyReport:
    """Per-outcome residuals of the probe-faithfulness operator identity."""

    residuals: dict
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(r <= self.tolerance for r in self.residuals.values())

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    @property
    def worst_outcome(self):
        return max(self.residuals, key=self.residuals.get)


def _kraus(model: MeasurementModel) -> np.ndarray:
    """The (d_a * r, d_s, d_s) stack of the K_{m,j}, m outermost, over the
    r eigenvectors of sigma with weight w_j > 0."""
    ds, da = model.dim_s, model.dim_a
    w, v = np.linalg.eigh(model.apparatus_state.matrix)
    keep = w > 0
    root = v[:, keep] * np.sqrt(w[keep])
    u4 = model.unitary.reshape(ds, da, ds, da)
    return np.einsum("imkl,lj->mjik", u4, root).reshape(-1, ds, ds)


def operation_of(model: MeasurementModel) -> Superoperator:
    """The nonselective state change of the model as a map on the object."""
    return Superoperator.from_kraus(_kraus(model))


def _probe_route(model: MeasurementModel) -> tuple:
    """Probe-route Kraus stacks per outcome, Q_a applied to the apparatus
    index of the model's stack, and the spectral-norm residuals of
    F_a = sum K'+ K' against E_a taken from the same stacks."""
    if model.probe is None:
        raise MissingProbeError("model has no probe observable")
    ds = model.dim_s
    k = _kraus(model).reshape(model.dim_a, -1)
    stacks, residuals = {}, {}
    for a, p in model.observable.outcomes:
        kq = (model.probe.projector(a) @ k).reshape(-1, ds, ds)
        f = np.tensordot(kq.conj(), kq, axes=([0, 1], [0, 1]))
        stacks[a] = kq
        residuals[a] = matcore.spectral_norm(f - p)
    return stacks, residuals


def probe_consistency(
    model: MeasurementModel, tol: float = VERIFY_TOL
) -> ConsistencyReport:
    """Check that probe statistics reproduce the Born rule for every input.

    By linearity this is the operator identity
    ``F_a = Tr_A[(U+ (1 x Q_a) U)(1 x sigma)] = E_a`` per outcome, where
    ``F_a = sum K'+ K'`` over the probe-route Kraus operators; residuals are
    spectral norms.
    """
    return ConsistencyReport(_probe_route(model)[1], tol)


def _require_consistent(report: ConsistencyReport) -> None:
    if not report.passed:
        raise NotAMeasurementOfAError(
            report.worst_outcome,
            report.max_residual,
            "probe statistics do not reproduce the Born rule",
        )


def dilation_instrument(model: MeasurementModel) -> Instrument:
    """The instrument of the model via the dilation formula, built without
    the probe check and not yet validated: ``Instrument.validate`` at the
    caller's tolerance accepts it only when the extracted components sum to
    the operation (otherwise U does not measure the observable), and
    returns the completeness residual."""
    k = _kraus(model)
    components = {
        a: Superoperator.from_kraus(k @ p) for a, p in model.observable.outcomes
    }
    return Instrument(
        model.observable, components, total=Superoperator.from_kraus(k),
        validate_invariants=False,
    )


def instrument_of(model: MeasurementModel, tol: float = VERIFY_TOL) -> Instrument:
    """The instrument of the model via the dilation formula.

    If the model carries a probe, probe consistency is enforced first; a
    probeless model is accepted only when the extracted components actually
    sum to the operation (otherwise U does not measure the observable).
    Both checks pass at ``tol``.
    """
    if model.probe is not None:
        _require_consistent(probe_consistency(model, tol))
    ins = dilation_instrument(model)
    ins.validate(tol)
    return ins


def probe_instrument_of(model: MeasurementModel) -> Instrument:
    """The conventional probe-route instrument (projection postulate applied
    to the probe detection), built from the Kraus stacks its consistency
    check already computed."""
    stacks, residuals = _probe_route(model)
    _require_consistent(ConsistencyReport(residuals, VERIFY_TOL))
    components = {a: Superoperator.from_kraus(k) for a, k in stacks.items()}
    return Instrument(model.observable, components)


# ---------------------------------------------------------------------------
# model generators


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _complete_unitary(in_cols: np.ndarray, out_cols: np.ndarray) -> np.ndarray:
    """Unitary mapping the orthonormal columns of ``in_cols`` onto those of
    ``out_cols``, completed deterministically on the orthocomplements."""
    dim, r = in_cols.shape
    ua = np.linalg.svd(in_cols, full_matrices=True)[0]
    ub = np.linalg.svd(out_cols, full_matrices=True)[0]
    a_perp = ua[:, r:]
    b_perp = ub[:, r:]
    return out_cols @ dagger(in_cols) + b_perp @ dagger(a_perp)


def _projector_range(p: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the range of an orthogonal projector."""
    w, v = np.linalg.eigh((p + dagger(p)) / 2)
    rank = int(round(np.real(np.trace(p))))
    return v[:, ::-1][:, :rank]


def von_neumann_model(
    observable: DiscreteObservable,
    dim_a: int,
    pointer_basis: np.ndarray | None = None,
    seed: int | None = None,
) -> MeasurementModel:
    """Pointer-basis model: U maps phi_n x xi to phi_n x xi_n.

    The observable must be nondegenerate.  The pointer basis is taken from
    ``pointer_basis`` (orthonormal columns), drawn Haar-randomly from
    ``seed``, or defaults to the first apparatus basis vectors.  The probe
    assigns unused apparatus dimensions to the first outcome.
    """
    dim_s = observable.dim
    n = len(observable.outcomes)
    for a, p in observable.outcomes:
        if int(round(np.real(np.trace(p)))) != 1:
            raise DegenerateObservableError(
                f"outcome {a} has a degenerate (rank > 1) eigenspace"
            )
    if dim_a < n:
        raise ValueError(f"dim_a = {dim_a} < number of outcomes = {n}")

    if pointer_basis is not None:
        xi_n = np.asarray(pointer_basis, dtype=complex)
        if xi_n.shape != (dim_a, n):
            raise ValueError(f"pointer basis must be {dim_a} x {n}")
        if matcore.max_abs(dagger(xi_n) @ xi_n - np.eye(n)) > ROUNDOFF_TOL:
            raise ValueError("pointer basis columns are not orthonormal")
    elif seed is not None:
        xi_n = haar_unitary(dim_a, np.random.default_rng(seed))[:, :n]
    else:
        xi_n = np.eye(dim_a, dtype=complex)[:, :n]

    phis = [_projector_range(p)[:, 0] for _, p in observable.outcomes]
    xi = ket(dim_a, 0)
    in_cols = np.column_stack([np.kron(phi, xi) for phi in phis])
    out_cols = np.column_stack(
        [np.kron(phi, xi_n[:, k]) for k, phi in enumerate(phis)]
    )
    u = _complete_unitary(in_cols, out_cols)

    pointer_proj = [np.outer(xi_n[:, k], xi_n[:, k].conj()) for k in range(n)]
    unused = np.eye(dim_a, dtype=complex) - sum(pointer_proj)
    pointer_proj[0] = pointer_proj[0] + unused
    probe = DiscreteObservable(
        tuple(
            (a, pointer_proj[k])
            for k, (a, _) in enumerate(observable.outcomes)
        )
    )
    return MeasurementModel(
        dim_s=dim_s,
        dim_a=dim_a,
        observable=observable,
        apparatus_state=DensityOperator(np.outer(xi, xi.conj())),
        unitary=u,
        probe=probe,
    )


def _sector_sizes(dim_a: int, n_out: int) -> list:
    base, rem = divmod(dim_a, n_out)
    return [base + 1 if k < rem else base for k in range(n_out)]


def random_faithful_model(
    observable: DiscreteObservable,
    dim_a: int,
    seed: int,
    sigma_rank: int | None = None,
) -> MeasurementModel:
    """Random model that is faithful by construction.

    The apparatus space is partitioned into one sector per outcome; the
    interaction sends each eigenspace branch into its sector by a random
    isometry, and the probe projects onto sectors.  ``sigma_rank`` sets the
    rank of the apparatus state (random mixed states up to the smallest
    sector size; default picks it at random, 1 giving a pure state).
    Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    n_out = len(observable.outcomes)
    dim_s = observable.dim
    if dim_a < n_out:
        raise ValueError(f"dim_a = {dim_a} < number of outcomes = {n_out}")
    sizes = _sector_sizes(dim_a, n_out)
    min_sector = min(sizes)
    if sigma_rank is None:
        sigma_rank = int(rng.integers(1, min_sector + 1))
    if not 1 <= sigma_rank <= min_sector:
        raise ValueError(
            f"sigma_rank must be in [1, {min_sector}] for these sectors"
        )

    if sigma_rank == 1:
        weights = np.array([1.0])
    else:
        weights = rng.random(sigma_rank) + 0.1
        weights /= weights.sum()
    sigma = np.zeros((dim_a, dim_a), dtype=complex)
    for j, w in enumerate(weights):
        sigma[j, j] = w

    offsets = np.concatenate([[0], np.cumsum(sizes)])
    in_blocks = []
    out_blocks = []
    probe_outcomes = []
    for k, (a, p) in enumerate(observable.outcomes):
        rank = int(round(np.real(np.trace(p))))
        basis_s = _projector_range(p)
        # input branch: eigenspace x sigma support
        ins = np.column_stack(
            [
                np.kron(basis_s[:, i], ket(dim_a, j))
                for i in range(rank)
                for j in range(sigma_rank)
            ]
        )
        # output space: full object space x this outcome's sector
        sector = range(offsets[k], offsets[k + 1])
        out_basis = np.column_stack(
            [
                np.kron(ket(dim_s, i), ket(dim_a, m))
                for i in range(dim_s)
                for m in sector
            ]
        )
        iso = haar_unitary(out_basis.shape[1], rng)[:, : ins.shape[1]]
        in_blocks.append(ins)
        out_blocks.append(out_basis @ iso)
        q = np.zeros((dim_a, dim_a), dtype=complex)
        for m in sector:
            q[m, m] = 1.0
        probe_outcomes.append((a, q))

    u = _complete_unitary(np.hstack(in_blocks), np.hstack(out_blocks))
    return MeasurementModel(
        dim_s=dim_s,
        dim_a=dim_a,
        observable=observable,
        apparatus_state=DensityOperator(sigma),
        unitary=u,
        probe=DiscreteObservable(tuple(probe_outcomes)),
    )


def random_biased_model(
    observable: DiscreteObservable, dim_a: int, seed: int
) -> MeasurementModel:
    """Faithful model with the probe projectors of the first two outcomes
    swapped, so probe consistency fails by construction."""
    if len(observable.outcomes) < 2:
        raise ValueError("biased model needs an observable with >= 2 outcomes")
    model = random_faithful_model(observable, dim_a, seed)
    outs = list(model.probe.outcomes)
    (a0, q0), (a1, q1) = outs[0], outs[1]
    outs[0] = (a0, q1)
    outs[1] = (a1, q0)
    return MeasurementModel(
        dim_s=model.dim_s,
        dim_a=model.dim_a,
        observable=model.observable,
        apparatus_state=model.apparatus_state,
        unitary=model.unitary,
        probe=DiscreteObservable(tuple(outs)),
    )
