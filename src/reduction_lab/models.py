"""Unitary object-apparatus measurement models.

A model is a tuple (apparatus state sigma, interaction unitary U, optional
probe observable M) over the composite space with the object as the first
tensor factor.  From it we extract:

- the operation  T(rho)   = Tr_A[U (rho x sigma) U+]
- the instrument T_a(rho) = Tr_A[U (E_a rho E_a x sigma) U+] = T(E_a rho E_a)
- the probe-route instrument
  T'_a(rho) = Tr_A[(1 x Q_a) U (rho x sigma) U+ (1 x Q_a)]

where E_a are the measured observable's spectral projectors and Q_a the
probe's.  For a faithful model the two instrument routes coincide.

All three maps are read off one Kraus stack.  With the apparatus state
sigma = sum_j w_j |v_j><v_j| and an orthonormal apparatus basis |m>,

    K_{m,j} = sqrt(w_j) (1 x <m|) U (1 x |v_j>)

gives T(rho) = sum K rho K+.  The instrument is read off the operation
alone by ``instrument.operation_instrument``: with P_a the range isometry
of E_a, T_a is the stack K P_a applied to the outcome block P_a+ X P_a.
The probe route reads K, Ozawa's measuring process (J. Math. Phys. 25, 79
(1984)), in the probe's eigenbasis.  With B_a the range isometry of Q_a,
T'_a depends on the apparatus only through B_a B_a+ = Q_a, so outcome a's
stack is B_a+ K, rank(Q_a) r operators; the B_a side by side form a
unitary B, and one GEMM applies B+ to the apparatus index of K.  Every
range isometry is read off its observable's cached ``ranges`` (one batched
``eigh`` per observable), here and in the generators below.

A model derives each once and keeps it: ``MeasurementModel.kraus`` is the
stack, built by one contraction of ``U.reshape(d_s, d_a, d_s, d_a)``,
``MeasurementModel.operation`` the model's one T, its map, and
``MeasurementModel.probe_route`` the probe-route stacks with the residuals
of F_a against E_a.  All are lazy, so building a model costs nothing
extra, and read-only.  Every function below reads them, so both
instrument routes share T and its rep, and each check still compares the
stored residuals against its own caller's tolerance.
Like every frozen value in the library, a model's arrays must not be
changed in place: its derived values would no longer match them.
Eigenvectors of sigma with weight w_j <= 0 are dropped: a zero weight
contributes nothing, and a roundoff-negative one has no real square root,
so dropping them needs no tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate

import numpy as np

from . import matcore
from .errors import (
    DegenerateObservableError,
    MissingProbeError,
    NotAMeasurementOfAError,
)
from .instrument import Instrument, operation_instrument
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
        if not matcore.max_abs(dagger(u) @ u - np.eye(d)) <= ROUNDOFF_TOL:
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

    @cached_property
    def kraus(self) -> np.ndarray:
        """The read-only (d_a * r, d_s, d_s) stack of the K_{m,j}."""
        k = _kraus(self)
        k.flags.writeable = False
        return k

    @cached_property
    def operation(self) -> Superoperator:
        """The model's operation T, ``from_kraus`` of its stack."""
        return Superoperator.from_kraus(self.kraus)

    @cached_property
    def probe_route(self) -> tuple:
        """``(stacks, residuals)``: the n read-only probe-route Kraus
        stacks, outcome a's of rank(Q_a) * r operators, and the (n,)
        spectral-norm residuals of F_a - E_a, both in the order of
        ``observable.outcomes``."""
        stacks, residuals = _probe_route(self)
        residuals.flags.writeable = False
        return stacks, residuals


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
    """The model's nonselective state change, its kept ``operation``."""
    return model.operation


def _probe_route(model: MeasurementModel) -> tuple:
    """Probe-route Kraus stacks of all n outcomes, the slices B_a+ K of one
    B+ K, and the spectral-norm residuals of F_a = sum K'+ K' against E_a,
    all n F_a one product over the d_a rows of B+."""
    if model.probe is None:
        raise MissingProbeError("model has no probe observable")
    ds, da = model.dim_s, model.dim_a
    obs = model.observable
    values, probe_ranges = model.probe.eigenvalues, model.probe.ranges
    ranges = [probe_ranges[values.index(a)] for a in obs.eigenvalues]
    b_dagger = np.concatenate(ranges, axis=1).T.conj()  # B+, the B_a+ stacked as rows
    k = (b_dagger @ model.kraus.reshape(da, -1)).reshape(-1, ds, ds)
    k.flags.writeable = False
    ranks, r = [p.shape[1] for p in ranges], len(k) // da
    ends = accumulate(rank * r for rank in ranks)
    stacks = tuple(k[end - rank * r:end] for rank, end in zip(ranks, ends))
    # sum_j K'+ K' for each row of B+; row a of ``owner`` sums outcome a's
    rows = k.reshape(da, -1, ds)
    owner = np.repeat(np.eye(len(ranks)), ranks, axis=1)
    f = (owner @ (rows.conj().swapaxes(1, 2) @ rows).reshape(da, -1)).reshape(-1, ds, ds)
    # the largest singular value is the spectral norm
    return stacks, np.linalg.svd(f - obs.projectors, compute_uv=False)[:, 0]


def probe_consistency(
    model: MeasurementModel, tol: float = VERIFY_TOL
) -> ConsistencyReport:
    """Check that probe statistics reproduce the Born rule for every input.

    By linearity this is the operator identity
    ``F_a = Tr_A[(U+ (1 x Q_a) U)(1 x sigma)] = E_a`` per outcome, where
    ``F_a = sum K'+ K'`` over the probe-route Kraus operators; residuals are
    spectral norms, read off the model's ``probe_route`` into a new report.
    """
    residuals = model.probe_route[1].tolist()
    return ConsistencyReport(dict(zip(model.observable.eigenvalues, residuals)), tol)


def _require_consistent(report: ConsistencyReport) -> None:
    if not report.passed:
        raise NotAMeasurementOfAError(
            max(report.residuals, key=report.residuals.get),
            report.max_residual,
            "probe consistency",
            "probe statistics do not reproduce the Born rule",
        )


def instrument_of(model: MeasurementModel, tol: float = VERIFY_TOL) -> Instrument:
    """The instrument of the model, T_a(rho) = T(E_a rho E_a) on its
    operation T.

    If the model carries a probe, probe consistency is enforced first; a
    probeless model is accepted only when the extracted components actually
    sum to the operation (otherwise U does not measure the observable).
    Both checks pass at ``tol``.
    """
    if model.probe is not None:
        _require_consistent(probe_consistency(model, tol))
    ins = operation_instrument(model.operation, model.observable)
    ins.validate(tol)
    return ins


def probe_instrument_of(model: MeasurementModel) -> Instrument:
    """The conventional probe-route instrument (projection postulate applied
    to the probe detection), built from the Kraus stacks its consistency
    check reads, over the model's operation as its total.  Sum_a Q_a = 1
    makes sum_a T'_a = T exactly, so the completeness check compares the
    probe route with the operation route."""
    _require_consistent(probe_consistency(model))
    stacks = zip(model.observable.eigenvalues, model.probe_route[0])
    components = {a: Superoperator.from_kraus(k) for a, k in stacks}
    return Instrument(model.observable, components, total=model.operation)


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


def _model(
    observable: DiscreteObservable,
    sigma: np.ndarray,
    in_cols: np.ndarray,
    out_cols: np.ndarray,
    probes: list,
) -> MeasurementModel:
    """The model of apparatus state ``sigma`` whose U maps ``in_cols`` onto
    ``out_cols`` (``_complete_unitary``), with the probe projectors
    ``probes`` taken in the order of ``observable.outcomes``."""
    return MeasurementModel(
        dim_s=observable.dim,
        dim_a=sigma.shape[0],
        observable=observable,
        apparatus_state=DensityOperator(sigma),
        unitary=_complete_unitary(in_cols, out_cols),
        probe=DiscreteObservable(tuple(zip(observable.eigenvalues, probes))),
    )


def von_neumann_model(
    observable: DiscreteObservable,
    dim_a: int,
    *,
    seed: int | None = None,
) -> MeasurementModel:
    """Pointer-basis model: U maps phi_n x xi to phi_n x xi_n.

    The observable must be nondegenerate.  The pointer basis is drawn
    Haar-randomly from ``seed``, or defaults to the first apparatus basis
    vectors.  The probe assigns unused apparatus dimensions to the first
    outcome.
    """
    n = len(observable.outcomes)
    for a, p in zip(observable.eigenvalues, observable.ranges):
        if p.shape[1] != 1:
            raise DegenerateObservableError(
                f"outcome {a} has a degenerate (rank > 1) eigenspace"
            )
    if dim_a < n:
        raise ValueError(f"dim_a = {dim_a} < number of outcomes = {n}")

    if seed is not None:
        xi_n = haar_unitary(dim_a, np.random.default_rng(seed))[:, :n]
    else:
        xi_n = np.eye(dim_a, dtype=complex)[:, :n]

    phis = [p[:, 0] for p in observable.ranges]
    xi = ket(dim_a, 0)
    in_cols = np.kron(np.column_stack(phis), xi[:, None])
    out_cols = np.column_stack(
        [np.kron(phi, xi_n[:, k]) for k, phi in enumerate(phis)]
    )
    pointer_proj = [np.outer(xi_n[:, k], xi_n[:, k].conj()) for k in range(n)]
    unused = np.eye(dim_a, dtype=complex) - sum(pointer_proj)
    pointer_proj[0] = pointer_proj[0] + unused
    return _model(observable, np.outer(xi, xi.conj()), in_cols, out_cols, pointer_proj)


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
    sigma[:sigma_rank, :sigma_rank] = np.diag(weights)

    eye_a = np.eye(dim_a, dtype=complex)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    in_blocks = []
    out_blocks = []
    probes = []
    for k, p in enumerate(observable.ranges):
        # input branch: eigenspace x sigma support
        ins = np.kron(p, eye_a[:, :sigma_rank])
        # output space: full object space x this outcome's sector
        sector = slice(offsets[k], offsets[k + 1])
        out_basis = np.kron(np.eye(dim_s, dtype=complex), eye_a[:, sector])
        iso = haar_unitary(out_basis.shape[1], rng)[:, : ins.shape[1]]
        in_blocks.append(ins)
        out_blocks.append(out_basis @ iso)
        q = np.zeros((dim_a, dim_a), dtype=complex)
        q[sector, sector] = eye_a[sector, sector]
        probes.append(q)
    return _model(observable, sigma, np.hstack(in_blocks), np.hstack(out_blocks), probes)


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
    return replace(model, probe=DiscreteObservable(tuple(outs)))
