"""Outcome-indexed families of operations and state reduction.

An ``Instrument`` pairs a discrete observable with one linear map per
outcome and the total operation its builder names; the components must sum
to it.  Construction validates the Davies-Lewis style invariants:
completeness, trace preservation of the total and the outcome-trace
condition.  Every map is built from a Kraus stack, so each component is
completely positive by type.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from . import matcore, superop
from .errors import (
    NotAMeasurementOfAError,
    NumericalConsistencyError,
    ZeroProbabilityOutcomeError,
)
from .matcore import PROBABILITY_FLOOR, ROUNDOFF_TOL, VERIFY_TOL
from .quantum import DensityOperator, DiscreteObservable, clamp_probability, maximally_mixed
from .superop import Superoperator, apply


@dataclass(frozen=True)
class CheckRecord:
    """One verification result: a named residual against a tolerance."""

    check: str
    outcome: object
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass(frozen=True)
class VerificationReport:
    records: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def max_residual(self) -> float:
        return max((r.residual for r in self.records), default=0.0)


# The verifiers' sample counts, fixed rather than parameters: fewer samples
# would probe fewer directions and so loosen both checks.
THEOREM1_SAMPLES = 20
DUAL_SAMPLES = 50


@functools.lru_cache(maxsize=16)
def _samples(seed: int, dim: int) -> np.ndarray:
    """The verifiers' read-only (``DUAL_SAMPLES`` + 1, dim, dim) stack: the
    identity, then ``DUAL_SAMPLES`` complex Ginibre samples drawn in one
    call from ``np.random.default_rng(seed)``.  The stream order is one
    matrix at a time, real part then imaginary part, so row k is the k-th
    sample of a per-matrix loop, and ``verify_theorem1``'s rows 1 to
    ``THEOREM1_SAMPLES`` are the first samples ``verify_dual_lemma`` reads.

    The verifiers pass ``operator.index(seed)``, so a seed that is not an
    integer raises ``TypeError`` before it can meet the entry of an equal
    integer: 2.0 would otherwise be served the entry of 2.  Entries are
    held for the 16 most recent ``(seed, dim)`` keys and hold no instrument
    data, so no record can come from the cache.  An entry holds
    51 * d^2 * 16 bytes: 470,016 bytes at d = 24, so 16 entries hold at most
    7,520,256 bytes there."""
    g = np.random.default_rng(seed).standard_normal((DUAL_SAMPLES, 2, dim, dim))
    unit_xs = np.concatenate([np.eye(dim, dtype=complex)[None], g[:, 0] + 1j * g[:, 1]])
    unit_xs.flags.writeable = False
    return unit_xs


@dataclass(frozen=True, eq=False)
class Instrument:
    """Operational distribution {T_a} of an apparatus, with its total T.
    The constructor validates at ``VERIFY_TOL``; ``_unchecked`` skips that
    for a caller that validates at its own tolerance.  Equality is
    identity, as for its maps."""

    observable: DiscreteObservable
    components: dict
    total: Superoperator

    def __post_init__(self):
        self.validate()

    @classmethod
    def _unchecked(cls, observable, components, total) -> "Instrument":
        """The instrument with these fields, not validated."""
        ins = object.__new__(cls)
        vars(ins).update(observable=observable, components=components, total=total)
        return ins

    @property
    def dim(self) -> int:
        return self.observable.dim

    def component(self, a: float) -> Superoperator:
        """T_a; the zero map for a value outside the eigenvalue list."""
        if a in self.components:
            return self.components[a]
        return Superoperator.zero(self.dim)

    def validate(self, tol: float = VERIFY_TOL) -> float:
        """Raise unless the components sum to the total within ``tol`` and,
        within ``ROUNDOFF_TOL``, the total is trace preserving and each
        component meets the outcome-trace condition; return the
        completeness residual, the largest entry of the sum of the
        component reps minus the total's rep.  Complete positivity needs no
        test: every map is built from a Kraus stack.

        ``superop`` decides how each map is read, by its one route rule:
        the completeness residual is ``superop.sum_residual``, which reads
        no rep when no map is applied through its square rep (each is on
        the stack route or on a range), and T*(1) is
        ``superop.unit_image``, not taken off a dual map.  Both unit-image
        tests take Frobenius norms, ||T*(1) - 1|| and ||T_a*(1) - E_a||,
        which bound the trace error on every unit-trace X at every d."""
        d = self.dim
        if set(self.components) != set(self.observable.eigenvalues):
            raise ValueError("component outcomes must match observable eigenvalues")
        if self.total.dim != d:
            raise ValueError(
                f"total operation dimension {self.total.dim} != observable dimension {d}"
            )
        for a, t in self.components.items():
            if t.dim != d:
                raise ValueError(
                    f"component dimension mismatch: outcome {a} dim {t.dim}, observable dim {d}"
                )
        maps = list(self.components.values())
        completeness_resid = superop.sum_residual(self.total, maps)
        # written so that a NaN ``tol`` fails the check
        if not completeness_resid <= tol:
            # the claimed total cannot be the operation of an apparatus
            # measuring this observable
            raise NotAMeasurementOfAError(
                None,
                completeness_resid,
                "completeness",
                "components do not sum to the total operation",
            )
        unital_resid = float(np.linalg.norm(superop.unit_image(self.total) - np.eye(d)))
        if not unital_resid <= ROUNDOFF_TOL:
            raise ValueError("total operation is not trace preserving")
        for a, t in self.components.items():
            # T_a*(1) = E^A(a) is the operator form of the outcome-trace
            # condition on every trace-class input
            resid = float(np.linalg.norm(superop.unit_image(t) - self.observable.projector(a)))
            if not resid <= ROUNDOFF_TOL:
                raise NotAMeasurementOfAError(a, resid, "outcome-trace condition")
        return completeness_resid


def luders_instrument(obs: DiscreteObservable) -> Instrument:
    """The projective instrument T_a(X) = E^A(a) X E^A(a), over the total
    T(X) = sum_a E^A(a) X E^A(a), the map of the projector stack."""
    components = {a: Superoperator.sandwich(p) for a, p in obs.outcomes}
    return Instrument(obs, components, Superoperator.from_kraus(obs.projectors))


def outcome_probability(ins: Instrument, a: float, rho: DensityOperator) -> float:
    """Tr[T_a(rho)], clamped to [0, 1] within the roundoff band; a value
    outside the band raises ``NumericalConsistencyError``."""
    if ins.dim != rho.dim:
        raise ValueError(f"dimension mismatch: state dim {rho.dim}, instrument dim {ins.dim}")
    return clamp_probability(float(matcore.trace(apply(ins.component(a), rho)).real))


def reduce(ins: Instrument, a: float, rho: DensityOperator) -> DensityOperator:
    """Post-measurement state conditional on outcome ``a``:
    T_a(rho) / Tr[T_a(rho)], with the probability band-checked as in
    ``outcome_probability``, made by ``_reduce_image``."""
    if ins.dim != rho.dim:
        raise ValueError(f"dimension mismatch: state dim {rho.dim}, instrument dim {ins.dim}")
    return _reduce_image(a, apply(ins.component(a), rho))


def _reduce_image(a: float, image: np.ndarray) -> DensityOperator:
    """The state ``reduce`` makes of the image T_a(rho), for a caller that
    already holds the image: ``DensityOperator._normalised`` of T_a(rho)/p,
    the one constructor of the states the library computes.  The roundoff
    of T_a(rho) grows by 1/p, so at a small p the result can fail the PSD
    test: that raises ``NumericalConsistencyError`` naming the outcome, p
    and the min eigenvalue, since no conditional state can be resolved
    there."""
    p = clamp_probability(float(matcore.trace(image).real))
    if not p > PROBABILITY_FLOOR:
        raise ZeroProbabilityOutcomeError(a, p, PROBABILITY_FLOOR)

    def unresolved(lowest: float) -> NumericalConsistencyError:
        return NumericalConsistencyError(
            f"outcome {a} has probability {p:.3e}, too small to resolve its "
            f"conditional state: T_a(rho)/p has min eigenvalue {lowest:.3e}"
        )

    return DensityOperator._normalised(image / p, unresolved)


def reduce_or_maximally_mixed(ins: Instrument, a: float, rho: DensityOperator):
    """Like ``reduce`` but maps sub-floor outcomes to the maximally mixed
    state; returns ``(state, definite)`` where ``definite`` is False on the
    arbitrary-state branch."""
    try:
        return reduce(ins, a, rho), True
    except ZeroProbabilityOutcomeError:
        return maximally_mixed(ins.dim), False


def nonselective(ins: Instrument, rho: DensityOperator) -> DensityOperator:
    """Outcome-averaged state change: ``DensityOperator._normalised`` of
    the total operation applied to rho."""
    if ins.dim != rho.dim:
        raise ValueError(f"dimension mismatch: state dim {rho.dim}, instrument dim {ins.dim}")
    return DensityOperator._normalised(apply(ins.total, rho))


def instrument_from_operation(t: Superoperator, obs: DiscreteObservable) -> Instrument:
    """Recover the instrument from a total operation via
    T_a(X) = T(E^A(a) X E^A(a)), checked by ``Instrument.validate``.

    The map must be the operation of an apparatus measuring ``obs``:
    E T*(1) E = E for every outcome projector E.  Since
    E T*(1) E - E = E (T*(1) - 1) E + (E^2 - E), ``validate``'s trace test
    covers it, and ``DiscreteObservable`` already bounds E^2 - E: a map
    that is not trace preserving raises ``ValueError``, as for every
    instrument.
    """
    if t.dim != obs.dim:
        raise ValueError(f"dimension mismatch: operation dim {t.dim}, observable dim {obs.dim}")
    ins = operation_instrument(t, obs)
    ins.validate()
    return ins


def operation_instrument(t: Superoperator, obs: DiscreteObservable) -> Instrument:
    """The components T_a(X) = T(E^A(a) X E^A(a)) of the operation ``t``,
    as an instrument with total ``t`` that is not yet validated.

    With P_a the range isometry of E^A(a) (``obs.ranges``), E^A(a) =
    P_a P_a^dagger, so T_a(X) = sum_k (K_k P_a)(P_a^dagger X P_a)(K_k P_a)^dagger
    for K the Kraus stack of ``t`` (Ozawa, J. Math. Phys. 25, 79 (1984)):
    T_a is the map of the (N, d, r_a) stack K P_a on the range P_a, or, at
    small d, of the square stack K E^A(a), as ``superop.outcome_maps``
    decides.  ``Instrument.validate`` accepts the result only when the
    components sum to ``t``."""
    components = dict(zip(obs.eigenvalues, superop.outcome_maps(t, obs)))
    return Instrument._unchecked(obs, components, t)


# Up to d = 4 per-call overhead decides, and the verifiers take all outcomes
# at once: one GEMM per product, one apply of T per form.  Above it the
# dual lemma's temporaries for all outcomes pass about 100 KB, and glibc
# hands them back to the system between calls, so the next call
# page-faults; one outcome at a time is faster there (the per-call table in
# ROADMAP item 11).
ALL_OUTCOMES_MAX_DIM = 4


def _outcome_groups(obs: DiscreteObservable) -> list:
    """The outcomes as the verifiers take them: ``(eigenvalues, ps)`` pairs
    with ps the (g, d, d) stack of their projectors, read off
    ``obs.projectors`` in the order of ``obs.outcomes``; all outcomes in
    one group when d <= ``ALL_OUTCOMES_MAX_DIM``, else one group per
    outcome."""
    values, ps = obs.eigenvalues, obs.projectors
    if obs.dim <= ALL_OUTCOMES_MAX_DIM:
        return [(values, ps)]
    return [((a,), ps[k : k + 1]) for k, a in enumerate(values)]


def _layouts(ms: np.ndarray) -> tuple:
    """An (m, d, d) stack side by side, (d x m d), and as rows, (m d x d):
    the layouts in which one GEMM multiplies every matrix of it from the
    left or from the right."""
    m, d = ms.shape[:2]
    return ms.transpose(1, 0, 2).reshape(d, m * d), ms.reshape(m * d, d)


def _projected(ps: np.ndarray, side: np.ndarray, rows: np.ndarray):
    """Yield P X, X P and (P X) P for every P of a (g, d, d) projector stack
    and every X of a stack in its two ``_layouts``, each as a (g, m, d, d)
    array.  The first two are strided views of one GEMM each: P stacked as
    (g d x d) rows times the X side by side, and the X as rows times the P
    side by side.  The third is the first, copied to rows, times its own P
    in one stacked product of g GEMMs.  The forms are yielded one at a time,
    so a caller that reduces each before taking the next never holds all
    three, and their temporaries stay small."""
    g, d = ps.shape[:2]
    m = len(rows) // d
    left = (ps.reshape(g * d, d) @ side).reshape(g, d, m, d).transpose(0, 2, 1, 3)
    yield left
    ps_side = ps.transpose(1, 0, 2).reshape(d, g * d)
    yield (rows @ ps_side).reshape(m, d, g, d).transpose(2, 0, 1, 3)
    yield (np.ascontiguousarray(left).reshape(g, m * d, d) @ ps).reshape(g, m, d, d)


def _max_abs_each(ms: np.ndarray) -> list:
    """The largest entry modulus of each ms[k] as a float, 0.0 when ms[k]
    is empty; a NaN anywhere in ms[k] makes its value NaN, which fails
    every bound."""
    return np.abs(ms).max(axis=tuple(range(1, ms.ndim)), initial=0.0).tolist()


def verify_theorem1(
    ins: Instrument, seed: int = 0, tol: float = VERIFY_TOL
) -> VerificationReport:
    """Check the three equal forms T_a(X) = T(E X) = T(X E) = T(E X E) on
    random trace-class operators, including non-Hermitian ones.

    The samples are rows 1 to ``THEOREM1_SAMPLES`` of the integer seed's
    ``_samples`` stack, the first samples ``verify_dual_lemma`` reads at
    that seed.  Each T_a maps them in one call of ``superop.apply_stack``.
    The projected samples E X, X E and (E X) E are formed by ``_projected``
    as 2-D GEMMs on the samples laid out once per call, and T maps each form
    in one call over the outcomes of a group (``_outcome_groups``): two
    GEMMs through the map's Kraus stack when that stack is small against d,
    else one matmul on its rep.  A record's residual is the largest entry of
    a difference over all samples, taken for a whole group in one
    reduction; it passes at ``tol``.  The images, residuals and verdicts
    are computed on every call.
    """
    d = ins.dim
    xs = _samples(operator.index(seed), d)[1 : THEOREM1_SAMPLES + 1]
    layouts = _layouts(xs)
    records = []
    for values, ps in _outcome_groups(ins.observable):
        lhs = np.stack([superop.apply_stack(ins.component(a), xs) for a in values])
        residuals = [
            _max_abs_each(
                lhs - superop.apply_stack(ins.total, f.reshape(-1, d, d)).reshape(lhs.shape)
            )
            for f in _projected(ps, *layouts)
        ]
        for a, (left, right, both) in zip(values, zip(*residuals)):
            records.append(CheckRecord("uniqueness.left_projected", a, left, tol))
            records.append(CheckRecord("uniqueness.right_projected", a, right, tol))
            records.append(CheckRecord("uniqueness.both_projected", a, both, tol))
    return VerificationReport(tuple(records))


def verify_dual_lemma(
    ins: Instrument, seed: int = 0, tol: float = VERIFY_TOL
) -> VerificationReport:
    """Check the dual-map hypotheses and conclusion:

    - the total's dual fixes the identity,
    - each component's dual maps the identity to the outcome projector,
    - T_a*(X) equals E T*(X), T*(X) E, and E T*(X) E on random bounded X.

    The samples are the integer seed's whole ``_samples`` stack, the
    identity in front of ``DUAL_SAMPLES`` Ginibre samples, so a sample's
    row means the same sample here and in ``verify_theorem1``.  T* and each
    T_a* are applied to it in one call each of ``superop.apply_dual_stack``,
    through the adjoints of the map's own Kraus stack when that stack is
    small against d, else with one matmul on its rep, so no dual map is
    built; row 0 of an image stack is T*(1) or T_a*(1).  E T*(X), T*(X) E
    and (E T*(X)) E are formed by ``_projected`` as 2-D GEMMs on the images
    laid out once per call, for the outcomes of a group
    (``_outcome_groups``) at once, and each family's residuals of a group
    come from one reduction.  Every record passes at ``tol``.
    """
    unit_xs = _samples(operator.index(seed), ins.dim)
    images = superop.apply_dual_stack(ins.total, unit_xs)
    layouts = _layouts(images[1:])
    records = [
        CheckRecord("dual.total_unital", None, matcore.max_abs(images[0] - unit_xs[0]), tol)
    ]
    for values, ps in _outcome_groups(ins.observable):
        comps = np.stack([superop.apply_dual_stack(ins.component(a), unit_xs) for a in values])
        units = _max_abs_each(comps[:, 0] - ps)
        residuals = [_max_abs_each(comps[:, 1:] - f) for f in _projected(ps, *layouts)]
        for a, unit, (left, right, both) in zip(values, units, zip(*residuals)):
            records.append(CheckRecord("dual.component_unit_to_projector", a, unit, tol))
            records.append(CheckRecord("dual.sandwich_left", a, left, tol))
            records.append(CheckRecord("dual.sandwich_right", a, right, tol))
            records.append(CheckRecord("dual.sandwich_both", a, both, tol))
    return VerificationReport(tuple(records))
