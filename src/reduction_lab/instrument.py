"""Outcome-indexed families of operations and state reduction.

An ``Instrument`` pairs a discrete observable with one linear map per
outcome plus their sum (the total operation).  Construction validates the
Davies-Lewis style invariants: completeness, trace preservation of the
total, the outcome-trace condition, and complete positivity of each
component (read off its Kraus stack when it has one).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from . import matcore, superop
from .errors import NotAMeasurementOfAError, ZeroProbabilityOutcomeError
from .matcore import PROBABILITY_FLOOR, ROUNDOFF_TOL, VERIFY_TOL
from .quantum import DensityOperator, DiscreteObservable, clamp_probability, maximally_mixed
from .superop import Superoperator, apply, apply_stack, choi, decompose_stack, dual


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

    def worst(self) -> CheckRecord | None:
        return max(self.records, key=lambda r: r.residual, default=None)


def _random_stack(rng: np.random.Generator, trials: int, dim: int) -> np.ndarray:
    """A (trials, dim, dim) stack of complex Ginibre samples in one draw.
    The stream order is one matrix at a time, real part then imaginary
    part, so the samples are those of a per-matrix loop."""
    g = rng.standard_normal((trials, 2, dim, dim))
    return g[:, 0] + 1j * g[:, 1]


@dataclass(frozen=True)
class Instrument:
    """Operational distribution {T_a} of an apparatus, with its total T."""

    observable: DiscreteObservable
    components: dict
    total: Superoperator = field(default=None)
    # validation can be skipped to build deliberately broken instruments
    # for the negative paths of the verifiers, or to validate at a caller's
    # tolerance
    validate_invariants: InitVar[bool] = True

    def __post_init__(self, validate_invariants: bool):
        if self.total is None:
            total = Superoperator.zero(self.observable.dim)
            for t in self.components.values():
                total = total + t
            object.__setattr__(self, "total", total)
        if validate_invariants:
            self.validate()

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
        component meets the outcome-trace condition and is completely
        positive; return the completeness residual, the largest entry of
        the sum of the component reps minus the total's rep.

        T*(1) is read off each rep (``superop.unit_image``), not off a dual
        map.  A component with a Kraus stack is completely positive by
        construction, so only one without (a user rep, Choi input, a
        ``from_function`` map or a corrupted component) takes the Choi PSD
        test, an ``eigh`` of its d^2 x d^2 Choi matrix."""
        d = self.dim
        if set(self.components) != set(self.observable.eigenvalues):
            raise ValueError("component outcomes must match observable eigenvalues")
        total = np.zeros((d * d, d * d), dtype=complex)
        for t in self.components.values():
            if t.dim != d:
                raise ValueError("component dimension mismatch")
            total = total + t.rep
        completeness_resid = matcore.max_abs(total - self.total.rep)
        # written so that a NaN ``tol`` fails the check
        if not completeness_resid <= tol:
            # the claimed total cannot be the operation of an apparatus
            # measuring this observable
            raise NotAMeasurementOfAError(
                None,
                completeness_resid,
                "components do not sum to the total operation",
            )
        if not superop.is_trace_preserving(self.total):
            raise ValueError("total operation is not trace preserving")
        for a, t in self.components.items():
            # T_a*(1) = E^A(a) is the operator form of the outcome-trace
            # condition on every trace-class input
            resid = matcore.max_abs(superop.unit_image(t) - self.observable.projector(a))
            if not resid <= ROUNDOFF_TOL:
                raise NotAMeasurementOfAError(a, resid)
            if t.kraus is not None:
                continue
            c = choi(t)
            if not c.is_psd():
                raise ValueError(
                    f"component at outcome {a} is not completely positive "
                    f"(Choi min eigenvalue {c.min_eigenvalue():.3e})"
                )
        return completeness_resid


def luders_instrument(obs: DiscreteObservable) -> Instrument:
    """The projective instrument T_a(X) = E^A(a) X E^A(a)."""
    components = {
        a: Superoperator.sandwich(p) for a, p in obs.outcomes
    }
    return Instrument(obs, components)


def outcome_probability(ins: Instrument, a: float, rho: DensityOperator) -> float:
    """Tr[T_a(rho)], clamped to [0, 1] within the roundoff band; a value
    outside the band raises ``NumericalConsistencyError``."""
    if ins.dim != rho.dim:
        raise ValueError("dimension mismatch")
    return clamp_probability(
        float(np.real(superop.trace_of_map(ins.component(a), rho.matrix)))
    )


def reduce(ins: Instrument, a: float, rho: DensityOperator) -> DensityOperator:
    """Post-measurement state conditional on outcome ``a``:
    T_a(rho) / Tr[T_a(rho)], with the probability band-checked as in
    ``outcome_probability``."""
    if ins.dim != rho.dim:
        raise ValueError("dimension mismatch")
    image = apply(ins.component(a), rho.matrix)
    p = clamp_probability(float(np.real(np.trace(image))))
    if p <= PROBABILITY_FLOOR:
        raise ZeroProbabilityOutcomeError(a, p, PROBABILITY_FLOOR)
    out = image / p
    # clip eigenvalue roundoff before the strict DensityOperator checks
    out = (out + matcore.dagger(out)) / 2
    out = out / np.trace(out).real
    return DensityOperator(out)


def reduce_or_maximally_mixed(ins: Instrument, a: float, rho: DensityOperator):
    """Like ``reduce`` but maps sub-floor outcomes to the maximally mixed
    state; returns ``(state, definite)`` where ``definite`` is False on the
    arbitrary-state branch."""
    try:
        return reduce(ins, a, rho), True
    except ZeroProbabilityOutcomeError:
        return maximally_mixed(ins.dim), False


def nonselective(ins: Instrument, rho: DensityOperator) -> DensityOperator:
    """Outcome-averaged state change: the total operation applied to rho."""
    if ins.dim != rho.dim:
        raise ValueError("dimension mismatch")
    out = apply(ins.total, rho.matrix)
    out = (out + matcore.dagger(out)) / 2
    return DensityOperator(out / np.trace(out).real)


def instrument_from_operation(t: Superoperator, obs: DiscreteObservable) -> Instrument:
    """Recover the instrument from a total operation via
    T_a(X) = T(E^A(a) X E^A(a)).

    The caller's map must actually be the operation of an apparatus
    measuring ``obs``: Tr[T(E X E)] = Tr[E X] for every X.  By linearity
    that holds exactly when E T*(1) E = E for every outcome projector E.
    The residual is the spectral norm of E T*(1) E - E, which bounds the
    violation |Tr[T(E X E)] - Tr[E X]| for every X of unit trace norm; the
    worst outcome above ``VERIFY_TOL`` raises ``NotAMeasurementOfAError``.
    """
    if t.dim != obs.dim:
        raise ValueError("dimension mismatch")
    heis_one = superop.unit_image(t)
    resid = {a: matcore.spectral_norm(p @ heis_one @ p - p) for a, p in obs.outcomes}
    worst = max(resid, key=resid.get)
    if not resid[worst] <= VERIFY_TOL:
        raise NotAMeasurementOfAError(worst, resid[worst])
    ins = operation_instrument(t, obs)
    ins.validate()
    return ins


def operation_instrument(t: Superoperator, obs: DiscreteObservable) -> Instrument:
    """The components T_a(X) = T(E^A(a) X E^A(a)) of the operation ``t``,
    as an instrument with total ``t`` that is not yet validated.

    When ``t`` carries a Kraus stack K, T_a is ``from_kraus`` of the stack
    K E^A(a) (Ozawa, J. Math. Phys. 25, 79 (1984)); otherwise it is ``t``
    composed with the sandwich by E^A(a).  ``Instrument.validate`` accepts
    the result only when the components sum to ``t``."""
    if t.kraus is not None:
        components = {a: Superoperator.from_kraus(t.kraus @ p) for a, p in obs.outcomes}
    else:
        components = {a: t.compose(Superoperator.sandwich(p)) for a, p in obs.outcomes}
    return Instrument(obs, components, total=t, validate_invariants=False)


def verify_theorem1(
    ins: Instrument, trials: int = 20, seed: int = 0, tol: float = VERIFY_TOL
) -> VerificationReport:
    """Check the three equal forms T_a(X) = T(E X) = T(X E) = T(E X E) on
    random trace-class operators, including non-Hermitian ones.

    The samples are one (trials, d, d) stack, decomposed once into four
    density operators each.  The left side is applied through that
    four-density-operator linear extension, so the check also exercises the
    decomposition: T_a maps all 4 * trials parts in one matmul, and T maps
    the stacked E X, X E and E X E in one each.  A record's residual is the
    largest entry of a difference over all samples; it passes at ``tol``.
    """
    rng = np.random.default_rng(seed)
    d = ins.dim
    xs = _random_stack(rng, trials, d)
    lambdas, parts = decompose_stack(xs)
    weights = lambdas * np.array([1.0, -1.0, 1j, -1j])
    parts = parts.reshape(-1, d, d)
    records = []
    for a, p in ins.observable.outcomes:
        images = apply_stack(ins.component(a), parts).reshape(trials, 4, d, d)
        lhs = np.einsum("nk,nkij->nij", weights, images)
        res_left = matcore.max_abs(lhs - apply_stack(ins.total, p @ xs))
        res_right = matcore.max_abs(lhs - apply_stack(ins.total, xs @ p))
        res_both = matcore.max_abs(lhs - apply_stack(ins.total, p @ xs @ p))
        records.append(CheckRecord("uniqueness.left_projected", a, res_left, tol))
        records.append(CheckRecord("uniqueness.right_projected", a, res_right, tol))
        records.append(CheckRecord("uniqueness.both_projected", a, res_both, tol))
    return VerificationReport(tuple(records))


def verify_dual_lemma(
    ins: Instrument, trials: int = 50, seed: int = 0, tol: float = VERIFY_TOL
) -> VerificationReport:
    """Check the dual-map hypotheses and conclusion:

    - the total's dual fixes the identity,
    - each component's dual maps the identity to the outcome projector,
    - T_a*(X) equals E T*(X), T*(X) E, and E T*(X) E on random bounded X.

    The samples are one (trials, d, d) stack: T*(X) is computed once for
    all of them, and each T_a* in one matmul per outcome.  Every record
    passes at ``tol``.
    """
    rng = np.random.default_rng(seed)
    d = ins.dim
    one = np.eye(d, dtype=complex)
    total_dual = dual(ins.total)
    records = [
        CheckRecord(
            "dual.total_unital",
            None,
            matcore.max_abs(apply(total_dual, one) - one),
            tol,
        )
    ]
    xs = _random_stack(rng, trials, d)
    txs = apply_stack(total_dual, xs)
    for a, p in ins.observable.outcomes:
        comp_dual = dual(ins.component(a))
        records.append(
            CheckRecord(
                "dual.component_unit_to_projector",
                a,
                matcore.max_abs(apply(comp_dual, one) - p),
                tol,
            )
        )
        lhs = apply_stack(comp_dual, xs)
        res_left = matcore.max_abs(lhs - p @ txs)
        res_right = matcore.max_abs(lhs - txs @ p)
        res_both = matcore.max_abs(lhs - p @ txs @ p)
        records.append(CheckRecord("dual.sandwich_left", a, res_left, tol))
        records.append(CheckRecord("dual.sandwich_right", a, res_right, tol))
        records.append(CheckRecord("dual.sandwich_both", a, res_both, tol))
    return VerificationReport(tuple(records))
