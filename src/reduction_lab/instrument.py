"""Outcome-indexed families of operations and state reduction.

An ``Instrument`` pairs a discrete observable with one linear map per
outcome plus their sum (the total operation).  Construction validates the
Davies-Lewis style invariants: completeness, trace preservation of the
total, the outcome-trace condition, and complete positivity of each
component.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from . import matcore, superop
from .errors import NotAMeasurementOfAError, ZeroProbabilityOutcomeError
from .quantum import DensityOperator, DiscreteObservable, born_probability, maximally_mixed
from .superop import Superoperator, apply, choi, decompose_trace_class, dual

COMPLETENESS_TOL = 1e-9
TRACE_TOL = 1e-10
CP_TOL = 1e-10
PROBABILITY_FLOOR = 1e-12
VERIFY_TOL = 1e-9


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


def _random_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


@dataclass(frozen=True)
class Instrument:
    """Operational distribution {T_a} of an apparatus, with its total T."""

    observable: DiscreteObservable
    components: dict
    total: Superoperator = field(default=None)
    # validation can be skipped to build deliberately broken instruments
    # for the negative paths of the verifiers
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

    def validate(
        self,
        completeness_tol: float = COMPLETENESS_TOL,
        trace_tol: float = TRACE_TOL,
        cp_tol: float = CP_TOL,
    ) -> None:
        d = self.dim
        if set(self.components) != set(self.observable.eigenvalues):
            raise ValueError("component outcomes must match observable eigenvalues")
        total = Superoperator.zero(d)
        for t in self.components.values():
            if t.dim != d:
                raise ValueError("component dimension mismatch")
            total = total + t
        completeness_resid = matcore.max_abs(total.rep - self.total.rep)
        if completeness_resid > completeness_tol:
            # the claimed total cannot be the operation of an apparatus
            # measuring this observable
            raise NotAMeasurementOfAError(
                None,
                completeness_resid,
                "components do not sum to the total operation",
            )
        one = np.eye(d, dtype=complex)
        total_dual = dual(self.total)
        if matcore.max_abs(apply(total_dual, one) - one) > trace_tol:
            raise ValueError("total operation is not trace preserving")
        for a, t in self.components.items():
            # dual(T_a)(1) = E^A(a) is the operator form of the outcome-trace
            # condition on every trace-class input
            resid = matcore.max_abs(
                apply(dual(t), one) - self.observable.projector(a)
            )
            if resid > trace_tol:
                raise NotAMeasurementOfAError(a, resid)
            c = choi(t)
            if not c.is_psd(cp_tol):
                raise ValueError(
                    f"component at outcome {a} is not completely positive "
                    f"(Choi min eigenvalue {c.min_eigenvalue():.3e})"
                )


def luders_instrument(obs: DiscreteObservable) -> Instrument:
    """The projective instrument T_a(X) = E^A(a) X E^A(a)."""
    components = {
        a: Superoperator.sandwich(p) for a, p in obs.outcomes
    }
    return Instrument(obs, components)


def outcome_probability(ins: Instrument, a: float, rho: DensityOperator) -> float:
    if ins.dim != rho.dim:
        raise ValueError("dimension mismatch")
    p = float(np.real(superop.trace_of_map(ins.component(a), rho.matrix)))
    return min(max(p, 0.0), 1.0)


def reduce(
    ins: Instrument,
    a: float,
    rho: DensityOperator,
    probability_floor: float = PROBABILITY_FLOOR,
) -> DensityOperator:
    """Post-measurement state conditional on outcome ``a``:
    T_a(rho) / Tr[T_a(rho)]."""
    p = outcome_probability(ins, a, rho)
    if p <= probability_floor:
        raise ZeroProbabilityOutcomeError(a, p, probability_floor)
    out = apply(ins.component(a), rho.matrix) / p
    # clip eigenvalue roundoff before the strict DensityOperator checks
    out = (out + matcore.dagger(out)) / 2
    out = out / np.trace(out).real
    return DensityOperator(out)


def reduce_or_maximally_mixed(
    ins: Instrument,
    a: float,
    rho: DensityOperator,
    probability_floor: float = PROBABILITY_FLOOR,
):
    """Like ``reduce`` but maps sub-floor outcomes to the maximally mixed
    state; returns ``(state, definite)`` where ``definite`` is False on the
    arbitrary-state branch."""
    try:
        return reduce(ins, a, rho, probability_floor), True
    except ZeroProbabilityOutcomeError:
        return maximally_mixed(ins.dim), False


def nonselective(ins: Instrument, rho: DensityOperator) -> DensityOperator:
    """Outcome-averaged state change: the total operation applied to rho."""
    if ins.dim != rho.dim:
        raise ValueError("dimension mismatch")
    out = apply(ins.total, rho.matrix)
    out = (out + matcore.dagger(out)) / 2
    return DensityOperator(out / np.trace(out).real)


def instrument_from_operation(
    t: Superoperator,
    obs: DiscreteObservable,
    tol: float = VERIFY_TOL,
) -> Instrument:
    """Recover the instrument from a total operation via
    T_a(X) = T(E^A(a) X E^A(a)).

    The caller's map must actually be the operation of an apparatus
    measuring ``obs``: Tr[T(E X E)] = Tr[E X] for every X.  By linearity
    that holds exactly when E T*(1) E = E for every outcome projector E.
    The residual is the spectral norm of E T*(1) E - E, which bounds the
    violation |Tr[T(E X E)] - Tr[E X]| for every X of unit trace norm; the
    worst outcome above ``tol`` raises ``NotAMeasurementOfAError``.
    """
    if t.dim != obs.dim:
        raise ValueError("dimension mismatch")
    heis_one = apply(dual(t), np.eye(obs.dim, dtype=complex))
    resid = {a: matcore.spectral_norm(p @ heis_one @ p - p) for a, p in obs.outcomes}
    worst = max(resid, key=resid.get)
    if resid[worst] > tol:
        raise NotAMeasurementOfAError(worst, resid[worst])
    components = {
        a: t.compose(Superoperator.sandwich(p)) for a, p in obs.outcomes
    }
    return Instrument(obs, components, total=t)


def verify_theorem1(
    ins: Instrument, trials: int = 20, seed: int = 0
) -> VerificationReport:
    """Check the three equal forms T_a(X) = T(E X) = T(X E) = T(E X E) on
    random trace-class operators, including non-Hermitian ones.

    The left side is applied through the four-density-operator linear
    extension, so the check also exercises that decomposition.
    """
    rng = np.random.default_rng(seed)
    records = []
    samples = [_random_matrix(rng, ins.dim) for _ in range(trials)]
    for a, p in ins.observable.outcomes:
        t_a = ins.component(a)
        res_left = res_right = res_both = 0.0
        for x in samples:
            dec = decompose_trace_class(x)
            l1, l2, l3, l4 = dec.lambdas
            s1, s2, s3, s4 = (q.matrix for q in dec.parts)
            lhs = (
                l1 * apply(t_a, s1)
                - l2 * apply(t_a, s2)
                + 1j * l3 * apply(t_a, s3)
                - 1j * l4 * apply(t_a, s4)
            )
            res_left = max(res_left, matcore.max_abs(lhs - apply(ins.total, p @ x)))
            res_right = max(res_right, matcore.max_abs(lhs - apply(ins.total, x @ p)))
            res_both = max(res_both, matcore.max_abs(lhs - apply(ins.total, p @ x @ p)))
        records.append(CheckRecord("uniqueness.left_projected", a, res_left, VERIFY_TOL))
        records.append(CheckRecord("uniqueness.right_projected", a, res_right, VERIFY_TOL))
        records.append(CheckRecord("uniqueness.both_projected", a, res_both, VERIFY_TOL))
    return VerificationReport(tuple(records))


def verify_dual_lemma(
    ins: Instrument, trials: int = 50, seed: int = 0
) -> VerificationReport:
    """Check the dual-map hypotheses and conclusion:

    - the total's dual fixes the identity,
    - each component's dual maps the identity to the outcome projector,
    - T_a*(X) equals E T*(X), T*(X) E, and E T*(X) E on random bounded X.
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
            VERIFY_TOL,
        )
    ]
    samples = [_random_matrix(rng, d) for _ in range(trials)]
    for a, p in ins.observable.outcomes:
        comp_dual = dual(ins.component(a))
        records.append(
            CheckRecord(
                "dual.component_unit_to_projector",
                a,
                matcore.max_abs(apply(comp_dual, one) - p),
                VERIFY_TOL,
            )
        )
        res_left = res_right = res_both = 0.0
        for x in samples:
            lhs = apply(comp_dual, x)
            tx = apply(total_dual, x)
            res_left = max(res_left, matcore.max_abs(lhs - p @ tx))
            res_right = max(res_right, matcore.max_abs(lhs - tx @ p))
            res_both = max(res_both, matcore.max_abs(lhs - p @ tx @ p))
        records.append(CheckRecord("dual.sandwich_left", a, res_left, VERIFY_TOL))
        records.append(CheckRecord("dual.sandwich_right", a, res_right, VERIFY_TOL))
        records.append(CheckRecord("dual.sandwich_both", a, res_both, VERIFY_TOL))
    return VerificationReport(tuple(records))
