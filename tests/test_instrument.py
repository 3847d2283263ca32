import numpy as np
import pytest

from reduction_lab import matcore
from reduction_lab.errors import NotAMeasurementOfAError, ZeroProbabilityOutcomeError
from reduction_lab.instrument import (
    Instrument,
    instrument_from_operation,
    luders_instrument,
    nonselective,
    outcome_probability,
    reduce,
    reduce_or_maximally_mixed,
    verify_dual_lemma,
    verify_theorem1,
)
from reduction_lab.quantum import (
    PAULI_X,
    PAULI_Z,
    DensityOperator,
    DiscreteObservable,
    born_probability,
    ket,
    mix,
    observable_from_hermitian,
    projector_onto,
)
from reduction_lab.superop import Superoperator, apply

from conftest import plus_state, random_density


@pytest.fixture
def z_obs():
    return observable_from_hermitian(PAULI_Z)


@pytest.fixture
def z_luders(z_obs):
    return luders_instrument(z_obs)


def test_outcome_probability_matches_born(z_luders, z_obs, rng):
    assert np.isclose(outcome_probability(z_luders, 1.0, plus_state()), 0.5)
    assert outcome_probability(z_luders, 3.7, plus_state()) == 0.0
    for _ in range(20):
        rho = random_density(rng, 2)
        for a in z_obs.eigenvalues:
            assert np.isclose(
                outcome_probability(z_luders, a, rho),
                born_probability(z_obs, a, rho),
                atol=1e-10,
            )


def test_reduce_luders(z_luders):
    out = reduce(z_luders, 1.0, plus_state())
    assert np.allclose(out.matrix, projector_onto(ket(2, 0)), atol=1e-12)
    # repeatability on eigenstates
    eigen = DensityOperator(projector_onto(ket(2, 1)))
    assert np.allclose(reduce(z_luders, -1.0, eigen).matrix, eigen.matrix, atol=1e-12)


def test_reduce_zero_probability(z_luders):
    eigen = DensityOperator(projector_onto(ket(2, 0)))
    with pytest.raises(ZeroProbabilityOutcomeError):
        reduce(z_luders, -1.0, eigen)
    state, definite = reduce_or_maximally_mixed(z_luders, -1.0, eigen)
    assert not definite
    assert np.allclose(state.matrix, np.eye(2) / 2)


def test_nonselective(z_luders, rng):
    assert np.allclose(nonselective(z_luders, plus_state()).matrix, np.eye(2) / 2)
    diag = DensityOperator(np.diag([0.7, 0.3]).astype(complex))
    assert np.allclose(nonselective(z_luders, diag).matrix, diag.matrix, atol=1e-12)
    # remixing the conditional states reproduces the nonselective change
    rho = random_density(rng, 2)
    remixed = sum(
        outcome_probability(z_luders, a, rho) * reduce(z_luders, a, rho).matrix
        for a in z_luders.observable.eigenvalues
    )
    assert np.allclose(remixed, nonselective(z_luders, rho).matrix, atol=1e-10)
    assert np.allclose(
        sum(apply(t, rho.matrix) for t in z_luders.components.values()),
        apply(z_luders.total, rho.matrix),
        atol=1e-10,
    )


def test_component_affinity(z_luders, rng):
    r1, r2 = random_density(rng, 2), random_density(rng, 2)
    mixed = mix(0.25, r1, r2)
    for a in z_luders.observable.eigenvalues:
        t = z_luders.component(a)
        lhs = apply(t, mixed.matrix)
        rhs = 0.25 * apply(t, r1.matrix) + 0.75 * apply(t, r2.matrix)
        assert matcore.max_abs(lhs - rhs) <= 1e-12


def test_instrument_from_operation_recovers_luders(z_obs, z_luders):
    rebuilt = instrument_from_operation(z_luders.total, z_obs)
    for a in z_obs.eigenvalues:
        assert matcore.max_abs(
            rebuilt.component(a).rep - z_luders.component(a).rep
        ) <= 1e-12


def test_instrument_from_operation_trivial_observable():
    trivial = DiscreteObservable(((1.0, np.eye(3, dtype=complex)),))
    ins = instrument_from_operation(Superoperator.identity(3), trivial)
    assert ins.component(1.0).equal(Superoperator.identity(3), 1e-12)


def test_instrument_from_operation_refuses_non_measurement(z_obs):
    # the identity channel is not the operation of any apparatus
    # measuring a sharp qubit observable
    with pytest.raises(NotAMeasurementOfAError):
        instrument_from_operation(Superoperator.identity(2), z_obs)
    # a trace-halving map fails the outcome-trace condition at an outcome
    with pytest.raises(NotAMeasurementOfAError) as err:
        instrument_from_operation(0.5 * luders_instrument(z_obs).total, z_obs)
    assert err.value.outcome in z_obs.eigenvalues
    assert err.value.residual == pytest.approx(0.5, abs=1e-12)


def test_uniqueness_of_decomposition(z_obs, z_luders):
    # two instruments with the same total and observable have equal components
    other = instrument_from_operation(z_luders.total, z_obs)
    for a in z_obs.eigenvalues:
        assert matcore.max_abs(
            other.component(a).rep - z_luders.component(a).rep
        ) <= 1e-9


def test_verify_theorem1_passes_luders(z_luders):
    report = verify_theorem1(z_luders, trials=20, seed=3)
    assert report.passed
    assert report.max_residual <= 1e-12


def test_verify_theorem1_trivial_observable():
    trivial = DiscreteObservable(((1.0, np.eye(2, dtype=complex)),))
    ins = luders_instrument(trivial)
    assert verify_theorem1(ins).passed


def test_verify_theorem1_detects_corruption(z_obs, z_luders):
    eps = 1e-3
    corrupted = dict(z_luders.components)
    corrupted[1.0] = corrupted[1.0] + eps * Superoperator.identity(2)
    broken = Instrument(
        z_obs, corrupted, total=z_luders.total, validate_invariants=False
    )
    report = verify_theorem1(broken, trials=10, seed=0)
    assert not report.passed
    # residual scales with eps times the sample magnitude
    assert eps / 2 < report.max_residual < 20 * eps


def test_verify_dual_lemma_passes_luders(z_luders):
    report = verify_dual_lemma(z_luders, trials=50, seed=0)
    assert report.passed
    assert report.max_residual <= 1e-12


def test_verify_dual_lemma_detects_trace_decrease(z_obs, z_luders):
    shrunk = {a: 0.9 * t for a, t in z_luders.components.items()}
    broken = Instrument(z_obs, shrunk, validate_invariants=False)
    report = verify_dual_lemma(broken)
    unital = [r for r in report.records if r.check == "dual.total_unital"]
    assert unital[0].residual > 0.05


def test_instrument_invariants_enforced(z_obs, z_luders):
    # wrong total is refused
    with pytest.raises(NotAMeasurementOfAError):
        Instrument(z_obs, z_luders.components, total=Superoperator.zero(2))
    # trace-decreasing components are refused
    with pytest.raises(ValueError):
        Instrument(z_obs, {a: 0.5 * t for a, t in z_luders.components.items()})
