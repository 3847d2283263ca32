import numpy as np
import pytest

from reduction_lab import instrument, matcore, scenarios, superop
from reduction_lab.errors import NumericalConsistencyError, ZeroProbabilityOutcomeError
from reduction_lab.instrument import Instrument
from reduction_lab.models import instrument_of, random_faithful_model, von_neumann_model
from reduction_lab.quantum import (
    PAULI_X,
    PAULI_Z,
    DensityOperator,
    born_probability,
    clamp_probability,
    ket,
    observable_from_hermitian,
    projector_onto,
)
from reduction_lab.scenarios import (
    conditional_distribution,
    joint_distribution,
    nonuniqueness_exhibit,
)
from reduction_lab.superop import Superoperator, apply

from conftest import plus_state, random_density, random_hermitian, trace_norm


@pytest.fixture
def z_model():
    return von_neumann_model(observable_from_hermitian(PAULI_Z), 2)


def test_joint_table_uniform_quarter(z_model):
    x_obs = observable_from_hermitian(PAULI_X)
    jd = joint_distribution(z_model, x_obs, plus_state())
    for a in (1.0, -1.0):
        for x in (1.0, -1.0):
            assert np.isclose(jd.probability(a, x), 0.25, atol=1e-10)


def test_joint_repeatability(z_model, rng):
    # same observable measured twice: off-diagonal entries vanish
    z_obs = z_model.observable
    rho = random_density(rng, 2)
    jd = joint_distribution(z_model, z_obs, rho)
    for a in z_obs.eigenvalues:
        for x in z_obs.eigenvalues:
            if a != x:
                assert jd.probability(a, x) <= 1e-12


def test_joint_eigenstate_row(z_model):
    x_obs = observable_from_hermitian(PAULI_X)
    rho = DensityOperator(projector_onto(ket(2, 0)))
    jd = joint_distribution(z_model, x_obs, rho)
    assert np.isclose(jd.marginal_first(1.0), 1.0, atol=1e-12)
    assert jd.marginal_first(-1.0) <= 1e-12


def test_joint_marginals_and_normalization(rng):
    for seed in range(5):
        obs = observable_from_hermitian(random_hermitian(rng, 3))
        model = random_faithful_model(obs, 4, seed=seed)
        second = observable_from_hermitian(random_hermitian(rng, 3))
        rho = random_density(rng, 3)
        jd = joint_distribution(model, second, rho)
        assert np.isclose(sum(jd.table.values()), 1.0, atol=1e-10)
        for a in obs.eigenvalues:
            assert np.isclose(
                jd.marginal_first(a), born_probability(obs, a, rho), atol=1e-10
            )


def test_joint_mixture_affinity(rng):
    obs = observable_from_hermitian(PAULI_Z)
    model = random_faithful_model(obs, 3, seed=4)
    second = observable_from_hermitian(random_hermitian(rng, 2))
    r1, r2 = random_density(rng, 2), random_density(rng, 2)
    alpha = 0.35
    mixed = DensityOperator(alpha * r1.matrix + (1 - alpha) * r2.matrix)
    jd_mixed = joint_distribution(model, second, mixed)
    jd1 = joint_distribution(model, second, r1)
    jd2 = joint_distribution(model, second, r2)
    for key in jd_mixed.table:
        expected = alpha * jd1.table[key] + (1 - alpha) * jd2.table[key]
        assert np.isclose(jd_mixed.table[key], expected, atol=1e-10)


def test_conditional_distribution(z_model):
    x_obs = observable_from_hermitian(PAULI_X)
    jd = joint_distribution(z_model, x_obs, plus_state())
    cond = conditional_distribution(jd, 1.0)
    assert np.isclose(cond[1.0], 0.5, atol=1e-10)
    assert np.isclose(cond[-1.0], 0.5, atol=1e-10)
    assert np.isclose(sum(cond.values()), 1.0, atol=1e-10)

    # point mass on a deterministic joint
    rho = DensityOperator(projector_onto(ket(2, 0)))
    jd = joint_distribution(z_model, z_model.observable, rho)
    cond = conditional_distribution(jd, 1.0)
    assert np.isclose(cond[1.0], 1.0, atol=1e-10)
    with pytest.raises(ZeroProbabilityOutcomeError):
        conditional_distribution(jd, -1.0)


@pytest.mark.parametrize("p", [np.nan, 1.1])
def test_conditional_distribution_band_checks_the_marginal(z_model, p):
    # a marginal that is NaN, or 2.2 out of two table entries, is no
    # probability: it raises as on every other route
    x_obs = observable_from_hermitian(PAULI_X)
    jd = joint_distribution(z_model, x_obs, plus_state())
    table = {(1.0, x): p for x in x_obs.eigenvalues}
    broken = scenarios.JointDistribution(jd.first_observable, x_obs, table)
    with pytest.raises(NumericalConsistencyError):
        conditional_distribution(broken, 1.0)


def test_joint_distribution_applies_each_component_once(z_model, monkeypatch):
    x_obs = observable_from_hermitian(PAULI_X)
    rho = random_density(np.random.default_rng(7), 2)
    ins = instrument_of(z_model)
    want = {
        (a, x): clamp_probability(float(np.real(np.trace(
            x_obs.projector(x) @ apply(ins.component(a), rho.matrix)
        ))))
        for a in z_model.observable.eigenvalues
        for x in x_obs.eigenvalues
    }
    calls = []

    def counted(s, m):
        calls.append(s)
        return apply(s, m)

    # reduce reaches apply through instrument; count every name
    for module in (superop, instrument, scenarios):
        monkeypatch.setattr(module, "apply", counted)
    jd = joint_distribution(z_model, x_obs, rho)
    # one image per outcome serves the table and the product-form check
    assert len(calls) == 2
    assert jd.table == want


def test_joint_entry_outside_band_raises(z_model, monkeypatch):
    z_obs = z_model.observable
    # T_{-1} doubles its input: on |0> it gives the entry 2 at an outcome of
    # Born probability 0, where no product form is checked
    broken = Instrument(
        z_obs,
        {1.0: Superoperator.sandwich(z_obs.projector(1.0)),
         -1.0: Superoperator(2, 2.0 * np.eye(4))},
        validate_invariants=False,
    )
    monkeypatch.setattr(scenarios, "instrument_of", lambda *args: broken)
    up = DensityOperator(projector_onto(ket(2, 0)))
    with pytest.raises(NumericalConsistencyError):
        joint_distribution(z_model, z_obs, up)


def test_nonuniqueness_exhibit_qubit():
    ex = nonuniqueness_exhibit(2)
    assert np.allclose(ex.mixed_state.matrix, np.eye(2) / 2, atol=1e-12)

    # both decompositions reassemble to the same mixture
    for weights, states in ex.decompositions:
        reassembled = sum(
            w * projector_onto(s.vector) for w, s in zip(weights, states)
        )
        assert matcore.max_abs(reassembled - ex.mixed_state.matrix) <= 1e-12

    # the two pure-state families are genuinely different
    (w1, phi), (w2, eta) = ex.decompositions
    dist = min(
        0.5 * trace_norm(projector_onto(p.vector) - projector_onto(e.vector))
        for p in phi
        for e in eta
    )
    assert dist >= 0.5

    # the instrument singles out the basis decomposition
    assert np.allclose(
        ex.component_images[1.0], 0.5 * projector_onto(ket(2, 0)), atol=1e-10
    )
    assert np.allclose(
        ex.component_images[-1.0], 0.5 * projector_onto(ket(2, 1)), atol=1e-10
    )


def test_nonuniqueness_exhibit_dim3():
    ex = nonuniqueness_exhibit(3)
    for weights, states in ex.decompositions:
        reassembled = sum(
            w * projector_onto(s.vector) for w, s in zip(weights, states)
        )
        assert matcore.max_abs(reassembled - ex.mixed_state.matrix) <= 1e-12
    (w1, phi), (w2, eta) = ex.decompositions
    assert 0.5 * trace_norm(
        projector_onto(phi[0].vector) - projector_onto(eta[0].vector)
    ) >= 0.5


def test_nonuniqueness_rejects_dim1():
    with pytest.raises(ValueError):
        nonuniqueness_exhibit(1)
