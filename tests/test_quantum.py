import numpy as np
import pytest

from reduction_lab.errors import NumericalConsistencyError
from reduction_lab.quantum import (
    PAULI_X,
    PAULI_Z,
    DensityOperator,
    DiscreteObservable,
    PureState,
    born_probability,
    check_density_stack,
    ket,
    mix,
    observable_from_hermitian,
    projector_onto,
)

from conftest import plus_state, random_density


def test_density_operator_validation(rng):
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.5, 0.6], [0.6, 0.5]]) * 2)  # trace 2
    with pytest.raises(ValueError):
        DensityOperator(PAULI_Z)  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    # the stacked check applies the same bounds to every matrix
    good = np.stack([random_density(rng, 2).matrix for _ in range(3)])
    check_density_stack(good)
    bad = {
        "trace": np.eye(2),
        "PSD": PAULI_Z,
        "Hermitian": np.array([[0.5, 0.5], [0.0, 0.5]]),
    }
    for word, m in bad.items():
        with pytest.raises(ValueError, match=word):
            DensityOperator(m)
        with pytest.raises(ValueError, match=word):
            check_density_stack(np.concatenate([good, [m.astype(complex)]]))


def test_pure_state_norm():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]))
    s = PureState(np.array([1, 1]) / np.sqrt(2))
    assert np.allclose(s.to_density().matrix, np.full((2, 2), 0.5))


def test_observable_from_pauli_z():
    obs = observable_from_hermitian(PAULI_Z)
    assert obs.eigenvalues == (-1.0, 1.0)
    assert np.allclose(obs.projector(1.0), projector_onto(ket(2, 0)))
    assert np.allclose(obs.projector(-1.0), projector_onto(ket(2, 1)))


def test_observable_fully_degenerate():
    obs = observable_from_hermitian(np.eye(2, dtype=complex))
    assert len(obs.outcomes) == 1
    assert np.allclose(obs.outcomes[0][1], np.eye(2))


def test_observable_degeneracy_clustering():
    h = np.diag([1.0, 1.0 + 1e-14, 2.0]).astype(complex)
    obs = observable_from_hermitian(h, degeneracy_tol=1e-9)
    ranks = sorted(int(round(np.trace(p).real)) for _, p in obs.outcomes)
    assert ranks == [1, 2]


def test_observable_reconstruction(rng):
    from conftest import random_hermitian

    h = random_hermitian(rng, 5)
    obs = observable_from_hermitian(h)
    recon = sum(a * p for a, p in obs.outcomes)
    assert np.allclose(recon, h, atol=1e-10)


def test_observable_invariants_rejected():
    p0 = projector_onto(ket(2, 0))
    with pytest.raises(ValueError):
        DiscreteObservable(((1.0, p0), (2.0, p0)))  # not orthogonal
    with pytest.raises(ValueError):
        DiscreteObservable(((1.0, p0),))  # incomplete


def test_born_rule_examples():
    obs = observable_from_hermitian(PAULI_Z)
    assert born_probability(obs, 1.0, DensityOperator(projector_onto(ket(2, 0)))) == 1.0
    assert np.isclose(born_probability(obs, 1.0, plus_state()), 0.5)
    # non-eigenvalue carries the zero projector
    assert born_probability(obs, 7.3, plus_state()) == 0.0


def test_born_probabilities_sum_to_one(rng):
    from conftest import random_hermitian

    for _ in range(20):
        obs = observable_from_hermitian(random_hermitian(rng, 4))
        rho = random_density(rng, 4)
        total = sum(born_probability(obs, a, rho) for a in obs.eigenvalues)
        assert np.isclose(total, 1.0, atol=1e-12)


def test_born_affine_in_state(rng):
    obs = observable_from_hermitian(PAULI_X)
    r1, r2 = random_density(rng, 2), random_density(rng, 2)
    mixed = mix(0.3, r1, r2)
    for a in obs.eigenvalues:
        expected = 0.3 * born_probability(obs, a, r1) + 0.7 * born_probability(obs, a, r2)
        assert np.isclose(born_probability(obs, a, mixed), expected, atol=1e-12)


def test_born_out_of_band_raises():
    obs = observable_from_hermitian(PAULI_Z)
    bad = DensityOperator.__new__(DensityOperator)
    object.__setattr__(bad, "matrix", np.diag([2.0, -1.0]).astype(complex))
    with pytest.raises(NumericalConsistencyError):
        born_probability(obs, 1.0, bad)


def test_mix(rng):
    r1, r2 = random_density(rng, 3), random_density(rng, 3)
    m = mix(0.3, r1, r2)
    assert np.allclose(m.matrix, 0.3 * r1.matrix + 0.7 * r2.matrix, atol=1e-14)
    assert np.allclose(mix(1.0, r1, r2).matrix, r1.matrix)
    with pytest.raises(ValueError):
        mix(1.5, r1, r2)
