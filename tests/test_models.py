import numpy as np
import pytest

from reduction_lab import matcore, models
from reduction_lab.errors import (
    DegenerateObservableError,
    MissingProbeError,
    NotAMeasurementOfAError,
)
from reduction_lab.instrument import luders_instrument, reduce
from reduction_lab.matcore import dagger, partial_trace_apparatus, tensor
from reduction_lab.models import (
    MeasurementModel,
    haar_unitary,
    instrument_of,
    operation_of,
    probe_consistency,
    probe_instrument_of,
    random_biased_model,
    random_faithful_model,
    von_neumann_model,
)
from reduction_lab.quantum import (
    PAULI_X,
    PAULI_Z,
    DensityOperator,
    DiscreteObservable,
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


def _instrument_diff(i1, i2):
    return max(
        matcore.max_abs(i1.component(a).rep - i2.component(a).rep)
        for a in i1.observable.eigenvalues
    )


def test_operation_identity_unitary(z_obs):
    trivial = DiscreteObservable(((1.0, np.eye(2, dtype=complex)),))
    model = MeasurementModel(
        2, 2, trivial, DensityOperator(projector_onto(ket(2, 0))),
        np.eye(4, dtype=complex),
    )
    assert operation_of(model).equal(Superoperator.identity(2), 1e-12)


def test_operation_factorized_unitary(rng, z_obs):
    us = haar_unitary(2, rng)
    ua = haar_unitary(3, rng)
    trivial = DiscreteObservable(((1.0, np.eye(2, dtype=complex)),))
    model = MeasurementModel(
        2, 3, trivial, random_density(rng, 3), tensor(us, ua)
    )
    assert operation_of(model).equal(Superoperator.sandwich(us), 1e-10)


def test_von_neumann_operation_is_dephasing(z_obs, rng):
    model = von_neumann_model(z_obs, 2)
    t = operation_of(model)
    rho = random_density(rng, 2)
    dephased = np.diag(np.diag(rho.matrix))
    assert matcore.max_abs(apply(t, rho.matrix) - dephased) <= 1e-12


def test_von_neumann_recovers_luders(z_obs):
    model = von_neumann_model(z_obs, 2)
    assert _instrument_diff(instrument_of(model), luders_instrument(z_obs)) <= 1e-10
    out = reduce(instrument_of(model), 1.0, plus_state())
    assert np.allclose(out.matrix, projector_onto(ket(2, 0)), atol=1e-12)


def test_von_neumann_arbitrary_pointer_basis(z_obs):
    model = von_neumann_model(z_obs, 5, seed=11)
    assert probe_consistency(model).passed
    assert _instrument_diff(instrument_of(model), luders_instrument(z_obs)) <= 1e-9


def test_von_neumann_trivial_one_dim():
    trivial = DiscreteObservable(((1.0, np.eye(1, dtype=complex)),))
    model = von_neumann_model(trivial, 1)
    assert np.allclose(model.unitary, np.eye(1))


def test_von_neumann_rejects_degenerate():
    degenerate = observable_from_hermitian(np.diag([1.0, 1.0, 2.0]).astype(complex))
    with pytest.raises(DegenerateObservableError):
        von_neumann_model(degenerate, 3)


def test_probe_consistency_biased_and_trivial(z_obs, rng):
    biased = random_biased_model(z_obs, 2, seed=3)
    report = probe_consistency(biased)
    assert not report.passed
    assert report.max_residual >= 0.1

    trivial = DiscreteObservable(((1.0, np.eye(2, dtype=complex)),))
    model = MeasurementModel(
        2, 2, trivial, random_density(rng, 2),
        haar_unitary(4, rng),
        probe=DiscreteObservable(((1.0, np.eye(2, dtype=complex)),)),
    )
    assert probe_consistency(model).passed


def test_instrument_refuses_biased(z_obs):
    biased = random_biased_model(z_obs, 2, seed=3)
    report = probe_consistency(biased)
    for build in (instrument_of, probe_instrument_of):
        with pytest.raises(NotAMeasurementOfAError) as err:
            build(biased)
        assert err.value.outcome == report.worst_outcome
        assert err.value.residual == report.max_residual


def test_probe_instrument_builds_each_stack_once(monkeypatch):
    three = observable_from_hermitian(np.diag([1.0, 0.0, -1.0]).astype(complex))
    model = random_faithful_model(three, 6, seed=4, sigma_rank=2)
    calls = {"_kraus": 0, "_sigma_root": 0}
    for name in calls:
        original = getattr(models, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(models, name, counted)
    probe_instrument_of(model)
    # one Kraus stack per outcome, sigma factored once
    assert calls == {"_kraus": 3, "_sigma_root": 1}


def test_probe_instrument_requires_probe(z_obs):
    model = von_neumann_model(z_obs, 2)
    stripped = MeasurementModel(
        model.dim_s, model.dim_a, model.observable,
        model.apparatus_state, model.unitary,
    )
    with pytest.raises(MissingProbeError):
        probe_instrument_of(stripped)


def test_random_faithful_deterministic(z_obs):
    m1 = random_faithful_model(z_obs, 4, seed=1)
    m2 = random_faithful_model(z_obs, 4, seed=1)
    assert np.array_equal(m1.unitary, m2.unitary)
    assert np.array_equal(m1.apparatus_state.matrix, m2.apparatus_state.matrix)
    assert probe_consistency(m1).passed


def test_random_faithful_degenerate_observable():
    degenerate = observable_from_hermitian(np.diag([1.0, 1.0, 2.0]).astype(complex))
    model = random_faithful_model(degenerate, 3, seed=7)
    assert probe_consistency(model).passed


def test_cross_route_equivalence(z_obs):
    for seed in range(5):
        model = random_faithful_model(z_obs, 5, seed=seed)
        assert _instrument_diff(instrument_of(model), probe_instrument_of(model)) <= 1e-9


def test_instrument_total_equals_operation(z_obs):
    model = random_faithful_model(z_obs, 4, seed=2)
    ins = instrument_of(model)
    assert matcore.max_abs(ins.total.rep - operation_of(model).rep) <= 1e-9


def test_operation_affine_in_apparatus_state(rng, z_obs):
    base = random_faithful_model(z_obs, 4, seed=5)
    s1, s2 = random_density(rng, 4), random_density(rng, 4)
    mixed = mix(0.4, s1, s2)

    def op_with(sigma):
        return operation_of(
            MeasurementModel(2, 4, z_obs, sigma, base.unitary)
        )

    combo = 0.4 * op_with(s1) + 0.6 * op_with(s2)
    assert matcore.max_abs(op_with(mixed).rep - combo.rep) <= 1e-12


def test_probe_detection_independence(z_obs):
    # rotating the apparatus after the interaction, with the probe rotated
    # along, leaves the instrument unchanged
    model = random_faithful_model(z_obs, 4, seed=8)
    rng = np.random.default_rng(99)
    v = haar_unitary(4, rng)
    rotated = MeasurementModel(
        model.dim_s,
        model.dim_a,
        model.observable,
        model.apparatus_state,
        tensor(np.eye(2), v) @ model.unitary,
        probe=DiscreteObservable(
            tuple(
                (a, v @ q @ dagger(v)) for a, q in model.probe.outcomes
            )
        ),
    )
    assert probe_consistency(rotated).passed
    assert _instrument_diff(instrument_of(model), instrument_of(rotated)) <= 1e-9
    assert _instrument_diff(
        probe_instrument_of(model), probe_instrument_of(rotated)
    ) <= 1e-9


def test_biased_rejects_single_outcome():
    trivial = DiscreteObservable(((1.0, np.eye(2, dtype=complex)),))
    with pytest.raises(ValueError):
        random_biased_model(trivial, 2, seed=0)


def test_dim_a_too_small(z_obs):
    with pytest.raises(ValueError):
        random_faithful_model(z_obs, 1, seed=0)
    with pytest.raises(ValueError):
        von_neumann_model(z_obs, 1)


def _dilation_reference(model):
    """The README's dilation formulas applied to the matrix units: the
    operation, the instrument, the probe-route instrument and the
    probe-consistency residuals."""
    u, sigma = model.unitary, model.apparatus_state.matrix
    ds, da = model.dim_s, model.dim_a
    one_s = np.eye(ds, dtype=complex)

    def tr_a(m):
        return partial_trace_apparatus(m, ds, da)

    def dilated(x):
        return u @ tensor(x, sigma) @ dagger(u)

    total = Superoperator.from_function(ds, lambda x: tr_a(dilated(x)))
    components = {
        a: Superoperator.from_function(ds, lambda x, p=p: tr_a(dilated(p @ x @ p)))
        for a, p in model.observable.outcomes
    }
    probe_components, residuals = {}, {}
    for a, p in model.observable.outcomes:
        q = tensor(one_s, model.probe.projector(a))
        probe_components[a] = Superoperator.from_function(
            ds, lambda x, q=q: tr_a(q @ dilated(x) @ q)
        )
        f = tr_a(dagger(u) @ q @ u @ tensor(one_s, sigma))
        residuals[a] = matcore.spectral_norm(f - p)
    return total, components, probe_components, residuals


def _reference_models():
    three = observable_from_hermitian(np.diag([1.0, 0.0, -1.0]).astype(complex))
    degenerate = observable_from_hermitian(
        np.diag([2.0, 1.0, 1.0, -1.0]).astype(complex)
    )
    rotated = random_faithful_model(three, 6, seed=4, sigma_rank=2)
    # rotating the apparatus moves sigma off the diagonal
    v = haar_unitary(6, np.random.default_rng(17))
    rotated = MeasurementModel(
        3, 6, three,
        DensityOperator(v @ rotated.apparatus_state.matrix @ dagger(v)),
        tensor(np.eye(3), v) @ rotated.unitary @ tensor(np.eye(3), dagger(v)),
        probe=DiscreteObservable(
            tuple((a, v @ q @ dagger(v)) for a, q in rotated.probe.outcomes)
        ),
    )
    return [
        random_faithful_model(three, 7, seed=1, sigma_rank=2),
        random_faithful_model(degenerate, 6, seed=2, sigma_rank=2),
        rotated,
    ]


@pytest.mark.parametrize("model", _reference_models(), ids=["three", "degenerate", "rotated"])
def test_kraus_maps_match_dilation_reference(model):
    total, components, probe_components, residuals = _dilation_reference(model)
    assert np.linalg.matrix_rank(model.apparatus_state.matrix) == 2
    assert len(model.observable.outcomes) >= 3
    assert matcore.max_abs(operation_of(model).rep - total.rep) <= 1e-12
    ins = instrument_of(model)
    probe_ins = probe_instrument_of(model)
    assert matcore.max_abs(ins.total.rep - total.rep) <= 1e-12
    for a in model.observable.eigenvalues:
        assert matcore.max_abs(ins.component(a).rep - components[a].rep) <= 1e-12
        assert matcore.max_abs(
            probe_ins.component(a).rep - probe_components[a].rep
        ) <= 1e-12
    report = probe_consistency(model)
    assert report.residuals.keys() == residuals.keys()
    for a, r in residuals.items():
        assert abs(report.residuals[a] - r) <= 1e-12


def test_kraus_maps_match_dilation_reference_biased():
    three = observable_from_hermitian(np.diag([1.0, 0.0, -1.0]).astype(complex))
    model = random_biased_model(three, 7, seed=5)
    total, components, _, residuals = _dilation_reference(model)
    assert matcore.max_abs(operation_of(model).rep - total.rep) <= 1e-12
    report = probe_consistency(model)
    assert not report.passed
    for a, r in residuals.items():
        assert abs(report.residuals[a] - r) <= 1e-12
    with pytest.raises(NotAMeasurementOfAError):
        instrument_of(model)
    # without its probe the same unitary still measures the observable
    stripped = MeasurementModel(
        model.dim_s, model.dim_a, model.observable,
        model.apparatus_state, model.unitary,
    )
    ins = instrument_of(stripped)
    for a in model.observable.eigenvalues:
        assert matcore.max_abs(ins.component(a).rep - components[a].rep) <= 1e-12
