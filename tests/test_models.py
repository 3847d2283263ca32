import numpy as np
import pytest

from reduction_lab import cli, matcore, models
from reduction_lab import serialization as ser
from reduction_lab.errors import (
    DegenerateObservableError,
    MissingProbeError,
    NotAMeasurementOfAError,
)
from reduction_lab.instrument import (
    instrument_from_operation,
    luders_instrument,
    operation_instrument,
    reduce,
)
from reduction_lab.matcore import dagger
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
    PAULI_Z,
    DensityOperator,
    DiscreteObservable,
    ket,
    observable_from_hermitian,
    projector_onto,
)
from reduction_lab.superop import ChoiMatrix, Superoperator, apply, choi, kraus_from_choi

from conftest import (
    partial_trace_apparatus,
    plus_state,
    probed,
    random_density,
    route_gap_exhibit,
    tensor,
)


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
    assert matcore.max_abs(operation_of(model).rep - np.eye(4)) <= 1e-12


def test_operation_factorized_unitary(rng, z_obs):
    us = haar_unitary(2, rng)
    ua = haar_unitary(3, rng)
    trivial = DiscreteObservable(((1.0, np.eye(2, dtype=complex)),))
    model = MeasurementModel(
        2, 3, trivial, random_density(rng, 3), tensor(us, ua)
    )
    want = Superoperator.sandwich(us)
    assert matcore.max_abs(operation_of(model).rep - want.rep) <= 1e-10


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


def test_nan_tol_does_not_switch_off_completeness(z_obs):
    # no probe, and a Haar-random U that does not measure Z: its components
    # miss its operation by 0.43, and a NaN bound must not accept that
    model = MeasurementModel(
        2, 2, z_obs, DensityOperator(projector_onto(ket(2, 0))),
        haar_unitary(4, np.random.default_rng(4)),
    )
    with pytest.raises(NotAMeasurementOfAError):
        instrument_of(model)
    with pytest.raises(NotAMeasurementOfAError):
        instrument_of(model, float("nan"))


def test_probe_instrument_builds_each_stack_once(monkeypatch):
    three = observable_from_hermitian(np.diag([1.0, 0.0, -1.0]).astype(complex))
    model = random_faithful_model(three, 6, seed=4, sigma_rank=2)
    calls = 0
    original = models._kraus

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(models, "_kraus", counted)
    probe_instrument_of(model)
    # one Kraus stack for all outcomes: each probe stack is Q_a applied to
    # its apparatus index
    assert calls == 1


def _counting(monkeypatch, *names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(models, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(models, name, counted)
    return calls


def test_a_model_derives_its_stack_and_probe_route_once(monkeypatch):
    three = observable_from_hermitian(np.diag([1.0, 0.0, -1.0]).astype(complex))
    model = random_faithful_model(three, 6, seed=4, sigma_rank=2)
    calls = _counting(monkeypatch, "_kraus", "_probe_route")
    assert probe_consistency(model).passed
    instrument_of(model)
    probe_instrument_of(model)
    operation_of(model)
    assert calls == {"_kraus": 1, "_probe_route": 1}
    # building a model derives nothing
    random_faithful_model(three, 6, seed=5)
    assert calls == {"_kraus": 1, "_probe_route": 1}


def test_derived_arrays_are_read_only(z_obs):
    model = random_faithful_model(z_obs, 4, seed=2)
    stacks, residuals = model.probe_route
    for array in (model.kraus, stacks, stacks[0], residuals):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    # a map built from a stack owns its own writable copy
    assert not np.shares_memory(operation_of(model).kraus, model.kraus)


def test_reports_do_not_share_a_residual_dict(z_obs):
    model = random_faithful_model(z_obs, 4, seed=2)
    first, second = probe_consistency(model), probe_consistency(model)
    assert first.residuals is not second.residuals
    first.residuals[1.0] = 1.0
    assert not first.passed
    assert second.passed and probe_consistency(model).passed


def test_one_model_at_two_tolerances_gets_two_verdicts(z_obs, monkeypatch):
    model = random_biased_model(z_obs, 2, seed=3)
    calls = _counting(monkeypatch, "_probe_route")
    strict, loose = probe_consistency(model), probe_consistency(model, 2.0)
    assert strict.residuals == loose.residuals
    assert 0.1 <= strict.max_residual <= 2.0
    assert not strict.passed and loose.passed
    with pytest.raises(NotAMeasurementOfAError):
        instrument_of(model)
    instrument_of(model, 2.0)
    assert calls == {"_probe_route": 1}


def test_a_biased_model_fails_at_every_consumer(tmp_path, z_obs):
    model = random_biased_model(z_obs, 4, seed=3)
    report = probe_consistency(model)
    # the stored residuals give the same refusal on every call
    for _ in range(2):
        assert not probe_consistency(model).passed
        for build in (instrument_of, probe_instrument_of):
            with pytest.raises(NotAMeasurementOfAError) as err:
                build(model)
            assert err.value.residual == report.max_residual
    path = tmp_path / "biased.json"
    path.write_text(ser.dumps(ser.model_to_json(model)))
    assert cli.main(["check-model", str(path), "--out", str(tmp_path / "r.json")]) == 1


def _uncached(model):
    """The stack and the probe route by the per-outcome loop: one product
    with Q_a, F_a by ``tensordot`` and one spectral norm per outcome."""
    ds = model.dim_s
    kraus = models._kraus(model)
    k = kraus.reshape(model.dim_a, -1)
    stacks, residuals = [], []
    for a, p in model.observable.outcomes:
        kq = (model.probe.projector(a) @ k).reshape(-1, ds, ds)
        f = np.tensordot(kq.conj(), kq, axes=([0, 1], [0, 1]))
        stacks.append(kq)
        residuals.append(matcore.spectral_norm(f - p))
    return kraus, np.stack(stacks), np.array(residuals)


def _haar_von_neumann():
    u = haar_unitary(3, np.random.default_rng(8))
    obs = observable_from_hermitian(u @ np.diag([1.0, 0.0, -1.0]) @ dagger(u))
    return von_neumann_model(obs, 5, seed=9)


@pytest.mark.parametrize(
    "model",
    [
        _haar_von_neumann(),
        random_faithful_model(
            observable_from_hermitian(np.diag([2.0, 1.0, 1.0, -1.0]).astype(complex)),
            6, seed=2, sigma_rank=2,
        ),
    ],
    ids=["von-neumann-haar", "degenerate"],
)
def test_derived_values_match_an_uncached_computation(model):
    kraus, stacks, residuals = _uncached(model)
    assert np.array_equal(model.kraus, kraus)
    assert np.array_equal(model.probe_route[0], stacks)
    np.testing.assert_allclose(model.probe_route[1], residuals, rtol=0, atol=1e-15)
    assert list(probe_consistency(model).residuals) == list(model.observable.eigenvalues)


def _wide_model(dim_s, dim_a, degenerate, sigma_rank):
    rng = np.random.default_rng(dim_s)
    vals = np.arange(dim_s, dtype=float)
    if degenerate:
        vals = np.where(vals < dim_s // 2, 1.0, -1.0)
    u = haar_unitary(dim_s, rng)
    obs = observable_from_hermitian(u @ np.diag(vals) @ dagger(u))
    return random_faithful_model(obs, dim_a, seed=dim_s, sigma_rank=sigma_rank)


@pytest.mark.parametrize(
    "model",
    [_wide_model(8, 16, False, 2), _wide_model(12, 2, True, 1)],
    ids=["8x16", "12x2-degenerate"],
)
def test_stacked_maps_skip_the_choi_eigendecomposition(model, monkeypatch):
    calls = {"psd_refusal": 0, "hermitian_eig": 0}
    for name in calls:
        original = getattr(matcore, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(matcore, name, counted)
    built = [
        instrument_of(model),
        probe_instrument_of(model),
        instrument_from_operation(operation_of(model), model.observable),
    ]
    for ins in built:
        for t in ins.components.values():
            kraus_from_choi(choi(t))
    # every map carries its Kraus stack: no Choi PSD test to validate, no
    # Choi eigh to extract
    assert calls == {"psd_refusal": 0, "hermitian_eig": 0}
    # the same Choi matrices without their stacks take one eigh each to
    # extract; validation never takes a Choi PSD test
    n, d = len(model.observable.outcomes), model.dim_s
    for ins in built:
        calls.update(psd_refusal=0, hermitian_eig=0)
        ins.validate()
        for t in ins.components.values():
            kraus_from_choi(ChoiMatrix(d, choi(t).matrix))
        assert calls == {"psd_refusal": 0, "hermitian_eig": n}


@pytest.mark.parametrize("ds", [2, 4, 8])
def test_probe_instrument_is_complete_against_the_operation(ds):
    model = _wide_model(ds, 2 * ds, False, 2)
    probe = probe_instrument_of(model)
    # the total is the operation route's, not the sum of the probe route's
    # own components: completeness compares the two routes
    assert np.array_equal(probe.total.kraus, model.kraus)
    assert len(probe.total.kraus) == 2 * (2 * ds)
    assert probe.validate() <= 1e-14


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
    mixed = DensityOperator(0.4 * s1.matrix + 0.6 * s2.matrix)

    def op_with(sigma):
        return operation_of(
            MeasurementModel(2, 4, z_obs, sigma, base.unitary)
        )

    combo = 0.4 * op_with(s1).rep + 0.6 * op_with(s2).rep
    assert matcore.max_abs(op_with(mixed).rep - combo) <= 1e-12


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

    total = probed(ds, lambda x: tr_a(dilated(x)))
    components = {
        a: probed(ds, lambda x, p=p: tr_a(dilated(p @ x @ p)))
        for a, p in model.observable.outcomes
    }
    probe_components, residuals = {}, {}
    for a, p in model.observable.outcomes:
        q = tensor(one_s, model.probe.projector(a))
        probe_components[a] = probed(
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
    assert matcore.max_abs(operation_of(model).rep - total) <= 1e-12
    ins = instrument_of(model)
    probe_ins = probe_instrument_of(model)
    assert matcore.max_abs(ins.total.rep - total) <= 1e-12
    for a in model.observable.eigenvalues:
        assert matcore.max_abs(ins.component(a).rep - components[a]) <= 1e-12
        assert matcore.max_abs(
            probe_ins.component(a).rep - probe_components[a]
        ) <= 1e-12
    report = probe_consistency(model)
    assert report.residuals.keys() == residuals.keys()
    for a, r in residuals.items():
        assert abs(report.residuals[a] - r) <= 1e-12


def _detected_instrument(model, detections):
    """T''_a(rho) = sum_k Tr_A[(1 x L_{a,k}) U (rho x sigma) U+ (1 x L_{a,k})+]
    for a detection of the probe given as Kraus operators L_{a,k} on the
    apparatus, applied to the matrix units."""
    u, sigma = model.unitary, model.apparatus_state.matrix
    ds, da = model.dim_s, model.dim_a
    one_s = np.eye(ds, dtype=complex)

    def detected(x, ls):
        out = u @ tensor(x, sigma) @ dagger(u)
        return sum(
            partial_trace_apparatus(
                tensor(one_s, l) @ out @ dagger(tensor(one_s, l)), ds, da
            )
            for l in ls
        )

    return {
        a: probed(ds, lambda x, ls=ls: detected(x, ls))
        for a, ls in detections.items()
    }


@pytest.mark.parametrize("model", _reference_models(), ids=["three", "degenerate", "rotated"])
def test_reduction_does_not_depend_on_the_detection_of_the_probe(model):
    # the paper's claim: any detection of the probe whose effects are the
    # Q_a, projective or not, gives the instrument of the dilation route
    rng = np.random.default_rng(23)
    da = model.dim_a
    q = dict(model.probe.outcomes)
    outcomes = list(q)

    def unitary_mixture(qa):
        p = rng.random(3)
        p /= p.sum()
        return [np.sqrt(pk) * haar_unitary(da, rng) @ qa for pk in p]

    def reset_to_zero(qa):
        w, v = np.linalg.eigh(qa)
        return [np.outer(ket(da, 0), e.conj()) for e in v[:, w > 0.5].T]

    detections = {
        "projective": {a: [qa] for a, qa in q.items()},
        "non-Lueders": {a: unitary_mixture(qa) for a, qa in q.items()},
        "destructive": {a: reset_to_zero(qa) for a, qa in q.items()},
    }
    ins = instrument_of(model)
    for name, detection in detections.items():
        for a, ls in detection.items():
            effect = sum(dagger(l) @ l for l in ls)
            assert matcore.max_abs(effect - q[a]) <= 1e-12, name
        detected = _detected_instrument(model, detection)
        for a in outcomes:
            assert matcore.max_abs(
                detected[a] - ins.component(a).rep
            ) <= 1e-12, (name, a)
    # negative control: blurred effects 0.9 Q_a + 0.1 Q_b read the wrong
    # outcome a tenth of the time
    blurred = {
        a: [np.sqrt(0.9) * q[a], np.sqrt(0.1) * q[outcomes[i - 1]]]
        for i, a in enumerate(outcomes)
    }
    detected = _detected_instrument(model, blurred)
    assert max(
        matcore.max_abs(detected[a] - ins.component(a).rep) for a in outcomes
    ) > 1e-3


def test_kraus_maps_match_dilation_reference_biased():
    three = observable_from_hermitian(np.diag([1.0, 0.0, -1.0]).astype(complex))
    model = random_biased_model(three, 7, seed=5)
    total, components, _, residuals = _dilation_reference(model)
    assert matcore.max_abs(operation_of(model).rep - total) <= 1e-12
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
        assert matcore.max_abs(ins.component(a).rep - components[a]) <= 1e-12


@pytest.mark.parametrize("q", [1e-2, 1e-4, 1e-6, 1e-8])
def test_route_gap_is_of_order_the_root_of_the_probe_residual(z_obs, q):
    # the exhibit's T'_a is off T(E_a . E_a) by sqrt(q(1-q)) in its rep
    model = route_gap_exhibit(q)

    residuals = probe_consistency(model).residuals
    assert all(abs(r - q) <= 1e-15 for r in residuals.values()), residuals
    ins = operation_instrument(operation_of(model), z_obs)
    stacks = model.probe_route[0]
    gaps = [
        matcore.max_abs(Superoperator.from_kraus(stacks[k]).rep - ins.component(a).rep)
        for k, a in enumerate(z_obs.eigenvalues)
    ]
    gap = np.sqrt(q * (1 - q))
    assert all(abs(g - gap) <= 1e-9 * gap for g in gaps), gaps
    # no bound linear in the residual: gap / q grows as 1 / sqrt(q)
    assert max(gaps) / q >= 0.99 / np.sqrt(q)
