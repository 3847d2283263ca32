import numpy as np
import pytest

from reduction_lab import instrument, matcore, superop
from reduction_lab.errors import (
    NotAMeasurementOfAError,
    NumericalConsistencyError,
    ZeroProbabilityOutcomeError,
)
from reduction_lab.instrument import (
    VERIFY_TOL,
    CheckRecord,
    Instrument,
    VerificationReport,
    _random_stack,
    instrument_from_operation,
    luders_instrument,
    nonselective,
    operation_instrument,
    outcome_probability,
    reduce,
    reduce_or_maximally_mixed,
    verify_dual_lemma,
    verify_theorem1,
)
from reduction_lab.models import (
    MeasurementModel,
    haar_unitary,
    instrument_of,
    operation_of,
    random_biased_model,
    random_faithful_model,
)
from reduction_lab.quantum import (
    PAULI_X,
    PAULI_Z,
    DensityOperator,
    DiscreteObservable,
    PureState,
    born_probability,
    ket,
    maximally_mixed,
    observable_from_hermitian,
    projector_onto,
)
from reduction_lab.scenarios import joint_distribution
from reduction_lab.superop import Superoperator, apply

from conftest import (
    dual,
    four_state_split,
    half_split,
    identity_map,
    plus_state,
    probed,
    random_density,
    recombine,
    small_probability_case,
    without_stacks,
)


@pytest.fixture
def z_obs():
    return observable_from_hermitian(PAULI_Z)


@pytest.fixture
def z_luders(z_obs):
    return luders_instrument(z_obs)


def _scaled(ins, c):
    """The components of ``ins``, each with its rep times ``c`` and no stack."""
    return {a: Superoperator(t.dim, c * t.rep) for a, t in ins.components.items()}


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


def test_outcome_probability_band(z_obs, z_luders):
    up = DensityOperator(projector_onto(ket(2, 0)))
    # a deliberately trace-increasing component: far out of band raises
    doubled = Instrument(z_obs, _scaled(z_luders, 2.0), validate_invariants=False)
    with pytest.raises(NumericalConsistencyError):
        outcome_probability(doubled, 1.0, up)
    # roundoff above 1 inside the band is clamped
    nudged = Instrument(z_obs, _scaled(z_luders, 1.0 + 1e-12), validate_invariants=False)
    assert outcome_probability(nudged, 1.0, up) == 1.0


def test_outcome_probability_rejects_a_nan_trace(z_obs, z_luders):
    # rows 0 and 3 of the rep give the diagonal of the image, so on a state
    # with all entries 1/2 its trace is +inf plus -inf
    rep = z_luders.components[1.0].rep.copy()
    rep[0], rep[3] = 1.7e308, -1.7e308
    overflowing = Instrument(
        z_obs, {1.0: Superoperator(2, rep), -1.0: z_luders.components[-1.0]},
        validate_invariants=False,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalConsistencyError, match="nan"):
            outcome_probability(overflowing, 1.0, plus_state())


def test_reduce_luders(z_luders):
    out = reduce(z_luders, 1.0, plus_state())
    assert np.allclose(out.matrix, projector_onto(ket(2, 0)), atol=1e-12)
    # repeatability on eigenstates
    eigen = DensityOperator(projector_onto(ket(2, 1)))
    assert np.allclose(reduce(z_luders, -1.0, eigen).matrix, eigen.matrix, atol=1e-12)


def test_reduce_applies_the_component_once(z_luders, rng, monkeypatch):
    rho = random_density(rng, 2)
    # the old route: the probability through outcome_probability, then the
    # component applied a second time for the state
    ref = apply(z_luders.component(1.0), rho.matrix) / outcome_probability(
        z_luders, 1.0, rho
    )
    ref = (ref + ref.conj().T) / 2
    ref = ref / np.trace(ref).real
    calls = []

    def counted(s, m):
        calls.append(s)
        return apply(s, m)

    # outcome_probability reaches apply through superop; count both names
    monkeypatch.setattr(superop, "apply", counted)
    monkeypatch.setattr(instrument, "apply", counted)
    out = reduce(z_luders, 1.0, rho)
    assert len(calls) == 1
    assert np.array_equal(out.matrix, ref)


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
    mixed = DensityOperator(0.25 * r1.matrix + 0.75 * r2.matrix)
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
    ins = instrument_from_operation(identity_map(3), trivial)
    assert matcore.max_abs(ins.component(1.0).rep - np.eye(9)) <= 1e-12


def test_instrument_from_operation_refuses_non_measurement(z_obs):
    # the identity channel is not the operation of any apparatus
    # measuring a sharp qubit observable
    with pytest.raises(NotAMeasurementOfAError):
        instrument_from_operation(identity_map(2), z_obs)
    # a trace-halving map fails the outcome-trace condition at an outcome
    halved = Superoperator(2, 0.5 * luders_instrument(z_obs).total.rep)
    with pytest.raises(NotAMeasurementOfAError) as err:
        instrument_from_operation(halved, z_obs)
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
    corrupted[1.0] = Superoperator.sum_of(2, [corrupted[1.0], Superoperator(2, eps * np.eye(4))])
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
    shrunk = _scaled(z_luders, 0.9)
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
        Instrument(z_obs, _scaled(z_luders, 0.5))


def _loop_theorem1(ins, trials, seed, tol):
    """Per-sample reference for verify_theorem1: every (outcome, sample)
    pair through the four-state split and apply."""
    rng = np.random.default_rng(seed)
    d = ins.dim
    samples = [
        rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for _ in range(trials)
    ]
    records = []
    for a, p in ins.observable.outcomes:
        t_a = ins.component(a)
        res = {"left": 0.0, "right": 0.0, "both": 0.0}
        for x in samples:
            lambdas, parts = four_state_split(x)
            lhs = recombine(lambdas, [apply(t_a, q.matrix) for q in parts])
            for form, y in (("left", p @ x), ("right", x @ p), ("both", p @ x @ p)):
                res[form] = max(res[form], matcore.max_abs(lhs - apply(ins.total, y)))
        for form in ("left", "right", "both"):
            records.append(CheckRecord(f"uniqueness.{form}_projected", a, res[form], tol))
    return records


def _loop_dual_lemma(ins, trials, seed, tol):
    """Per-sample reference for verify_dual_lemma."""
    rng = np.random.default_rng(seed)
    d = ins.dim
    one = np.eye(d, dtype=complex)
    total_dual = dual(ins.total)
    records = [CheckRecord(
        "dual.total_unital", None, matcore.max_abs(apply(total_dual, one) - one), tol
    )]
    samples = [
        rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for _ in range(trials)
    ]
    for a, p in ins.observable.outcomes:
        comp_dual = dual(ins.component(a))
        records.append(CheckRecord(
            "dual.component_unit_to_projector", a,
            matcore.max_abs(apply(comp_dual, one) - p), tol,
        ))
        res = {"left": 0.0, "right": 0.0, "both": 0.0}
        for x in samples:
            lhs = apply(comp_dual, x)
            tx = apply(total_dual, x)
            for form, y in (("left", p @ tx), ("right", tx @ p), ("both", p @ tx @ p)):
                res[form] = max(res[form], matcore.max_abs(lhs - y))
        for form in ("left", "right", "both"):
            records.append(CheckRecord(f"dual.sandwich_{form}", a, res[form], tol))
    return records


def _reference_instruments():
    z = observable_from_hermitian(PAULI_Z)
    three = observable_from_hermitian(np.diag([1.0, 0.0, -1.0]).astype(complex))
    degenerate = observable_from_hermitian(
        np.diag([2.0, 1.0, 1.0, -1.0]).astype(complex)
    )
    dilation = random_faithful_model(three, 6, seed=4, sigma_rank=2)
    assert np.linalg.matrix_rank(dilation.apparatus_state.matrix) == 2
    # two Kraus operators per map at d_s = 12: applied through the stacks
    wide = instrument_of(random_faithful_model(half_split(12, 5), 2, seed=5, sigma_rank=1))
    assert superop._on_stack(wide.total)
    luders_z = luders_instrument(z)
    corrupted = dict(luders_z.components)
    corrupted[1.0] = Superoperator.sum_of(2, [corrupted[1.0], Superoperator(2, 1e-3 * np.eye(4))])
    return {
        "luders": luders_z,
        "luders_three": luders_instrument(three),
        "dilation_3x6": instrument_of(dilation),
        "dilation_12x2": wide,
        "degenerate_luders": luders_instrument(degenerate),
        "degenerate_dilation": instrument_of(
            random_faithful_model(degenerate, 6, seed=2, sigma_rank=2)
        ),
        "corrupted": Instrument(
            z, corrupted, total=luders_z.total, validate_invariants=False
        ),
    }


@pytest.mark.parametrize("name", sorted(_reference_instruments()))
def test_verifiers_match_per_sample_reference(name):
    ins = _reference_instruments()[name]
    cases = [
        (verify_theorem1, _loop_theorem1, 20, 0, VERIFY_TOL),
        (verify_theorem1, _loop_theorem1, 7, 11, 1e-6),
        (verify_dual_lemma, _loop_dual_lemma, 50, 0, VERIFY_TOL),
        (verify_dual_lemma, _loop_dual_lemma, 9, 5, 1e-6),
    ]
    for verifier, reference, trials, seed, tol in cases:
        got = verifier(ins, trials=trials, seed=seed, tol=tol).records
        want = reference(ins, trials, seed, tol)
        assert [(r.check, r.outcome, r.tolerance, r.passed) for r in got] == [
            (r.check, r.outcome, r.tolerance, r.passed) for r in want
        ]
        for r, w in zip(got, want):
            assert abs(r.residual - w.residual) <= 1e-13, (r, w)
    if name == "corrupted":
        assert not verify_theorem1(ins).passed and not verify_dual_lemma(ins).passed
    else:
        assert verify_theorem1(ins).passed and verify_dual_lemma(ins).passed


def _corrupted_stack_control(control):
    """A (12,2) instrument whose components are Kraus stacks that fail the
    outcome-trace condition, over the model's true operation: K E_a with
    the two projectors swapped, or the biased model's probe-route stacks.
    Every map holds two Kraus operators, so it is on the stack route."""
    obs = half_split(12, 7)
    if control == "swapped projectors":
        model = random_faithful_model(obs, 2, seed=7, sigma_rank=1)
        stacks = {1.0: model.kraus @ obs.projector(-1.0), -1.0: model.kraus @ obs.projector(1.0)}
    else:
        model = random_biased_model(obs, 2, seed=7)
        stacks = dict(zip(obs.eigenvalues, model.probe_route[0]))
    components = {a: Superoperator.from_kraus(k) for a, k in stacks.items()}
    broken = Instrument(obs, components, total=operation_of(model), validate_invariants=False)
    assert all(superop._on_stack(t) for t in (broken.total, *components.values()))
    return broken


@pytest.mark.parametrize("control", ["swapped projectors", "biased probe route"])
def test_corrupted_kraus_stacks_fail_on_the_stack_route(control):
    broken = _corrupted_stack_control(control)
    for verify in (verify_theorem1, verify_dual_lemma):
        report = verify(broken)
        assert not report.passed
        got, want = report.records, verify(without_stacks(broken)).records
        assert [(r.check, r.outcome, r.passed) for r in got] == [
            (r.check, r.outcome, r.passed) for r in want
        ]
        for r, w in zip(got, want):
            assert abs(r.residual - w.residual) <= 1e-12, (r, w)


@pytest.mark.parametrize("ds", [12, 16, 20])
def test_validation_on_the_stack_route_gives_the_rep_route_residuals(ds):
    ins = instrument_of(random_faithful_model(half_split(ds, 9), 2, seed=9, sigma_rank=1))
    maps = [ins.total, *ins.components.values()]
    assert all(superop._on_stack(t) for t in maps)
    resid = ins.validate()
    images = [superop.unit_image(t) for t in maps]
    # completeness and T*(1) came from the stacks: no rep was written
    assert not any("rep" in vars(t) for t in maps)
    plain = without_stacks(ins)
    assert abs(resid - plain.validate()) <= 1e-15
    for image, t in zip(images, [plain.total, *plain.components.values()]):
        assert matcore.max_abs(image - superop.unit_image(t)) <= 1e-15


@pytest.mark.parametrize("control", ["swapped projectors", "biased probe route"])
def test_both_validation_routes_refuse_a_corrupted_stack_at_one_outcome(control):
    broken = _corrupted_stack_control(control)
    errors = []
    for case in (broken, without_stacks(broken)):
        # the components still sum to the total: the outcome-trace check fails
        with pytest.raises(NotAMeasurementOfAError, match="outcome-trace") as err:
            case.validate()
        errors.append(err.value)
    assert errors[0].outcome is not None
    assert errors[0].outcome == errors[1].outcome
    assert abs(errors[0].residual - errors[1].residual) <= 1e-12


def test_both_validation_routes_refuse_a_probeless_haar_model():
    # a Haar-random U measures no observable: its components T(E_a . E_a)
    # do not sum to T
    obs = half_split(12, 13)
    u = haar_unitary(24, np.random.default_rng(13))
    model = MeasurementModel(12, 2, obs, PureState(ket(2, 0)).to_density(), u)
    ins = operation_instrument(operation_of(model), obs)
    assert all(superop._on_stack(t) for t in (ins.total, *ins.components.values()))
    residuals = []
    for case in (ins, without_stacks(ins)):
        with pytest.raises(NotAMeasurementOfAError, match="do not sum") as err:
            case.validate()
        assert err.value.outcome is None
        residuals.append(err.value.residual)
    assert residuals[0] > 1e-3
    assert abs(residuals[0] - residuals[1]) <= 1e-12


def _stacked_theorem1(ins):
    """``verify_theorem1`` at its defaults with the projected samples formed
    one outcome at a time by numpy's stacked ``@``, (P X) P associated as
    in ``p @ xs @ p``: the arithmetic the verifier's GEMMs must keep."""
    xs = instrument._samples(0, 20, ins.dim)[1:]
    records = []
    for a, p in ins.observable.outcomes:
        lhs = superop.apply_stack(ins.component(a), xs)
        for form, y in (("left", p @ xs), ("right", xs @ p), ("both", p @ xs @ p)):
            resid = matcore.max_abs(lhs - superop.apply_stack(ins.total, y))
            records.append(CheckRecord(f"uniqueness.{form}_projected", a, resid, VERIFY_TOL))
    return records


def _stacked_dual_lemma(ins):
    """``verify_dual_lemma`` at its defaults with the sandwiches of T*(X)
    formed one outcome at a time by numpy's stacked ``@``."""
    unit_xs = instrument._samples(0, 50, ins.dim)
    images = superop.apply_dual_stack(ins.total, unit_xs)
    txs = images[1:]
    records = [CheckRecord(
        "dual.total_unital", None, matcore.max_abs(images[0] - unit_xs[0]), VERIFY_TOL
    )]
    for a, p in ins.observable.outcomes:
        images = superop.apply_dual_stack(ins.component(a), unit_xs)
        records.append(CheckRecord(
            "dual.component_unit_to_projector", a, matcore.max_abs(images[0] - p), VERIFY_TOL
        ))
        for form, y in (("left", p @ txs), ("right", txs @ p), ("both", p @ txs @ p)):
            records.append(
                CheckRecord(f"dual.sandwich_{form}", a, matcore.max_abs(images[1:] - y), VERIFY_TOL)
            )
    return records


def _haar_observable(ranks, seed):
    """Outcomes 0, 1, ... with Haar-random eigenspaces of the given ranks."""
    v = haar_unitary(sum(ranks), np.random.default_rng(seed))
    cuts = np.cumsum((0, *ranks))
    return DiscreteObservable(tuple(
        (float(k), v[:, lo:hi] @ v[:, lo:hi].conj().T)
        for k, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:]))
    ))


def _pinned_instruments(ds, da):
    """The faithful instrument of a (ds, da) model and the three negative
    controls on the same observable: the biased model's probe-route stacks
    over the true operation, the components of a Haar-random U that does
    not measure A, and one component corrupted by 1e-3 X with no stack."""
    obs = _haar_observable((1,) * ds if ds <= 8 else (ds // 2, ds - ds // 2), ds)
    faithful = instrument_of(random_faithful_model(obs, da, seed=ds, sigma_rank=1))
    biased = random_biased_model(obs, da, seed=ds)
    stacks = {a: Superoperator.from_kraus(k) for a, k in zip(obs.eigenvalues, biased.probe_route[0])}
    u = haar_unitary(ds * da, np.random.default_rng(ds))
    haar = MeasurementModel(ds, da, obs, PureState(ket(da, 0)).to_density(), u)
    corrupted = dict(faithful.components)
    corrupted[0.0] = Superoperator(ds, faithful.component(0.0).rep + 1e-3 * np.eye(ds * ds))
    return {
        "faithful": faithful,
        "biased probe": Instrument(obs, stacks, total=operation_of(biased), validate_invariants=False),
        "U not measuring A": operation_instrument(operation_of(haar), obs),
        "corrupted component": Instrument(
            obs, corrupted, total=faithful.total, validate_invariants=False
        ),
    }


@pytest.mark.parametrize("ds, da, on_stack", [
    (2, 4, False), (3, 6, False), (4, 8, False), (8, 16, False), (12, 2, True), (16, 4, True),
])
def test_verifiers_keep_the_stacked_product_arithmetic(ds, da, on_stack):
    # every record of both verifiers against the per-outcome stacked @,
    # bit for bit from d = 4 on, where the GEMMs sum in the same order
    instruments = _pinned_instruments(ds, da)
    assert superop._on_stack(instruments["faithful"].total) is on_stack
    for name, ins in instruments.items():
        for verify, reference in (
            (verify_theorem1, _stacked_theorem1),
            (verify_dual_lemma, _stacked_dual_lemma),
        ):
            got, want = verify(ins).records, reference(ins)
            assert [(r.check, r.outcome, r.passed) for r in got] == [
                (r.check, r.outcome, r.passed) for r in want
            ], name
            for r, w in zip(got, want):
                assert type(r.residual) is float
                if ds >= 4:
                    assert r.residual == w.residual, (name, r, w)
                else:
                    assert abs(r.residual - w.residual) <= 1e-15, (name, r, w)
            assert verify(ins).passed is (name == "faithful")


@pytest.mark.parametrize("ds, da", [(2, 4), (4, 8), (12, 2)])
def test_a_nan_in_a_component_fails_its_records_only(ds, da):
    ins = _pinned_instruments(ds, da)["faithful"]
    rep = ins.component(0.0).rep.copy()
    rep[0, 0] = np.nan
    components = dict(ins.components)
    components[0.0] = Superoperator._built(ds, rep)
    broken = Instrument(ins.observable, components, total=ins.total, validate_invariants=False)
    for verify in (verify_theorem1, verify_dual_lemma):
        records = verify(broken).records
        assert [r.passed for r in records] == [r.outcome != 0.0 for r in records]
        assert all(np.isnan(r.residual) for r in records if r.outcome == 0.0)


@pytest.mark.parametrize("ds, da, theorem1, dual_lemma", [(2, 4, 5, 3), (12, 2, 8, 3)])
def test_the_verifiers_apply_each_map_a_fixed_number_of_times(
    monkeypatch, ds, da, theorem1, dual_lemma
):
    # (2,4): two outcomes taken together, each T_a once and T once per
    # form; (12,2): one outcome at a time, T once per form and outcome.
    # The dual lemma applies T* and each T_a* once.  A per-sample or
    # per-form loop would raise these counts.
    ins = _pinned_instruments(ds, da)["faithful"]
    calls = []
    for name in ("apply_stack", "apply_dual_stack"):
        original = getattr(superop, name)
        monkeypatch.setattr(
            superop, name, lambda s, ms, f=original, n=name: calls.append(n) or f(s, ms)
        )
    verify_theorem1(ins)
    assert calls == ["apply_stack"] * theorem1
    calls.clear()
    verify_dual_lemma(ins)
    assert calls == ["apply_dual_stack"] * dual_lemma


@pytest.mark.parametrize("check", [
    "uniqueness.left_projected",
    "uniqueness.right_projected",
    "uniqueness.both_projected",
    "dual.sandwich_left",
    "dual.sandwich_right",
    "dual.sandwich_both",
])
def test_each_form_detects_corruption(z_obs, z_luders, check):
    eps = 1e-3
    corrupted = dict(z_luders.components)
    corrupted[1.0] = Superoperator.sum_of(2, [corrupted[1.0], Superoperator(2, eps * np.eye(4))])
    broken = Instrument(
        z_obs, corrupted, total=z_luders.total, validate_invariants=False
    )
    verify = verify_theorem1 if check.startswith("uniqueness") else verify_dual_lemma
    by_outcome = {r.outcome: r for r in verify(broken).records if r.check == check}
    # T_a gains eps * X: the corrupted outcome fails, the other still holds
    assert not by_outcome[1.0].passed
    assert eps / 2 < by_outcome[1.0].residual < 20 * eps
    assert by_outcome[-1.0].passed


@pytest.mark.parametrize("dim, trials", [(2, 20), (8, 50), (20, 3)])
def test_random_stack_matches_per_matrix_loop(dim, trials):
    rng = np.random.default_rng(11)
    loop = np.array([
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for _ in range(trials)
    ])
    rng = np.random.default_rng(11)
    stack = _random_stack(rng, trials, dim)
    assert stack.shape == (trials, dim, dim) and stack.dtype == complex
    assert stack.tobytes() == loop.tobytes()
    # the stream continues where the loop left it
    after = rng.standard_normal(3)
    rng = np.random.default_rng(11)
    rng.standard_normal(2 * trials * dim * dim)
    assert np.array_equal(after, rng.standard_normal(3))


def test_building_an_instrument_builds_no_dual_and_rescans_no_rep(monkeypatch):
    obs = observable_from_hermitian(np.diag([1.0, 0.0, -1.0]).astype(complex))
    model = random_faithful_model(obs, 6, seed=4)
    scans = 0
    original = matcore.as_complex_matrix

    def counted(*args, **kwargs):
        nonlocal scans
        scans += 1
        return original(*args, **kwargs)

    # the library has no dual-map builder: both verifiers apply T* and T_a*
    # straight from the Kraus stacks or the reps
    assert not hasattr(superop, "dual") and not hasattr(instrument, "dual")
    monkeypatch.setattr(matcore, "as_complex_matrix", counted)
    instrument_of(model)
    assert scans == 0
    ins = instrument_from_operation(operation_of(model), obs)
    # a stacked T gives its components by from_kraus: nothing to rescan
    assert scans == 0
    assert len(ins.components) == 3
    bare = Superoperator(model.dim_s, operation_of(model).rep)
    scans = 0
    instrument_from_operation(bare, obs)
    # per outcome: one check in sandwich(E_a), where a caller's projector
    # enters; the Choi PSD test reads the Choi matrix of a checked rep as is
    assert scans == 3
    assert verify_dual_lemma(ins).passed and verify_theorem1(ins).passed


def test_validate_writes_no_rep():
    obs = observable_from_hermitian(np.diag([1.0, 0.0, -1.0]).astype(complex))
    ins = instrument_of(random_faithful_model(obs, 6, seed=4))
    # the library's reps are writeable: a write would show in the bytes;
    # a write to read-only copies would raise
    def read_only(t):
        rep = t.rep.copy()
        rep.flags.writeable = False
        return Superoperator(3, rep)

    frozen = Instrument(
        obs,
        {a: read_only(t) for a, t in ins.components.items()},
        total=read_only(ins.total),
        validate_invariants=False,
    )
    for case in (ins, frozen):
        maps = [case.total, *case.components.values()]
        before = [(t.rep.tobytes(), t.rep.flags.writeable) for t in maps]
        assert case.validate() <= VERIFY_TOL
        assert [(t.rep.tobytes(), t.rep.flags.writeable) for t in maps] == before


@pytest.fixture
def fresh_samples():
    instrument._sample_set.cache_clear()
    yield instrument._sample_set
    instrument._sample_set.cache_clear()


def test_verifier_samples_are_drawn_once_per_key(z_luders, fresh_samples, monkeypatch):
    draws = []

    def counted(rng, trials, dim):
        draws.append((trials, dim))
        return _random_stack(rng, trials, dim)

    monkeypatch.setattr(instrument, "_random_stack", counted)
    first = verify_theorem1(z_luders, trials=6, seed=2)
    for _ in range(3):
        assert verify_theorem1(z_luders, trials=6, seed=2) == first
        verify_dual_lemma(z_luders, trials=6, seed=2)
    # both verifiers read the one entry of a key
    assert draws == [(6, 2)]
    assert fresh_samples.cache_info().currsize == 1
    # a new seed, trial count or dimension is a new entry
    three = luders_instrument(observable_from_hermitian(np.diag([1.0, 0.0, -1.0])))
    verify_theorem1(z_luders, trials=6, seed=3)
    verify_theorem1(z_luders, trials=7, seed=2)
    verify_theorem1(three, trials=6, seed=2)
    assert draws == [(6, 2), (6, 2), (7, 2), (6, 3)]
    assert fresh_samples.cache_info().currsize == 4
    verify_dual_lemma(z_luders, trials=8, seed=2)
    assert len(draws) == 5 and fresh_samples.cache_info().currsize == 5
    # an integer seed or trial count of another type is the same key
    verify_theorem1(z_luders, trials=np.int64(6), seed=np.int64(2))
    verify_dual_lemma(z_luders, trials=np.int64(6), seed=np.int64(2))
    assert len(draws) == 5 and fresh_samples.cache_info().currsize == 5


def test_cached_samples_are_read_only_and_bounded(fresh_samples):
    samples = fresh_samples(0, 4, 3)
    # the identity, then the samples of the seed
    assert samples.shape == (5, 3, 3)
    assert np.array_equal(samples[0], np.eye(3))
    assert np.array_equal(samples[1:], _random_stack(np.random.default_rng(0), 4, 3))
    for a in (samples, samples[1:]):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    assert fresh_samples.cache_info().maxsize == 16


def test_verifiers_split_no_sample(z_luders, fresh_samples):
    # T_a is linear, so it maps each sample directly: the four-density-
    # operator split is the tests' reference only, in conftest
    for name in ("_split", "decompose_trace_class", "decompose_stack"):
        assert not hasattr(superop, name), name
    for seed in (0, None):
        assert verify_theorem1(z_luders, seed=seed).passed
        assert verify_dual_lemma(z_luders, seed=seed).passed


def test_a_non_integer_seed_draws_afresh(z_luders, fresh_samples):
    # None, a Generator or a sequence does not name one cache entry
    for verify in (verify_theorem1, verify_dual_lemma):
        assert verify(z_luders, trials=3, seed=None).passed
        by_generator = verify(z_luders, trials=3, seed=np.random.default_rng(2))
        by_sequence = verify(z_luders, trials=3, seed=[2])
        with pytest.raises(TypeError):
            verify(z_luders, trials=3, seed=2.0)
        assert fresh_samples.cache_info().currsize == 0
        assert by_generator == by_sequence == verify(z_luders, trials=3, seed=2)
        fresh_samples.cache_clear()


def test_a_warm_sample_cache_still_fails_a_corrupted_instrument(z_obs, z_luders, fresh_samples):
    corrupted = dict(z_luders.components)
    corrupted[1.0] = Superoperator.sum_of(2, [corrupted[1.0], Superoperator(2, 1e-3 * np.eye(4))])
    broken = Instrument(z_obs, corrupted, total=z_luders.total, validate_invariants=False)

    def records():
        return verify_theorem1(broken).records + verify_dual_lemma(broken).records

    assert verify_theorem1(z_luders).passed and verify_dual_lemma(z_luders).passed
    warm = records()
    fresh_samples.cache_clear()
    cold = records()
    assert warm == cold
    assert not VerificationReport(warm).passed


def test_validate_refuses_a_total_or_component_of_another_dimension(z_obs, z_luders):
    # compared before the completeness sum, whose broadcast of a 9 x 9 rep
    # against 4 x 4 ones would fail with numpy's shape message instead
    with pytest.raises(
        ValueError, match="total operation dimension 3 != observable dimension 2"
    ):
        Instrument(z_obs, z_luders.components, total=identity_map(3))
    wrong = dict(z_luders.components)
    wrong[1.0] = identity_map(3)
    with pytest.raises(ValueError, match="component dimension mismatch"):
        Instrument(z_obs, wrong, total=z_luders.total)


def test_validate_refuses_each_corruption_class():
    # a real diagonal observable with a two-dimensional eigenspace, so that
    # the partial transpose keeps the outcome-trace condition
    obs = observable_from_hermitian(np.diag([1.0, 1.0, -1.0]))
    good = luders_instrument(obs)
    t_up, t_down = good.component(1.0), good.component(-1.0)
    e_up = obs.projector(1.0)

    # a component off by a scalar, its loss moved to the other outcome so
    # that the components still sum to a trace-preserving total
    scaled = Instrument(
        obs,
        {1.0: Superoperator(3, 0.9 * t_up.rep),
         -1.0: Superoperator.sum_of(3, [t_down, Superoperator(3, 0.1 * t_up.rep)])},
        total=good.total, validate_invariants=False,
    )
    with pytest.raises(NotAMeasurementOfAError, match="at outcome 1.0 ") as err:
        scaled.validate()
    assert err.value.outcome == 1.0
    assert abs(err.value.residual - 0.1) <= 1e-15

    # components that do not sum to the claimed total
    with pytest.raises(
        NotAMeasurementOfAError, match="components do not sum to the total operation"
    ) as err:
        Instrument(obs, good.components, total=identity_map(3))
    assert err.value.outcome is None and err.value.residual == 1.0

    # a total that is not trace preserving
    with pytest.raises(ValueError, match="total operation is not trace preserving"):
        Instrument(obs, _scaled(good, 0.9))

    # E X^T E on the eigenspace: the sum is the total, the total is trace
    # preserving and T_a*(1) = E_a, yet the map is not completely positive
    transposed = probed(3, lambda x: e_up @ x.T @ e_up)
    not_cp = Instrument(
        obs, {1.0: transposed, -1.0: t_down}, validate_invariants=False
    )
    assert superop.is_trace_preserving(not_cp.total)
    assert matcore.max_abs(superop.unit_image(transposed) - e_up) == 0.0
    with pytest.raises(
        ValueError,
        match=r"component at outcome 1.0 is not completely positive "
        r"\(Choi min eigenvalue -1.000e\+00\)",
    ):
        not_cp.validate()


def test_validate_refuses_a_choi_matrix_that_is_not_hermitian(z_obs):
    # eps (N X - X N) added to T_{+1} and taken from T_{-1}: the sum is the
    # Lueders total, the commutator is traceless and its dual maps 1 to 0,
    # so completeness, trace preservation and T_a*(1) = E_a all hold, but
    # the map no longer preserves Hermiticity: the Choi matrix of T_{+1}
    # fails the Hermitian test, and that test names the refusal
    e_up, e_down = z_obs.projector(1.0), z_obs.projector(-1.0)

    def shifted(e, eps):
        return probed(
            2, lambda x: e @ x @ e + eps * (PAULI_X @ x - x @ PAULI_X)
        )

    skewed = Instrument(
        z_obs, {1.0: shifted(e_up, 1e-2), -1.0: shifted(e_down, -1e-2)},
        validate_invariants=False,
    )
    assert superop.is_trace_preserving(skewed.total)
    assert matcore.max_abs(skewed.total.rep - luders_instrument(z_obs).total.rep) <= 1e-17
    for a, t in skewed.components.items():
        assert matcore.max_abs(superop.unit_image(t) - z_obs.projector(a)) <= 1e-17
    with pytest.raises(
        ValueError,
        match=r"^component at outcome 1.0 is not completely positive "
        r"\(Choi matrix not Hermitian: \|\|C - C\^dag\|\| = 5.657e-02\)$",
    ):
        skewed.validate()


def test_an_unresolved_conditional_state_is_a_numerical_error():
    # at p = 1e-9 the roundoff of T_a(rho), divided by p, leaves T_a(rho)/p
    # with an eigenvalue below -ROUNDOFF_TOL: no conditional state exists
    # to that precision, which is a numerical failure, not a malformed input
    model, a, psi = small_probability_case(1e-9)
    ins, rho = instrument_of(model), psi.to_density()
    assert outcome_probability(ins, a, rho) == pytest.approx(1e-9, rel=1e-6)
    message = (
        r"outcome 0.0 has probability 1.000e-09, too small to resolve its "
        r"conditional state: T_a\(rho\)/p has min eigenvalue -\S+$"
    )
    for call in (
        lambda: reduce(ins, a, rho),
        lambda: reduce_or_maximally_mixed(ins, a, rho),
        # the product-form cross-check reduces the same image
        lambda: joint_distribution(model, model.observable, rho),
    ):
        with pytest.raises(NumericalConsistencyError, match=message) as err:
            call()
        assert float(err.value.args[0].rsplit(" ", 1)[1]) < -matcore.ROUNDOFF_TOL
    # the same model and direction at p = 1e-6 give a state
    model, a, psi = small_probability_case(1e-6)
    reduced = reduce(instrument_of(model), a, psi.to_density())
    DensityOperator(reduced.matrix)


def test_the_apparatus_rank_decides_which_small_p_resolves():
    # (4,8), seed 1.  With a pure apparatus state T_a(rho)/p has rank 2 of
    # 4, so its roundoff over p fails the PSD test up to about 1e-8; with
    # an apparatus state of rank 2 it has full rank and resolves just above
    # PROBABILITY_FLOOR.  At or below the floor neither has a state.
    def reduced(p, sigma_rank):
        model, a, psi = small_probability_case(p, sigma_rank)
        return reduce(instrument_of(model), a, psi.to_density())

    for p in (1e-11, 1e-9):
        with pytest.raises(NumericalConsistencyError, match="too small to resolve"):
            reduced(p, 1)
    DensityOperator(reduced(1e-8, 1).matrix)
    full = reduced(1e-11, 2)
    DensityOperator(full.matrix)
    assert np.linalg.eigvalsh(full.matrix)[0] == pytest.approx(2.9e-2, abs=1e-3)
    for sigma_rank in (1, 2):
        with pytest.raises(ZeroProbabilityOutcomeError):
            reduced(1e-13, sigma_rank)


def test_a_non_finite_image_is_still_refused(z_obs, z_luders):
    # row 2 of a rep gives the image's (0, 1) entry; on a state with all
    # entries 1/2 it sums to 2 * 1.7e308, while the trace stays finite
    component, total = z_luders.components[1.0].rep.copy(), np.eye(4, dtype=complex)
    component[2] = total[2] = 1.7e308
    corrupted = Instrument(
        z_obs,
        {1.0: Superoperator(2, component), -1.0: z_luders.components[-1.0]},
        total=Superoperator(2, total),
        validate_invariants=False,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        assert outcome_probability(corrupted, 1.0, plus_state()) == pytest.approx(0.5)
        for call in (
            lambda: reduce(corrupted, 1.0, plus_state()),
            lambda: nonselective(corrupted, plus_state()),
        ):
            with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
                call()


def test_built_states_skip_only_the_hermitian_test(z_luders, rng, monkeypatch):
    rho = random_density(rng, 2)
    scans, hermitian, psd_tests, spectra = [], [], [], []
    as_complex_matrix, hermitian_stack = matcore.as_complex_matrix, matcore.hermitian_stack
    psd_refusal, eigvalsh = matcore.psd_refusal, np.linalg.eigvalsh

    def counted_scan(m):
        scans.append(m)
        return as_complex_matrix(m)

    def counted_hermitian(ms):
        hermitian.append(ms)
        return hermitian_stack(ms)

    monkeypatch.setattr(matcore, "as_complex_matrix", counted_scan)
    monkeypatch.setattr(matcore, "hermitian_stack", counted_hermitian)
    monkeypatch.setattr(matcore, "psd_refusal", lambda h: psd_tests.append(h) or psd_refusal(h))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: spectra.append(h) or eigvalsh(h))
    states = []
    for build in (
        lambda: reduce(z_luders, 1.0, rho),
        lambda: nonselective(z_luders, rho),
        lambda: maximally_mixed(3),
    ):
        # one PSD test per built state, on the state's own matrix, and an
        # accepted state takes no eigendecomposition
        psd_tests.clear()
        states.append(build())
        assert len(psd_tests) == 1 and psd_tests[0] is states[-1].matrix
        assert spectra == []
    psd_tests.clear()
    assert outcome_probability(z_luders, 1.0, rho) > 0
    assert psd_tests == []
    # the checked input is not rescanned, and no built state re-tests
    # its Hermitian part
    assert scans == [] and hermitian == []
    monkeypatch.undo()
    for state in states:
        DensityOperator(state.matrix)
        ok, h, _ = matcore.hermitian_stack(state.matrix[None])
        assert ok[0] and np.array_equal(h[0], state.matrix)


def test_apply_reads_a_state_with_the_bits_of_its_matrix(z_luders, rng):
    rho = random_density(rng, 2)
    t = z_luders.component(1.0)
    by_state, by_matrix = apply(t, rho), apply(t, rho.matrix)
    assert by_state.tobytes() == by_matrix.tobytes()
    by_rep = (t.rep @ rho.matrix.reshape(-1, order="F")).reshape(2, 2, order="F")
    assert by_state.tobytes() == by_rep.tobytes()
    with pytest.raises(ValueError, match="dimension mismatch"):
        apply(identity_map(3), rho)
