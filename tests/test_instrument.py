import contextlib

import numpy as np
import pytest

from reduction_lab import instrument, matcore, superop
from reduction_lab.errors import (
    NotAMeasurementOfAError,
    NotCompletelyPositiveError,
    NumericalConsistencyError,
    ZeroProbabilityOutcomeError,
)
from reduction_lab.instrument import (
    VERIFY_TOL,
    CheckRecord,
    Instrument,
    VerificationReport,
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
from reduction_lab.superop import ChoiMatrix, Superoperator, apply, choi, kraus_from_choi

from conftest import (
    choi_blocks,
    dual,
    four_state_split,
    half_split,
    identity_map,
    plus_state,
    random_density,
    recombine,
    rep_images,
    small_probability_case,
)


@pytest.fixture
def z_obs():
    return observable_from_hermitian(PAULI_Z)


@pytest.fixture
def z_luders(z_obs):
    return luders_instrument(z_obs)


def _scaled(ins, c):
    """The components of ``ins``, each with its rep times ``c``: its Kraus
    stack times sqrt(c)."""
    return {a: Superoperator.from_kraus(np.sqrt(c) * t.kraus) for a, t in ins.components.items()}


def _plus_eps_identity(t, eps):
    """``t`` plus eps times the identity map, the map of ``t``'s stack and
    sqrt(eps) 1: its rep gains eps 1."""
    return Superoperator.sum_of(t.dim, [t, Superoperator.sandwich(np.sqrt(eps) * np.eye(t.dim))])


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
    # the sandwich by K = [[c, -c], [0, 0]] with c = 1e200: row 0 of its
    # rep, which gives the image's (0, 0) entry, is c^2 [1, -1, -1, 1] and
    # overflows to [inf, -inf, -inf, inf], so on a state with all entries
    # 1/2 that entry, and the trace, is +inf plus -inf
    k = np.array([[1e200, -1e200], [0.0, 0.0]])
    overflowing = Instrument(
        z_obs, {1.0: Superoperator.sandwich(k), -1.0: z_luders.components[-1.0]},
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
    halved = Superoperator.from_kraus(np.sqrt(0.5) * luders_instrument(z_obs).total.kraus)
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
    report = verify_theorem1(z_luders, seed=3)
    assert report.passed
    assert report.max_residual <= 1e-12


def test_verify_theorem1_trivial_observable():
    trivial = DiscreteObservable(((1.0, np.eye(2, dtype=complex)),))
    ins = luders_instrument(trivial)
    assert verify_theorem1(ins).passed


def test_verify_theorem1_detects_corruption(z_obs, z_luders):
    eps = 1e-3
    corrupted = dict(z_luders.components)
    corrupted[1.0] = _plus_eps_identity(corrupted[1.0], eps)
    broken = Instrument(
        z_obs, corrupted, total=z_luders.total, validate_invariants=False
    )
    report = verify_theorem1(broken, seed=0)
    assert not report.passed
    # residual scales with eps times the sample magnitude
    assert eps / 2 < report.max_residual < 20 * eps


def test_verify_dual_lemma_passes_luders(z_luders):
    report = verify_dual_lemma(z_luders, seed=0)
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


def _loop_samples(seed, d, count):
    """The first ``count`` Ginibre samples of ``seed``, one matrix at a time."""
    rng = np.random.default_rng(seed)
    return [
        rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for _ in range(count)
    ]


def _loop_theorem1(ins, seed, tol):
    """Per-sample reference for verify_theorem1: every (outcome, sample)
    pair through the four-state split and apply, over the first 20
    samples of the seed."""
    samples = _loop_samples(seed, ins.dim, 20)
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


def _loop_dual_lemma(ins, seed, tol):
    """Per-sample reference for verify_dual_lemma, over the first 50
    samples of the seed."""
    one = np.eye(ins.dim, dtype=complex)

    def dual_apply(s, x):
        return rep_images(dual(s), x[None])[0]

    records = [CheckRecord(
        "dual.total_unital", None, matcore.max_abs(dual_apply(ins.total, one) - one), tol
    )]
    samples = _loop_samples(seed, ins.dim, 50)
    for a, p in ins.observable.outcomes:
        t_a = ins.component(a)
        records.append(CheckRecord(
            "dual.component_unit_to_projector", a,
            matcore.max_abs(dual_apply(t_a, one) - p), tol,
        ))
        res = {"left": 0.0, "right": 0.0, "both": 0.0}
        for x in samples:
            lhs = dual_apply(t_a, x)
            tx = dual_apply(ins.total, x)
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
    corrupted[1.0] = _plus_eps_identity(corrupted[1.0], 1e-3)
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
        (verifier, reference, seed, tol)
        for verifier, reference in (
            (verify_theorem1, _loop_theorem1), (verify_dual_lemma, _loop_dual_lemma)
        )
        for seed, tol in ((0, VERIFY_TOL), (5, 1e-6), (11, 1e-6))
    ]
    for verifier, reference, seed, tol in cases:
        got = verifier(ins, seed=seed, tol=tol).records
        want = reference(ins, seed, tol)
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
def test_corrupted_kraus_stacks_fail_on_the_stack_route(control, rep_route):
    broken = _corrupted_stack_control(control)
    for verify in (verify_theorem1, verify_dual_lemma):
        report = verify(broken)
        assert not report.passed
        # the same maps through their reps
        with rep_route():
            want = verify(broken).records
        got = report.records
        assert [(r.check, r.outcome, r.passed) for r in got] == [
            (r.check, r.outcome, r.passed) for r in want
        ]
        for r, w in zip(got, want):
            assert abs(r.residual - w.residual) <= 1e-12, (r, w)


@pytest.mark.parametrize("ds", [12, 16, 20])
def test_validation_on_the_stack_route_gives_the_rep_route_residuals(ds, rep_route):
    ins = instrument_of(random_faithful_model(half_split(ds, 9), 2, seed=9, sigma_rank=1))
    maps = [ins.total, *ins.components.values()]
    assert all(superop._on_stack(t) for t in maps)
    resid = ins.validate()
    images = [superop.unit_image(t) for t in maps]
    # completeness and T*(1) came from the stacks: no rep was written
    assert not any("rep" in vars(t) for t in maps)
    with rep_route():
        assert abs(resid - ins.validate()) <= 1e-15
        for image, t in zip(images, maps):
            assert matcore.max_abs(image - superop.unit_image(t)) <= 1e-15
    assert all("rep" in vars(t) for t in maps)


@pytest.mark.parametrize("control", ["swapped projectors", "biased probe route"])
def test_both_validation_routes_refuse_a_corrupted_stack_at_one_outcome(control, rep_route):
    broken = _corrupted_stack_control(control)
    errors = []
    for route in (contextlib.nullcontext, rep_route):
        # the components still sum to the total: the outcome-trace check fails
        with route(), pytest.raises(NotAMeasurementOfAError, match="outcome-trace") as err:
            broken.validate()
        errors.append(err.value)
    assert errors[0].outcome is not None
    assert errors[0].outcome == errors[1].outcome
    assert abs(errors[0].residual - errors[1].residual) <= 1e-12


def test_both_validation_routes_refuse_a_probeless_haar_model(rep_route):
    # a Haar-random U measures no observable: its components T(E_a . E_a)
    # do not sum to T
    obs = half_split(12, 13)
    u = haar_unitary(24, np.random.default_rng(13))
    model = MeasurementModel(12, 2, obs, PureState(ket(2, 0)).to_density(), u)
    ins = operation_instrument(operation_of(model), obs)
    assert all(superop._on_stack(t) for t in (ins.total, *ins.components.values()))
    residuals = []
    for route in (contextlib.nullcontext, rep_route):
        with route(), pytest.raises(NotAMeasurementOfAError, match="do not sum") as err:
            ins.validate()
        assert err.value.outcome is None
        residuals.append(err.value.residual)
    assert residuals[0] > 1e-3
    assert abs(residuals[0] - residuals[1]) <= 1e-12


def _stacked_theorem1(ins):
    """``verify_theorem1`` at its defaults with the projected samples formed
    one outcome at a time by numpy's stacked ``@``, (P X) P associated as
    in ``p @ xs @ p``: the arithmetic the verifier's GEMMs must keep."""
    xs = instrument._samples(0, ins.dim)[1:21]
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
    unit_xs = instrument._samples(0, ins.dim)
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
    not measure A, and one component corrupted by 1e-3 X, the map of its
    stack and sqrt(1e-3) 1."""
    obs = _haar_observable((1,) * ds if ds <= 8 else (ds // 2, ds - ds // 2), ds)
    faithful = instrument_of(random_faithful_model(obs, da, seed=ds, sigma_rank=1))
    biased = random_biased_model(obs, da, seed=ds)
    stacks = {a: Superoperator.from_kraus(k) for a, k in zip(obs.eigenvalues, biased.probe_route[0])}
    u = haar_unitary(ds * da, np.random.default_rng(ds))
    haar = MeasurementModel(ds, da, obs, PureState(ket(da, 0)).to_density(), u)
    corrupted = dict(faithful.components)
    corrupted[0.0] = _plus_eps_identity(faithful.component(0.0), 1e-3)
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
    ks = ins.component(0.0).kraus.copy()
    ks[0, 0, 0] = np.nan
    components = dict(ins.components)
    # past from_kraus's finite scan, as a computed stack would be
    components[0.0] = Superoperator._from_stack(ks)
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
    corrupted[1.0] = _plus_eps_identity(corrupted[1.0], eps)
    broken = Instrument(
        z_obs, corrupted, total=z_luders.total, validate_invariants=False
    )
    verify = verify_theorem1 if check.startswith("uniqueness") else verify_dual_lemma
    by_outcome = {r.outcome: r for r in verify(broken).records if r.check == check}
    # T_a gains eps * X: the corrupted outcome fails, the other still holds
    assert not by_outcome[1.0].passed
    assert eps / 2 < by_outcome[1.0].residual < 20 * eps
    assert by_outcome[-1.0].passed


@pytest.mark.parametrize("dim, seed", [(2, 20), (8, 50), (20, 3)])
def test_random_stack_matches_per_matrix_loop(dim, seed, fresh_samples, drawn):
    stack = fresh_samples(seed, dim)
    # default_rng(seed) is this generator; made directly, it is not recorded
    rng = np.random.Generator(np.random.PCG64(seed))
    loop = np.array([np.eye(dim)] + [
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for _ in range(50)
    ])
    assert stack.shape == (51, dim, dim) and stack.dtype == complex
    assert stack.tobytes() == loop.tobytes()
    # the stream continues where the loop left it
    assert [key for key, _ in drawn] == [seed]
    assert np.array_equal(drawn[0][1].standard_normal(3), rng.standard_normal(3))


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
    # T gives its components by from_kraus: nothing to rescan
    assert scans == 0
    assert len(ins.components) == 3
    assert verify_dual_lemma(ins).passed and verify_theorem1(ins).passed


def test_validate_writes_no_rep():
    obs = observable_from_hermitian(np.diag([1.0, 0.0, -1.0]).astype(complex))
    ins = instrument_of(random_faithful_model(obs, 6, seed=4))
    # the library's reps are writeable: a write would show in the bytes;
    # a write to read-only copies would raise
    def read_only(t):
        s = Superoperator.from_kraus(t.kraus)
        s.rep.flags.writeable = False
        return s

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
    instrument._samples.cache_clear()
    yield instrument._samples
    instrument._samples.cache_clear()


@pytest.fixture
def drawn(monkeypatch):
    """The ``(seed, generator)`` pairs of every ``np.random.default_rng``
    call during a test, in order: one per draw of verifier samples."""
    original, calls = np.random.default_rng, []

    def recorded(seed=None):
        calls.append((seed, original(seed)))
        return calls[-1][1]

    monkeypatch.setattr(np.random, "default_rng", recorded)
    return calls


def test_verifier_samples_are_drawn_once_per_key(z_luders, fresh_samples, drawn):
    first = verify_theorem1(z_luders, seed=2)
    for _ in range(3):
        assert verify_theorem1(z_luders, seed=2) == first
        verify_dual_lemma(z_luders, seed=2)
    # both verifiers read the one entry of a key
    assert [key for key, _ in drawn] == [2]
    assert fresh_samples.cache_info().currsize == 1
    # a new seed or dimension is a new entry
    three = luders_instrument(observable_from_hermitian(np.diag([1.0, 0.0, -1.0])))
    verify_theorem1(z_luders, seed=3)
    verify_dual_lemma(three, seed=2)
    assert [key for key, _ in drawn] == [2, 3, 2]
    assert fresh_samples.cache_info().currsize == 3
    # an integer seed of another type is the same key
    for seed in (np.int64(2), np.int64(3)):
        verify_theorem1(z_luders, seed=seed)
        verify_dual_lemma(z_luders, seed=seed)
    verify_theorem1(three, seed=np.int64(2))
    assert len(drawn) == 3 and fresh_samples.cache_info().currsize == 3


def test_cached_samples_are_read_only_and_bounded(fresh_samples):
    # the counts are fixed: fewer samples would loosen both checks
    assert (instrument.THEOREM1_SAMPLES, instrument.DUAL_SAMPLES) == (20, 50)
    samples = fresh_samples(0, 3)
    # the identity, then the samples of the seed
    assert samples.shape == (51, 3, 3)
    assert np.array_equal(samples[0], np.eye(3))
    for a in (samples, samples[1:]):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    assert fresh_samples.cache_info().maxsize == 16


def test_verifiers_split_no_sample(z_luders, fresh_samples, monkeypatch):
    # T_a is linear, so it maps each sample directly: the four-density-
    # operator split is the tests' reference only, in conftest
    for name in ("_split", "decompose_trace_class", "decompose_stack"):
        assert not hasattr(superop, name), name
    read = []
    for name in ("apply_stack", "apply_dual_stack"):
        original = getattr(superop, name)

        def recorded(s, ms, original=original):
            read.append(ms)
            return original(s, ms)

        monkeypatch.setattr(superop, name, recorded)
    assert verify_theorem1(z_luders, seed=4).passed
    theorem1 = read[0]
    read.clear()
    assert verify_dual_lemma(z_luders, seed=4).passed
    # Theorem 1 maps rows 1-20 of the very stack the dual lemma maps
    stack = read[0]
    assert stack is fresh_samples(4, 2) and stack.shape == (51, 2, 2)
    assert theorem1.base is stack and theorem1.tobytes() == stack[1:21].tobytes()


def test_a_non_integer_seed_is_refused_before_the_cache(z_luders, fresh_samples):
    seeds = (None, 2.0, np.random.default_rng(2), [2])
    for verify in (verify_theorem1, verify_dual_lemma):
        for seed in seeds:
            with pytest.raises(TypeError):
                verify(z_luders, seed=seed)
    assert fresh_samples.cache_info().currsize == 0
    # 2.0 == 2 as a cache key: a warm entry of 2 must not serve it
    verify_theorem1(z_luders, seed=2)
    for verify in (verify_theorem1, verify_dual_lemma):
        for seed in seeds:
            with pytest.raises(TypeError):
                verify(z_luders, seed=seed)
    assert fresh_samples.cache_info().currsize == 1


def test_a_warm_sample_cache_still_fails_a_corrupted_instrument(z_obs, z_luders, fresh_samples):
    corrupted = dict(z_luders.components)
    corrupted[1.0] = _plus_eps_identity(corrupted[1.0], 1e-3)
    broken = Instrument(z_obs, corrupted, total=z_luders.total, validate_invariants=False)

    def records():
        return verify_theorem1(broken).records + verify_dual_lemma(broken).records

    assert verify_theorem1(z_luders).passed and verify_dual_lemma(z_luders).passed
    warm = records()
    fresh_samples.cache_clear()
    cold = records()
    assert warm == cold
    assert not VerificationReport(warm).passed


def test_a_dimension_mismatch_names_both_dimensions(z_obs, z_luders):
    rho = maximally_mixed(3)
    for call in (
        lambda: outcome_probability(z_luders, 1.0, rho),
        lambda: reduce(z_luders, 1.0, rho),
        lambda: nonselective(z_luders, rho),
    ):
        with pytest.raises(ValueError, match="^dimension mismatch: state dim 3, instrument dim 2$"):
            call()
    with pytest.raises(
        ValueError, match="^dimension mismatch: operation dim 3, observable dim 2$"
    ):
        instrument_from_operation(identity_map(3), z_obs)
    with pytest.raises(
        ValueError, match="^dimension mismatch: observable dim 2, state dim 3$"
    ):
        born_probability(z_obs, 1.0, rho)
    model = random_faithful_model(z_obs, 4, seed=1)
    for second, state, message in (
        (observable_from_hermitian(np.diag([1.0, 0.0, -1.0])), maximally_mixed(2),
         "second observable dim 3"),
        (z_obs, rho, "state dim 3"),
    ):
        with pytest.raises(ValueError, match=f"^dimension mismatch: {message}, model dim_s 2$"):
            joint_distribution(model, second, state)


def test_validate_refuses_a_total_or_component_of_another_dimension(z_obs, z_luders):
    # compared before the completeness sum, whose broadcast of a 9 x 9 rep
    # against 4 x 4 ones would fail with numpy's shape message instead
    with pytest.raises(
        ValueError, match="total operation dimension 3 != observable dimension 2"
    ):
        Instrument(z_obs, z_luders.components, total=identity_map(3))
    wrong = dict(z_luders.components)
    wrong[1.0] = identity_map(3)
    with pytest.raises(
        ValueError, match="^component dimension mismatch: outcome 1.0 dim 3, observable dim 2$"
    ):
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
        {1.0: Superoperator.from_kraus(np.sqrt(0.9) * t_up.kraus),
         -1.0: Superoperator.sum_of(3, [t_down, Superoperator.from_kraus(np.sqrt(0.1) * t_up.kraus)])},
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

    # E X^T E on the eigenspace would keep completeness, trace preservation
    # and T_a*(1) = E_a, yet it is not completely positive: no map can be
    # built from it, and its Choi matrix is refused where it would come in
    choi_up = choi_blocks(3, lambda x: e_up @ x.T @ e_up)
    with pytest.raises(
        NotCompletelyPositiveError,
        match=r"^Choi matrix is not positive semidefinite "
        r"\(most negative eigenvalue -1.000e\+00\)$",
    ):
        kraus_from_choi(ChoiMatrix(3, choi_up))


def test_a_choi_matrix_that_is_not_hermitian_is_refused(z_obs):
    # eps (N X - X N) added to T_{+1} and taken from T_{-1} would keep the
    # Lueders total, and the commutator is traceless with a dual that maps
    # 1 to 0, so completeness, trace preservation and T_a*(1) = E_a would
    # all hold, but the map no longer preserves Hermiticity: the Choi
    # matrix of T_{+1} fails the Hermitian test, and that test names the
    # refusal where the Choi matrix would come in
    e_up, e_down = z_obs.projector(1.0), z_obs.projector(-1.0)

    def shifted(e, eps):
        return choi_blocks(2, lambda x: e @ x @ e + eps * (PAULI_X @ x - x @ PAULI_X))

    up, down = shifted(e_up, 1e-2), shifted(e_down, -1e-2)
    assert matcore.max_abs(up + down - choi(luders_instrument(z_obs).total).matrix) <= 1e-17
    with pytest.raises(
        ValueError,
        match=r"^matrix is not Hermitian within tolerance "
        r"\(\|\|m - m\^dag\|\| = 5.657e-02\)$",
    ):
        kraus_from_choi(ChoiMatrix(2, up))


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
    # the sandwich by 1e200 1 overflows its rep, and every entry of the
    # image is non-finite.  A Kraus-form image is PSD, |X_01|^2 <= X_00 X_11,
    # so no finite trace comes with a non-finite entry: the band check
    # refuses the probability, and the finite scan the nonselective state
    huge = Superoperator.sandwich(1e200 * np.eye(2))
    corrupted = Instrument(
        z_obs, {1.0: huge, -1.0: z_luders.components[-1.0]}, total=huge,
        validate_invariants=False,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        for call in (outcome_probability, reduce):
            with pytest.raises(NumericalConsistencyError, match=r"^probability (inf|nan) outside"):
                call(corrupted, 1.0, plus_state())
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            nonselective(corrupted, plus_state())


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
