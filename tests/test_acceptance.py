"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines on the terminal.
"""

import json
import time

import numpy as np
import pytest

from reduction_lab import matcore
from reduction_lab import serialization as ser
from reduction_lab.cli import main as cli_main
from reduction_lab.errors import NotAMeasurementOfAError
from reduction_lab.instrument import (
    luders_instrument,
    reduce,
    verify_dual_lemma,
    verify_theorem1,
)
from reduction_lab.matcore import dagger
from reduction_lab.models import (
    MeasurementModel,
    haar_unitary,
    instrument_of,
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
    born_probability,
    ket,
    observable_from_hermitian,
    projector_onto,
)
from reduction_lab.scenarios import joint_distribution, nonuniqueness_exhibit
from reduction_lab.superop import apply, choi

from conftest import (
    is_psd,
    marginal_first,
    matrix_unit,
    plus_state,
    random_density,
    random_hermitian,
    tensor,
    trace_norm,
)


def report(criterion: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}")
    assert ok


def instrument_diff(i1, i2):
    return max(
        matcore.max_abs(i1.component(a).rep - i2.component(a).rep)
        for a in i1.observable.eigenvalues
    )


def _observable_for(rng, dim_s, degenerate):
    if degenerate and dim_s >= 3:
        vals = np.arange(dim_s, dtype=float)
        vals[1] = vals[0]  # one repeated eigenvalue
        u = haar_unitary(dim_s, rng)
        return observable_from_hermitian(u @ np.diag(vals) @ dagger(u))
    return observable_from_hermitian(random_hermitian(rng, dim_s))


@pytest.fixture(scope="module")
def model_corpus():
    """>= 100 faithful models spanning object/apparatus dims, pure and
    mixed apparatus states, degenerate and nondegenerate observables."""
    rng = np.random.default_rng(2024)
    models = []
    seed = 0
    for dim_s in (2, 3, 4):
        for dim_a in (2, 3, 4, 5, 6):
            for k in range(8):
                seed += 1
                obs = _observable_for(rng, dim_s, degenerate=(k % 2 == 0))
                if dim_a < len(obs.outcomes):
                    obs = _observable_for(rng, dim_s, degenerate=True)
                if dim_a < len(obs.outcomes):
                    continue
                n_out = len(obs.outcomes)
                min_sector = dim_a // n_out
                sigma_rank = 1 if k % 3 == 0 else min(1 + k % 3, min_sector)
                models.append(
                    random_faithful_model(obs, dim_a, seed=seed, sigma_rank=sigma_rank)
                )
    assert len(models) >= 100
    ranks = {
        int(round(np.linalg.matrix_rank(m.apparatus_state.matrix, tol=1e-10)))
        for m in models
    }
    assert 1 in ranks and any(r > 1 for r in ranks)
    return models


@pytest.fixture(scope="module")
def instrument_corpus(model_corpus):
    return [(m, instrument_of(m)) for m in model_corpus]


def test_criterion_1_luders_recovery(rng):
    start = time.perf_counter()
    observables = [
        observable_from_hermitian(PAULI_Z),
        observable_from_hermitian(PAULI_X),
        observable_from_hermitian(random_hermitian(rng, 3)),
        observable_from_hermitian(random_hermitian(rng, 4)),
    ]
    worst = 0.0
    for obs in observables:
        model = von_neumann_model(obs, obs.dim)
        worst = max(worst, instrument_diff(instrument_of(model), luders_instrument(obs)))
    z_model = von_neumann_model(observable_from_hermitian(PAULI_Z), 2)
    reduced = reduce(instrument_of(z_model), 1.0, plus_state())
    reduce_ok = (
        matcore.max_abs(reduced.matrix - projector_onto(ket(2, 0))) <= 1e-12
    )
    elapsed = time.perf_counter() - start
    report(
        f"criterion 1: Luders recovery (worst component diff {worst:.2e}, "
        f"reduction exact, {elapsed:.2f}s)",
        worst <= 1e-10 and reduce_ok and elapsed < 1.0,
    )


def test_criterion_2_cross_route_equivalence(model_corpus):
    start = time.perf_counter()
    worst_diff = 0.0
    worst_th1 = 0.0
    for k, model in enumerate(model_corpus):
        i_dilation = instrument_of(model)
        i_probe = probe_instrument_of(model)
        worst_diff = max(worst_diff, instrument_diff(i_dilation, i_probe))
        worst_th1 = max(
            worst_th1, verify_theorem1(i_dilation, seed=k).max_residual
        )
    elapsed = time.perf_counter() - start
    report(
        f"criterion 2: cross-route equivalence on {len(model_corpus)} models "
        f"(worst diff {worst_diff:.2e}, worst uniqueness residual "
        f"{worst_th1:.2e}, {elapsed:.1f}s)",
        worst_diff <= 1e-9 and worst_th1 <= 1e-9 and elapsed < 60.0,
    )


def test_criterion_3_davies_lewis_axioms(instrument_corpus):
    rng = np.random.default_rng(7)
    worst_sum = worst_trace = worst_outcome_trace = 0.0
    choi_ok = True
    for model, ins in instrument_corpus:
        d = ins.dim
        total = sum(t.rep for t in ins.components.values())
        worst_sum = max(worst_sum, matcore.max_abs(total - ins.total.rep))
        states = [matrix_unit(d, i, j) for i in range(d) for j in range(d)]
        states += [random_density(rng, d).matrix for _ in range(20)]
        for x in states:
            tx = apply(ins.total, x)
            worst_trace = max(worst_trace, abs(np.trace(tx) - np.trace(x)))
            for a, p in ins.observable.outcomes:
                lhs = np.trace(apply(ins.component(a), x))
                worst_outcome_trace = max(
                    worst_outcome_trace, abs(lhs - np.trace(p @ x))
                )
        choi_ok = choi_ok and all(
            is_psd(choi(t).matrix) for t in ins.components.values()
        )
    report(
        f"criterion 3: Davies-Lewis axioms (sum {worst_sum:.2e}, trace "
        f"{worst_trace:.2e}, outcome-trace {worst_outcome_trace:.2e}, Choi PSD)",
        worst_sum <= 1e-9
        and worst_trace <= 1e-10
        and worst_outcome_trace <= 1e-10
        and choi_ok,
    )


def test_criterion_4_dual_lemma(instrument_corpus):
    worst = 0.0
    for k, (model, ins) in enumerate(instrument_corpus):
        rep = verify_dual_lemma(ins, seed=k)
        worst = max(worst, rep.max_residual)
    report(
        f"criterion 4: dual-map lemma (worst residual {worst:.2e})",
        worst <= 1e-9,
    )


def test_criterion_5_probe_detection_independence():
    rng = np.random.default_rng(31)
    worst = 0.0
    for k in range(25):
        dim_s = 2 + k % 3
        obs = observable_from_hermitian(random_hermitian(rng, dim_s))
        dim_a = len(obs.outcomes) + k % 3
        model = random_faithful_model(obs, dim_a, seed=1000 + k)
        base = instrument_of(model)
        for _ in range(5):
            v = haar_unitary(dim_a, rng)
            rotated = MeasurementModel(
                model.dim_s,
                model.dim_a,
                model.observable,
                model.apparatus_state,
                tensor(np.eye(dim_s), v) @ model.unitary,
                probe=DiscreteObservable(
                    tuple((a, v @ q @ dagger(v)) for a, q in model.probe.outcomes)
                ),
            )
            worst = max(worst, instrument_diff(base, instrument_of(rotated)))
    report(
        f"criterion 5: probe-detection independence (worst change {worst:.2e})",
        worst <= 1e-9,
    )


def test_criterion_6_negative_control():
    rng = np.random.default_rng(55)
    ok = True
    smallest = np.inf
    for k in range(20):
        dim_s = 2 + k % 3
        obs = observable_from_hermitian(random_hermitian(rng, dim_s))
        dim_a = len(obs.outcomes) + k % 2
        biased = random_biased_model(obs, dim_a, seed=2000 + k)
        rep = probe_consistency(biased)
        smallest = min(smallest, rep.max_residual)
        ok = ok and not rep.passed and rep.max_residual >= 0.1
        try:
            instrument_of(biased)
            ok = False
        except NotAMeasurementOfAError:
            pass
    report(
        f"criterion 6: biased models rejected (smallest residual {smallest:.2f})",
        ok,
    )


def test_criterion_7_nonuniqueness_exhibit():
    ex = nonuniqueness_exhibit(2)
    mixed_ok = matcore.max_abs(ex.mixed_state.matrix - np.eye(2) / 2) <= 1e-12
    reassembly_ok = all(
        matcore.max_abs(
            sum(w * projector_onto(s.vector) for w, s in zip(weights, states))
            - ex.mixed_state.matrix
        )
        <= 1e-12
        for weights, states in ex.decompositions
    )
    (_, phi), (_, eta) = ex.decompositions
    min_dist = min(
        0.5 * trace_norm(projector_onto(p.vector) - projector_onto(e.vector))
        for p in phi
        for e in eta
    )
    comp_ok = (
        matcore.max_abs(ex.component_images[1.0] - 0.5 * projector_onto(ket(2, 0)))
        <= 1e-10
        and matcore.max_abs(
            ex.component_images[-1.0] - 0.5 * projector_onto(ket(2, 1))
        )
        <= 1e-10
    )
    report(
        f"criterion 7: non-uniqueness exhibit (set distance {min_dist:.3f})",
        mixed_ok and reassembly_ok and min_dist >= 0.5 and comp_ok,
    )


def test_criterion_8_joint_statistics():
    rng = np.random.default_rng(77)
    z_model = von_neumann_model(observable_from_hermitian(PAULI_Z), 2)
    jd = joint_distribution(z_model, observable_from_hermitian(PAULI_X), plus_state())
    uniform_ok = all(abs(p - 0.25) <= 1e-10 for p in jd.table.values())

    worst_product = worst_marginal = worst_affinity = 0.0
    for k in range(50):
        dim_s = 2 + k % 3
        obs = observable_from_hermitian(random_hermitian(rng, dim_s))
        model = random_faithful_model(obs, len(obs.outcomes) + 1, seed=3000 + k)
        second = observable_from_hermitian(random_hermitian(rng, dim_s))
        ins = instrument_of(model)
        r1, r2 = random_density(rng, dim_s), random_density(rng, dim_s)
        rho = DensityOperator(0.4 * r1.matrix + 0.6 * r2.matrix)
        jd = joint_distribution(model, second, rho)
        jd1 = joint_distribution(model, second, r1)
        jd2 = joint_distribution(model, second, r2)
        for a in obs.eigenvalues:
            p_a = born_probability(obs, a, rho)
            worst_marginal = max(worst_marginal, abs(marginal_first(jd, a) - p_a))
            for x in second.eigenvalues:
                worst_affinity = max(
                    worst_affinity,
                    abs(
                        jd.probability(a, x)
                        - 0.4 * jd1.probability(a, x)
                        - 0.6 * jd2.probability(a, x)
                    ),
                )
                if p_a > 1e-12:
                    product = p_a * float(
                        np.real(
                            np.trace(
                                second.projector(x) @ reduce(ins, a, rho).matrix
                            )
                        )
                    )
                    worst_product = max(
                        worst_product, abs(jd.probability(a, x) - product)
                    )
    report(
        f"criterion 8: joint statistics (product {worst_product:.2e}, "
        f"marginal {worst_marginal:.2e}, affinity {worst_affinity:.2e})",
        uniform_ok
        and worst_product <= 1e-10
        and worst_marginal <= 1e-10
        and worst_affinity <= 1e-10,
    )


def test_criterion_9_cli_contract(tmp_path):
    obs = observable_from_hermitian(PAULI_Z)
    faithful = tmp_path / "faithful.json"
    faithful.write_text(
        ser.dumps(ser.model_to_json(random_faithful_model(obs, 3, seed=11)))
    )
    biased = tmp_path / "biased.json"
    biased.write_text(
        ser.dumps(ser.model_to_json(random_biased_model(obs, 3, seed=11)))
    )
    ok = cli_main(["check-model", str(faithful), "--out", str(tmp_path / "a.json")]) == 0
    ok = ok and cli_main(
        ["check-model", str(biased), "--out", str(tmp_path / "b.json")]
    ) == 1

    # byte-identical round trip
    text = faithful.read_text()
    reparsed = ser.model_from_json(json.loads(text))
    ok = ok and ser.dumps(ser.model_to_json(reparsed)) == text

    # deterministic reports for a fixed seed
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    cli_main(["check-model", str(faithful), "--seed", "5", "--out", str(out1)])
    cli_main(["check-model", str(faithful), "--seed", "5", "--out", str(out2)])
    ok = ok and out1.read_text() == out2.read_text()
    report("criterion 9: CLI contract (exit codes, round trip, determinism)", ok)
