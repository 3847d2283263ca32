"""Property tests: the paper's identities over generated models.

Each faithful example draws an observable on d_s = 2-4 with degenerate
outcome multiplicities, the rank of the apparatus state and d_a, and builds
a faithful model from them.  The reduction examples add an outcome and a
state of rank 1 or 2 that gives it a probability from just above
``PROBABILITY_FLOOR`` to 1/2.  Each von Neumann example draws a
nondegenerate observable and d_a, and builds a pointer-basis model with a
Haar pointer basis, so the probe projectors Q_a are not diagonal.  The
PSD-edge examples are Hermitian matrices, states and Choi matrices whose
lowest eigenvalue sits on either side of the two bounds of
``matcore.psd_refusal``, at zero, or well above it.  The
profile is derandomised and keeps no database, so every run checks the
same examples.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reduction_lab import matcore
from reduction_lab.errors import NotAMeasurementOfAError, NumericalConsistencyError
from reduction_lab.instrument import (
    instrument_from_operation,
    nonselective,
    outcome_probability,
    reduce,
    verify_dual_lemma,
    verify_theorem1,
)
from reduction_lab.matcore import PROBABILITY_FLOOR, ROUNDOFF_TOL, UNIT_TOL, VERIFY_TOL
from reduction_lab.models import (
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
    DensityOperator,
    PureState,
    clamp_probability,
    maximally_mixed,
    observable_from_hermitian,
)
from reduction_lab.superop import apply

from conftest import is_psd, small_probability_case

profile = settings(max_examples=25, derandomize=True, database=None, deadline=None)


@st.composite
def faithful_inputs(draw):
    """(observable, d_a, seed, sigma rank) for ``random_faithful_model``."""
    ds = draw(st.integers(2, 4))
    # a cut after level i ends an outcome's eigenspace there
    split = draw(st.lists(st.booleans(), min_size=ds - 1, max_size=ds - 1))
    cuts = [i + 1 for i, cut in enumerate(split) if cut]
    multiplicities = np.diff([0, *cuts, ds])
    n = len(multiplicities)
    rank = draw(st.integers(1, 2))
    # every apparatus sector must hold the support of sigma
    da = draw(st.integers(n * rank, n * rank + 2))
    seed = draw(st.integers(0, 2**32 - 1))
    v = haar_unitary(ds, np.random.default_rng(seed))
    levels = np.repeat(np.arange(n, dtype=float), multiplicities)
    obs = observable_from_hermitian((v * levels) @ v.conj().T)
    assert [int(round(np.trace(p).real)) for _, p in obs.outcomes] == list(multiplicities)
    return obs, da, seed, rank


def _assert_same_arrays(ins, other):
    assert np.array_equal(ins.total.rep, other.total.rep)
    for a, t in ins.components.items():
        # each component keeps the Kraus stack it was built from
        assert t.kraus is not None
        assert np.array_equal(t.rep, other.components[a].rep)
        assert np.array_equal(t.kraus, other.components[a].kraus)


@profile
@given(faithful_inputs())
def test_faithful_models_satisfy_the_paper_identities(inputs):
    obs, da, seed, rank = inputs
    model = random_faithful_model(obs, da, seed, sigma_rank=rank)
    assert probe_consistency(model).passed
    ins = instrument_of(model)
    # the operation formula on the model's operation is the dilation route
    _assert_same_arrays(ins, instrument_from_operation(operation_of(model), obs))
    # the probe route gives the same instrument
    probe = probe_instrument_of(model)
    for a, t in ins.components.items():
        assert matcore.max_abs(t.rep - probe.components[a].rep) <= VERIFY_TOL
    assert verify_theorem1(ins, trials=5, seed=seed).passed
    assert verify_dual_lemma(ins, trials=5, seed=seed).passed
    if len(obs.outcomes) > 1:
        # swapping the first two probe projectors breaks the Born rule there
        with pytest.raises(NotAMeasurementOfAError) as err:
            instrument_of(random_biased_model(obs, da, seed))
        assert err.value.outcome in [a for a, _ in obs.outcomes[:2]]


@st.composite
def von_neumann_inputs(draw):
    """(nondegenerate observable, d_a, seed) for ``von_neumann_model``."""
    ds = draw(st.integers(2, 4))
    da = draw(st.integers(ds, ds + 2))
    seed = draw(st.integers(0, 2**32 - 1))
    v = haar_unitary(ds, np.random.default_rng(seed))
    obs = observable_from_hermitian((v * np.arange(ds, dtype=float)) @ v.conj().T)
    assert len(obs.outcomes) == ds
    return obs, da, seed


@profile
@given(von_neumann_inputs())
def test_von_neumann_models_satisfy_the_paper_identities(inputs):
    obs, da, seed = inputs
    model = von_neumann_model(obs, da, seed=seed)
    q = model.probe.outcomes[0][1]
    # the pointer basis is not the apparatus basis
    assert matcore.max_abs(q - np.diag(np.diag(q))) > 1e-3
    assert probe_consistency(model).passed
    ins = instrument_of(model)
    probe = probe_instrument_of(model)
    for a, t in ins.components.items():
        assert matcore.max_abs(t.rep - probe.components[a].rep) <= VERIFY_TOL
    assert verify_theorem1(ins, trials=5, seed=seed).passed
    assert verify_dual_lemma(ins, trials=5, seed=seed).passed


@st.composite
def reduction_inputs(draw):
    """Faithful-model inputs, an outcome a and a state of rank 1 or 2 whose
    probability for a is p: each of its vectors has weight p in a's
    eigenspace.  With one outcome, E_a = 1 and p is 1."""
    obs, da, seed, rank = draw(faithful_inputs())
    a = draw(st.sampled_from(obs.eigenvalues))
    p = draw(st.sampled_from([2 * PROBABILITY_FLOOR, 1e-11, 1e-9, 1e-8, 1e-7, 1e-6, 1e-3, 0.5]))
    weights = draw(st.sampled_from([(1.0,), (0.6, 0.4)]))
    rng = np.random.default_rng(seed)
    e = obs.projector(a)
    m = np.zeros((obs.dim, obs.dim), dtype=complex)
    for w in weights:
        g = rng.standard_normal(obs.dim) + 1j * rng.standard_normal(obs.dim)
        inside, outside = e @ g, g - e @ g
        if len(obs.outcomes) == 1:
            psi = g / np.linalg.norm(g)
        else:
            psi = np.sqrt(p) * inside / np.linalg.norm(inside)
            psi += np.sqrt(1 - p) * outside / np.linalg.norm(outside)
        m += w * np.outer(psi, psi.conj())
    return obs, da, seed, rank, a, DensityOperator(m)


def _hermitian_normalised(x):
    """(x + x^dag)/2 over its real trace: the bits ``instrument`` gives its
    built states, which it computes as x + x^dag over its trace."""
    out = (x + x.conj().T) / 2
    return out / np.trace(out).real


def _probability(image):
    return clamp_probability(float(np.real(np.trace(image))))


def _normalised(image):
    """T_a(rho)/p made exactly Hermitian and renormalised, in the
    arithmetic of ``instrument._reduce_image``."""
    return _hermitian_normalised(image / _probability(image))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(reduction_inputs())
def test_states_built_without_the_hermitian_test_keep_the_full_check_verdict(inputs):
    obs, da, seed, rank, a, rho = inputs
    ins = instrument_of(random_faithful_model(obs, da, seed, sigma_rank=rank))
    image = apply(ins.component(a), rho)
    out = _normalised(image)
    # the Hermitian test the built states skip passes and returns out itself
    ok, h, _ = matcore.hermitian_stack(out[None])
    assert ok[0] and np.array_equal(h[0], out)
    try:
        reduced = reduce(ins, a, rho)
    except NumericalConsistencyError:
        # refused exactly where the full check refuses the same matrix
        with pytest.raises(ValueError, match="not PSD"):
            DensityOperator(out)
    else:
        assert np.array_equal(reduced.matrix, out)
        DensityOperator(reduced.matrix)
    averaged = nonselective(ins, rho).matrix
    assert np.array_equal(averaged, _hermitian_normalised(apply(ins.total, rho)))
    DensityOperator(averaged)
    DensityOperator(maximally_mixed(obs.dim).matrix)
    p = outcome_probability(ins, a, rho)
    assert type(p) is float and p == _probability(image)


@st.composite
def psd_edge_cases(draw):
    """``(h, d, source, p)``: an exactly Hermitian n x n matrix, what it
    stands for and, for a conditional state, its outcome probability.  A
    ``"state"`` (n = d of 1-6) or ``"choi"`` matrix (n = d^2, d of 1-3)
    gets a Haar eigenbasis and a spectrum whose lowest eigenvalue is
    -ROUNDOFF_TOL/2 or -ROUNDOFF_TOL times 1 +- 1e-6, where the Cholesky
    factor of ``psd_refusal`` hands over to its ``eigvalsh`` and where that
    decides; 0, with 1 to n - 1 zeros when n > 1; or drawn from [0.5, 1].
    The other eigenvalues lie in [0.5, 1] times the scale, 1 or 1e3; at
    scale 1 a state's spectrum with an edge is normalised to unit trace.
    A ``"pure"`` state is the projector onto a random unit vector, and a
    ``"conditional"`` one is the matrix ``reduce`` builds from
    ``small_probability_case`` at sigma of rank 1: of rank 2 of 4 up to
    its roundoff over p, which fails the PSD test up to about p = 1e-8."""
    source = draw(st.sampled_from(["state", "choi", "pure", "conditional"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if source == "conditional":
        p = draw(st.sampled_from([1e-11, 1e-9, 1e-8, 1e-7, 1e-6, 1e-3, 0.5]))
        ins, a, rho = _conditional_case(p)
        return _normalised(apply(ins.component(a), rho)), 4, source, p
    d = draw(st.integers(1, 3 if source == "choi" else 6))
    if source == "pure":
        g = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return PureState(g / np.linalg.norm(g)).to_density().matrix, d, source, None
    n = d * d if source == "choi" else d
    scale = draw(st.sampled_from([1.0, 1e3]))
    edge = draw(st.sampled_from(["half", "bound", "zero", "positive"]))
    w = rng.uniform(0.5, 1.0, n) * scale
    if edge == "zero":
        w[: draw(st.integers(1, max(n - 1, 1)))] = 0.0
    elif edge != "positive":
        bound = ROUNDOFF_TOL / 2 if edge == "half" else ROUNDOFF_TOL
        w[0] = -bound * (1 + draw(st.sampled_from([-1e-6, 1e-6])))
        if source == "state" and scale == 1.0 and n > 1:
            w[1:] *= (1 - w[0]) / w[1:].sum()
    v = haar_unitary(n, rng)
    h = (v * w) @ v.conj().T
    return (h + h.conj().T) / 2, d, source, None


@functools.lru_cache(maxsize=None)
def _conditional_case(p):
    model, a, psi = small_probability_case(p, 1)
    return instrument_of(model), a, psi.to_density()


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(psd_edge_cases())
def test_psd_refusal_keeps_the_eigenvalue_verdicts_and_messages(case):
    h, d, source, p = case
    # the test before the Cholesky factor: one eigvalsh, fail-closed
    lo = float(np.linalg.eigvalsh(h)[0])
    psd = lo >= -ROUNDOFF_TOL
    refusal = matcore.psd_refusal(h)
    assert (refusal is None) == psd
    assert psd or refusal == lo
    # h is exactly Hermitian, so its Hermitian part has its bits
    assert is_psd(h) == psd
    if source == "choi":
        return
    tr = complex(h.trace())
    if not psd:
        message = f"density operator not PSD (min eigenvalue {lo:.3e})"
    elif not abs(tr - 1.0) <= UNIT_TOL:
        message = f"density operator trace {tr} != 1"
    else:
        message = None
    for build in (DensityOperator, DensityOperator._built):
        if message is None:
            assert np.array_equal(build(h).matrix, h)
        else:
            with pytest.raises(ValueError) as err:
                build(h)
            assert str(err.value) == message
    lowest = []
    if not psd:
        with pytest.raises(NumericalConsistencyError):
            DensityOperator._built(h, lambda x: lowest.append(x) or NumericalConsistencyError())
    assert lowest == ([] if psd else [lo])
    if source == "conditional":
        ins, a, rho = _conditional_case(p)
        if psd:
            assert np.array_equal(reduce(ins, a, rho).matrix, h)
        else:
            with pytest.raises(NumericalConsistencyError) as err:
                reduce(ins, a, rho)
            assert str(err.value).endswith(f"T_a(rho)/p has min eigenvalue {lo:.3e}")
