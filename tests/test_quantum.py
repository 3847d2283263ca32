import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reduction_lab import serialization as ser
from reduction_lab.errors import NumericalConsistencyError
from reduction_lab.matcore import ROUNDOFF_TOL, UNIT_TOL
from reduction_lab.quantum import (
    PAULI_X,
    PAULI_Z,
    DensityOperator,
    DiscreteObservable,
    PureState,
    born_probability,
    check_density_stack,
    ket,
    maximally_mixed,
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
    bad = [
        ("trace", np.eye(2)),
        ("PSD", PAULI_Z),
        ("Hermitian", np.array([[0.5, 0.5], [0.0, 0.5]])),
        # ||m||^2 overflows to inf; an inf bound must not pass the skew part
        ("Hermitian", np.array([[0.5, 1e200], [-1e200, 0.5]])),  # Hermitian part I/2
        ("PSD", np.array([[0.5, 1e200], [1e200, 0.5]])),
    ]
    for word, m in bad:
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=word):
            DensityOperator(m)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=word):
            check_density_stack(np.concatenate([good, [m.astype(complex)]]))


@pytest.mark.parametrize("m", [
    np.diag([1.5, -0.5]),
    np.eye(2),
    np.diag([0.5, 0.5 + 1e-9]),
    np.array([[0.5, 0.5j], [-0.5j, 0.5]]),
    np.array([[0.5, np.inf], [np.inf, 0.5]]),
    np.array([[np.nan, 0], [0, 1]]),
], ids=["not_psd", "trace_2", "trace_off", "pure", "inf", "nan"])
def test_built_states_keep_the_constructor_verdicts(m):
    # exactly Hermitian input, as the library builds it: the same state or
    # the same refusal, bit for bit and word for word
    m = m.astype(complex)
    try:
        want = DensityOperator(m)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            DensityOperator._built(m)
        assert str(got.value) == str(err) and type(got.value) is ValueError
    else:
        assert DensityOperator._built(m).matrix.tobytes() == want.matrix.tobytes()


def test_maximally_mixed():
    for d in (1, 2, 5):
        assert np.array_equal(maximally_mixed(d).matrix, np.eye(d) / d)
    with pytest.raises(ValueError, match="^matrix dimension must be >= 1$"):
        maximally_mixed(0)


def _norm_form_check(ms):
    """The check before it compared squared norms: the same three bounds,
    written with axis norms and ``np.any``; the reference for its
    verdicts and messages."""
    adj = ms.conj().swapaxes(-1, -2)
    scale = np.maximum(np.linalg.norm(ms, axis=(-2, -1)), 1.0)
    if np.any(np.linalg.norm(ms - adj, axis=(-2, -1)) > ROUNDOFF_TOL * scale):
        raise ValueError("density operator must be Hermitian")
    lo = np.linalg.eigvalsh((ms + adj) / 2)[:, 0]
    if np.any(lo < -ROUNDOFF_TOL):
        raise ValueError(f"density operator not PSD (min eigenvalue {lo.min():.3e})")
    tr = np.trace(ms, axis1=-2, axis2=-1)
    off = np.abs(tr - 1.0) > UNIT_TOL
    if np.any(off):
        raise ValueError(f"density operator trace {complex(tr[off][0])} != 1")


@st.composite
def near_bound_stacks(draw):
    """An (n, d, d) stack of random states, d 1-6 and n 1-3, with one
    matrix moved to within 1e-6 relative of the Hermitian, PSD or trace
    bound, on either side of it."""
    d, n = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    ms = g @ g.conj().swapaxes(-1, -2)
    ms /= np.trace(ms, axis1=-2, axis2=-1).real[:, None, None]
    m = ms[draw(st.integers(0, n - 1))]
    edge = 1.0 + draw(st.floats(-1e-6, 1e-6))
    bound = draw(st.sampled_from(["hermitian", "psd", "trace"]))
    if bound == "hermitian":
        # a norm above 1 takes the relative branch of the bound
        m *= draw(st.sampled_from([1.0, 1e3]))
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        skew = h - h.conj().T  # m - m^dag once added
        target = ROUNDOFF_TOL * max(np.linalg.norm(m), 1.0) * edge
        m += skew * (target / (2 * np.linalg.norm(skew)))
    elif bound == "psd":
        w, v = np.linalg.eigh(m)
        w[0] = -ROUNDOFF_TOL * edge
        w[-1] += 1.0 - w.sum()
        m[...] = (v * w) @ v.conj().T
    else:
        m += np.eye(d) * (draw(st.sampled_from([-1.0, 1.0])) * UNIT_TOL * edge / d)
    return ms


def test_density_check_accepts_an_empty_stack():
    # a verifier run with no samples checks no parts
    check_density_stack(np.zeros((0, 2, 2), dtype=complex))


def _verdict(check, ms):
    try:
        check(ms)
    except ValueError as err:
        return str(err)
    return None


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(near_bound_stacks())
def test_density_check_keeps_the_norm_form_verdicts(ms):
    assert _verdict(check_density_stack, ms) == _verdict(_norm_form_check, ms)


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(near_bound_stacks(), st.data())
def test_density_check_fails_closed_on_nan(ms, data):
    n, d = ms.shape[:2]
    at = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, d - 1), st.integers(0, d - 1)))
    ms[at] = data.draw(st.sampled_from([complex(np.nan, 0), complex(0, np.nan)]))
    with pytest.raises(ValueError, match="Hermitian"):
        check_density_stack(ms)


def test_pure_state_norm():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]))
    s = PureState(np.array([1, 1]) / np.sqrt(2))
    assert np.allclose(s.to_density().matrix, np.full((2, 2), 0.5))


def test_pure_state_rejects_a_nan_norm():
    with pytest.raises(ValueError, match="nan"):
        PureState(np.array([np.nan, 0]))


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
    # ||m||^2 overflows, so a bound that scales with ||m|| is infinite
    huge_skew = np.array([[0.5, 1e200], [-1e200, 0.5]], dtype=complex)
    # idempotent, orthogonal and complete, but not Hermitian
    oblique = np.array([[1, 1e200], [0, 0]], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for route in (
            lambda: observable_from_hermitian(huge_skew),
            lambda: DiscreteObservable(((0.5, huge_skew),)),
            lambda: DiscreteObservable(((1.0, oblique), (0.0, np.eye(2) - oblique))),
            lambda: ser.observable_from_json({"hermitian": ser.matrix_to_json(huge_skew)}),
            lambda: ser.observable_from_json({
                "eigenvalues": [1.0, 0.0],
                "projectors": [ser.matrix_to_json(oblique),
                               ser.matrix_to_json(np.eye(2) - oblique)],
            }),
        ):
            with pytest.raises(ValueError, match="Hermitian|orthogonal projector"):
                route()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_observable_refuses_a_non_finite_eigenvalue(value):
    p0, p1 = projector_onto(ket(2, 0)), projector_onto(ket(2, 1))
    with pytest.raises(ValueError, match="not finite"):
        DiscreteObservable(((value, p0), (1.0, p1)))


def test_observable_from_a_hermitian_matrix_near_float_range():
    # (h + h^dag)/2 overflows here, and used to give the outcomes (nan, nan)
    with np.errstate(over="ignore"):
        obs = observable_from_hermitian(np.diag([1e308, -1e308]).astype(complex))
        # a degenerate level whose plain mean overflows
        merged = observable_from_hermitian(1.7e308 * np.eye(2))
    assert obs.eigenvalues == (-1e308, 1e308)
    assert merged.eigenvalues == (1.7e308,)


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
    mixed = DensityOperator(0.3 * r1.matrix + 0.7 * r2.matrix)
    for a in obs.eigenvalues:
        expected = 0.3 * born_probability(obs, a, r1) + 0.7 * born_probability(obs, a, r2)
        assert np.isclose(born_probability(obs, a, mixed), expected, atol=1e-12)


def test_born_out_of_band_raises():
    obs = observable_from_hermitian(PAULI_Z)
    bad = DensityOperator.__new__(DensityOperator)
    object.__setattr__(bad, "matrix", np.diag([2.0, -1.0]).astype(complex))
    with pytest.raises(NumericalConsistencyError):
        born_probability(obs, 1.0, bad)
