import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reduction_lab import matcore
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
    ket,
    maximally_mixed,
    observable_from_hermitian,
    projector_onto,
)

from conftest import computed_state_verdict, normalised_reference, plus_state, random_density


def test_density_operator_validation(rng):
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.5, 0.6], [0.6, 0.5]]) * 2)  # trace 2
    with pytest.raises(ValueError):
        DensityOperator(PAULI_Z)  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    for m in (random_density(rng, 2).matrix for _ in range(3)):
        DensityOperator(m)
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


@pytest.mark.parametrize("m, trace_refusal", [
    (np.diag([1.5, -0.5]), None),
    (np.eye(2), "trace (2+0j) != 1"),
    (np.diag([0.5, 0.5 + 1e-9]), "trace (1.000000001+0j) != 1"),
    (np.array([[0.5, 0.5j], [-0.5j, 0.5]]), None),
    (np.array([[0.5, np.inf], [np.inf, 0.5]]), None),
    (np.array([[np.nan, 0], [0, 1]]), None),
    # a finite trace keeps the NaN off the diagonal: the factor fails on
    # it, and the finite scan then refuses it with its own message
    (np.array([[0.5, np.nan], [np.nan, 0.5]]), None),
    # every entry of x + x^dag is finite, but its trace overflows, and
    # x/inf is the zero matrix, which the factor accepts
    (0.5e308 * np.eye(2), "trace (1e+308+0j) != 1"),
], ids=["not_psd", "trace_2", "trace_off", "pure", "inf", "nan", "nan_off_diagonal",
        "trace_overflow"])
def test_built_states_keep_the_constructor_verdicts(m, trace_refusal):
    # exactly Hermitian input: the one constructor of computed states gives
    # the public constructor's state or refusal on the normalised matrix
    m = m.astype(complex)
    if trace_refusal is not None:
        # the trace refusal stays with the public constructor
        match = f"^density operator {re.escape(trace_refusal)}$"
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=match):
            DensityOperator(m)
    verdict = computed_state_verdict(m)
    if not np.isfinite(m).all():
        assert verdict == "matrix has non-finite entries"
    with np.errstate(over="ignore"):
        if np.isinf(matcore.trace(m + m).real):
            assert verdict == "density operator trace 0j != 1"


# NaN, and a real, imaginary or complex infinity, planted at one entry of x
PLANTED = [complex(np.nan, 0), complex(0, np.nan), complex(np.inf, 0), complex(-np.inf, 0),
           complex(0, np.inf), complex(0, -np.inf), complex(np.inf, np.inf),
           complex(-np.inf, np.inf)]


def _planted(base, i, j):
    """``(x, non_finite)`` pairs, where ``non_finite`` tells whether
    x + x^dag has a non-finite entry: base with a non-finite entry at
    (i, j); or finite, with v at (i, j) and conj(v) at (j, i), so that
    x + x^dag is 2v there, past float's range or just below it."""
    for v in PLANTED:
        x = base.copy()
        x[i, j] = v
        yield x, True
    # on the diagonal, x + x^dag keeps only the real part
    for v in (1e308, 1e308j, 1e308 + 1e308j, 0.8e308, 0.8e308j) if i != j else (1e308, 0.8e308):
        x = base.copy()
        x[i, j], x[j, i] = v, np.conj(v)
        yield x, abs(v) > 0.9e308


@settings(max_examples=24, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.booleans())
def test_the_factor_fails_on_every_non_finite_computed_matrix(d, seed, psd):
    # _normalised scans for non-finite entries only when the PSD factor
    # fails: every x whose x + x^dag has a non-finite entry, at every
    # (i, j), is refused with the finite scan's message, in parity with the
    # public constructor, and no accepted state has a non-finite entry
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    base = g @ g.conj().T if psd else g
    assert computed_state_verdict(base) is None or not psd
    for i in range(d):
        for j in range(d):
            for x, non_finite in _planted(base, i, j):
                verdict = computed_state_verdict(x)
                with np.errstate(over="ignore", invalid="ignore"):
                    assert np.isfinite(x + x.conj().T).all() != non_finite
                    if non_finite:
                        assert verdict == "matrix has non-finite entries", (i, j)
                    elif verdict is None:
                        assert np.isfinite(DensityOperator._normalised(x).matrix).all()


def test_maximally_mixed():
    for d in range(1, 9):
        # 2 over 2 d has the bits of 1 over d, and the imaginary parts are +0
        want = (np.eye(d) / d).astype(complex)
        assert maximally_mixed(d).matrix.tobytes() == want.tobytes()
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


def _verdict(check, ms):
    try:
        check(ms)
    except ValueError as err:
        return str(err)
    return None


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(near_bound_stacks())
def test_density_check_keeps_the_norm_form_verdicts(ms):
    # one matrix at a time: the constructor on each, and the one
    # constructor of computed states on each, against the public
    # constructor on the same normalised matrix
    for m in ms:
        assert _verdict(DensityOperator, m) == _verdict(_norm_form_check, m[None])
        normed = normalised_reference(m)
        verdict = _verdict(_norm_form_check, normed[None])
        assert computed_state_verdict(m) == verdict


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(near_bound_stacks(), st.data())
def test_density_check_fails_closed_on_nan(ms, data):
    n, d = ms.shape[:2]
    at = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, d - 1), st.integers(0, d - 1)))
    ms[at] = data.draw(st.sampled_from([complex(np.nan, 0), complex(0, np.nan)]))
    # the Hermitian test fails the matrix with the NaN
    assert not matcore.hermitian_stack(ms)[0][at[0]]
    # the constructor refuses it at its finite scan, before any test
    with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
        DensityOperator(ms[at[0]])


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
    with pytest.raises(ValueError, match="^projectors are not mutually orthogonal$"):
        DiscreteObservable(((1.0, p0), (2.0, p0)))
    with pytest.raises(ValueError, match="^projectors do not sum to the identity$"):
        DiscreteObservable(((1.0, p0),))
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


def test_observable_refuses_projectors_of_two_dimensions():
    p2, p3 = projector_onto(ket(2, 0)), projector_onto(ket(3, 1))
    with pytest.raises(ValueError, match="^projector dimensions disagree$"):
        DiscreteObservable(((1.0, p2), (0.0, p3)))
    with pytest.raises(ser.ParseError, match="^observable: projector dimensions disagree$"):
        ser.observable_from_json({
            "eigenvalues": [1.0, 0.0],
            "projectors": [ser.matrix_to_json(p2), ser.matrix_to_json(p3)],
        })
    # the dimensions are checked before any projector, so a non-projector
    # beside a projector of another dimension is refused by its dimension
    with pytest.raises(ValueError, match="^projector dimensions disagree$"):
        DiscreteObservable(((1.0, 2 * p2), (0.0, p3)))


def test_observable_keeps_its_projectors_as_one_read_only_stack():
    p0, p1 = projector_onto(ket(2, 0)), projector_onto(ket(2, 1))
    obs = DiscreteObservable(((1.0, p1), (-1.0, p0)))
    assert obs.projectors.shape == (2, 2, 2)
    # in the order of ``outcomes``, not of the eigenvalues
    assert np.array_equal(obs.projectors, [p1, p0])
    for k, (_, p) in enumerate(obs.outcomes):
        assert np.array_equal(obs.projectors[k], p)
    assert not obs.projectors.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        obs.projectors[0, 0, 0] = 0


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
