import numpy as np
import pytest

from reduction_lab import matcore
from reduction_lab.errors import NotCompletelyPositiveError
from reduction_lab.quantum import PAULI_Z, ket, projector_onto
from reduction_lab.superop import (
    Superoperator,
    apply,
    apply_stack,
    choi,
    decompose_stack,
    decompose_trace_class,
    dual,
    is_positive_sampled,
    is_trace_preserving,
    kraus_from_choi,
    matrix_unit,
    superoperator_from_choi,
    trace_of_map,
    vec,
    unvec,
)

from conftest import random_density, random_hermitian, random_matrix


def haar(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_vec_convention(rng):
    # column stacking: vec(AXB) = (B^T kron A) vec(X)
    a, x, b = (random_matrix(rng, 3) for _ in range(3))
    assert np.allclose(np.kron(b.T, a) @ vec(x), vec(a @ x @ b), atol=1e-12)
    assert np.allclose(unvec(vec(x), 3), x)


def test_apply_identity_and_conjugation(rng):
    m = random_matrix(rng, 3)
    assert np.allclose(apply(Superoperator.identity(3), m), m)
    u = haar(rng, 3)
    conj = Superoperator.sandwich(u)
    assert np.allclose(apply(conj, np.eye(3)), np.eye(3), atol=1e-12)
    assert np.allclose(apply(conj, m), u @ m @ u.conj().T, atol=1e-12)


def test_apply_linear_on_decomposition(rng):
    s = Superoperator.sandwich(haar(rng, 3))
    m = random_matrix(rng, 3)
    dec = decompose_trace_class(m)
    l1, l2, l3, l4 = dec.lambdas
    p1, p2, p3, p4 = (p.matrix for p in dec.parts)
    combo = (
        l1 * apply(s, p1) - l2 * apply(s, p2)
        + 1j * l3 * apply(s, p3) - 1j * l4 * apply(s, p4)
    )
    assert np.allclose(apply(s, m), combo, atol=1e-10)


def test_apply_stack_matches_apply(rng):
    s = Superoperator(3, random_matrix(rng, 9))
    ms = np.stack([random_matrix(rng, 3) for _ in range(5)])
    out = apply_stack(s, ms)
    assert out.shape == ms.shape
    for m, image in zip(ms, out):
        assert matcore.max_abs(image - apply(s, m)) <= 1e-13
    with pytest.raises(ValueError):
        apply_stack(s, ms[0])
    with pytest.raises(ValueError):
        apply_stack(s, np.zeros((2, 2, 2)))


def test_decompose_stack_matches_single(rng):
    h = random_hermitian(rng, 3)
    inputs = {
        "hermitian": (h, {2, 3}),
        "anti_hermitian": (1j * h, {0, 1}),
        "psd": (random_density(rng, 3).matrix * 2.5, {1, 2, 3}),
        "zero": (np.zeros((3, 3), dtype=complex), {0, 1, 2, 3}),
        "general": (random_matrix(rng, 3), set()),
    }
    lambdas, parts = decompose_stack(np.stack([m for m, _ in inputs.values()]))
    assert lambdas.shape == (5, 4) and parts.shape == (5, 4, 3, 3)
    for k, (name, (m, empty)) in enumerate(inputs.items()):
        single = decompose_trace_class(m)
        assert np.allclose(lambdas[k], single.lambdas, rtol=0, atol=1e-14), name
        for slot, part in enumerate(single.parts):
            assert matcore.max_abs(parts[k, slot] - part.matrix) <= 1e-14, name
        # empty slots carry weight 0 and the maximally mixed placeholder
        assert {i for i in range(4) if lambdas[k, i] == 0.0} == empty, name
        for i in empty:
            assert np.array_equal(parts[k, i], np.eye(3) / 3), name
        weights = np.array([1, -1, 1j, -1j]) * lambdas[k]
        assert matcore.max_abs(np.einsum("k,kij->ij", weights, parts[k]) - m) <= 1e-12
    with pytest.raises(ValueError):
        decompose_stack(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        decompose_stack(np.full((1, 2, 2), np.inf))


def test_decompose_density_is_first_slot(rng):
    rho = random_density(rng, 3)
    dec = decompose_trace_class(rho.matrix)
    assert np.isclose(dec.lambdas[0], 1.0, atol=1e-12)
    assert np.allclose(dec.parts[0].matrix, rho.matrix, atol=1e-10)
    assert dec.lambdas[1:] == (0.0, 0.0, 0.0)

    neg = decompose_trace_class(-rho.matrix)
    assert np.isclose(neg.lambdas[1], 1.0, atol=1e-12)
    assert neg.lambdas[0] == 0.0


def test_decompose_reassembles(rng):
    m = np.zeros((2, 2), dtype=complex)
    m[0, 1] = 1.0
    assert matcore.max_abs(decompose_trace_class(m).reassemble() - m) <= 1e-12
    for _ in range(1000):
        dim = int(rng.integers(2, 9))
        x = random_matrix(rng, dim)
        dec = decompose_trace_class(x)
        assert matcore.max_abs(dec.reassemble() - x) <= 1e-10 * max(
            matcore.max_abs(x), 1
        )


def test_dual_examples(rng):
    assert dual(Superoperator.identity(3)).equal(Superoperator.identity(3), 1e-12)
    u = haar(rng, 3)
    assert dual(Superoperator.sandwich(u)).equal(
        Superoperator.sandwich(u.conj().T), 1e-12
    )


def test_dual_defining_relation(rng):
    s = Superoperator(3, random_matrix(rng, 9))
    sd = dual(s)
    for _ in range(100):
        x, rho = random_matrix(rng, 3), random_matrix(rng, 3)
        lhs = np.trace(x @ apply(s, rho))
        rhs = np.trace(apply(sd, x) @ rho)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1)


def test_double_dual(rng):
    s = Superoperator(4, random_matrix(rng, 16))
    assert matcore.max_abs(dual(dual(s)).rep - s.rep) <= 1e-12


def test_dual_linear_over_sums(rng):
    parts = [Superoperator(2, random_matrix(rng, 4)) for _ in range(3)]
    total = parts[0] + parts[1] + parts[2]
    summed = dual(parts[0]) + dual(parts[1]) + dual(parts[2])
    assert matcore.max_abs(dual(total).rep - summed.rep) == 0.0


def test_choi_identity_map():
    c = choi(Superoperator.identity(2))
    w = np.linalg.eigvalsh(c.matrix)
    assert np.isclose(np.trace(c.matrix).real, 2.0)
    assert np.isclose(w[-1], 2.0) and np.allclose(w[:-1], 0, atol=1e-12)


def test_choi_depolarizing():
    d = 3
    s = Superoperator.from_function(d, lambda x: np.trace(x) * np.eye(d) / d)
    assert np.allclose(choi(s).matrix, np.eye(d * d) / d, atol=1e-12)


def test_choi_rank_counts_kraus(rng):
    kraus = [random_matrix(rng, 3) * 0.3 for _ in range(2)]
    s = Superoperator.from_kraus(kraus)
    reference = sum(np.kron(k.conj(), k) for k in kraus)
    assert matcore.max_abs(s.rep - reference) <= 1e-12
    assert np.array_equal(Superoperator.from_kraus(np.stack(kraus)).rep, s.rep)
    with pytest.raises(ValueError):
        Superoperator.from_kraus([np.ones((2, 3))])
    with pytest.raises(ValueError):
        Superoperator.from_kraus([np.full((2, 2), np.nan)])
    w = np.linalg.eigvalsh(choi(s).matrix)
    assert np.sum(w > 1e-10) == 2
    assert w[0] >= -1e-10


def test_choi_superoperator_bijection(rng):
    s = Superoperator(3, random_matrix(rng, 9))
    blocks = [[apply(s, matrix_unit(3, i, j)) for j in range(3)] for i in range(3)]
    assert np.array_equal(choi(s).matrix, np.block(blocks))
    back = superoperator_from_choi(choi(s))
    assert matcore.max_abs(back.rep - s.rep) <= 1e-12


def test_kraus_from_choi_reconstruction(rng):
    u = haar(rng, 2)
    ks = kraus_from_choi(choi(Superoperator.sandwich(u)))
    assert len(ks) == 1
    assert np.allclose(np.abs(ks[0]), np.abs(u), atol=1e-10)

    p = projector_onto(ket(2, 0))
    ks = kraus_from_choi(choi(Superoperator.sandwich(p)))
    assert len(ks) == 1
    assert np.allclose(np.abs(ks[0]), p, atol=1e-10)

    raw = [random_matrix(rng, 3) * 0.4 for _ in range(3)]
    s = Superoperator.from_kraus(raw)
    rebuilt = Superoperator.from_kraus(kraus_from_choi(choi(s)))
    assert matcore.max_abs(rebuilt.rep - s.rep) <= 1e-9


def test_kraus_from_choi_rejects_non_cp():
    # the transpose map is positive but not completely positive
    transpose = Superoperator.from_function(2, lambda x: x.T)
    with pytest.raises(NotCompletelyPositiveError) as err:
        kraus_from_choi(choi(transpose))
    assert err.value.most_negative_eigenvalue < -0.5


def test_is_positive_sampled():
    assert is_positive_sampled(Superoperator.identity(2), trials=50, seed=1)
    transpose = Superoperator.from_function(2, lambda x: x.T)
    assert is_positive_sampled(transpose, trials=200, seed=1)
    skew = Superoperator.from_function(2, lambda x: PAULI_Z @ x)
    assert not is_positive_sampled(skew, trials=200, seed=1)
    # deterministic for a fixed seed
    assert is_positive_sampled(transpose, 50, seed=9) == is_positive_sampled(
        transpose, 50, seed=9
    )


def test_trace_of_map(rng):
    rho = random_density(rng, 3)
    u = haar(rng, 3)
    assert np.isclose(trace_of_map(Superoperator.sandwich(u), rho.matrix), 1.0)
    assert trace_of_map(Superoperator.zero(3), rho.matrix) == 0
    assert is_trace_preserving(Superoperator.sandwich(u))
